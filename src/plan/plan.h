#ifndef AQE_PLAN_PLAN_H_
#define AQE_PLAN_PLAN_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "plan/pipeline.h"
#include "runtime/agg_hash_table.h"
#include "runtime/join_hash_table.h"
#include "runtime/output_buffer.h"
#include "runtime/sorter.h"
#include "storage/table.h"
#include "strings/string_predicate.h"

namespace aqe {

class QueryMemoryTracker;

/// Runtime state of one query execution: the hash tables, aggregation
/// tables, output buffers and temporary tables declared by its
/// QueryProgram, plus the final result rows. Created fresh per run.
struct QueryContext {
  /// Per-query memory accounting (null when the run is untracked, e.g.
  /// standalone runner/test pipelines). Engine steps that create runtime
  /// structures pass memory.get() so their allocations are charged.
  /// Declared first: destroyed last, after every charged structure below
  /// has run its destructor (which calls tracker->Release()).
  std::shared_ptr<QueryMemoryTracker> memory;
  const Catalog* catalog = nullptr;
  std::vector<std::unique_ptr<JoinHashTable>> join_tables;
  std::vector<std::unique_ptr<AggHashTableSet>> agg_sets;
  std::vector<std::unique_ptr<OutputBuffer>> outputs;
  std::vector<std::unique_ptr<Table>> temp_tables;
  /// The query result (after the final engine step).
  std::vector<std::vector<int64_t>> result;

  /// Attaches the tracker and forwards it to the already-created agg sets
  /// and output buffers (join tables are created later by engine steps,
  /// which read `memory` themselves).
  void AttachMemoryTracker(std::shared_ptr<QueryMemoryTracker> tracker);
};

/// A complete executable query: declarations of runtime objects, the
/// compiled pipelines, and the interleaved engine steps (the C++ part the
/// paper assigns to queryStart: creating hash tables, reading aggregation
/// results, sorting, …). Two finalizations are not steps but the engine's
/// own work, so it can spread them over its workers: it merges an
/// aggregation set's partitions when the pipeline that fills it finishes,
/// and seals a join table before the first pipeline that probes it binds.
/// Built once by a query builder; executable many times under any
/// engine/mode.
class QueryProgram {
 public:
  explicit QueryProgram(std::string name) : name_(std::move(name)) {}

  QueryProgram(const QueryProgram&) = delete;
  QueryProgram& operator=(const QueryProgram&) = delete;
  QueryProgram(QueryProgram&&) = default;

  const std::string& name() const { return name_; }

  // --- declarations ---------------------------------------------------------
  /// Declares a join hash table with `payload_slots` 8-byte payload values.
  /// The table itself is created by an engine step. It needs no cardinality
  /// estimate: it sizes its directory to the entries its build inserted
  /// when the first pipeline that probes it binds (JoinHashTable::Seal).
  int DeclareJoinTable(uint32_t payload_slots);
  /// Declares an aggregation table set with one slot per entry of `kinds`
  /// (a SinkAgg's item kinds, in order). The engine merges it by these
  /// kinds when the pipeline that fills it finishes, so the engine steps
  /// that follow read merged groups (AggHashTableSet::ForEach).
  int DeclareAggSet(std::vector<AggKind> kinds);
  /// Declares an output buffer of `row_slots` 8-byte values per row.
  int DeclareOutput(uint32_t row_slots);
  /// Declares a base table by name; returns a table id for pipelines.
  int DeclareBaseTable(const std::string& name);
  /// Declares a temporary table (filled by an engine step); the temp index
  /// equals the id order of declaration among temps.
  int DeclareTempTable();
  /// Stores a dictionary-predicate bitmap; the pointer stays valid for the
  /// program's lifetime (Expr::bitmap references it).
  const uint8_t* AddBitmap(std::vector<uint8_t> bitmap);
  /// Stores a compiled LIKE predicate (the runtime-call path's matcher
  /// object); the pointer stays valid for the program's lifetime
  /// (Expr::like_pred references it).
  const LikePredicate* AddLikePredicate(LikePredicate pred);

  // --- stages -----------------------------------------------------------------
  using EngineStep = std::function<void(QueryContext*)>;
  /// Appends a generated pipeline stage; returns the pipeline id.
  int AddPipeline(PipelineSpec spec);
  /// Appends a C++ engine step.
  void AddStep(EngineStep step);

  /// Creates the QueryContext (allocating agg sets / outputs from their
  /// declarations; join tables stay null until an engine step creates them).
  std::unique_ptr<QueryContext> MakeContext(const Catalog* catalog) const;

  /// Resolves a pipeline's source table in a context.
  const Table* ResolveTable(int table_id, const QueryContext& ctx) const;

  // --- introspection ----------------------------------------------------------
  struct Stage {
    int pipeline = -1;   ///< >= 0 for pipeline stages
    EngineStep step;     ///< set for engine steps
  };
  const std::vector<Stage>& stages() const { return stages_; }
  const std::vector<PipelineSpec>& pipelines() const { return pipelines_; }
  int num_join_tables() const { return static_cast<int>(join_payload_slots_.size()); }
  uint32_t join_payload_slots(int id) const {
    return join_payload_slots_[static_cast<size_t>(id)];
  }
  int num_agg_sets() const { return static_cast<int>(agg_decls_.size()); }
  int num_outputs() const { return static_cast<int>(output_slots_.size()); }
  /// Predicate bitmaps in AddBitmap order (their index is the bitmap's slot
  /// in the worker binding array; plan fingerprinting hashes the index, not
  /// the address).
  const std::vector<std::unique_ptr<std::vector<uint8_t>>>& bitmaps() const {
    return bitmaps_;
  }
  /// LIKE predicates in AddLikePredicate order (their index is the
  /// predicate's slot in the worker binding array; fingerprinting hashes
  /// the index and extracts the pattern as a literal).
  const std::vector<std::unique_ptr<LikePredicate>>& like_predicates() const {
    return like_predicates_;
  }
  struct TableDeclView {
    const std::string* base_name;  ///< nullptr for temps
    int temp_index;
  };
  TableDeclView table_decl(int id) const {
    const TableDecl& decl = tables_[static_cast<size_t>(id)];
    return {decl.temp_index >= 0 ? nullptr : &decl.base_name,
            decl.temp_index};
  }

 private:
  std::string name_;
  std::vector<uint32_t> join_payload_slots_;
  std::vector<std::vector<AggKind>> agg_decls_;
  std::vector<uint32_t> output_slots_;
  struct TableDecl {
    std::string base_name;  // empty for temps
    int temp_index = -1;
  };
  std::vector<TableDecl> tables_;
  int num_temps_ = 0;
  std::vector<std::unique_ptr<std::vector<uint8_t>>> bitmaps_;
  std::vector<std::unique_ptr<LikePredicate>> like_predicates_;
  std::vector<PipelineSpec> pipelines_;
  std::vector<Stage> stages_;
};

}  // namespace aqe

#endif  // AQE_PLAN_PLAN_H_
