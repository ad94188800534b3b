#ifndef AQE_PLAN_PLAN_H_
#define AQE_PLAN_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "plan/pipeline.h"
#include "plan/step.h"
#include "runtime/agg_hash_table.h"
#include "runtime/join_hash_table.h"
#include "runtime/output_buffer.h"
#include "storage/table.h"
#include "strings/string_predicate.h"

namespace aqe {

class QueryMemoryTracker;

/// Runtime state of one query execution: the join tables, aggregation
/// sets and output buffers declared by its QueryProgram, plus the final
/// result rows. Created fresh per run by QueryProgram::MakeContext.
struct QueryContext {
  const Catalog* catalog = nullptr;
  std::vector<std::unique_ptr<JoinHashTable>> join_tables;
  std::vector<std::unique_ptr<AggHashTableSet>> agg_sets;
  std::vector<std::unique_ptr<OutputBuffer>> outputs;
  /// The query result (after the final engine step).
  std::vector<std::vector<int64_t>> result;
};

/// What the volcano and vectorized workers interpret: a pipeline, its
/// resolved source table and the context whose tables it probes and fills.
struct InterpretedPipeline {
  const PipelineSpec* spec = nullptr;
  const Table* source = nullptr;
  QueryContext* ctx = nullptr;
};

/// A complete executable query: declarations of runtime objects, the
/// compiled pipelines, and the engine steps between them. The steps are
/// the C++ part the paper assigns to queryStart, as a closed set of typed
/// steps (plan/step.h):
///  - creating the hash tables is no step: MakeContext creates every
///    declared join table, aggregation set and output buffer;
///  - reading aggregation results is StepReadGroups (a projection per
///    group, HAVING as a row filter, the one row of an aggregate without
///    GROUP BY), StepReadOutput or StepCountBy;
///  - sorting is StepSort, and a limit StepTopK;
///  - building a join table from an aggregation is StepGroupsToJoinTable.
/// Two finalizations are not steps but the engine's own work, so it can
/// spread them over its workers: it merges an aggregation set's partitions
/// when the pipeline that fills it finishes, and seals a join table before
/// the first pipeline that probes it binds. Built once by a query builder;
/// executable many times under any engine/mode.
class QueryProgram {
 public:
  explicit QueryProgram(std::string name) : name_(std::move(name)) {}

  QueryProgram(const QueryProgram&) = delete;
  QueryProgram& operator=(const QueryProgram&) = delete;
  QueryProgram(QueryProgram&&) = default;

  const std::string& name() const { return name_; }

  // --- declarations ---------------------------------------------------------
  /// Declares a join hash table with `payload_slots` 8-byte payload values.
  /// It needs no cardinality estimate: it sizes its directory to the
  /// entries its build inserted when the first pipeline that probes it
  /// binds (JoinHashTable::Seal).
  int DeclareJoinTable(uint32_t payload_slots);
  /// Declares an aggregation table set with one slot per entry of `kinds`
  /// (a SinkAgg's item kinds, in order). The engine merges it by these
  /// kinds when the pipeline that fills it finishes, so the engine steps
  /// that follow read merged groups (AggHashTableSet::ForEach).
  int DeclareAggSet(std::vector<AggKind> kinds);
  /// Declares an output buffer of `row_slots` 8-byte values per row.
  int DeclareOutput(uint32_t row_slots);
  /// Declares a base table by name; returns a table id for pipelines (the
  /// same id for every declaration of one name).
  int DeclareBaseTable(const std::string& name);
  /// Stores a dictionary-predicate bitmap; the pointer stays valid for the
  /// program's lifetime (Expr::bitmap references it).
  const uint8_t* AddBitmap(std::vector<uint8_t> bitmap);
  /// Stores a compiled LIKE predicate (the runtime-call path's matcher
  /// object); the pointer stays valid for the program's lifetime
  /// (Expr::like_pred references it).
  const LikePredicate* AddLikePredicate(LikePredicate pred);

  // --- stages -----------------------------------------------------------------
  /// Appends a generated pipeline stage; returns the pipeline id. CHECKs
  /// that every table, join-table, aggregation-set and output id is
  /// declared, and that each count generated code moves matches its
  /// declaration: an inner probe's `payload_slots` (0 for semi and anti)
  /// and a build's payload the join table's width, an aggregation's item
  /// kinds the set's kinds, and an output's values the buffer's width.
  int AddPipeline(PipelineSpec spec);
  /// Appends an engine step. CHECKs that a StepGroupsToJoinTable's
  /// aggregation payload is as wide as its join table's.
  void AddStep(EngineStep step);

  /// Creates the QueryContext with every declared join table, aggregation
  /// set and output buffer, each charged to `memory` (may be null; it must
  /// outlive the context).
  std::unique_ptr<QueryContext> MakeContext(
      const Catalog* catalog, QueryMemoryTracker* memory = nullptr) const;

  /// Resolves a pipeline's source table in a context.
  const Table* ResolveTable(int table_id, const QueryContext& ctx) const;

  // --- introspection ----------------------------------------------------------
  /// One stage: a pipeline id or a step id, the other -1.
  struct Stage {
    int pipeline = -1;
    int step = -1;
  };
  const std::vector<Stage>& stages() const { return stages_; }
  const std::vector<PipelineSpec>& pipelines() const { return pipelines_; }
  const std::vector<EngineStep>& steps() const { return steps_; }
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
  const std::string& table_name(int id) const {
    return tables_[static_cast<size_t>(id)];
  }

 private:
  std::string name_;
  std::vector<uint32_t> join_payload_slots_;
  std::vector<std::vector<AggKind>> agg_decls_;
  std::vector<uint32_t> output_slots_;
  std::vector<std::string> tables_;
  std::vector<std::unique_ptr<std::vector<uint8_t>>> bitmaps_;
  std::vector<std::unique_ptr<LikePredicate>> like_predicates_;
  std::vector<PipelineSpec> pipelines_;
  std::vector<EngineStep> steps_;
  std::vector<Stage> stages_;
};

}  // namespace aqe

#endif  // AQE_PLAN_PLAN_H_
