#ifndef AQE_PLAN_BUILDER_H_
#define AQE_PLAN_BUILDER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "plan/plan.h"

namespace aqe {

class PlanBuilder;

/// A join table, as a build sink or StepGroupsToJoinTable declared it: its
/// id and its payload's names, which an inner probe appends to the probing
/// pipeline.
struct JoinRef {
  int id = -1;
  std::vector<std::string> payload;
};

/// One named aggregate of Pipe::Aggregate.
struct Agg {
  std::string name;
  AggKind kind;
  ExprPtr value;        ///< null for kCount
  bool checked = true;  ///< overflow-checked update (sums)
};

/// Collects move-only aggregates into a vector (a brace list would copy).
template <typename... Items>
std::vector<Agg> Aggs(Items... items) {
  std::vector<Agg> list;
  list.reserve(sizeof...(items));
  (list.push_back(std::move(items)), ...);
  return list;
}

/// An aggregation set a pipeline filled. A group's slots, as engine steps
/// read them, are [key, the aggregates in order]; `agg["name"]` is the
/// aggregate's slot.
struct AggRef {
  int id = -1;
  std::vector<std::string> names;

  /// The group key's slot.
  static ExprPtr key() { return Slot(0); }
  /// The slot of aggregate `name` in a group (CHECK-fails if unknown).
  uint32_t slot(std::string_view name) const;
  ExprPtr operator[](std::string_view name) const;
};

/// One pipeline being written: its slots by name, in the order the scan,
/// the computes and the inner probes append them. Ops are added in call
/// order; a sink ends the pipeline and adds it to the program.
class Pipe {
 public:
  /// The slot named `name` (CHECK-fails if unknown).
  int slot(std::string_view name) const;
  ExprPtr operator[](std::string_view name) const;

  Pipe& Filter(ExprPtr predicate);
  /// Appends `expr` as the slot `name`.
  Pipe& Compute(std::string name, ExprPtr expr);
  /// Probes `join` with `key`; an inner probe appends the join's payload.
  Pipe& Probe(const JoinRef& join, ExprPtr key,
              JoinKind kind = JoinKind::kInner);

  /// Sink: inserts `key` with the named payload slots into a new join table
  /// as wide as the payload.
  JoinRef Build(ExprPtr key, const std::vector<std::string>& payload = {});
  /// Sink: folds `aggs` per `key` into a new aggregation set declared with
  /// their kinds.
  AggRef Aggregate(ExprPtr key, std::vector<Agg> aggs);
  /// Sink: appends the named slots as one row of a new output buffer;
  /// returns its id.
  int Output(const std::vector<std::string>& values);

 private:
  friend class PlanBuilder;
  Pipe(PlanBuilder* builder, PipelineSpec spec)
      : builder_(builder), spec_(std::move(spec)) {}

  void AddSlot(std::string name);
  void Finish(PipelineSink sink);

  PlanBuilder* builder_;
  PipelineSpec spec_;
  std::vector<std::string> slots_;
  bool finished_ = false;
};

/// Writes a QueryProgram one pipeline and step at a time, in call order:
/// a base table is declared by the first Scan of it, and a join table,
/// aggregation set or output buffer by the sink or step that fills it, so
/// every id follows the order the plan's author wrote.
class PlanBuilder {
 public:
  PlanBuilder(const Catalog& catalog, std::string name)
      : catalog_(catalog), program_(std::move(name)) {}

  /// Starts a pipeline that scans `columns` of `table` into slots of the
  /// same names.
  Pipe Scan(std::string pipeline_name, const std::string& table,
            const std::vector<std::string>& columns);
  /// Step: inserts the groups of `agg` that pass `filter` (null: all) into
  /// a new join table, with the aggregates as its payload.
  JoinRef GroupsToJoin(const AggRef& agg, ExprPtr filter = nullptr);
  void Step(EngineStep step) { program_.AddStep(std::move(step)); }

  /// The dictionary code of `value` in `table.column` (CHECK-fails if the
  /// value does not occur).
  int64_t Code(const std::string& table, const std::string& column,
               const std::string& value) const;

  const Catalog& catalog() const { return catalog_; }
  /// The program so far, for bitmaps and LIKE lowering.
  QueryProgram& program() { return program_; }
  QueryProgram Take() { return std::move(program_); }

 private:
  const Catalog& catalog_;
  QueryProgram program_;
};

}  // namespace aqe

#endif  // AQE_PLAN_BUILDER_H_
