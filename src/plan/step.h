#ifndef AQE_PLAN_STEP_H_
#define AQE_PLAN_STEP_H_

#include <cstdint>
#include <variant>
#include <vector>

#include "plan/expr.h"
#include "runtime/sorter.h"

namespace aqe {

/// Engine steps: the C++ the paper runs in queryStart between generated
/// pipelines, as plain data. Each kind reads or rewrites the query
/// context (RunStep below); every expression is evaluated with EvalExpr
/// over the step's slots.

/// One row template of StepReadGroups: evaluated per group, it appends
/// `columns` as one result row where `filter` (null: always) holds.
struct GroupRow {
  ExprPtr filter;
  std::vector<ExprPtr> columns;
};

/// Reads the merged aggregation set `agg` into result rows. The slots of a
/// group are [key, payload...], then, with `scalar_agg` set, the payload
/// of that set's single group (zeros when it has none). Each group emits
/// one row per template whose filter holds. A `scalar` read (exactly one
/// template) emits one all-zero row when the set has no group: SQL's
/// aggregate without GROUP BY.
struct StepReadGroups {
  int agg = -1;
  std::vector<GroupRow> rows;
  bool scalar = false;
  int scalar_agg = -1;
};

/// Replaces the result with the rows of output buffer `output`.
struct StepReadOutput {
  int output = -1;
};

/// Appends one row {value, count} per distinct value of slot `column` of
/// the merged aggregation set `agg`'s groups ([key, payload...]), in
/// ascending value order.
struct StepCountBy {
  int agg = -1;
  uint32_t column = 0;
};

/// Sorts the result rows (stable).
struct StepSort {
  std::vector<SortKey> keys;
};

/// Sorts the result rows and keeps the first `k`.
struct StepTopK {
  std::vector<SortKey> keys;
  uint64_t k = 0;
};

/// Inserts each group of the merged aggregation set `agg` whose slots
/// [key, payload...] pass `filter` (null: all) into join table `ht`, keyed
/// by the group key, with the group's payload (as wide as `ht`'s). The
/// first pipeline that probes `ht` seals it.
struct StepGroupsToJoinTable {
  int agg = -1;
  int ht = -1;
  ExprPtr filter;
};

using EngineStep = std::variant<StepReadGroups, StepReadOutput, StepCountBy,
                                StepSort, StepTopK, StepGroupsToJoinTable>;

/// A read of `agg` through one row template.
StepReadGroups ReadGroups(int agg, std::vector<ExprPtr> columns,
                          ExprPtr filter = nullptr, bool scalar = false);

struct QueryContext;

/// Runs one engine step on a query's context. Every engine runs the same
/// steps, on the query's thread, once the aggregation sets they read are
/// merged.
void RunStep(const EngineStep& step, QueryContext* ctx);

}  // namespace aqe

#endif  // AQE_PLAN_STEP_H_
