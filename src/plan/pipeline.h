#ifndef AQE_PLAN_PIPELINE_H_
#define AQE_PLAN_PIPELINE_H_

#include <string>
#include <variant>
#include <vector>

#include "plan/expr.h"
#include "runtime/agg_hash_table.h"
#include "storage/column.h"

namespace aqe {

enum class JoinKind : uint8_t { kInner, kSemi, kAnti };

/// In-pipeline operators, applied per tuple in order. Each tuple flows as a
/// growing vector of slots: the scan materializes `scan_columns` into slots
/// 0..k-1; kCompute appends one slot; an inner kProbe appends the build
/// payload slots.
struct OpFilter {
  ExprPtr predicate;  ///< Bool; tuples failing it are dropped
};
struct OpCompute {
  ExprPtr expr;  ///< appended as a new slot
};
struct OpProbe {
  int ht = 0;     ///< QueryProgram hash-table id
  ExprPtr key;    ///< i64 probe key
  int payload_slots = 0;  ///< build payload values appended (inner only)
  JoinKind kind = JoinKind::kInner;
};
using PipelineOp = std::variant<OpFilter, OpCompute, OpProbe>;

struct AggItem {
  AggKind kind;
  ExprPtr value;        ///< ignored for kCount
  bool checked = true;  ///< overflow-checked update (sums)
};

/// Pipeline sinks (the "breaker" side of the pipeline).
struct SinkBuild {
  int ht = 0;
  ExprPtr key;
  std::vector<ExprPtr> payload;
};
struct SinkAgg {
  int agg = 0;   ///< QueryProgram aggregation id
  ExprPtr key;   ///< packed group key (i64)
  std::vector<AggItem> items;
};
struct SinkOutput {
  int output = 0;  ///< QueryProgram output-buffer id
  std::vector<ExprPtr> values;
};
using PipelineSink = std::variant<SinkBuild, SinkAgg, SinkOutput>;

/// One query pipeline (§III-A): a scan over a base table, a chain of
/// per-tuple operators, and a sink. Compiled into one worker function
/// `worker(state, begin, end, extra)` over the scan's row range.
struct PipelineSpec {
  std::string name;            ///< e.g. "scan lineitem"
  int source_table = 0;        ///< QueryProgram table id
  std::vector<int> scan_columns;  ///< column indices in the source table
  std::vector<PipelineOp> ops;
  PipelineSink sink;
};

/// Slot types after the scan and each op (needed by codegen and baselines).
/// `column_types` are the storage types of the scanned columns.
std::vector<ExprType> ComputeSlotTypes(const PipelineSpec& spec,
                                       const std::vector<DataType>& column_types);

/// Deep copy of a pipeline spec (expression trees cloned). Used by the plan
/// fingerprint's sentinel translation (src/cache/).
PipelineSpec ClonePipelineSpec(const PipelineSpec& spec);

}  // namespace aqe

#endif  // AQE_PLAN_PIPELINE_H_
