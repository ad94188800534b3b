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

template <typename Pred>
bool AnyExprNode(const Expr& expr, const Pred& pred) {
  if (pred(expr)) return true;
  for (const auto& child : expr.children) {
    if (AnyExprNode(*child, pred)) return true;
  }
  return false;
}

/// True when any expression node of the pipeline satisfies `pred`. Visits
/// the nodes in preorder: each op's expression in op order, then the sink's
/// (key, then payload, items or values). The plan fingerprint hashes in the
/// same order, so the k-th literal this walk meets is the k-th constant of
/// the pipeline's fingerprint slice.
template <typename Pred>
bool AnyPipelineExpr(const PipelineSpec& spec, const Pred& pred) {
  for (const PipelineOp& op : spec.ops) {
    if (const auto* filter = std::get_if<OpFilter>(&op)) {
      if (AnyExprNode(*filter->predicate, pred)) return true;
    } else if (const auto* compute = std::get_if<OpCompute>(&op)) {
      if (AnyExprNode(*compute->expr, pred)) return true;
    } else if (AnyExprNode(*std::get<OpProbe>(op).key, pred)) {
      return true;
    }
  }
  if (const auto* build = std::get_if<SinkBuild>(&spec.sink)) {
    if (AnyExprNode(*build->key, pred)) return true;
    for (const auto& p : build->payload) {
      if (AnyExprNode(*p, pred)) return true;
    }
  } else if (const auto* agg = std::get_if<SinkAgg>(&spec.sink)) {
    if (AnyExprNode(*agg->key, pred)) return true;
    for (const AggItem& item : agg->items) {
      if (item.value != nullptr && AnyExprNode(*item.value, pred)) {
        return true;
      }
    }
  } else {
    for (const auto& v : std::get<SinkOutput>(spec.sink).values) {
      if (AnyExprNode(*v, pred)) return true;
    }
  }
  return false;
}

/// The pipeline's plan literals (kConstI64 and kConstF64 nodes), in
/// AnyPipelineExpr's order.
std::vector<const Expr*> PipelineLiterals(const PipelineSpec& spec);

}  // namespace aqe

#endif  // AQE_PLAN_PIPELINE_H_
