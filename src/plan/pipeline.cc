#include "plan/pipeline.h"

#include "common/status.h"

namespace aqe {

std::vector<ExprType> ComputeSlotTypes(
    const PipelineSpec& spec, const std::vector<DataType>& column_types) {
  AQE_CHECK(column_types.size() == spec.scan_columns.size());
  std::vector<ExprType> slots;
  for (DataType type : column_types) {
    slots.push_back(type == DataType::kF64 ? ExprType::kF64 : ExprType::kI64);
  }
  for (const PipelineOp& op : spec.ops) {
    if (const auto* compute = std::get_if<OpCompute>(&op)) {
      slots.push_back(compute->expr->type);
    } else if (const auto* probe = std::get_if<OpProbe>(&op)) {
      if (probe->kind == JoinKind::kInner) {
        for (int i = 0; i < probe->payload_slots; ++i) {
          slots.push_back(ExprType::kI64);  // payloads are raw 8-byte slots
        }
      }
    }
  }
  return slots;
}

std::vector<const Expr*> PipelineLiterals(const PipelineSpec& spec) {
  std::vector<const Expr*> literals;
  AnyPipelineExpr(spec, [&literals](const Expr& e) {
    if (e.kind == ExprKind::kConstI64 || e.kind == ExprKind::kConstF64) {
      literals.push_back(&e);
    }
    return false;
  });
  return literals;
}

}  // namespace aqe
