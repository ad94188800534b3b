#include "codegen/query_compiler.h"

#include <cstring>

#include "common/status.h"
#include "common/timer.h"
#include "ir/ir_stats.h"

namespace aqe {

PipelineBindings BindPipeline(const QueryProgram& program,
                              const PipelineSpec& spec,
                              const QueryContext& ctx) {
  PipelineBindings bindings;
  const Table* table = program.ResolveTable(spec.source_table, ctx);
  for (int col : spec.scan_columns) {
    bindings.column_data.push_back(table->column(col).data());
    bindings.column_types.push_back(table->column(col).type());
  }
  for (const auto& jt : ctx.join_tables) {
    bindings.join_tables.push_back(jt.get());
  }
  // The one seal site: every stage binds before it runs, and the pipelines
  // that build a table have finished by the time one that probes it binds.
  for (const PipelineOp& op : spec.ops) {
    if (const auto* probe = std::get_if<OpProbe>(&op)) {
      ctx.join_tables[static_cast<size_t>(probe->ht)]->Seal();
    }
  }
  for (const auto& agg : ctx.agg_sets) {
    bindings.agg_sets.push_back(agg.get());
  }
  for (const auto& out : ctx.outputs) {
    bindings.outputs.push_back(out.get());
  }
  for (const auto& bitmap : program.bitmaps()) {
    bindings.bitmaps.push_back(bitmap->data());
  }
  for (const auto& pred : program.like_predicates()) {
    bindings.like_preds.push_back(pred.get());
  }
  for (const Expr* literal : PipelineLiterals(spec)) {
    uint64_t bits = static_cast<uint64_t>(literal->i64_value);
    if (literal->kind == ExprKind::kConstF64) {
      std::memcpy(&bits, &literal->f64_value, sizeof(bits));
    }
    bindings.literals.push_back(bits);
  }
  return bindings;
}

GeneratedPipeline GeneratePipeline(const PipelineSpec& spec,
                                   const PipelineBindings& bindings,
                                   LiteralForm literal_form,
                                   const std::string& fn_name) {
  Timer timer;
  GeneratedPipeline result;
  result.mod = std::make_unique<IrModule>("pipeline_" + spec.name);
  const uint64_t literal_loads = EmitWorkerFunction(
      spec, bindings, literal_form, result.mod.get(), fn_name);
  const llvm::Function* fn = result.mod->module().getFunction(fn_name);
  AQE_CHECK(fn != nullptr);
  const IrFunctionStats stats = ComputeFunctionStats(*fn);
  result.instructions = stats.instructions - literal_loads;
  result.loop_instructions = stats.loop_instructions;
  result.loop_calls = stats.loop_calls;
  result.codegen_millis = timer.ElapsedMillis();
  return result;
}

}  // namespace aqe
