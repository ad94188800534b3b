// Regenerates Fig 1 (architecture stage times) and Fig 3 (per-mode
// compilation times) for TPC-H Q1: planning, code generation, bytecode
// translation, unoptimized compilation, LLVM optimization passes and
// optimized compilation.
#include "bench/bench_util.h"
#include "common/timer.h"
#include "jit/jit_compiler.h"
#include "codegen/query_compiler.h"
#include "runtime/runtime_registry.h"
#include "vm/translator.h"

using namespace aqe;

int main() {
  double sf = bench::EnvDouble("AQE_SF", 0.1);
  Catalog* catalog = bench::TpchAtScale(sf);

  Timer plan_timer;
  QueryProgram q1 = BuildTpchQuery(1, *catalog);
  double plan_ms = plan_timer.ElapsedMillis();

  QueryEngine engine(catalog, 1);
  auto costs = engine.MeasureCompileCosts(q1);

  // Split the optimized compile into IR passes + backend using JitCompile's
  // own instrumentation on a fresh module.
  auto ctx = q1.MakeContext(catalog);
  const PipelineSpec& spec = q1.pipelines()[0];
  PipelineBindings bindings = BindPipeline(q1, spec, *ctx);
  GeneratedPipeline generated = GeneratePipeline(spec, bindings);
  Status status;
  auto compiled = JitCompile(std::move(*generated.mod), JitMode::kOptimized,
                             RuntimeRegistry::Global(), &status);
  AQE_CHECK_MSG(status.ok(), status.message().c_str());

  std::printf("Fig 1 / Fig 3 — compilation stage breakdown, TPC-H Q1 (SF %g)\n",
              sf);
  std::printf("%-28s %10s\n", "stage", "time [ms]");
  std::printf("%-28s %10.3f\n", "planning (plan build)", plan_ms);
  double cdg = 0, bc = 0, unopt = 0, opt = 0;
  uint64_t instrs = 0;
  for (const auto& c : costs) {
    cdg += c.codegen_millis;
    bc += c.bytecode_millis;
    unopt += c.unopt_millis;
    opt += c.opt_millis;
    instrs += c.instructions;
  }
  std::printf("%-28s %10.3f\n", "code generation (LLVM IR)", cdg);
  std::printf("%-28s %10.3f\n", "bytecode translation", bc);
  std::printf("%-28s %10.3f\n", "LLVM comp. unoptimized", unopt);
  std::printf("%-28s %10.3f\n", "LLVM opt. passes",
              compiled->ir_pass_millis());
  std::printf("%-28s %10.3f\n", "LLVM comp. optimized (total)", opt);
  std::printf("\nworker functions: %zu, total LLVM instructions: %llu\n",
              costs.size(), static_cast<unsigned long long>(instrs));
  std::printf("expected shape: plan+codegen+bytecode each ~100x cheaper than "
              "optimized compilation\n");
  return 0;
}
