// §IV-F ablation: effect of macro-operation fusion (overflow-check
// sequences, GEP+load/store folding, and compare-and-branch
// superinstructions) on bytecode size and interpreter throughput, on the
// arithmetic-heavy Q1 and the filter-heavy Q6. Ends with the VM's hot
// order: each opcode's exact dispatch count over every TPC-H query.
#include "bench/bench_util.h"

using namespace aqe;

int main() {
  double sf = bench::EnvDouble("AQE_SF", 0.1);
  Catalog* catalog = bench::TpchAtScale(sf);
  QueryEngine engine(catalog, 1);

  struct FusionConfig {
    const char* label;
    bool macro_ops;
    bool cmp_branches;
  };
  const FusionConfig configs[] = {
      {"none", false, false},
      {"macro", true, false},
      {"macro+cmpbr", true, true},
  };

  std::printf(
      "Macro-op fusion ablation (SF %g, bytecode mode, 1 thread)\n", sf);
  std::printf("%6s %12s %12s %8s %8s %12s %10s\n", "query", "fusion",
              "bc size[ops]", "fused", "cmp-brs", "translate", "exec [ms]");
  for (int number : {1, 6, 14}) {
    for (const FusionConfig& config : configs) {
      QueryProgram q = BuildTpchQuery(number, *catalog);
      QueryRunOptions options;
      options.strategy = ExecutionStrategy::kBytecode;
      options.translator.fuse_macro_ops = config.macro_ops;
      options.translator.fuse_cmp_branches = config.cmp_branches;
      QueryRunResult r = engine.Run(q, options);
      // Count translated ops via compile-cost API for the same setting.
      QueryProgram q2 = BuildTpchQuery(number, *catalog);
      auto costs = engine.MeasureCompileCosts(q2, false, options.translator);
      uint64_t instrs = 0, fused = 0, cmp_brs = 0;
      for (const auto& c : costs) {
        instrs += c.bytecode_ops;
        fused += c.fused_ops;
        cmp_brs += c.fused_cmp_branches;
      }
      std::printf("%6d %12s %12llu %8llu %8llu %10.2fms %10.1f\n", number,
                  config.label, static_cast<unsigned long long>(instrs),
                  static_cast<unsigned long long>(fused),
                  static_cast<unsigned long long>(cmp_brs),
                  r.translate_millis_total,
                  r.exec_seconds_total * 1e3);
    }
  }
  std::printf("\nexpected shape: each fusion class reduces executed VM "
              "instructions and execution time (paper: 'greatly reduces the "
              "number of instructions for some queries')\n");

  // The hot order src/vm/interpreter_ops.inc lays its handlers out by: the
  // vm.op.* counters of every TPC-H query run as bytecode, default fusion.
  engine.ResetObservabilityStats();
  engine.set_vm_opcode_profiling(true);
  for (int number : ImplementedTpchQueries()) {
    QueryRunOptions options;
    options.strategy = ExecutionStrategy::kBytecode;
    engine.Run(BuildTpchQuery(number, *catalog), options);
  }
  engine.set_vm_opcode_profiling(false);
  std::vector<std::pair<uint64_t, std::string>> ranked;
  uint64_t total = 0;
  for (const auto& [name, count] : engine.ObservabilitySnapshot().counters) {
    if (name.rfind("vm.op.", 0) != 0) continue;
    ranked.emplace_back(count, name.substr(6));
    total += count;
  }
  std::sort(ranked.rbegin(), ranked.rend());
  std::printf("\nVM hot order (SF %g, every TPC-H query, bytecode): %llu "
              "dispatches\n",
              sf, static_cast<unsigned long long>(total));
  for (const auto& [count, opcode] : ranked) {
    std::printf("%14llu %5.1f%% %s\n", static_cast<unsigned long long>(count),
                100.0 * static_cast<double>(count) / static_cast<double>(total),
                opcode.c_str());
  }
  return 0;
}
