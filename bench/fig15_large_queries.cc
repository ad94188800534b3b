// Regenerates Fig 15: compilation/translation time of machine-generated
// queries (single scan, N aggregate expressions) as N grows. Bytecode
// translation and both compiled tiers grow linearly; optimized stays 30-60x
// above translation (the paper's §V-E argument for why the translator must
// be linear-time, src/jit/DESIGN.md).
#include "bench/bench_util.h"
#include "queries/generated_queries.h"

using namespace aqe;

int main() {
  Catalog* catalog = bench::TpchAtScale(bench::EnvDouble("AQE_SF", 0.01));
  QueryEngine engine(catalog, 1);
  int max_n = bench::EnvInt("AQE_FIG15_MAX_N", 1200);

  std::printf("Fig 15 — compilation time vs generated query size\n");
  std::printf("%8s %12s %12s %12s %12s\n", "N aggs", "LLVM instr",
              "bytecode[ms]", "unopt [ms]", "opt [ms]");
  for (int n : {10, 25, 50, 100, 200, 400, 800, 1200}) {
    if (n > max_n) break;
    QueryProgram q = BuildGeneratedAggregateQuery(n, *catalog);
    const PipelineCompileCosts c = engine.MeasureCompileCosts(q)[0];
    std::printf("%8d %12llu %12.2f %12.2f %12.2f\n", n,
                static_cast<unsigned long long>(c.instructions),
                c.bytecode_millis, c.unopt_millis, c.opt_millis);
    std::fflush(stdout);
  }
  std::printf("\nexpected shape: every column grows linearly with N; "
              "bytecode 30-60x below optimized\n");
  return 0;
}
