// Watch adaptive execution decide, live: runs TPC-H Q11 (the paper's Fig 14
// query) and prints the engine's trace as per-thread swimlanes —
// interpreted morsels (digits), compilation events ('#'), and compiled
// morsels (letters).
#include <cstdio>

#include "engine/query_engine.h"
#include "queries/tpch_queries.h"
#include "tpch/tpch_gen.h"

using namespace aqe;

int main() {
  std::printf("generating TPC-H data (SF 0.2)...\n");
  Catalog catalog;
  tpch::BuildTpchDatabase(&catalog, 0.2);
  QueryEngine engine(&catalog, /*num_threads=*/4);

  QueryProgram q11 = BuildTpchQuery(11, catalog);
  QueryRunOptions options;
  options.use_artifact_cache = false;  // show the cold adaptive compiles
  options.strategy = ExecutionStrategy::kAdaptive;
  engine.ResetObservabilityStats();  // the chart's time origin
  QueryRunResult result = engine.Run(q11, options);

  std::printf("\nQ11 adaptive execution trace:\n%s\n",
              engine.RenderTrace(100).c_str());
  std::printf("pipeline decisions:\n");
  for (const auto& p : result.pipelines) {
    std::printf("  %-18s %9llu tuples, %4llu LLVM instrs -> %s", p.name.c_str(),
                (unsigned long long)p.tuples,
                (unsigned long long)p.instructions,
                ExecModeName(p.final_mode));
    for (const auto& [mode, seconds] : p.compiles) {
      std::printf(" (compiled %s in %.1f ms)", ExecModeName(mode),
                  seconds * 1e3);
    }
    std::printf("\n");
  }
  std::printf("\ntop results (partkey, value):\n");
  for (size_t i = 0; i < result.rows.size() && i < 5; ++i) {
    std::printf("  %8lld %14.2f\n", (long long)result.rows[i][0],
                result.rows[i][1] / 10000.0);
  }
  return 0;
}
