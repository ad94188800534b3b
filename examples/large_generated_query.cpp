// The §V-E scenario: a machine-generated query (hundreds of aggregate
// expressions, as BI tools emit). Prints each tier's compile cost, runs the
// query interpreted, compiled up front and adaptively, and compares the
// optimized compile against the whole interpreted run. Fig 15 tracks how
// these costs grow with the query.
#include <cstdio>

#include "common/timer.h"
#include "engine/query_engine.h"
#include "queries/generated_queries.h"
#include "tpch/tpch_gen.h"

using namespace aqe;

int main() {
  Catalog catalog;
  tpch::BuildTpchDatabase(&catalog, 0.05);
  QueryEngine engine(&catalog, 2);

  const int kAggregates = 500;
  std::printf("machine-generated query with %d aggregate expressions\n\n",
              kAggregates);

  // Compilation costs first (without running).
  QueryProgram probe = BuildGeneratedAggregateQuery(kAggregates, catalog);
  auto costs = engine.MeasureCompileCosts(probe);
  std::printf("worker function: %llu LLVM instructions\n",
              (unsigned long long)costs[0].instructions);
  std::printf("  bytecode translation: %8.1f ms\n", costs[0].bytecode_millis);
  std::printf("  unoptimized compile:  %8.1f ms\n", costs[0].unopt_millis);
  std::printf("  optimized compile:    %8.1f ms\n", costs[0].opt_millis);

  // Now run it end to end, interpreted vs compiled-up-front.
  double bytecode_ms = 0;
  for (auto [label, strategy] :
       {std::pair{"bytecode", ExecutionStrategy::kBytecode},
        std::pair{"optimized", ExecutionStrategy::kOptimized},
        std::pair{"adaptive", ExecutionStrategy::kAdaptive}}) {
    QueryProgram q = BuildGeneratedAggregateQuery(kAggregates, catalog);
    QueryRunOptions options;
    options.strategy = strategy;
    options.use_artifact_cache = false;  // cold compile costs are the point
    QueryRunResult r = engine.Run(q, options);
    std::printf("%-10s total %8.1f ms (compile %8.1f ms)\n", label,
                r.total_seconds * 1e3, r.compile_millis_total);
    if (strategy == ExecutionStrategy::kBytecode) {
      bytecode_ms = r.total_seconds * 1e3;
    }
  }
  std::printf("\noptimized compile %.1f ms against the whole interpreted "
              "run's %.1f ms: %s\n",
              costs[0].opt_millis, bytecode_ms,
              costs[0].opt_millis < bytecode_ms
                  ? "the compiler has code before the interpreter finishes"
                  : "the interpreter finishes before the compiler has code");
  return 0;
}
