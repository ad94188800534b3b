// Runs one TPC-H query under every engine and execution mode and prints a
// latency comparison — a miniature of the paper's whole evaluation. Every
// engine's rows are checked against a single-threaded, unpruned volcano
// run; a mismatch exits 1.
//
//   ./examples/mode_comparison [query] [scale factor]   (default: 1 0.1)
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "engine/query_engine.h"
#include "queries/tpch_queries.h"
#include "tpch/tpch_gen.h"

using namespace aqe;

int main(int argc, char** argv) {
  int number = argc > 1 ? std::atoi(argv[1]) : 1;
  double sf = argc > 2 ? std::atof(argv[2]) : 0.1;

  std::printf("TPC-H Q%d at SF %g\n", number, sf);
  Catalog catalog;
  tpch::BuildTpchDatabase(&catalog, sf);
  QueryEngine engine(&catalog, 4);

  struct Config {
    const char* label;
    EngineKind engine;
    ExecutionStrategy strategy;
  };
  const Config configs[] = {
      {"volcano (tuple-at-a-time)", EngineKind::kVolcano, {}},
      {"vectorized (column-at-a-time)", EngineKind::kVectorized, {}},
      {"compiled: bytecode VM", EngineKind::kCompiled,
       ExecutionStrategy::kBytecode},
      {"compiled: unoptimized JIT", EngineKind::kCompiled,
       ExecutionStrategy::kUnoptimized},
      {"compiled: optimized JIT", EngineKind::kCompiled,
       ExecutionStrategy::kOptimized},
      {"compiled: adaptive", EngineKind::kCompiled,
       ExecutionStrategy::kAdaptive},
  };
  // The reference: volcano on one thread over every row, so neither a
  // parallel merge nor a pruned scan can make it agree with a wrong run.
  QueryRunOptions reference_options;
  reference_options.engine = EngineKind::kVolcano;
  reference_options.single_threaded = true;
  reference_options.scan_pruning = false;
  QueryProgram ref_program = BuildTpchQuery(number, catalog);
  const std::vector<std::vector<int64_t>> reference =
      engine.Run(ref_program, reference_options).rows;

  std::printf("%-32s %12s %12s\n", "engine/mode", "total [ms]",
              "compile [ms]");
  bool all_agree = true;
  for (const Config& config : configs) {
    QueryProgram q = BuildTpchQuery(number, catalog);
    QueryRunOptions options;
    options.engine = config.engine;
    options.strategy = config.strategy;
    // The table contrasts *cold* compile cost per mode; the engine's
    // artifact cache would zero it from the second mode on.
    options.use_artifact_cache = false;
    QueryRunResult r = engine.Run(q, options);
    std::printf("%-32s %12.2f %12.2f\n", config.label, r.total_seconds * 1e3,
                r.codegen_millis_total + r.translate_millis_total +
                    r.compile_millis_total);
    if (r.rows != reference) {
      std::printf("  ^ %zu rows differ from the reference's %zu\n",
                  r.rows.size(), reference.size());
      all_agree = false;
    }
  }
  if (!all_agree) {
    std::printf("\nresults differ between engines\n");
    return 1;
  }
  std::printf("\n(all produce the same %zu result rows)\n", reference.size());
  return 0;
}
