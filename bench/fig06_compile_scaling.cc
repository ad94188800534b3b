// Regenerates Fig 6: machine-code compilation time versus the number of
// LLVM instructions per worker function, across all implemented TPC-H
// queries plus generated queries (unoptimized and optimized modes). The
// fitted linear coefficients feed CostModelParams.
#include <algorithm>

#include "bench/bench_util.h"
#include "queries/generated_queries.h"

using namespace aqe;

int main() {
  Catalog* catalog = bench::TpchAtScale(bench::EnvDouble("AQE_SF", 0.01));
  QueryEngine engine(catalog, 1);

  std::printf("Fig 6 — compile time vs worker-function size\n");
  std::printf("%-24s %10s %12s %12s\n", "pipeline", "LLVM instr",
              "unopt [ms]", "opt [ms]");
  struct Point {
    double instructions;
    double unopt_ms;
    double opt_ms;
  };
  std::vector<Point> points;
  auto report = [&points](const std::string& query,
                          const std::vector<PipelineCompileCosts>& costs) {
    for (const auto& c : costs) {
      std::printf("%-24s %10llu %12.3f %12.3f\n",
                  (query + "/" + c.name).substr(0, 24).c_str(),
                  static_cast<unsigned long long>(c.instructions),
                  c.unopt_millis, c.opt_millis);
      points.push_back({static_cast<double>(c.instructions), c.unopt_millis,
                        c.opt_millis});
    }
  };
  for (int number : ImplementedTpchQueries()) {
    QueryProgram q = BuildTpchQuery(number, *catalog);
    report("q" + std::to_string(number), engine.MeasureCompileCosts(q));
  }
  for (int n : {25, 50, 100, 200}) {
    QueryProgram q = BuildGeneratedAggregateQuery(n, *catalog);
    report("gen" + std::to_string(n), engine.MeasureCompileCosts(q));
  }

  // Linear fit compile_ms = base + per_instr * n that minimizes the squared
  // *relative* error (weights 1/y^2). The cost model weighs a compile
  // against the execution time it saves, so a 1 ms miss on a 2 ms compile
  // matters as much as a 50 ms miss on a 100 ms one; an unweighted fit
  // would be set by the few largest generated pipelines alone.
  auto fit = [&points](auto get) {
    double s = 0, sx = 0, sy = 0, sxx = 0, sxy = 0;
    for (const Point& p : points) {
      const double y = get(p);
      const double w = 1.0 / (y * y);
      s += w;
      sx += w * p.instructions;
      sy += w * y;
      sxx += w * p.instructions * p.instructions;
      sxy += w * p.instructions * y;
    }
    double slope = (s * sxy - sx * sy) / (s * sxx - sx * sx);
    double base = (sy - slope * sx) / s;
    return std::make_pair(base, slope);
  };
  auto [ub, us] = fit([](const Point& p) { return p.unopt_ms; });
  auto [ob, os] = fit([](const Point& p) { return p.opt_ms; });
  std::printf("\nrelative-error linear fit (cost model parameters):\n");
  std::printf("  unoptimized: %.3f ms + %.5f ms/instr\n", ub, us);
  std::printf("  optimized:   %.3f ms + %.5f ms/instr\n", ob, os);
  std::printf("expected shape: near-linear growth; optimized ~3-10x above "
              "unoptimized\n");
  return 0;
}
