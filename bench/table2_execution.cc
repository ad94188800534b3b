// Regenerates Table II: execution times (compilation excluded) per query
// for the Volcano baseline ("PG"), the vectorized baseline ("Monet"), and
// the bytecode / unoptimized / optimized modes, single- and multi-threaded,
// with the geometric mean over all implemented queries. Every engine runs
// its pipelines on the same morsels over the same pruned scans, so the
// baseline columns prune like the compiled ones. A second table
// splits each adaptive query's execution into pipelines and engine steps
// (bind, seal, merge, top-k: exec_seconds_total minus the pipelines'
// exec_only_seconds) and gives its tracked peak memory, single- and
// multi-threaded, median of 5 runs.
#include <iterator>

#include "bench/bench_util.h"

using namespace aqe;

namespace {

QueryRunResult RunQuery(QueryEngine* engine, Catalog* catalog, int number,
                        EngineKind kind, ExecutionStrategy strategy) {
  QueryProgram q = BuildTpchQuery(number, *catalog);
  QueryRunOptions options;
  options.engine = kind;
  options.strategy = strategy;
  options.use_artifact_cache = false;  // Table II is a cold-execution table
  return engine->Run(q, options);
}

double RunOnce(QueryEngine* engine, Catalog* catalog, int number,
               EngineKind kind, ExecutionStrategy strategy) {
  return RunQuery(engine, catalog, number, kind, strategy)
             .exec_seconds_total *
         1e3;
}

/// An adaptive query's engine-step time, its share of exec and its tracked
/// peak memory: the medians of `runs` runs.
struct StepSplit {
  double steps_ms;
  double share;
  double peak_mib;
};

StepSplit MedianSteps(QueryEngine* engine, Catalog* catalog, int number,
                      int runs) {
  std::vector<double> steps_ms;
  std::vector<double> shares;
  std::vector<double> peaks_mib;
  for (int i = 0; i < runs; ++i) {
    QueryRunResult r = RunQuery(engine, catalog, number, EngineKind::kCompiled,
                                ExecutionStrategy::kAdaptive);
    double pipelines = 0;
    for (const PipelineReport& p : r.pipelines) {
      pipelines += p.exec_only_seconds;
    }
    const double steps = r.exec_seconds_total - pipelines;
    steps_ms.push_back(steps * 1e3);
    shares.push_back(r.exec_seconds_total > 0 ? steps / r.exec_seconds_total
                                              : 0);
    peaks_mib.push_back(static_cast<double>(r.peak_memory_bytes) / (1 << 20));
  }
  return {bench::Percentile(steps_ms, 0.5), bench::Percentile(shares, 0.5),
          bench::Percentile(peaks_mib, 0.5)};
}

}  // namespace

int main() {
  double sf = bench::EnvDouble("AQE_SF", 0.1);
  int threads = bench::EnvInt("AQE_THREADS", 4);
  Catalog* catalog = bench::TpchAtScale(sf);
  QueryEngine single(catalog, 1);
  QueryEngine multi(catalog, threads);

  struct Column {
    EngineKind engine;
    ExecutionStrategy strategy;
    const char* label;
  };
  const Column kColumns[] = {
      {EngineKind::kVolcano, ExecutionStrategy::kBytecode, "PG"},
      {EngineKind::kVectorized, ExecutionStrategy::kBytecode, "Monet"},
      {EngineKind::kCompiled, ExecutionStrategy::kBytecode, "bc."},
      {EngineKind::kCompiled, ExecutionStrategy::kUnoptimized, "unopt."},
      {EngineKind::kCompiled, ExecutionStrategy::kOptimized, "opt."},
  };
  constexpr size_t kNumColumns = std::size(kColumns);
  std::printf("Table II — execution times [ms], SF %g\n%6s |", sf, "query");
  for (const char* side : {" |", ""}) {
    for (const Column& column : kColumns) std::printf(" %9s", column.label);
    std::printf("%s", side);
  }
  std::printf(" (%d threads)\n", threads);
  // columns[side * kNumColumns + c]: side 0 on 1 thread, side 1 on `threads`.
  std::vector<std::vector<double>> columns(2 * kNumColumns);
  const auto print_row = [&](const std::vector<double>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      std::printf(" %9.1f%s", row[c], c + 1 == kNumColumns ? " |" : "");
    }
    std::printf("\n");
    std::fflush(stdout);
  };
  for (int number : ImplementedTpchQueries()) {
    std::vector<double> row;
    for (QueryEngine* engine : {&single, &multi}) {
      for (const Column& column : kColumns) {
        row.push_back(RunOnce(engine, catalog, number, column.engine,
                              column.strategy));
        columns[row.size() - 1].push_back(row.back());
      }
    }
    std::printf("%6d |", number);
    print_row(row);
  }
  std::vector<double> means;
  for (const std::vector<double>& column : columns) {
    means.push_back(bench::GeometricMean(column));
  }
  std::printf("%6s |", "geo.m.");
  print_row(means);
  std::printf("\nexpected shape: bc. several-fold slower than unopt.; unopt. "
              "modestly slower than opt.; bc. well ahead of PG\n");

  constexpr int kStepRepeats = 5;
  std::printf("\nEngine steps of adaptive runs [ms], their share of exec and "
              "the tracked peak memory [MiB], median of %d\n", kStepRepeats);
  std::printf("%6s | %9s %7s %8s | %9s %7s %8s (%d threads)\n", "query",
              "steps", "share", "peak", "steps", "share", "peak", threads);
  for (int number : ImplementedTpchQueries()) {
    const StepSplit one = MedianSteps(&single, catalog, number, kStepRepeats);
    const StepSplit many = MedianSteps(&multi, catalog, number, kStepRepeats);
    std::printf("%6d | %9.2f %6.1f%% %8.2f | %9.2f %6.1f%% %8.2f\n", number,
                one.steps_ms, one.share * 100, one.peak_mib, many.steps_ms,
                many.share * 100, many.peak_mib);
    std::fflush(stdout);
  }
  return 0;
}
