// Regenerates Table II: execution times (compilation excluded) per query
// for the Volcano baseline ("PG"), the vectorized baseline ("Monet"), and
// the bytecode / unoptimized / optimized modes, single- and multi-threaded,
// with the geometric mean over all implemented queries. A second table
// splits each adaptive query's execution into pipelines and engine steps
// (bind, seal, merge, top-k: exec_seconds_total minus the pipelines'
// exec_only_seconds) and gives its tracked peak memory, single- and
// multi-threaded, median of 5 runs.
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

  std::printf("Table II — execution times [ms], SF %g\n", sf);
  std::printf("%6s | %9s %9s %9s %9s %9s | %9s %9s %9s (%d threads)\n",
              "query", "PG", "Monet", "bc.", "unopt.", "opt.", "bc.",
              "unopt.", "opt.", threads);
  std::vector<std::vector<double>> columns(8);
  for (int number : ImplementedTpchQueries()) {
    double pg = RunOnce(&single, catalog, number, EngineKind::kVolcano,
                        ExecutionStrategy::kBytecode);
    double monet = RunOnce(&single, catalog, number, EngineKind::kVectorized,
                           ExecutionStrategy::kBytecode);
    double bc1 = RunOnce(&single, catalog, number, EngineKind::kCompiled,
                         ExecutionStrategy::kBytecode);
    double un1 = RunOnce(&single, catalog, number, EngineKind::kCompiled,
                         ExecutionStrategy::kUnoptimized);
    double op1 = RunOnce(&single, catalog, number, EngineKind::kCompiled,
                         ExecutionStrategy::kOptimized);
    double bcn = RunOnce(&multi, catalog, number, EngineKind::kCompiled,
                         ExecutionStrategy::kBytecode);
    double unn = RunOnce(&multi, catalog, number, EngineKind::kCompiled,
                         ExecutionStrategy::kUnoptimized);
    double opn = RunOnce(&multi, catalog, number, EngineKind::kCompiled,
                         ExecutionStrategy::kOptimized);
    double row[8] = {pg, monet, bc1, un1, op1, bcn, unn, opn};
    for (int c = 0; c < 8; ++c) columns[static_cast<size_t>(c)].push_back(row[c]);
    std::printf("%6d | %9.1f %9.1f %9.1f %9.1f %9.1f | %9.1f %9.1f %9.1f\n",
                number, pg, monet, bc1, un1, op1, bcn, unn, opn);
    std::fflush(stdout);
  }
  std::printf("%6s | %9.1f %9.1f %9.1f %9.1f %9.1f | %9.1f %9.1f %9.1f\n",
              "geo.m.", bench::GeometricMean(columns[0]),
              bench::GeometricMean(columns[1]),
              bench::GeometricMean(columns[2]),
              bench::GeometricMean(columns[3]),
              bench::GeometricMean(columns[4]),
              bench::GeometricMean(columns[5]),
              bench::GeometricMean(columns[6]),
              bench::GeometricMean(columns[7]));
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
