// Multi-client throughput benchmark: N concurrent clients share one
// QueryEngine via the Submit() future API, versus the serial baseline of
// back-to-back Run() calls from a single client — the first throughput
// point in the bench trajectory (the paper's premise is serving queries
// with low latency while compilation happens concurrently; this measures
// how many of them per second the task scheduler sustains).
//
// Workload: alternating TPC-H Q6 (single scan pipeline) and Q1 (scan +
// aggregate) at AQE_SF. Client counts sweep 1x/2x/4x the engine's worker
// count (closed loop: each client submits, waits, repeats).
//
// `--mixed` instead runs the weighted-fairness harness: long-scan clients
// in the default class 0 against short-query clients in high-weight class
// 3, with per-class p50/p99 latency and queue wait emitted as JSON to
// BENCH_fairness.json. `--smoke` (CI) scales it down and *asserts* that
// the short class's p99 stays within a multiple of its isolated latency —
// the resumable-pipeline + weighted-fair-admission acceptance criterion.
//
// Emits one machine-readable JSON line per phase (also written to
// BENCH_throughput_concurrent.json / BENCH_fairness.json): queries/sec,
// p50/p99 latency, queue-wait p50/p99, and the speedup over serial.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/timer.h"

using namespace aqe;

namespace {

struct Sample {
  double latency_ms;
  double queue_wait_ms;
  uint64_t peak_bytes;  ///< QueryRunResult::peak_memory_bytes
};

struct PhaseResult {
  int clients = 0;
  uint64_t queries = 0;
  double seconds = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double wait_p50_ms = 0;
  double wait_p99_ms = 0;
  uint64_t peak_bytes_p50 = 0;
  uint64_t peak_bytes_max = 0;

  double qps() const { return static_cast<double>(queries) / seconds; }
};

PhaseResult Summarize(const std::vector<std::vector<Sample>>& per_client,
                      double seconds) {
  PhaseResult result;
  result.clients = static_cast<int>(per_client.size());
  result.seconds = seconds;
  std::vector<double> latencies, waits, peaks;
  for (const auto& samples : per_client) {
    result.queries += samples.size();
    for (const Sample& s : samples) {
      latencies.push_back(s.latency_ms);
      waits.push_back(s.queue_wait_ms);
      peaks.push_back(static_cast<double>(s.peak_bytes));
      result.peak_bytes_max = std::max(result.peak_bytes_max, s.peak_bytes);
    }
  }
  result.p50_ms = bench::Percentile(latencies, 0.50);
  result.p99_ms = bench::Percentile(latencies, 0.99);
  result.wait_p50_ms = bench::Percentile(waits, 0.50);
  result.wait_p99_ms = bench::Percentile(waits, 0.99);
  result.peak_bytes_p50 = static_cast<uint64_t>(bench::Percentile(peaks, 0.50));
  return result;
}

/// One closed-loop client: build query -> Run -> record latency, until the
/// shared deadline. `tpch_number` 0 alternates Q6/Q1 per iteration.
void ClientLoop(QueryEngine* engine, const Catalog* catalog, int client_id,
                int tpch_number, int query_class, double budget_seconds,
                std::vector<Sample>* samples) {
  Timer phase_timer;
  int i = 0;
  while (phase_timer.ElapsedSeconds() < budget_seconds) {
    int number = tpch_number != 0
                     ? tpch_number
                     : ((client_id + i) % 2 == 0 ? 6 : 1);
    ++i;
    QueryProgram program = BuildTpchQuery(number, *catalog);
    QueryRunOptions options;
    options.strategy = ExecutionStrategy::kAdaptive;
    options.query_class = query_class;
    Timer query_timer;
    QueryRunResult result = engine->Run(program, options);
    samples->push_back({query_timer.ElapsedMillis(),
                        result.queue_wait_seconds * 1e3,
                        result.peak_memory_bytes});
    if (result.rows.empty()) std::abort();  // paranoia: results must exist
  }
}

PhaseResult RunPhase(QueryEngine* engine, const Catalog* catalog, int clients,
                     double budget_seconds) {
  std::vector<std::vector<Sample>> samples(static_cast<size_t>(clients));
  std::vector<std::thread> threads;
  Timer timer;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back(ClientLoop, engine, catalog, c, /*tpch_number=*/0,
                         /*query_class=*/0, budget_seconds,
                         &samples[static_cast<size_t>(c)]);
  }
  for (auto& t : threads) t.join();
  return Summarize(samples, timer.ElapsedSeconds());
}

void Report(const PhaseResult& r, const char* label, double serial_qps,
            int workers, std::FILE* json_out) {
  std::printf("%-10s %8d %10llu %12.1f %10.2f %10.2f %9.2fx\n", label,
              r.clients, static_cast<unsigned long long>(r.queries), r.qps(),
              r.p50_ms, r.p99_ms, serial_qps > 0 ? r.qps() / serial_qps : 1.0);
  char line[400];
  std::snprintf(line, sizeof(line),
                "{\"bench\":\"throughput_concurrent\",\"phase\":\"%s\","
                "\"clients\":%d,\"workers\":%d,\"queries\":%llu,"
                "\"queries_per_sec\":%.3f,\"p50_ms\":%.3f,\"p99_ms\":%.3f,"
                "\"queue_wait_p50_ms\":%.3f,\"queue_wait_p99_ms\":%.3f,"
                "\"speedup_vs_serial\":%.4f}",
                label, r.clients, workers,
                static_cast<unsigned long long>(r.queries), r.qps(), r.p50_ms,
                r.p99_ms, r.wait_p50_ms, r.wait_p99_ms,
                serial_qps > 0 ? r.qps() / serial_qps : 1.0);
  std::printf("%s\n", line);
  if (json_out != nullptr) std::fprintf(json_out, "%s\n", line);
}

/// The fairness harness (`--mixed`): long Q1 clients in class 0 vs short Q6
/// clients in high-weight class 3 on a shared saturated engine. Returns the
/// process exit code (non-zero when `smoke` assertions fail).
int RunMixed(QueryEngine* engine, const Catalog* catalog, int workers,
             double budget, bool smoke) {
  constexpr int kShortClass = 3;
  constexpr int kShortWeight = 8;
  engine->set_class_weight(kShortClass, kShortWeight);
  std::FILE* json_out = std::fopen("BENCH_fairness.json", "w");

  std::printf("Mixed-class fairness (class %d weight %d for shorts, "
              "%.1fs phase)\n",
              kShortClass, kShortWeight, budget);

  // Isolated short-query latency: Q6 alone on the idle engine (warm).
  std::vector<std::vector<Sample>> iso(1);
  {
    Timer t;
    ClientLoop(engine, catalog, 0, /*tpch_number=*/6, kShortClass,
               std::min(budget, 0.5), &iso[0]);
  }
  PhaseResult isolated = Summarize(iso, 1);
  const double isolated_p50 = isolated.p50_ms;
  std::printf("isolated short p50: %.2f ms (%llu runs)\n", isolated_p50,
              static_cast<unsigned long long>(isolated.queries));

  // Mixed phase: saturate with long clients, stream shorts beside them.
  const int long_clients = std::max(2, workers);
  const int short_clients = std::max(2, workers / 2);
  std::vector<std::vector<Sample>> long_samples(
      static_cast<size_t>(long_clients));
  std::vector<std::vector<Sample>> short_samples(
      static_cast<size_t>(short_clients));
  std::vector<std::thread> threads;
  Timer timer;
  for (int c = 0; c < long_clients; ++c) {
    threads.emplace_back(ClientLoop, engine, catalog, c, /*tpch_number=*/1,
                         /*query_class=*/0, budget,
                         &long_samples[static_cast<size_t>(c)]);
  }
  for (int c = 0; c < short_clients; ++c) {
    threads.emplace_back(ClientLoop, engine, catalog, c, /*tpch_number=*/6,
                         kShortClass, budget,
                         &short_samples[static_cast<size_t>(c)]);
  }
  for (auto& t : threads) t.join();
  const double seconds = timer.ElapsedSeconds();
  PhaseResult longs = Summarize(long_samples, seconds);
  PhaseResult shorts = Summarize(short_samples, seconds);

  std::printf("%-10s %8s %10s %12s %10s %10s %10s %10s\n", "class",
              "clients", "queries", "queries/s", "p50 [ms]", "p99 [ms]",
              "wait p50", "wait p99");
  for (const auto& [label, r] :
       {std::pair<const char*, const PhaseResult&>{"short", shorts},
        std::pair<const char*, const PhaseResult&>{"long", longs}}) {
    std::printf("%-10s %8d %10llu %12.1f %10.2f %10.2f %10.2f %10.2f\n",
                label, r.clients, static_cast<unsigned long long>(r.queries),
                r.qps(), r.p50_ms, r.p99_ms, r.wait_p50_ms, r.wait_p99_ms);
    char line[512];
    std::snprintf(
        line, sizeof(line),
        "{\"bench\":\"fairness\",\"class\":\"%s\",\"clients\":%d,"
        "\"workers\":%d,\"weight\":%d,\"queries\":%llu,"
        "\"queries_per_sec\":%.3f,\"p50_ms\":%.3f,\"p99_ms\":%.3f,"
        "\"queue_wait_p50_ms\":%.3f,\"queue_wait_p99_ms\":%.3f,"
        "\"peak_bytes_p50\":%llu,\"peak_bytes_max\":%llu,"
        "\"isolated_short_p50_ms\":%.3f}",
        label, r.clients, workers,
        std::strcmp(label, "short") == 0 ? kShortWeight : 1,
        static_cast<unsigned long long>(r.queries), r.qps(), r.p50_ms,
        r.p99_ms, r.wait_p50_ms, r.wait_p99_ms,
        static_cast<unsigned long long>(r.peak_bytes_p50),
        static_cast<unsigned long long>(r.peak_bytes_max), isolated_p50);
    std::printf("%s\n", line);
    if (json_out != nullptr) std::fprintf(json_out, "%s\n", line);
  }
  if (json_out != nullptr) std::fclose(json_out);

  std::printf("\nexpected shape: short-class p99 stays within a small "
              "multiple of its isolated latency while the long class "
              "saturates the workers (resumable pipelines + weighted-fair "
              "admission); without them it would queue behind whole "
              "long pipelines.\n");

  // Continuous-profiler output over the whole mixed phase, in collapsed-stack
  // form (pipe through flamegraph.pl or load in speedscope).
  const std::string stacks = engine->CollapsedStacks();
  if (std::FILE* f = std::fopen("BENCH_flamegraph.txt", "w")) {
    std::fwrite(stacks.data(), 1, stacks.size(), f);
    std::fclose(f);
  }
  const size_t stack_lines =
      static_cast<size_t>(std::count(stacks.begin(), stacks.end(), '\n'));
  std::printf("flamegraph: %zu collapsed stacks -> BENCH_flamegraph.txt\n",
              stack_lines);

  // Memory-budget enforcement, end to end: the short class's Q6 fingerprint
  // now carries a learned peak-memory EWMA, so capping class 3 far below it
  // makes the next class-3 Q6 fail admission with the typed error while the
  // same query in uncapped class 0 still completes.
  engine->set_class_memory_budget(kShortClass, 1024);
  bool budget_rejected = false;
  bool rejected_at_admission = false;
  unsigned long long attempted_bytes = 0;
  {
    QueryProgram q6 = BuildTpchQuery(6, *catalog);
    QueryRunOptions options;
    options.query_class = kShortClass;
    try {
      engine->Run(q6, options);
    } catch (const MemoryBudgetExceeded& e) {
      budget_rejected = true;
      rejected_at_admission = e.at_admission();
      attempted_bytes = static_cast<unsigned long long>(e.attempted_bytes());
    }
  }
  bool other_class_ok = false;
  {
    QueryProgram q6 = BuildTpchQuery(6, *catalog);
    QueryRunOptions options;
    options.query_class = 0;
    other_class_ok = !engine->Run(q6, options).rows.empty();
  }
  engine->set_class_memory_budget(kShortClass, 0);
  std::printf("budget demo: class-%d Q6 vs 1 KiB cap -> %s (%s, estimated "
              "%llu bytes); uncapped class-0 Q6 %s\n",
              kShortClass,
              budget_rejected ? "rejected" : "NOT rejected",
              rejected_at_admission ? "at admission" : "at runtime",
              attempted_bytes,
              other_class_ok ? "completed" : "FAILED");

  if (smoke) {
    // Acceptance: the short class was served, and its p99 is bounded by a
    // generous multiple of isolated latency (CI machines are noisy; the
    // regression this guards is the unbounded "behind a whole long scan"
    // latency, orders of magnitude above the bound).
    const double bound = std::max(250.0, 40.0 * std::max(isolated_p50, 1.0));
    int failures = 0;
    if (shorts.queries == 0) {
      std::fprintf(stderr, "SMOKE FAIL: no short-class query completed\n");
      ++failures;
    }
    if (shorts.p99_ms >= bound) {
      std::fprintf(stderr,
                   "SMOKE FAIL: short-class p99 %.2f ms >= bound %.2f ms "
                   "(isolated p50 %.2f ms)\n",
                   shorts.p99_ms, bound, isolated_p50);
      ++failures;
    }
    if (shorts.peak_bytes_max == 0 || longs.peak_bytes_max == 0) {
      std::fprintf(stderr,
                   "SMOKE FAIL: per-query peak memory not tracked (short "
                   "max %llu, long max %llu)\n",
                   static_cast<unsigned long long>(shorts.peak_bytes_max),
                   static_cast<unsigned long long>(longs.peak_bytes_max));
      ++failures;
    }
    if (stack_lines == 0) {
      std::fprintf(stderr, "SMOKE FAIL: profiler produced no collapsed "
                           "stacks during the mixed phase\n");
      ++failures;
    }
    if (!budget_rejected || !rejected_at_admission) {
      std::fprintf(stderr,
                   "SMOKE FAIL: over-budget class-%d query was %s\n",
                   kShortClass,
                   budget_rejected ? "rejected at runtime, not admission"
                                   : "not rejected");
      ++failures;
    }
    if (!other_class_ok) {
      std::fprintf(stderr, "SMOKE FAIL: uncapped class-0 query failed "
                           "while class-%d was capped\n",
                   kShortClass);
      ++failures;
    }
    if (failures > 0) return 1;
    std::printf("smoke assertions passed: short p99 %.2f ms < %.2f ms "
                "(isolated p50 %.2f ms, %llu shorts, %llu longs, "
                "%zu stacks, budget rejection typed)\n",
                shorts.p99_ms, bound, isolated_p50,
                static_cast<unsigned long long>(shorts.queries),
                static_cast<unsigned long long>(longs.queries), stack_lines);
  }
  return 0;
}

/// End-of-run observability dump: the engine's full metrics snapshot as one
/// JSON line (stdout + BENCH_observability.json), and — when AQE_TRACE_JSON
/// names a path — the Chrome-trace export of the per-worker rings, loadable
/// in chrome://tracing / ui.perfetto.dev (CI validates it with
/// ci/check_trace.py).
void ExportObservability(QueryEngine* engine, const char* bench_name) {
  MetricsSnapshot snap = engine->ObservabilitySnapshot();
  const std::string stats = snap.ToJson();
  std::printf("{\"bench\":\"%s\",\"observability\":%s}\n", bench_name,
              stats.c_str());
  if (std::FILE* f = std::fopen("BENCH_observability.json", "w")) {
    std::fprintf(f, "%s\n", stats.c_str());
    std::fclose(f);
  }
  const char* trace_path = std::getenv("AQE_TRACE_JSON");
  if (trace_path != nullptr && *trace_path != '\0') {
    const std::string trace = engine->ExportChromeTrace();
    if (std::FILE* f = std::fopen(trace_path, "w")) {
      std::fwrite(trace.data(), 1, trace.size(), f);
      std::fclose(f);
      std::printf("trace: wrote %zu bytes to %s (recorded %llu, dropped "
                  "%llu events)\n",
                  trace.size(), trace_path,
                  static_cast<unsigned long long>(
                      engine->tracer().total_recorded()),
                  static_cast<unsigned long long>(
                      engine->tracer().total_dropped()));
    } else {
      std::fprintf(stderr, "trace: cannot open %s\n", trace_path);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool mixed = false;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--mixed") == 0) mixed = true;
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const double sf = bench::EnvDouble("AQE_SF", smoke ? 0.01 : 0.02);
  const double budget =
      bench::EnvDouble("AQE_BENCH_SECONDS", smoke ? 1.0 : 2.0);
  const int hw = std::min(static_cast<int>(std::thread::hardware_concurrency()),
                          TaskScheduler::kMaxWorkers);
  const int workers = bench::EnvInt("AQE_THREADS", std::max(1, hw));
  Catalog* catalog = bench::TpchAtScale(sf);
  QueryEngineOptions engine_options;
  engine_options.num_threads = workers;
  // AQE_STATS_PORT: serve /metrics, /trace.json and /profiles while the
  // bench runs (0 picks an ephemeral port; ci/check_metrics_endpoint.py
  // parses the line below and curls the endpoints mid-run).
  if (const char* port_env = std::getenv("AQE_STATS_PORT");
      port_env != nullptr && *port_env != '\0') {
    engine_options.stats_port = std::atoi(port_env);
  }
  QueryEngine engine(catalog, engine_options);
  if (engine.stats_port() >= 0) {
    std::printf("stats server: http://127.0.0.1:%d "
                "(/metrics /trace.json /profiles /profile)\n",
                engine.stats_port());
    std::fflush(stdout);  // consumers poll the pipe for this line
  }

  {  // warmup: fault in the catalog, LLVM init, first JIT
    QueryProgram q6 = BuildTpchQuery(6, *catalog);
    engine.Run(q6);
  }

  if (mixed) {
    const int rc = RunMixed(&engine, catalog, workers, budget, smoke);
    ExportObservability(&engine, "fairness");
    return rc;
  }

  std::FILE* json_out = std::fopen("BENCH_throughput_concurrent.json", "w");
  std::printf(
      "Concurrent query throughput (SF %g, %d workers, %.1fs per phase)\n",
      sf, workers, budget);
  std::printf("%-10s %8s %10s %12s %10s %10s %10s\n", "phase", "clients",
              "queries", "queries/s", "p50 [ms]", "p99 [ms]", "speedup");

  // Serial baseline: one client, back-to-back Run().
  PhaseResult serial = RunPhase(&engine, catalog, 1, budget);
  Report(serial, "serial", 0, workers, json_out);

  // Concurrent phases: 1x / 2x / 4x the worker count.
  for (int mult : {1, 2, 4}) {
    int clients = std::max(2, mult * workers);
    PhaseResult r = RunPhase(&engine, catalog, clients, budget);
    Report(r, mult == 1 ? "conc-1x" : (mult == 2 ? "conc-2x" : "conc-4x"),
           serial.qps(), workers, json_out);
  }

  std::printf(
      "\nexpected shape: queries/s grows with clients until the workers "
      "saturate; p99 grows with queueing. The 2x-core-count phase is the "
      "acceptance point (>= 2x serial qps on multi-core hosts).\n");
  if (json_out != nullptr) std::fclose(json_out);
  ExportObservability(&engine, "throughput_concurrent");
  return 0;
}
