// The repository benchmark. One process runs one named workload
// against the public QueryEngine API and prints every metric by name, with
// its unit. Every result is checked row-for-row against the volcano engine.
// Workloads, metrics and regression bounds are listed in BENCHMARK.json;
// README.md (next to this file) says why each workload exists and which
// layer metric should move which end-to-end metric.
//
//   aqe_bench --workload NAME [--seed N] [--trace 0|1] [--smoke]
//
// Every workload measures a fixed number of seeded queries, so two commits
// run the same plan mix. An untraced run (--trace 0) reports the end-to-end
// metrics. A traced run (--trace 1) first repeats the untraced measurement,
// then replays the identical query sequence with the benchmark's own spans
// around each call into a layer (plan build, QueryEngine::Run, the
// static-mode passes, MeasureCompileCosts) and folds the per-query reports
// and the engine's counter deltas into per-layer metrics. Spans stay in
// memory and are written at exit as Chrome-trace JSON to
// trace_NAME.json next to the binary. The last stdout line is one JSON
// object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
//
// --smoke scales every workload down to SF 0.01 and ~100 measured queries,
// sets up once, and exits non-zero when any query failed its check.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iterator>
#include <memory>
#include <numeric>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/timer.h"
#include "engine/query_engine.h"
#include "queries/tpch_queries.h"
#include "tpch/tpch_gen.h"

using namespace aqe;

namespace {

using Rows = std::vector<std::vector<int64_t>>;

/// setup_s is the median of at least kMinSetups set-ups, and of more (up to
/// kMaxSetups) while they have taken less than kSetupBudgetSeconds, so a
/// 50-ms set-up is timed as often as a 2-s one is worth. On a shared VM
/// short set-ups often run in slow bursts of a few hundred ms, which a
/// median of three does not outvote; a 2-s set-up spans such bursts.
constexpr size_t kMinSetups = 3;
constexpr size_t kMaxSetups = 25;
constexpr double kSetupBudgetSeconds = 3;
constexpr uint64_t kSmokeQueries = 100;
constexpr double kSmokeSf = 0.01;

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

/// Nearest-rank percentile: the definition bench/repeated_queries.cc and
/// bench/throughput_concurrent.cc use, so numbers stay comparable.
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  return values[static_cast<size_t>(p * static_cast<double>(values.size() - 1))];
}

double GeometricMean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double log_sum = 0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double Seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return Seconds(ru.ru_utime) + Seconds(ru.ru_stime);
}

/// Lowers the process's peak resident set (VmHWM) to its current resident
/// set, so freed memory of the repeated set-ups does not count.
void ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  bool ok = f != nullptr && std::fputs("5", f) >= 0;
  if (f != nullptr) ok = std::fclose(f) == 0 && ok;
  if (!ok) throw std::runtime_error("cannot reset the peak RSS via /proc/self/clear_refs");
}

/// Peak resident set since the last ResetPeakRss(), in MB.
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) throw std::runtime_error("cannot read /proc/self/status");
  char line[256];
  long kib = -1;
  while (kib < 0 && std::fgets(line, sizeof(line), f) != nullptr) {
    std::sscanf(line, "VmHWM: %ld kB", &kib);
  }
  std::fclose(f);
  if (kib < 0) throw std::runtime_error("no VmHWM in /proc/self/status");
  return static_cast<double>(kib) / 1024.0;
}

// ---------------------------------------------------------------------------
// Spans

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;  ///< index into the same lane's spans; -1 = root
  uint64_t query_id = 0;
};

/// The spans of one thread; lanes are merged into one trace at exit.
struct Lane {
  std::string name;
  std::vector<Span> spans;
};

/// Records [construction, destruction) as a span on `lane`; a null lane
/// (untraced run) records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Lane* lane, const char* name, int parent = -1,
             uint64_t query_id = 0)
      : lane_(lane) {
    if (lane_ == nullptr) return;
    index_ = static_cast<int>(lane_->spans.size());
    lane_->spans.push_back({name, MonotonicNanos(), 0, parent, query_id});
  }
  ~ScopedSpan() {
    if (lane_ != nullptr) lane_->spans[static_cast<size_t>(index_)].end_ns = MonotonicNanos();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int index() const { return index_; }

 private:
  Lane* lane_;
  int index_ = -1;
};

double SpanMillis(const std::vector<Lane>& lanes, const char* name,
                  uint64_t* count) {
  double total_ns = 0;
  *count = 0;
  for (const Lane& lane : lanes) {
    for (const Span& s : lane.spans) {
      if (std::strcmp(s.name, name) != 0) continue;
      total_ns += static_cast<double>(s.end_ns - s.start_ns);
      ++*count;
    }
  }
  return total_ns * 1e-6;
}

/// Chrome-trace JSON ("X" complete events, one track per lane); loads in
/// chrome://tracing and ui.perfetto.dev.
bool WriteChromeTrace(const std::vector<Lane>& lanes, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t origin = INT64_MAX;
  for (const Lane& lane : lanes) {
    for (const Span& s : lane.spans) origin = std::min(origin, s.start_ns);
  }
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  const char* sep = "";
  for (size_t tid = 0; tid < lanes.size(); ++tid) {
    std::fprintf(f,
                 "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":%zu,\"args\":{\"name\":\"%s\"}}",
                 sep, tid, lanes[tid].name.c_str());
    sep = ",";
    const std::vector<Span>& spans = lanes[tid].spans;
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f,
                   ",{\"name\":\"%s\",\"cat\":\"aqe_bench\",\"ph\":\"X\","
                   "\"pid\":1,\"tid\":%zu,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"query_id\":%llu,\"span\":%zu,\"parent\":%d}}",
                   s.name, tid, static_cast<double>(s.start_ns - origin) * 1e-3,
                   static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                   static_cast<unsigned long long>(s.query_id), i, s.parent);
    }
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------
// Plans and workloads

/// One distinct plan of a workload's pool.
struct Plan {
  std::string label;
  int tpch_number = 0;  ///< 0: a Q6 literal or Q14 pattern variant
  TpchQ6Literals q6{};
  std::string q14_pattern;  ///< non-empty: a Q14 variant
};

QueryProgram BuildPlan(const Plan& plan, const Catalog& catalog) {
  if (plan.tpch_number > 0) return BuildTpchQuery(plan.tpch_number, catalog);
  if (!plan.q14_pattern.empty()) {
    return BuildTpchQ14Variant(catalog, plan.q14_pattern);
  }
  return BuildTpchQ6Variant(catalog, plan.q6);
}

/// Days since 1970-01-01 of a proleptic Gregorian date (Hinnant's
/// days_from_civil).
int64_t DaysFromCivil(int64_t y, int64_t m, int64_t d) {
  y -= m <= 2;
  const int64_t era = (y >= 0 ? y : y - 399) / 400;
  const int64_t yoe = y - era * 400;
  const int64_t doy = (153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;
  const int64_t doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097 + doe - 719468;
}

/// Q6 substitution parameters from the TPC-H specification's ranges:
/// DATE is January 1 of 1993..1997, DISCOUNT 0.02..0.09 (a ±0.01 window),
/// QUANTITY 24..25.
TpchQ6Literals RandomQ6Literals(std::mt19937_64& rng) {
  const int year = std::uniform_int_distribution<int>(1993, 1997)(rng);
  const int discount = std::uniform_int_distribution<int>(2, 9)(rng);
  const int quantity = std::uniform_int_distribution<int>(24, 25)(rng);
  return {DaysFromCivil(year, 1, 1), DaysFromCivil(year + 1, 1, 1),
          discount - 1, discount + 1, quantity * 100};
}

enum class Mix {
  kShuffle,  ///< every pool plan once per round, in seeded order
  kZipf,     ///< Zipf(1.2) over the first kZipfPlans plans (+ extra Q6 sets)
};

struct WorkloadSpec {
  const char* name;
  double sf;
  bool use_cache;
  bool concurrent;  ///< min(nproc, 4) clients instead of one
  int q6_variants;  ///< Q6 literal sets in the pool
  Mix mix;
  /// Whole rounds per client (see Sequence): untimed warm-up, then the
  /// measured phase. Latency on a fresh engine settles only after its first
  /// ~0.5-1 s of queries, so the warm-up lasts about 2 s.
  uint64_t warm_up_rounds;
  uint64_t measured_rounds;
};

/// The TPC-H queries of every pool, pinned so that implementing another
/// query does not change the benchmark's inputs.
constexpr int kTpchQueries[] = {1, 3, 4, 5, 6, 7, 9, 10, 11, 12, 14, 18, 19};
constexpr size_t kNumTpchQueries = std::size(kTpchQueries);
/// The Zipf population: the 13 TPC-H queries, the 3 Q14 pattern variants
/// and the first 3 Q6 literal sets (bench/repeated_queries' 19 plans).
constexpr size_t kZipfPlans = kNumTpchQueries + 3 + 3;
/// Zipf slots per round. A concurrent client adds a third as many draws
/// from the remaining Q6 sets, so those make up a quarter of its queries.
constexpr size_t kZipfRound = 75;

// Why each workload exists: README.md. The measured rounds give each
// workload at least 1,000 latency samples and a measured phase of about
// 12-20 s on a 4-vCPU host.
constexpr WorkloadSpec kWorkloads[] = {
    // 32-query rounds: 10,240 measured queries.
    {"adhoc-sf0.01", 0.01, false, false, 16, Mix::kShuffle, 50, 320},
    // 32-query rounds: 1,024 measured queries.
    {"adhoc-sf0.3", 0.3, false, false, 16, Mix::kShuffle, 4, 32},
    // 75-query rounds: 2,100 measured queries.
    {"repeat-sf0.1", 0.1, true, false, 3, Mix::kZipf, 4, 28},
    // 100-query rounds: 800 measured queries per client, 3,200 with 4.
    {"concurrent-sf0.1", 0.1, true, true, 3 + 64, Mix::kZipf, 2, 8},
};

/// The 13 TPC-H queries, 3 Q14 LIKE variants, then the Q6 literal sets.
/// The seed picks the variants' literals; the plan mix is fixed.
std::vector<Plan> MakePool(const WorkloadSpec& spec, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<Plan> pool;
  for (int number : kTpchQueries) {
    Plan plan;
    plan.label = "q" + std::to_string(number);
    plan.tpch_number = number;
    pool.push_back(plan);
  }
  // PROMO% is q14 itself; the other first syllables of p_type are equally
  // frequent, so every variant scans and matches alike.
  std::vector<std::string> prefixes = {"STANDARD", "SMALL", "MEDIUM", "LARGE",
                                       "ECONOMY"};
  std::shuffle(prefixes.begin(), prefixes.end(), rng);
  prefixes.resize(3);
  for (const std::string& prefix : prefixes) {
    Plan plan;
    plan.label = "q14like_" + prefix;
    plan.q14_pattern = prefix + "%";
    pool.push_back(plan);
  }
  for (int v = 0; v < spec.q6_variants; ++v) {
    Plan plan;
    plan.label = "q6var" + std::to_string(v);
    plan.q6 = RandomQ6Literals(rng);
    pool.push_back(plan);
  }
  return pool;
}

/// Per-rank counts of one Zipf(1.2) round: rank r gets a share proportional
/// to 1/(r+1)^1.2, at least one slot.
const std::vector<size_t>& ZipfCounts() {
  static const std::vector<size_t> counts = [] {
    std::vector<double> weights;
    double total = 0;
    for (size_t r = 0; r < kZipfPlans; ++r) {
      weights.push_back(1.0 / std::pow(static_cast<double>(r + 1), 1.2));
      total += weights.back();
    }
    std::vector<size_t> c;
    for (double w : weights) {
      c.push_back(std::max<size_t>(
          1, static_cast<size_t>(std::llround(kZipfRound * w / total))));
    }
    return c;
  }();
  return counts;
}

/// A client's seeded query sequence. It is cut into rounds; each round is a
/// fixed multiset of pool indices in seeded order, so whole rounds have the
/// same plan mix whatever the seed. Phases run whole rounds.
class Sequence {
 public:
  Sequence(const WorkloadSpec& spec, size_t pool_size, uint64_t seed,
           int client)
      : spec_(spec), pool_size_(pool_size) {
    // seed_seq keeps 32 bits of each element.
    std::seed_seq seq{seed, seed >> 32, static_cast<uint64_t>(client) + 1};
    rng_.seed(seq);
  }

  /// Queries per round: the pool, or a Zipf round plus its extra Q6 draws.
  static uint64_t RoundSize(const WorkloadSpec& spec, size_t pool_size) {
    if (spec.mix == Mix::kShuffle) return pool_size;
    const std::vector<size_t>& counts = ZipfCounts();
    const uint64_t zipf = std::accumulate(counts.begin(), counts.end(), uint64_t{0});
    return pool_size > kZipfPlans ? zipf + zipf / 3 : zipf;
  }

  size_t Next() {
    if (pos_ == round_.size()) Refill();
    return round_[pos_++];
  }

 private:
  void Refill() {
    round_.clear();
    pos_ = 0;
    if (spec_.mix == Mix::kShuffle) {
      for (size_t i = 0; i < pool_size_; ++i) round_.push_back(i);
    } else {
      const std::vector<size_t>& counts = ZipfCounts();
      for (size_t r = 0; r < kZipfPlans; ++r) {
        round_.insert(round_.end(), counts[r], r);
      }
      if (pool_size_ > kZipfPlans) {
        std::uniform_int_distribution<size_t> extra(kZipfPlans, pool_size_ - 1);
        const size_t draws = round_.size() / 3;
        for (size_t i = 0; i < draws; ++i) round_.push_back(extra(rng_));
      }
    }
    std::shuffle(round_.begin(), round_.end(), rng_);
  }

  const WorkloadSpec& spec_;
  size_t pool_size_;
  std::mt19937_64 rng_;
  std::vector<size_t> round_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Set-up and execution

/// A database and the engine over it. The engine is declared last so it is
/// destroyed before the catalog it reads.
struct Instance {
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<QueryEngine> engine;
};

/// TPC-H generation + index build + engine construction + one optimized
/// compile, so the measured phase never pays LLVM's first-use cost.
Instance SetUp(double sf, int workers) {
  Instance inst;
  inst.catalog = std::make_unique<Catalog>();
  tpch::BuildTpchDatabase(inst.catalog.get(), sf);
  QueryEngineOptions options;
  options.num_threads = workers;
  inst.engine = std::make_unique<QueryEngine>(inst.catalog.get(), options);
  QueryProgram warm_up = BuildTpchQuery(6, *inst.catalog);
  QueryRunOptions warm_options;
  warm_options.strategy = ExecutionStrategy::kOptimized;
  warm_options.use_artifact_cache = false;
  inst.engine->Run(warm_up, warm_options);
  return inst;
}

/// Runs fn(0), ..., fn(n-1) on n threads, joins every one of them, then
/// rethrows the first exception any of them threw.
template <typename Fn>
void RunOnThreads(int n, Fn fn) {
  std::vector<std::exception_ptr> errors(static_cast<size_t>(n));
  std::vector<std::thread> threads;
  try {
    for (int i = 0; i < n; ++i) {
      threads.emplace_back([&fn, &errors, i] {
        try {
          fn(i);
        } catch (...) {
          errors[static_cast<size_t>(i)] = std::current_exception();
        }
      });
    }
  } catch (...) {
    for (std::thread& t : threads) t.join();
    throw;
  }
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

/// Volcano results of every pool plan, computed on `threads` threads.
std::vector<Rows> ComputeReferences(QueryEngine& engine, const Catalog& catalog,
                                    const std::vector<Plan>& pool, int threads) {
  std::vector<Rows> refs(pool.size());
  std::atomic<size_t> next{0};
  RunOnThreads(threads, [&](int) {
    QueryRunOptions volcano;
    volcano.engine = EngineKind::kVolcano;
    for (size_t i; (i = next.fetch_add(1)) < pool.size();) {
      QueryProgram program = BuildPlan(pool[i], catalog);
      refs[i] = engine.Run(program, volcano).rows;
    }
  });
  return refs;
}

struct Context {
  const WorkloadSpec& spec;
  uint64_t seed;
  QueryEngine& engine;
  const Catalog& catalog;
  const std::vector<Plan>& pool;
  const std::vector<Rows>& refs;
  QueryRunOptions options;  ///< the workload's measured-phase options
};

/// Everything one thread ran: latencies of correct queries, and in traced
/// runs their reports (rows dropped) and spans.
struct ClientLog {
  Lane lane;
  std::vector<double> latency_ms;
  std::vector<QueryRunResult> reports;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

std::atomic<uint64_t> g_next_query_id{0};

/// Builds, runs and checks one query against its volcano reference. A
/// mismatch or an exception counts as failed and is logged with the plan
/// and the seed.
void RunOne(const Context& ctx, size_t plan, const QueryRunOptions& options,
            bool traced, int parent, ClientLog* log) {
  Lane* lane = traced ? &log->lane : nullptr;
  const uint64_t query_id = g_next_query_id.fetch_add(1) + 1;
  ++log->attempted;
  ScopedSpan query_span(lane, "query", parent, query_id);
  QueryRunResult result;
  double latency_ms = 0;
  try {
    const QueryProgram program = [&] {
      ScopedSpan span(lane, "plan.build", query_span.index(), query_id);
      return BuildPlan(ctx.pool[plan], ctx.catalog);
    }();
    ScopedSpan span(lane, "engine.run", query_span.index(), query_id);
    Timer timer;
    result = ctx.engine.Run(program, options);
    latency_ms = timer.ElapsedMillis();
  } catch (const std::exception& e) {
    ++log->failed;
    std::fprintf(stderr, "FAILED %s seed %llu plan %s (%s): %s\n",
                 ctx.spec.name, static_cast<unsigned long long>(ctx.seed),
                 ctx.pool[plan].label.c_str(),
                 ExecutionStrategyName(options.strategy), e.what());
    return;
  }
  if (result.rows != ctx.refs[plan]) {
    ++log->failed;
    std::fprintf(stderr,
                 "FAILED %s seed %llu plan %s (%s): %zu rows differ from the "
                 "volcano reference (%zu rows)\n",
                 ctx.spec.name, static_cast<unsigned long long>(ctx.seed),
                 ctx.pool[plan].label.c_str(),
                 ExecutionStrategyName(options.strategy), result.rows.size(),
                 ctx.refs[plan].size());
    return;
  }
  log->latency_ms.push_back(latency_ms);
  if (traced) {
    result.rows.clear();
    log->reports.push_back(std::move(result));
  }
}

/// Every pool plan once, in pool order, on the calling thread, as a
/// prepared statement: compiled eagerly (optimized), so every plan
/// publishes machine code that warm adaptive runs seed from. An adaptive
/// cold pass publishes code only where a borderline §III-C promotion fires,
/// which made warm latency bimodal from one run to the next.
void ColdPass(const Context& ctx, bool traced, ClientLog* log) {
  ScopedSpan span(traced ? &log->lane : nullptr, "cold_pass");
  QueryRunOptions prepared = ctx.options;
  prepared.strategy = ExecutionStrategy::kOptimized;
  for (size_t plan = 0; plan < ctx.pool.size(); ++plan) {
    RunOne(ctx, plan, prepared, traced, span.index(), log);
  }
}

struct Phase {
  std::vector<ClientLog> clients;
  double wall_s = 0;
  double cpu_s = 0;
};

/// Closed loop: each client runs the first `queries` of its sequence,
/// submitting the next query once Run() returns.
Phase RunPhase(const Context& ctx, int clients, uint64_t queries, bool traced) {
  Phase phase;
  phase.clients.resize(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    phase.clients[static_cast<size_t>(c)].lane.name = "client" + std::to_string(c);
  }
  const double cpu0 = ProcessCpuSeconds();
  Timer wall;
  RunOnThreads(clients, [&](int c) {
    ClientLog* log = &phase.clients[static_cast<size_t>(c)];
    Sequence sequence(ctx.spec, ctx.pool.size(), ctx.seed, c);
    while (log->attempted < queries) {
      RunOne(ctx, sequence.Next(), ctx.options, traced, -1, log);
    }
  });
  phase.wall_s = wall.ElapsedSeconds();
  phase.cpu_s = ProcessCpuSeconds() - cpu0;
  return phase;
}

std::vector<double> Latencies(const std::vector<ClientLog>& logs) {
  std::vector<double> all;
  for (const ClientLog& log : logs) {
    all.insert(all.end(), log.latency_ms.begin(), log.latency_ms.end());
  }
  return all;
}

// ---------------------------------------------------------------------------
// Metrics

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Per-layer numbers folded from the traced queries' reports; `cpu_s` is
/// the process CPU time they took. Compile work that is exactly zero on
/// some workloads is reported as a share, not a time.
void FoldReports(const std::vector<const QueryRunResult*>& reports,
                 double cpu_s, std::vector<Metric>* out) {
  const double n = static_cast<double>(reports.size());
  std::vector<double> wait_ms, peak_mb, prediction_error_pct;
  double total_s = 0, unattributed_s = 0, blocking_total_s = 0;
  double codegen_ms = 0, translate_ms = 0, compile_ms = 0;
  double exec_ms = 0, codegen_instructions = 0;
  double pipelines = 0, switches = 0, bytecode_final = 0;
  for (const QueryRunResult* r : reports) {
    wait_ms.push_back(r->queue_wait_seconds * 1e3);
    peak_mb.push_back(static_cast<double>(r->peak_memory_bytes) / (1 << 20));
    double blocking_s = 0;
    for (const PipelineReport& p : r->pipelines) {
      blocking_s += p.exec_seconds - p.exec_only_seconds;
      if (p.codegen_millis > 0) codegen_instructions += static_cast<double>(p.instructions);
      pipelines += 1;
      switches += static_cast<double>(p.compiles.size());
      bytecode_final += p.final_mode == ExecMode::kBytecode ? 1 : 0;
      for (const ModeSwitchRecord& m : p.mode_switches) {
        if (m.realized_seconds > 0) {
          prediction_error_pct.push_back(
              100.0 * std::fabs(m.t_chosen_seconds - m.realized_seconds) /
              m.realized_seconds);
        }
      }
    }
    total_s += r->total_seconds;
    unattributed_s += r->total_seconds - r->queue_wait_seconds -
                      (r->codegen_millis_total + r->translate_millis_total) * 1e-3 -
                      blocking_s - r->exec_seconds_total;
    codegen_ms += r->codegen_millis_total;
    translate_ms += r->translate_millis_total;
    compile_ms += r->compile_millis_total;
    blocking_total_s += blocking_s;
    exec_ms += r->exec_seconds_total * 1e3;
  }
  out->push_back({"engine.queue_wait_ms.p50", Percentile(wait_ms, 0.5), "ms"});
  out->push_back({"engine.queue_wait_ms.p99", Percentile(wait_ms, 0.99), "ms"});
  out->push_back({"engine.unattributed_share", Ratio(unattributed_s, total_s), "ratio"});
  out->push_back({"codegen.ms_per_query", Ratio(codegen_ms, n), "ms"});
  out->push_back({"codegen.instructions_per_query", Ratio(codegen_instructions, n), "count"});
  out->push_back({"vm.translate_ms_per_query", Ratio(translate_ms, n), "ms"});
  out->push_back({"jit.compile_cpu_share", Ratio(compile_ms * 1e-3, cpu_s), "ratio"});
  out->push_back({"jit.blocking_share", Ratio(blocking_total_s, total_s), "ratio"});
  out->push_back({"adaptive.switches_per_pipeline", Ratio(switches, pipelines), "count"});
  out->push_back({"adaptive.bytecode_final_share", Ratio(bytecode_final, pipelines), "ratio"});
  out->push_back({"adaptive.prediction_error_pct.p50",
                  Percentile(prediction_error_pct, 0.5), "%"});
  out->push_back({"exec.ms_per_query", Ratio(exec_ms, n), "ms"});
  out->push_back({"runtime.query_peak_mb.p50", Percentile(peak_mb, 0.5), "MB"});
}

/// Per-layer numbers from the engine's counters over the traced replay,
/// whose reports are `reports`.
void FoldCounters(const MetricsSnapshot& before, const MetricsSnapshot& after,
                  const ArtifactCacheStats& cache,
                  const std::vector<const QueryRunResult*>& reports,
                  std::vector<Metric>* out) {
  auto delta = [&](const char* name) {
    return static_cast<double>(after.counter(name) - before.counter(name));
  };
  const double queries = static_cast<double>(reports.size());
  double pipelines = 0;
  for (const QueryRunResult* r : reports) pipelines += static_cast<double>(r->pipelines.size());
  out->push_back({"vm.bytecode_ops_per_query",
                  Ratio(delta("translator.bytecode_ops"), queries), "count"});
  out->push_back({"exec.morsels_per_query", Ratio(delta("exec.morsels"), queries), "count"});
  out->push_back({"sched.slices_per_query",
                  Ratio(delta("sched.executed_slices"), queries), "count"});
  const double lookups = static_cast<double>(cache.bytecode_hits + cache.patched_hits +
                                             cache.bytecode_misses);
  out->push_back({"cache.bytecode_hit_rate",
                  Ratio(static_cast<double>(cache.bytecode_hits + cache.patched_hits),
                        lookups),
                  "ratio"});
  // A pipeline can seed cached code without a bytecode lookup, so code hits
  // are counted per pipeline run (0 with the cache off).
  out->push_back({"cache.code_hit_rate",
                  Ratio(static_cast<double>(cache.code_hits), pipelines), "ratio"});
  out->push_back({"cache.evictions", static_cast<double>(cache.evictions), "count"});
  out->push_back({"cache.resident_mb", static_cast<double>(cache.bytes) / (1 << 20), "MB"});
  const double selected = delta("index.rows_selected");
  out->push_back({"index.selected_fraction",
                  Ratio(selected, selected + delta("index.rows_pruned")), "ratio"});
  const double prune_hits = delta("index.prune_cache_hits");
  out->push_back({"index.prune_cache_hit_rate",
                  Ratio(prune_hits, prune_hits + delta("index.prune_cache_misses")),
                  "ratio"});
}

/// Cold passes over the 13 TPC-H queries, after the measured phase:
///  - Fig 13: geomean total latency per strategy on the engine's workers;
///    adaptive ÷ the best static strategy;
///  - per-tuple execution cost per static mode: single-threaded, geomean
///    over pipelines of exec_only_seconds / tuples.
void StaticPasses(const Context& ctx, ClientLog* log, std::vector<Metric>* out) {
  auto pass = [&](ExecutionStrategy strategy, bool single_threaded) {
    QueryRunOptions options;
    options.strategy = strategy;
    options.use_artifact_cache = false;
    options.single_threaded = single_threaded;
    ScopedSpan span(&log->lane, single_threaded ? "static_pass.single_threaded"
                                                : "static_pass.fig13");
    const size_t first = log->reports.size();
    for (size_t plan = 0; plan < kNumTpchQueries; ++plan) {
      RunOne(ctx, plan, options, /*traced=*/true, span.index(), log);
    }
    std::vector<const QueryRunResult*> reports;
    for (size_t i = first; i < log->reports.size(); ++i) {
      reports.push_back(&log->reports[i]);
    }
    return reports;
  };

  double best_static = 0, adaptive = 0;
  for (ExecutionStrategy strategy :
       {ExecutionStrategy::kBytecode, ExecutionStrategy::kUnoptimized,
        ExecutionStrategy::kOptimized, ExecutionStrategy::kAdaptive}) {
    std::vector<double> totals;
    for (const QueryRunResult* r : pass(strategy, false)) {
      totals.push_back(r->total_seconds);
    }
    const double geomean = GeometricMean(totals);
    if (strategy == ExecutionStrategy::kAdaptive) {
      adaptive = geomean;
    } else if (best_static == 0 || geomean < best_static) {
      best_static = geomean;
    }
  }
  out->push_back({"adaptive.vs_best_static", Ratio(adaptive, best_static), "ratio"});

  const std::pair<ExecutionStrategy, const char*> per_tuple[] = {
      {ExecutionStrategy::kBytecode, "vm.bytecode_ns_per_tuple"},
      {ExecutionStrategy::kUnoptimized, "jit.unopt_ns_per_tuple"},
      {ExecutionStrategy::kOptimized, "jit.opt_ns_per_tuple"}};
  for (const auto& [strategy, name] : per_tuple) {
    std::vector<double> ns_per_tuple;
    for (const QueryRunResult* r : pass(strategy, true)) {
      for (const PipelineReport& p : r->pipelines) {
        if (p.tuples > 0 && p.exec_only_seconds > 0) {
          ns_per_tuple.push_back(p.exec_only_seconds * 1e9 /
                                 static_cast<double>(p.tuples));
        }
      }
    }
    out->push_back({name, GeometricMean(ns_per_tuple), "ns"});
  }
}

/// Table I: unoptimized and optimized compile time summed over every
/// pipeline of the 13 TPC-H queries, and the per-compile fixed cost: the
/// intercept of a least-squares fit of unoptimized compile time against
/// LLVM instructions.
void CompileCosts(const Context& ctx, Lane* lane, std::vector<Metric>* out) {
  ScopedSpan span(lane, "jit.measure_compile_costs");
  double unopt_sum = 0, opt_sum = 0;
  double sx = 0, sy = 0, sxx = 0, sxy = 0, n = 0;
  for (int number : kTpchQueries) {
    QueryProgram program = BuildTpchQuery(number, ctx.catalog);
    ScopedSpan query_span(lane, "engine.measure_compile_costs", span.index());
    for (const PipelineCompileCosts& c : ctx.engine.MeasureCompileCosts(program)) {
      unopt_sum += c.unopt_millis;
      opt_sum += c.opt_millis;
      const double x = static_cast<double>(c.instructions);
      sx += x;
      sy += c.unopt_millis;
      sxx += x * x;
      sxy += x * c.unopt_millis;
      n += 1;
    }
  }
  const double slope = Ratio(n * sxy - sx * sy, n * sxx - sx * sx);
  out->push_back({"jit.unopt_compile_ms_sum", unopt_sum, "ms"});
  out->push_back({"jit.opt_compile_ms_sum", opt_sum, "ms"});
  out->push_back({"jit.fixed_ms", Ratio(sy - slope * sx, n), "ms"});
}

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-36s %14.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
}

/// The metrics, then the result line: the last line of stdout.
void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  PrintMetrics(metrics);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v, metrics[i].unit);
  }
  std::printf("}}\n");
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME [--seed N] [--trace 0|1] "
               "[--smoke]\nworkloads:",
               argv0);
  for (const WorkloadSpec& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 1;
  bool traced = false;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--workload" && has_value) {
      const std::string name = argv[++i];
      for (const WorkloadSpec& w : kWorkloads) {
        if (name == w.name) spec = &w;
      }
      if (spec == nullptr) return Usage(argv[0]);
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--trace" && has_value) {
      traced = std::strcmp(argv[++i], "1") == 0;
    } else {
      return Usage(argv[0]);
    }
  }
  if (spec == nullptr) return Usage(argv[0]);

  try {
    const int nproc = Nproc();
    const int workers = std::min(nproc, 4);
    const int clients = spec->concurrent ? std::min(nproc, 4) : 1;
    const double sf = smoke ? kSmokeSf : spec->sf;
    std::fprintf(stderr,
                 "[aqe_bench] %s seed %llu: SF %g, %d workers, %d clients, "
                 "%s\n",
                 spec->name, static_cast<unsigned long long>(seed), sf, workers,
                 clients, traced ? "traced" : "untraced");

    Lane main_lane;
    main_lane.name = "main";
    Lane* lane = traced ? &main_lane : nullptr;
    const size_t min_setups = smoke ? 1 : kMinSetups;
    const size_t max_setups = smoke ? 1 : kMaxSetups;
    std::vector<double> setup_s;
    double setup_total_s = 0;
    Instance inst;
    while (setup_s.size() < min_setups ||
           (setup_s.size() < max_setups && setup_total_s < kSetupBudgetSeconds)) {
      // Free the previous set-up, engine first, before building the next.
      inst.engine.reset();
      inst.catalog.reset();
      ScopedSpan span(lane, "setup");
      Timer timer;
      inst = SetUp(sf, workers);
      setup_s.push_back(timer.ElapsedSeconds());
      setup_total_s += setup_s.back();
    }
    ResetPeakRss();

    const std::vector<Plan> pool = MakePool(*spec, seed);
    std::vector<Rows> refs;
    {
      ScopedSpan span(lane, "volcano_references");
      refs = ComputeReferences(*inst.engine, *inst.catalog, pool, workers);
    }
    Context ctx{*spec, seed, *inst.engine, *inst.catalog, pool, refs, {}};
    ctx.options.strategy = ExecutionStrategy::kAdaptive;
    ctx.options.use_artifact_cache = spec->use_cache;

    // Untraced measurement (in a traced run too: it gives the untraced
    // timings and the base of obs.trace_overhead_pct), after an untimed
    // warm-up of the same loop.
    uint64_t attempted = 0, failed = 0;
    auto tally = [&](const ClientLog& log) {
      attempted += log.attempted;
      failed += log.failed;
    };
    ClientLog cold;
    if (spec->use_cache) ColdPass(ctx, /*traced=*/false, &cold);
    tally(cold);
    const uint64_t round = Sequence::RoundSize(*spec, pool.size());
    if (!smoke) {
      for (const ClientLog& log :
           RunPhase(ctx, clients, spec->warm_up_rounds * round, /*traced=*/false).clients) {
        tally(log);
      }
    }
    const uint64_t queries_per_client =
        smoke ? kSmokeQueries / static_cast<uint64_t>(clients)
              : spec->measured_rounds * round;
    const Phase measured = RunPhase(ctx, clients, queries_per_client, /*traced=*/false);
    for (const ClientLog& log : measured.clients) tally(log);
    const std::vector<double> latencies = Latencies(measured.clients);
    const double queries = static_cast<double>(latencies.size());

    // The untraced phase's timings. On a shared VM the host's slow windows
    // move them by 15-30% between runs, beyond the bounds they were meant
    // to carry (README.md), so they are per-layer metrics: every run prints
    // them, a traced run reports them.
    const std::vector<Metric> timings = {
        {"latency_p50_ms", Percentile(latencies, 0.5), "ms"},
        {"latency_p99_ms", Percentile(latencies, 0.99), "ms"},
        {"throughput_qps", Ratio(queries, measured.wall_s), "1/s"},
        {"cpu_ms_per_query", Ratio(measured.cpu_s * 1e3, queries), "ms"},
    };
    std::vector<Metric> metrics;
    if (!traced) {
      metrics.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
      metrics.push_back({"setup_s", Percentile(setup_s, 0.5), "s"});
    } else {
      metrics = timings;
      // Replay from the same starting state: an empty cache, then the cold
      // pass and the identical per-client sequences.
      inst.engine->ClearArtifactCache();
      inst.engine->ResetObservabilityStats();
      const MetricsSnapshot before = inst.engine->ObservabilitySnapshot();
      const ArtifactCacheStats cache_before = inst.engine->artifact_cache_stats();
      const double cpu0 = ProcessCpuSeconds();
      Timer wall;
      ClientLog traced_cold;
      traced_cold.lane.name = "cold";
      if (spec->use_cache) ColdPass(ctx, /*traced=*/true, &traced_cold);
      const Phase replay = RunPhase(ctx, clients, queries_per_client, /*traced=*/true);
      const double cpu_s = ProcessCpuSeconds() - cpu0;
      const double parallelism = Ratio(cpu_s, wall.ElapsedSeconds());
      const MetricsSnapshot after = inst.engine->ObservabilitySnapshot();
      const ArtifactCacheStats cache = inst.engine->artifact_cache_stats() - cache_before;

      std::vector<const QueryRunResult*> reports;
      tally(traced_cold);
      for (const QueryRunResult& r : traced_cold.reports) reports.push_back(&r);
      for (const ClientLog& log : replay.clients) {
        tally(log);
        for (const QueryRunResult& r : log.reports) reports.push_back(&r);
      }
      FoldReports(reports, cpu_s, &metrics);
      FoldCounters(before, after, cache, reports, &metrics);
      metrics.push_back({"sched.parallelism", parallelism, "ratio"});
      const double untraced_p50 = Percentile(latencies, 0.5);
      metrics.push_back({"obs.trace_overhead_pct",
                         100.0 * Ratio(Percentile(Latencies(replay.clients), 0.5) -
                                           untraced_p50,
                                       untraced_p50),
                         "%"});

      ClientLog passes;
      passes.lane.name = "static_passes";
      StaticPasses(ctx, &passes, &metrics);
      tally(passes);
      CompileCosts(ctx, &main_lane, &metrics);

      std::vector<Lane> lanes;
      lanes.push_back(std::move(main_lane));
      lanes.push_back(std::move(traced_cold.lane));
      for (const ClientLog& log : replay.clients) lanes.push_back(log.lane);
      lanes.push_back(std::move(passes.lane));
      uint64_t builds = 0;
      const double build_ms = SpanMillis(lanes, "plan.build", &builds);
      metrics.push_back({"plan.build_ms_per_query",
                         Ratio(build_ms, static_cast<double>(builds)), "ms"});
      const std::string binary = argv[0];
      const size_t slash = binary.rfind('/');
      const std::string trace_path =
          (slash == std::string::npos ? "" : binary.substr(0, slash + 1)) +
          "trace_" + spec->name + ".json";
      if (!WriteChromeTrace(lanes, trace_path)) {
        std::fprintf(stderr, "[aqe_bench] cannot write %s\n", trace_path.c_str());
        return 1;
      }
    }

    std::printf("%s seed %llu (%s): %.0f queries measured, %llu of %llu "
                "checked queries failed\n",
                spec->name, static_cast<unsigned long long>(seed),
                traced ? "traced" : "untraced", queries,
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));
    if (!traced) PrintMetrics(timings);
    PrintResult(failed == 0, attempted, failed, metrics);
    std::fflush(stdout);
    return smoke && failed > 0 ? 1 : 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[aqe_bench] %s\n", e.what());
    return 1;
  }
}
