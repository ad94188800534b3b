// Repeated-query benchmark: the artifact cache's acceptance harness. A
// production engine sees the same plan shapes over and over; this measures
// what the plan-fingerprint cache turns that into — cold (first-ever) vs
// warm (repeated) latency over a Zipf-distributed TPC-H query mix, with
// literal-only Q6 variants exercising the constant-patch path.
//
// The Q6 literal variants are submitted as *prepared statements*: their
// cold run uses the optimized strategy, so an opt machine-code variant is
// published for each literal set. Warm adaptive re-runs then seed straight
// into that code (code_hits). Without this, whether any code variant ever
// exists at smoke scale depends on a borderline §III-C promotion of a
// single pipeline — the cache's code-seed path went untested on runs where
// the promotion didn't fire (the historical `code_hits: 0` snapshots).
//
// Phases:
//   cold   every distinct plan once, cache initially empty
//   warm   closed loop for AQE_BENCH_SECONDS, plans drawn Zipf(s=1.2)
//
// Emits JSON lines (also to BENCH_repeated_queries.json): cold/warm p50,
// warm qps, the fraction of warm runs that skipped translation entirely,
// the fraction seeded straight into compiled code, and the engine's
// hit/miss/evict counters. `warm_speedup_p50` is the median over plans of
// (that plan's cold latency / its median warm latency) — a like-for-like
// ratio. The raw cold-p50 / warm-p50 quotient is NOT that: cold weights
// all plans equally while warm is Zipf-weighted, so a heavy head plan can
// drag the aggregate warm p50 above the aggregate cold p50 (the historical
// `warm_speedup_p50: 0.874`) even when every plan individually got faster.
//
// `--smoke` runs a scaled-down pass and *asserts* the acceptance criteria:
// warm-hit counters > 0 (including code_hits > 0 from the prepared Q6
// variants), per-plan warm speedup >= 1, and warm submissions skipping
// translation (exit 1 otherwise) — CI runs this so the cache path is
// exercised outside ctest.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/timer.h"

using namespace aqe;

namespace {

struct PlanSpec {
  std::string label;
  int tpch_number = 0;       ///< 0 = Q6 literal variant / Q14 LIKE variant
  TpchQ6Literals literals;   ///< used when tpch_number == 0 and no pattern
  std::string like_pattern;  ///< Q14 p_type pattern variant when non-empty
  /// Prepared statement: the cold run compiles eagerly (optimized
  /// strategy), publishing a machine-code variant that warm adaptive runs
  /// seed from. See the header comment.
  bool compile_eagerly = false;
};

QueryProgram Build(const PlanSpec& plan, const Catalog& catalog) {
  if (!plan.like_pattern.empty()) {
    return BuildTpchQ14Variant(catalog, plan.like_pattern);
  }
  return plan.tpch_number > 0 ? BuildTpchQuery(plan.tpch_number, catalog)
                              : BuildTpchQ6Variant(catalog, plan.literals);
}

/// Zipf(s) over ranks [0, n): rank r with weight 1/(r+1)^s.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s, uint64_t seed) : rng_(seed) {
    double total = 0;
    for (size_t r = 0; r < n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }
  size_t Next() {
    double u = uniform_(rng_);
    return static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }

 private:
  std::mt19937_64 rng_;
  std::uniform_real_distribution<double> uniform_{0.0, 1.0};
  std::vector<double> cdf_;
};

void EmitJson(const char* line, std::FILE* json_out) {
  std::printf("%s\n", line);
  if (json_out != nullptr) std::fprintf(json_out, "%s\n", line);
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const double sf = bench::EnvDouble("AQE_SF", smoke ? 0.01 : 0.02);
  const double budget = bench::EnvDouble("AQE_BENCH_SECONDS", smoke ? 0.5 : 3.0);
  const int threads = bench::EnvInt("AQE_THREADS", 2);
  Catalog* catalog = bench::TpchAtScale(sf);
  QueryEngine engine(catalog, threads);
  std::FILE* json_out = std::fopen("BENCH_repeated_queries.json", "w");

  // The plan population: every implemented TPC-H query plus three Q6
  // literal variants (fingerprint-equal to Q6 — they share its bytecode
  // through the constant-patch table).
  std::vector<PlanSpec> plans;
  for (int number : ImplementedTpchQueries()) {
    plans.push_back({"q" + std::to_string(number), number, {}});
  }
  for (int v = 1; v <= 3; ++v) {
    TpchQ6Literals lit = DefaultQ6Literals();
    lit.ship_date_lo += 31 * v;
    lit.ship_date_hi += 31 * v;
    lit.quantity_limit += 100 * v;
    plans.push_back({"q6var" + std::to_string(v), 0, lit, "",
                     /*compile_eagerly=*/true});
  }
  // Q14 LIKE-pattern variants: fingerprint-equal to q14 (the prefix lowers
  // to code-range literals on the sorted dictionary), exercising
  // pattern-literal sharing through the constant-patch table.
  for (const char* pattern : {"STANDARD%", "SMALL%", "LARGE%"}) {
    plans.push_back({std::string("q14like_") + pattern, 0, {}, pattern});
  }

  QueryRunOptions options;
  options.strategy = ExecutionStrategy::kAdaptive;

  std::printf("Repeated-query artifact cache benchmark (SF %g, %d workers, "
              "%zu distinct plans, %.1fs warm phase)%s\n",
              sf, threads, plans.size(), budget, smoke ? " [smoke]" : "");

  // --- cold phase: first execution of every plan ---------------------------
  std::vector<double> cold_ms;
  double cold_translate_ms = 0;
  for (const PlanSpec& plan : plans) {
    QueryProgram q = Build(plan, *catalog);
    QueryRunOptions cold_options = options;
    if (plan.compile_eagerly) {
      cold_options.strategy = ExecutionStrategy::kOptimized;
    }
    Timer timer;
    QueryRunResult r = engine.Run(q, cold_options);
    cold_ms.push_back(timer.ElapsedMillis());
    cold_translate_ms += r.translate_millis_total;
    if (std::getenv("AQE_DIAG") != nullptr) {
      for (const auto& p : r.pipelines) {
        std::printf("DIAG cold %s pipe tuples=%llu init=%s final=%s pruned=%d sel=%.3f\n",
                    plan.label.c_str(), (unsigned long long)p.tuples,
                    ExecModeName(p.initial_mode), ExecModeName(p.final_mode),
                    (int)p.pruning.analyzed, p.pruning.selected_fraction());
      }
    }
    if (r.rows.empty()) std::abort();
  }

  // Phase boundary: snapshot the monotonic cache + translator counters so
  // the warm phase reports its own delta, not cold-phase pollution.
  const ArtifactCacheStats cold_stats = engine.artifact_cache_stats();
  const TranslatorCounters cold_tc = TranslatorCountersSnapshot();
  const uint64_t cold_anomalies =
      engine.ObservabilitySnapshot().counter("engine.anomalies");

  // --- warm phase: Zipf-repeated submissions -------------------------------
  std::vector<double> warm_ms;
  std::vector<double> warm_wait_ms;
  std::vector<std::vector<double>> warm_by_plan(plans.size());
  // Per-plan warm peak-memory extremes: a warm re-run of the same plan at
  // the same scale factor should allocate the same hash tables and output
  // chunks, so max/min per plan stays near 1 (smoke asserts a 4x ceiling —
  // a blowout means a leaked charge or double-count in the tracker).
  std::vector<uint64_t> warm_peak_min(plans.size(), 0);
  std::vector<uint64_t> warm_peak_max(plans.size(), 0);
  uint64_t warm_runs = 0, warm_no_translate = 0, warm_seeded = 0;
  ZipfSampler zipf(plans.size(), 1.2, 42);
  Timer phase_timer;
  while (phase_timer.ElapsedSeconds() < budget) {
    const size_t rank = zipf.Next();
    const PlanSpec& plan = plans[rank];
    QueryProgram q = Build(plan, *catalog);
    Timer timer;
    QueryRunResult r = engine.Run(q, options);
    warm_ms.push_back(timer.ElapsedMillis());
    warm_by_plan[rank].push_back(warm_ms.back());
    warm_wait_ms.push_back(r.queue_wait_seconds * 1e3);
    if (warm_peak_min[rank] == 0 || r.peak_memory_bytes < warm_peak_min[rank]) {
      warm_peak_min[rank] = r.peak_memory_bytes;
    }
    warm_peak_max[rank] = std::max(warm_peak_max[rank], r.peak_memory_bytes);
    ++warm_runs;
    if (r.translate_millis_total == 0 && r.codegen_millis_total == 0) {
      ++warm_no_translate;
    }
    for (const auto& p : r.pipelines) {
      if (p.initial_mode != ExecMode::kBytecode) {
        ++warm_seeded;
        break;
      }
    }
    if (r.rows.empty()) std::abort();
  }

  const ArtifactCacheStats stats = engine.artifact_cache_stats();
  // Warm-phase delta (operator- subtracts the monotonic counters;
  // bytes/entries stay at their current residency).
  const ArtifactCacheStats warm_stats = stats - cold_stats;
  const TranslatorCounters tc = TranslatorCountersSnapshot();
  const uint64_t warm_translations = tc.programs - cold_tc.programs;
  const double cold_p50 = bench::Percentile(cold_ms, 0.5);
  const double warm_p50 = bench::Percentile(warm_ms, 0.5);
  const double warm_p99 = bench::Percentile(warm_ms, 0.99);
  const double warm_qps =
      static_cast<double>(warm_runs) / phase_timer.ElapsedSeconds();
  const double no_translate_frac =
      warm_runs > 0 ? static_cast<double>(warm_no_translate) /
                          static_cast<double>(warm_runs)
                    : 0;
  // Like-for-like warm speedup: each plan's cold run vs the median of its
  // own warm runs, then the median over plans that were drawn at all. The
  // aggregate warm p50 is over a Zipf-weighted mix while cold p50 weights
  // every plan once, so their quotient is a mix-shift artifact, not a
  // speedup (see header).
  std::vector<double> per_plan_speedup;
  for (size_t i = 0; i < plans.size(); ++i) {
    if (warm_by_plan[i].empty()) continue;
    const double plan_warm_p50 = bench::Percentile(warm_by_plan[i], 0.5);
    if (plan_warm_p50 > 0) {
      per_plan_speedup.push_back(cold_ms[i] / plan_warm_p50);
    }
  }
  const double warm_speedup_p50 = bench::Percentile(per_plan_speedup, 0.5);

  // Warm peak-memory stability across plans drawn at least twice: the worst
  // per-plan max/min ratio, and the overall warm peak range for the JSON.
  double worst_peak_ratio = 0;
  uint64_t warm_peak_overall_max = 0;
  size_t peak_stable_plans = 0;
  for (size_t i = 0; i < plans.size(); ++i) {
    warm_peak_overall_max = std::max(warm_peak_overall_max, warm_peak_max[i]);
    if (warm_by_plan[i].size() < 2 || warm_peak_min[i] == 0) continue;
    ++peak_stable_plans;
    worst_peak_ratio =
        std::max(worst_peak_ratio, static_cast<double>(warm_peak_max[i]) /
                                       static_cast<double>(warm_peak_min[i]));
  }

  std::printf("\n%-22s %10s %10s\n", "", "cold", "warm");
  std::printf("%-22s %9.2fms %9.2fms\n", "p50 latency", cold_p50, warm_p50);
  std::printf("%-22s %10zu %10llu\n", "runs", cold_ms.size(),
              static_cast<unsigned long long>(warm_runs));
  std::printf("%-22s %10s %9.1f%%\n", "translation skipped", "-",
              100.0 * no_translate_frac);
  std::printf("%-22s %10s %10.1f\n", "queries/sec", "-", warm_qps);
  std::printf("%-22s %10s %9.2fx\n", "per-plan speedup p50", "-",
              warm_speedup_p50);
  std::printf("%-22s %10s %9.1fKB\n", "peak memory (max)", "-",
              static_cast<double>(warm_peak_overall_max) / 1024.0);
  std::printf("%-22s %10s %9.2fx\n", "peak max/min (worst)", "-",
              worst_peak_ratio);
  std::printf("cache: %llu bytecode hits (%llu patched), %llu code hits, "
              "%llu misses, %llu evictions, %llu entries, %.1f KiB\n",
              (unsigned long long)stats.bytecode_hits,
              (unsigned long long)stats.patched_hits,
              (unsigned long long)stats.code_hits,
              (unsigned long long)stats.bytecode_misses,
              (unsigned long long)stats.evictions,
              (unsigned long long)stats.entries, stats.bytes / 1024.0);
  std::printf("warm phase only: %llu bytecode hits (%llu patched), %llu code "
              "hits, %llu misses, %llu translations\n",
              (unsigned long long)warm_stats.bytecode_hits,
              (unsigned long long)warm_stats.patched_hits,
              (unsigned long long)warm_stats.code_hits,
              (unsigned long long)warm_stats.bytecode_misses,
              (unsigned long long)warm_translations);

  char line[640];
  std::snprintf(line, sizeof(line),
                "{\"bench\":\"repeated_queries\",\"sf\":%g,\"workers\":%d,"
                "\"plans\":%zu,\"cold_p50_ms\":%.3f,\"warm_p50_ms\":%.3f,"
                "\"warm_p99_ms\":%.3f,\"warm_qps\":%.2f,"
                "\"warm_runs\":%llu,\"warm_no_translate_frac\":%.4f,"
                "\"warm_seeded\":%llu,\"warm_speedup_p50\":%.3f,"
                "\"warm_speedup_plans\":%zu,"
                "\"warm_queue_wait_p50_ms\":%.3f,"
                "\"warm_queue_wait_p99_ms\":%.3f,"
                "\"warm_peak_bytes_max\":%llu,"
                "\"warm_peak_ratio_worst\":%.3f}",
                sf, threads, plans.size(), cold_p50, warm_p50, warm_p99,
                warm_qps, (unsigned long long)warm_runs, no_translate_frac,
                (unsigned long long)warm_seeded, warm_speedup_p50,
                per_plan_speedup.size(),
                bench::Percentile(warm_wait_ms, 0.5),
                bench::Percentile(warm_wait_ms, 0.99),
                (unsigned long long)warm_peak_overall_max, worst_peak_ratio);
  EmitJson(line, json_out);
  std::snprintf(line, sizeof(line),
                "{\"bench\":\"repeated_queries\",\"counters\":{"
                "\"entry_hits\":%llu,\"entry_misses\":%llu,"
                "\"bytecode_hits\":%llu,\"patched_hits\":%llu,"
                "\"code_hits\":%llu,\"bytecode_misses\":%llu,"
                "\"publishes\":%llu,\"evictions\":%llu,\"entries\":%llu,"
                "\"bytes\":%llu}}",
                (unsigned long long)stats.entry_hits,
                (unsigned long long)stats.entry_misses,
                (unsigned long long)stats.bytecode_hits,
                (unsigned long long)stats.patched_hits,
                (unsigned long long)stats.code_hits,
                (unsigned long long)stats.bytecode_misses,
                (unsigned long long)stats.publishes,
                (unsigned long long)stats.evictions,
                (unsigned long long)stats.entries,
                (unsigned long long)stats.bytes);
  EmitJson(line, json_out);
  std::snprintf(line, sizeof(line),
                "{\"bench\":\"repeated_queries\",\"warm_counters\":{"
                "\"bytecode_hits\":%llu,\"patched_hits\":%llu,"
                "\"code_hits\":%llu,\"bytecode_misses\":%llu,"
                "\"publishes\":%llu,\"translations\":%llu,"
                "\"fused_instructions\":%llu}}",
                (unsigned long long)warm_stats.bytecode_hits,
                (unsigned long long)warm_stats.patched_hits,
                (unsigned long long)warm_stats.code_hits,
                (unsigned long long)warm_stats.bytecode_misses,
                (unsigned long long)warm_stats.publishes,
                (unsigned long long)warm_translations,
                (unsigned long long)(tc.fused_instructions -
                                     cold_tc.fused_instructions));
  EmitJson(line, json_out);
  if (json_out != nullptr) std::fclose(json_out);

  std::printf("\nexpected shape: per-plan warm speedup >= 1 (no translation, "
              "best cached mode from the first morsel), translation skipped "
              "on ~100%% of warm runs, patched hits > 0 from the Q6 "
              "variants, code hits > 0 from their prepared (eagerly "
              "compiled) cold runs\n");

  if (smoke) {
    // Acceptance assertions (CI): warm hits observed, translation skipped.
    int failures = 0;
    if (warm_stats.bytecode_hits + warm_stats.patched_hits +
            warm_stats.code_hits ==
        0) {
      std::fprintf(stderr, "SMOKE FAIL: no warm cache hits recorded\n");
      ++failures;
    }
    // The prepared Q6 variants published opt code variants in the cold
    // phase; across ~>=100 Zipf draws the chance none of the three is
    // drawn is negligible, so zero here means the publish -> seed path is
    // broken (the counter this guards regressed to 0 silently once).
    if (warm_stats.code_hits == 0) {
      std::fprintf(stderr,
                   "SMOKE FAIL: no warm run seeded a published machine-code "
                   "variant (code_hits == 0)\n");
      ++failures;
    }
    // Per-plan: repeating a plan must not be slower than first running it
    // (warm skips codegen + translation and seeds the best known mode).
    // Floor at 1.0 with no tolerance: cold includes translation, so the
    // like-for-like median sits comfortably above 1 unless reuse breaks.
    if (warm_speedup_p50 < 1.0) {
      std::fprintf(stderr,
                   "SMOKE FAIL: per-plan warm speedup p50 %.3f < 1.0 over "
                   "%zu plans\n",
                   warm_speedup_p50, per_plan_speedup.size());
      ++failures;
    }
    if (warm_runs > 0 && warm_no_translate == 0) {
      std::fprintf(stderr, "SMOKE FAIL: no warm run skipped translation\n");
      ++failures;
    }
    // Every warm run must report a non-zero tracked peak (output chunks and
    // binding arenas are always charged), and repeated runs of a plan must
    // land near the same peak — warm re-execution allocates the same state,
    // so a >4x spread means charges leak or double-count.
    if (warm_runs > 0 && warm_peak_overall_max == 0) {
      std::fprintf(stderr,
                   "SMOKE FAIL: warm runs reported zero peak memory\n");
      ++failures;
    }
    if (peak_stable_plans > 0 && worst_peak_ratio > 4.0) {
      std::fprintf(stderr,
                   "SMOKE FAIL: warm peak memory unstable: worst per-plan "
                   "max/min ratio %.2fx > 4x over %zu plans\n",
                   worst_peak_ratio, peak_stable_plans);
      ++failures;
    }
    if (stats.entry_misses == 0) {
      std::fprintf(stderr, "SMOKE FAIL: cold phase recorded no misses\n");
      ++failures;
    }
    // The regression sentinel must stay silent across the warm phase:
    // repeated warm hits of the same fingerprints are its steady state,
    // and an alert here means the deviation guard is miscalibrated.
    const uint64_t warm_anomalies =
        engine.ObservabilitySnapshot().counter("engine.anomalies") -
        cold_anomalies;
    if (warm_anomalies != 0) {
      std::fprintf(stderr,
                   "SMOKE FAIL: regression sentinel flagged %llu warm-phase "
                   "runs (expected 0)\n",
                   (unsigned long long)warm_anomalies);
      ++failures;
    }
    if (failures > 0) return 1;
    std::printf("smoke assertions passed: warm hits=%llu (%llu code), "
                "translation-free warm runs=%llu/%llu, per-plan speedup "
                "p50 %.2fx\n",
                (unsigned long long)(warm_stats.bytecode_hits +
                                     warm_stats.patched_hits +
                                     warm_stats.code_hits),
                (unsigned long long)warm_stats.code_hits,
                (unsigned long long)warm_no_translate,
                (unsigned long long)warm_runs,
                warm_speedup_p50);
  }
  return 0;
}
