// String predicate benchmark: the src/strings/ acceptance harness. LIKE
// predicates run end-to-end under three per-row representations —
//
//   bitmap   dictionary pre-evaluation: byte-per-code bitmap probe (or a
//            code-range compare for prefix patterns), fuses with br_*
//   call     per-row aqe_like_match runtime call: the call-heavy regime
//            where compiled speedup shrinks (runtime-call-density signal)
//   index    the same runtime-call lowering with scan pruning enabled: the
//            inverted token index intersects postings and only candidate
//            morsels are ever scheduled (src/index/); the call is the
//            residual verify. Only orders.o_comment carries a token index,
//            so the other workloads measure the no-index fallback.
//   (all measured interpreted and compiled: the VM on the build's dispatch
//   loop, the JIT and the adaptive controller; bitmap/call run with
//   pruning disabled so their per-row numbers keep meaning full scans)
//
// over three workloads:
//
//   dict      lineitem: l_shipinstruct LIKE '%TAKE%BACK%' (4 distinct
//             strings; general pattern, see note on kWorkloads)
//   q16       part:     NOT p_type LIKE 'MEDIUM POLISHED%' (range compare)
//   highcard  orders:   o_comment LIKE '%special%requests%' (Q13's
//             predicate; nearly every comment distinct, so kAuto takes the
//             runtime-call path and the shift-or matcher runs per row)
//
// Emits JSON lines (also to BENCH_strings.json): ns/row, match counts,
// runtime-call density, adaptive final mode. `--smoke` asserts the
// acceptance criteria: all engines agree on every workload, and on the
// dictionary workload the bitmap path is >= 3x the runtime-call path per
// row (exit 1 otherwise) — CI runs this in the Release jobs.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/page_allocator.h"
#include "common/random.h"
#include "common/timer.h"
#include "plan/builder.h"
#include "simd/simd.h"
#include "storage/dictionary.h"
#include "strings/like_lowering.h"

using namespace aqe;

namespace {

struct Workload {
  const char* name;
  const char* table;
  const char* column;
  const char* pattern;
  bool negate = false;
};

// The dict workload's pattern is deliberately *general* (two '%'-separated
// segments -> the compiled shift-or matcher): the bitmap path's per-row
// probe cost is pattern-independent — pre-evaluation absorbs any matcher
// complexity at setup — while the call path pays it per row. A bare
// contains pattern would understate the gap the bitmap path exists to
// close.
const Workload kWorkloads[] = {
    {"dict", "lineitem", "l_shipinstruct", "%TAKE%BACK%", false},
    {"q16", "part", "p_type", "MEDIUM POLISHED%", true},
    {"highcard", "orders", "o_comment", "%special%requests%", false},
};

/// Ends `scan` in count(*) and reads the count as the plan's one row.
QueryProgram CountRows(PlanBuilder* b, Pipe* scan) {
  AggRef count = scan->Aggregate(
      I64(0), Aggs(Agg{"count", AggKind::kCount, nullptr, false}));
  b->Step(ReadGroups(count.id, ExprList(count["count"]), nullptr,
                     /*scalar=*/true));
  return b->Take();
}

const char* PathName(LikeStrategy strategy) {
  switch (strategy) {
    case LikeStrategy::kBitmap: return "bitmap";
    case LikeStrategy::kIndex: return "index";
    default: return "call";
  }
}

/// SELECT count(*) FROM <table> WHERE [NOT] <column> LIKE <pattern>.
QueryProgram BuildLikeCount(const Catalog& catalog, const Workload& w,
                            LikeStrategy strategy) {
  PlanBuilder b(catalog, std::string("strings_") + w.name + "_" +
                             PathName(strategy));
  Pipe scan = b.Scan(std::string("scan ") + w.table, w.table, {w.column});
  const Table* table = catalog.GetTable(w.table);
  LikeLoweringOptions options;
  options.strategy = strategy;
  LoweredLike lowered =
      LowerLikePredicate(&b.program(), *table, table->ColumnIndex(w.column),
                         scan.slot(w.column), w.pattern, options);
  ExprPtr predicate = std::move(lowered.expr);
  if (w.negate) predicate = Not(std::move(predicate));
  scan.Filter(std::move(predicate));
  return CountRows(&b, &scan);
}

/// SELECT count(*) FROM orders WHERE lo <= o_orderkey < hi. o_orderkey is
/// appended in ascending order, so the predicate is clustered: zone maps
/// can prune every morsel outside the key window before scheduling. This
/// is the zone-map probe's plan (pruning off vs on on the same plan).
QueryProgram BuildRangeCount(const Catalog& catalog, int64_t lo, int64_t hi) {
  PlanBuilder b(catalog, "strings_zonemap_range");
  Pipe scan = b.Scan("scan orders", "orders", {"o_orderkey"});
  scan.Filter(
      And(Ge(scan["o_orderkey"], I64(lo)), Lt(scan["o_orderkey"], I64(hi))));
  return CountRows(&b, &scan);
}

struct EngineConfig {
  EngineKind engine;
  ExecutionStrategy strategy;
  const char* label;
};

const EngineConfig kConfigs[] = {
    {EngineKind::kVolcano, ExecutionStrategy::kBytecode, "volcano"},
    {EngineKind::kVectorized, ExecutionStrategy::kBytecode, "vectorized"},
    {EngineKind::kCompiled, ExecutionStrategy::kBytecode, "vm"},
    {EngineKind::kCompiled, ExecutionStrategy::kOptimized, "jit-opt"},
    {EngineKind::kCompiled, ExecutionStrategy::kAdaptive, "adaptive"},
};

void EmitJson(const char* line, std::FILE* json_out) {
  std::printf("%s\n", line);
  if (json_out != nullptr) std::fprintf(json_out, "%s\n", line);
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  // Smoke needs enough rows that the bitmap path's ns/row isn't dominated
  // by fixed pipeline overhead (the 3x acceptance ratio is a per-row
  // claim), hence 0.02 rather than the usual 0.01 smoke scale.
  const double sf = bench::EnvDouble("AQE_SF", smoke ? 0.02 : 0.05);
  const int threads = bench::EnvInt("AQE_THREADS", 2);
  // Best-of-N with one untimed warmup per config; smoke repeats more so
  // the >= 3x acceptance ratio is stable on a noisy 1-core host (best-of
  // converges monotonically, and ~20% run-to-run variance was observed
  // with only 3 repeats).
  const int repeats = bench::EnvInt("AQE_REPEATS", smoke ? 9 : 5);
  Catalog* catalog = bench::TpchAtScale(sf);
  QueryEngine engine(catalog, threads);
  // A forced-level rerun (AQE_SIMD set) appends to the snapshot instead of
  // replacing it, so one file holds both levels side by side and the SIMD
  // speedup can be read off directly.
  std::FILE* json_out = std::fopen(
      "BENCH_strings.json", std::getenv("AQE_SIMD") != nullptr ? "a" : "w");

  // AQE_SIMD=scalar re-runs the whole bench on the scalar reference
  // kernels, isolating the SIMD speedup in the archived JSON (the level is
  // stamped into every line).
  const char* simd = SimdLevelName(ActiveSimdLevel());
  std::printf("String predicate benchmark (SF %g, %d workers, simd %s)%s\n",
              sf, threads, simd, smoke ? " [smoke]" : "");
  std::printf("%-9s %-7s %-11s %12s %10s %9s %s\n", "workload", "path",
              "engine", "rows", "matches", "ns/row", "final-mode");

  // best exec-seconds per (workload, path-label, engine-label)
  int failures = 0;
  double dict_bitmap_best_ns = 0, dict_call_best_ns = 0;
  double highcard_call_best_ns = 0, highcard_index_best_ns = 0;
  double highcard_index_selected_fraction = 1.0;

  for (const Workload& w : kWorkloads) {
    const Table* table = catalog->GetTable(w.table);
    const double rows = static_cast<double>(table->num_rows());
    int64_t reference_count = -1;

    for (LikeStrategy strategy :
         {LikeStrategy::kBitmap, LikeStrategy::kRuntimeCall,
          LikeStrategy::kIndex}) {
      const char* path = PathName(strategy);

      // Runtime-call density of this plan's scan pipeline (cost-model
      // input; ~0 on the bitmap path).
      QueryProgram cost_probe = BuildLikeCount(*catalog, w, strategy);
      const auto costs =
          engine.MeasureCompileCosts(cost_probe, /*measure_jit=*/false);
      const double call_fraction =
          costs.empty() ? 0 : costs.front().runtime_call_fraction;

      for (const EngineConfig& config : kConfigs) {
        double best_exec = 0;
        int64_t matches = -1;
        ExecMode final_mode = ExecMode::kBytecode;
        double selected_fraction = 1.0;
        for (int r = -1; r < repeats; ++r) {  // r == -1: untimed warmup
          QueryProgram q = BuildLikeCount(*catalog, w, strategy);
          QueryRunOptions options;
          options.engine = config.engine;
          options.strategy = config.strategy;
          // Only the index path runs with scan pruning: bitmap/call keep
          // full scans so their per-row numbers stay comparable across PRs.
          // On the index path the volcano and vectorized rows prune too:
          // every engine scans the same pruned domain.
          options.scan_pruning = strategy == LikeStrategy::kIndex;
          // Whole pipeline on one thread (the paper's latency setup):
          // per-row costs aren't blurred by morsel scheduling, which
          // matters for the sub-ms bitmap-path runs the smoke asserts on.
          options.single_threaded = true;
          QueryRunResult result = engine.Run(q, options);
          const double exec = result.exec_seconds_total;
          if (r <= 0 || exec < best_exec) best_exec = exec;
          matches = result.rows.at(0).at(0);
          for (const PipelineReport& p : result.pipelines) {
            final_mode = p.final_mode;
            if (p.pruning.analyzed) {
              selected_fraction = p.pruning.selected_fraction();
            }
          }
        }
        if (reference_count < 0) reference_count = matches;
        if (matches != reference_count) {
          std::fprintf(
              stderr, "DIFFERENTIAL FAIL: %s/%s/%s count %lld != reference "
                      "%lld\n",
              w.name, path, config.label, static_cast<long long>(matches),
              static_cast<long long>(reference_count));
          ++failures;
        }
        const double ns_per_row = best_exec / rows * 1e9;
        const bool compiled = config.engine == EngineKind::kCompiled;
        std::printf("%-9s %-7s %-11s %12.0f %10lld %9.2f %s\n", w.name, path,
                    config.label, rows, static_cast<long long>(matches),
                    ns_per_row,
                    compiled ? ExecModeName(final_mode) : "-");
        char line[512];
        std::snprintf(
            line, sizeof(line),
            "{\"bench\":\"string_predicates\",\"sf\":%g,\"simd\":\"%s\","
            "\"workload\":\"%s\","
            "\"path\":\"%s\",\"engine\":\"%s\",\"rows\":%.0f,"
            "\"matches\":%lld,\"ns_per_row\":%.3f,"
            "\"runtime_call_fraction\":%.4f,\"selected_fraction\":%.4f,"
            "\"final_mode\":\"%s\"}",
            sf, simd, w.name, path, config.label, rows,
            static_cast<long long>(matches), ns_per_row, call_fraction,
            selected_fraction, compiled ? ExecModeName(final_mode) : "-");
        EmitJson(line, json_out);

        if (std::strcmp(w.name, "dict") == 0 &&
            std::strcmp(config.label, "jit-opt") == 0) {
          if (strategy == LikeStrategy::kBitmap) {
            dict_bitmap_best_ns = ns_per_row;
          } else if (strategy == LikeStrategy::kRuntimeCall) {
            dict_call_best_ns = ns_per_row;
          }
        }
        if (std::strcmp(w.name, "highcard") == 0 &&
            std::strcmp(config.label, "jit-opt") == 0) {
          if (strategy == LikeStrategy::kRuntimeCall) {
            highcard_call_best_ns = ns_per_row;
          } else if (strategy == LikeStrategy::kIndex) {
            highcard_index_best_ns = ns_per_row;
            highcard_index_selected_fraction = selected_fraction;
          }
        }
      }
    }
  }

  // --- pure-kernel probe: active SIMD tier vs forced scalar -----------------
  // The engine-level dict numbers above are Amdahl-capped by the scan and
  // aggregation around the probe; this times BitmapProbeSelI32 itself on a
  // synthetic dictionary-code column, so the archived JSON carries the
  // kernel-level SIMD speedup directly. Skipped when the active level is
  // already scalar (nothing to compare).
  double probe_kernel_speedup = 0;
  if (ActiveSimdLevel() != SimdLevel::kScalar) {
    constexpr int kCodes = 1 << 16;
    constexpr int kDictSize = 1024;
    std::vector<int32_t> codes(kCodes);
    uint32_t rng = 0x9e3779b9u;
    for (int i = 0; i < kCodes; ++i) {
      rng = rng * 1664525u + 1013904223u;  // LCG: deterministic input
      codes[i] = static_cast<int32_t>(rng % kDictSize);
    }
    // ~5% of dictionary entries match, scattered at random — the shape of a
    // selective LIKE predicate. Selectivity matters: the scalar probe's
    // per-element branch mispredicts on a scattered bitmap, which is where
    // the branch-free gather+movemask kernel wins; at high selectivity the
    // compressed-store work dominates and the tiers converge.
    std::vector<uint8_t> bitmap(kDictSize + kSimdBitmapPadding, 0);
    for (int c = 0; c < kDictSize; ++c) {
      rng = rng * 1664525u + 1013904223u;
      bitmap[c] = (rng % 100) < 5 ? 1 : 0;
    }
    std::vector<int32_t> sel(kCodes);
    const SimdLevel levels[2] = {ActiveSimdLevel(), SimdLevel::kScalar};
    double mcodes[2] = {0, 0};
    for (int l = 0; l < 2; ++l) {
      volatile int sink = 0;
      for (int r = -1; r < repeats; ++r) {  // r == -1: untimed warmup
        const int passes = smoke ? 64 : 256;
        Timer timer;
        for (int p = 0; p < passes; ++p) {
          sink = BitmapProbeSelI32At(levels[l], codes.data(), kCodes,
                                     bitmap.data(), sel.data());
        }
        const double rate = passes * static_cast<double>(kCodes) /
                            (timer.ElapsedMillis() * 1e-3) / 1e6;
        if (r >= 0) mcodes[l] = std::max(mcodes[l], rate);
      }
      (void)sink;
      char kline[256];
      std::snprintf(kline, sizeof(kline),
                    "{\"bench\":\"string_predicates\","
                    "\"kernel\":\"bitmap_probe_sel_i32\",\"level\":\"%s\","
                    "\"mcodes_per_sec\":%.1f}",
                    SimdLevelName(levels[l]), mcodes[l]);
      EmitJson(kline, json_out);
    }
    probe_kernel_speedup = mcodes[1] > 0 ? mcodes[0] / mcodes[1] : 0;
    std::printf("\nbitmap probe kernel: %s %.0f Mcodes/s vs scalar %.0f "
                "Mcodes/s -> %.1fx\n",
                SimdLevelName(levels[0]), mcodes[0], mcodes[1],
                probe_kernel_speedup);
  }

  // --- zone-map probe: clustered range scan, pruning off vs on --------------
  // o_orderkey is appended in ascending order, so a 10%-of-rows key window
  // is clustered: zone maps should keep only the morsels overlapping the
  // window and never schedule the rest. Same plan, pruning toggled, so the
  // ratio is purely scan work saved (plus the differential count check).
  double zonemap_selected_fraction = 1.0;
  double zonemap_full_ns = 0, zonemap_pruned_ns = 0;
  {
    const Table* orders = catalog->GetTable("orders");
    const uint64_t orows = orders->num_rows();
    const Column& okey = orders->column("o_orderkey");
    const int64_t lo = okey.GetAsI64(orows * 45 / 100);
    const int64_t hi = okey.GetAsI64(orows * 55 / 100);
    int64_t reference_count = -1;
    for (const bool pruning : {false, true}) {
      double best_exec = 0;
      int64_t count = -1;
      double selected_fraction = 1.0;
      for (int r = -1; r < repeats; ++r) {  // r == -1: untimed warmup
        QueryProgram q = BuildRangeCount(*catalog, lo, hi);
        QueryRunOptions options;
        options.engine = EngineKind::kCompiled;
        options.strategy = ExecutionStrategy::kBytecode;
        options.scan_pruning = pruning;
        options.single_threaded = true;
        QueryRunResult result = engine.Run(q, options);
        const double exec = result.exec_seconds_total;
        if (r <= 0 || exec < best_exec) best_exec = exec;
        count = result.rows.at(0).at(0);
        for (const PipelineReport& p : result.pipelines) {
          if (p.pruning.analyzed) {
            selected_fraction = p.pruning.selected_fraction();
          }
        }
      }
      if (reference_count < 0) reference_count = count;
      if (count != reference_count) {
        std::fprintf(stderr,
                     "DIFFERENTIAL FAIL: zonemap pruned count %lld != full "
                     "scan %lld\n",
                     static_cast<long long>(count),
                     static_cast<long long>(reference_count));
        ++failures;
      }
      const double ns_per_row = best_exec / static_cast<double>(orows) * 1e9;
      if (pruning) {
        zonemap_pruned_ns = ns_per_row;
        zonemap_selected_fraction = selected_fraction;
      } else {
        zonemap_full_ns = ns_per_row;
      }
      std::printf("%-9s %-7s %-11s %12llu %10lld %9.2f -\n", "zonemap",
                  pruning ? "pruned" : "full", "vm",
                  static_cast<unsigned long long>(orows),
                  static_cast<long long>(count), ns_per_row);
      char zline[384];
      std::snprintf(
          zline, sizeof(zline),
          "{\"bench\":\"string_predicates\",\"sf\":%g,\"simd\":\"%s\","
          "\"workload\":\"zonemap\",\"path\":\"%s\",\"engine\":\"vm\","
          "\"rows\":%llu,\"matches\":%lld,\"ns_per_row\":%.3f,"
          "\"selected_fraction\":%.4f}",
          sf, simd, pruning ? "pruned" : "full",
          static_cast<unsigned long long>(orows),
          static_cast<long long>(count), ns_per_row, selected_fraction);
      EmitJson(zline, json_out);
    }
  }

  // --- bulk-load sort: the worst input order over a shuffled one -----------
  // 20 k distinct random 12-byte strings, bulk-loaded on one thread (below
  // Dictionary::kParallelBulkLoad) shuffled, sorted, reversed, and one of
  // them 20 k times, each the minimum of 3 loads. The sort's pivot is a
  // median of 3 and its partitions per depth are capped, so no order may
  // cost more than a constant times the shuffled one; a pivot that
  // degrades on presorted input makes the ratio grow with the count.
  {
    constexpr size_t kStrings = 20000;
    static_assert(kStrings < Dictionary::kParallelBulkLoad);
    Random rng(0xB01Du);
    std::vector<std::string> sorted;
    while (sorted.size() < kStrings) {
      std::string s(12, '\0');
      for (char& c : s) c = static_cast<char>(rng.NextBelow(256));
      sorted.push_back(std::move(s));
      if (sorted.size() == kStrings) {
        std::sort(sorted.begin(), sorted.end());
        sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
      }
    }
    std::vector<std::string> shuffled = sorted;
    for (size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[rng.NextBelow(i)]);
    }
    const std::vector<std::string> reversed(sorted.rbegin(), sorted.rend());
    const std::vector<std::string> repeated(kStrings, sorted[kStrings / 2]);
    const auto min_load_ms = [](const std::vector<std::string>& values) {
      PageVector<char> bytes;
      PageVector<uint64_t> ends;
      for (const std::string& v : values) {
        bytes.insert(bytes.end(), v.begin(), v.end());
        ends.push_back(bytes.size());
      }
      double best = 0;
      for (int r = 0; r < 3; ++r) {
        Dictionary dictionary;
        Timer timer;
        dictionary.BulkLoad(bytes, ends);
        const double ms = timer.ElapsedMillis();
        if (r == 0 || ms < best) best = ms;
      }
      return best;
    };
    const double shuffled_ms = min_load_ms(shuffled);
    const double sorted_ms = min_load_ms(sorted);
    const double reversed_ms = min_load_ms(reversed);
    const double repeated_ms = min_load_ms(repeated);
    const double worst_over_shuffled =
        std::max({sorted_ms, reversed_ms, repeated_ms}) / shuffled_ms;
    std::printf("\nbulk load of %zu strings: shuffled %.2f ms, sorted %.2f, "
                "reversed %.2f, repeated %.2f -> worst %.2fx shuffled\n",
                kStrings, shuffled_ms, sorted_ms, reversed_ms, repeated_ms,
                worst_over_shuffled);
    char bline[384];
    std::snprintf(bline, sizeof(bline),
                  "{\"bench\":\"string_predicates\",\"kernel\":\"bulk-load\","
                  "\"config\":\"worst_over_shuffled\",\"ratio\":%.3f,"
                  "\"shuffled_ms\":%.3f,\"sorted_ms\":%.3f,"
                  "\"reversed_ms\":%.3f,\"repeated_ms\":%.3f}",
                  worst_over_shuffled, shuffled_ms, sorted_ms,
                  reversed_ms, repeated_ms);
    EmitJson(bline, json_out);
  }

  const double bitmap_advantage =
      dict_bitmap_best_ns > 0 ? dict_call_best_ns / dict_bitmap_best_ns : 0;
  const double index_advantage =
      highcard_index_best_ns > 0 ? highcard_call_best_ns / highcard_index_best_ns
                                 : 0;
  const double zonemap_advantage =
      zonemap_pruned_ns > 0 ? zonemap_full_ns / zonemap_pruned_ns : 0;
  // Both call paths decode a dictionary string and run a compiled matcher
  // per row, in one run, so machine speed cancels out of the ratio. The
  // highcard dictionary is large and its strings long, so a costlier
  // decode (a longer walk from the block head) shows here first.
  const double highcard_call_over_dict_call =
      dict_call_best_ns > 0 ? highcard_call_best_ns / dict_call_best_ns : 0;
  char line[704];
  std::snprintf(line, sizeof(line),
                "{\"bench\":\"string_predicates\",\"summary\":{"
                "\"simd\":\"%s\","
                "\"dict_bitmap_ns_per_row\":%.3f,"
                "\"dict_call_ns_per_row\":%.3f,"
                "\"bitmap_over_call\":%.2f,"
                "\"highcard_index_ns_per_row\":%.3f,"
                "\"highcard_call_ns_per_row\":%.3f,"
                "\"highcard_call_over_dict_call\":%.2f,"
                "\"index_over_call\":%.2f,"
                "\"highcard_selected_fraction\":%.4f,"
                "\"zonemap_selected_fraction\":%.4f,"
                "\"zonemap_speedup\":%.2f,"
                "\"probe_kernel_speedup\":%.2f}}",
                simd, dict_bitmap_best_ns, dict_call_best_ns,
                bitmap_advantage, highcard_index_best_ns,
                highcard_call_best_ns, highcard_call_over_dict_call,
                index_advantage,
                highcard_index_selected_fraction, zonemap_selected_fraction,
                zonemap_advantage, probe_kernel_speedup);
  EmitJson(line, json_out);
  if (json_out != nullptr) std::fclose(json_out);

  std::printf("\ndictionary workload, jit-opt: bitmap %.2f ns/row vs call "
              "%.2f ns/row -> %.1fx\n",
              dict_bitmap_best_ns, dict_call_best_ns, bitmap_advantage);
  std::printf("highcard workload, jit-opt: index %.2f ns/row (%.1f%% of rows "
              "scheduled) vs call %.2f ns/row -> %.1fx\n",
              highcard_index_best_ns,
              highcard_index_selected_fraction * 100, highcard_call_best_ns,
              index_advantage);
  std::printf("zonemap range scan: pruned %.2f ns/row (%.1f%% of rows "
              "scheduled) vs full %.2f ns/row -> %.1fx\n",
              zonemap_pruned_ns, zonemap_selected_fraction * 100,
              zonemap_full_ns, zonemap_advantage);

  if (smoke) {
    // Acceptance: the pre-evaluated bitmap probe must beat the per-row
    // runtime call by >= 3x on the dictionary-encoded workload.
    if (bitmap_advantage < 3.0) {
      std::fprintf(stderr,
                   "SMOKE FAIL: bitmap path only %.2fx the runtime-call "
                   "path (need >= 3x)\n",
                   bitmap_advantage);
      ++failures;
    }
    // Acceptance (src/index/): the inverted-index access path must beat
    // the full-scan runtime-call path >= 10x per input row on the highcard
    // contains workload, and the clustered zone-map range scan must
    // schedule < 20% of the table's rows.
    if (index_advantage < 10.0) {
      std::fprintf(stderr,
                   "SMOKE FAIL: index path only %.2fx the runtime-call "
                   "path on highcard (need >= 10x)\n",
                   index_advantage);
      ++failures;
    }
    if (zonemap_selected_fraction >= 0.2) {
      std::fprintf(stderr,
                   "SMOKE FAIL: zone-map range scan scheduled %.1f%% of "
                   "rows (need < 20%%)\n",
                   zonemap_selected_fraction * 100);
      ++failures;
    }
    if (failures == 0) {
      std::printf("smoke assertions passed: engines agree, bitmap %.1fx "
                  ">= 3x call path, index %.1fx >= 10x call path, zonemap "
                  "scheduled %.1f%% < 20%%\n",
                  bitmap_advantage, index_advantage,
                  zonemap_selected_fraction * 100);
    }
  }
  // Engine disagreement is a correctness failure in any mode; the perf
  // ratio only gates --smoke.
  return failures > 0 ? 1 : 0;
}
