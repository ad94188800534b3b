// Regenerates Fig 2: single-threaded compilation time vs execution time of
// TPC-H Q1 for: handwritten C++, LLVM optimized, LLVM unoptimized, the
// bytecode VM, and direct LLVM-IR interpretation.
//
// Each mode also prints one machine-readable JSON line (written to
// BENCH_fig02_latency_throughput.json, one snapshot per run) so the
// benchmark trajectory can be archived and compared across PRs, like
// micro_vm_dispatch does.
#include "bench/bench_util.h"
#include "common/timer.h"
#include "queries/handwritten_q1.h"

using namespace aqe;

namespace {

void Report(const char* mode, double sf, double compile_ms, double exec_ms,
            std::FILE* json_out, const char* note = "") {
  std::printf("%-16s %14.2f %14.2f   %s\n", mode, compile_ms, exec_ms, note);
  char line[256];
  std::snprintf(line, sizeof(line),
                "{\"bench\":\"fig02_latency_throughput\",\"mode\":\"%s\","
                "\"sf\":%g,\"compile_ms\":%.4f,\"exec_ms\":%.4f}",
                mode, sf, compile_ms, exec_ms);
  std::printf("%s\n", line);
  if (json_out != nullptr) std::fprintf(json_out, "%s\n", line);
}

}  // namespace

int main() {
  double sf = bench::EnvDouble("AQE_SF", 0.1);
  Catalog* catalog = bench::TpchAtScale(sf);
  QueryEngine engine(catalog, /*num_threads=*/1);
  std::FILE* json_out = std::fopen("BENCH_fig02_latency_throughput.json", "w");

  std::printf("Fig 2 — Q1 (SF %g), single thread: compile vs execute\n", sf);
  std::printf("%-16s %14s %14s\n", "mode", "compile [ms]", "execute [ms]");

  {  // handwritten C++ (no compilation at query time)
    Timer t;
    auto rows = HandwrittenQ1(*catalog);
    Report("handwritten", sf, 0.0, t.ElapsedMillis(), json_out);
  }
  struct ModeRow {
    const char* label;
    ExecutionStrategy strategy;
  };
  const ModeRow modes[] = {
      {"llvm-optimized", ExecutionStrategy::kOptimized},
      {"llvm-unopt", ExecutionStrategy::kUnoptimized},
      {"llvm-bytecode", ExecutionStrategy::kBytecode},
  };
  for (const ModeRow& mode : modes) {
    QueryProgram q1 = BuildTpchQuery(1, *catalog);
    QueryRunOptions options;
    options.strategy = mode.strategy;
    options.single_threaded = true;  // Fig 2 is a single-threaded figure
    // Fig 2 reports *cold* compile cost per mode; the engine-level artifact
    // cache would zero it from the second mode on.
    options.use_artifact_cache = false;
    QueryRunResult r = engine.Run(q1, options);
    double compile_ms = r.codegen_millis_total + r.translate_millis_total +
                        r.compile_millis_total;
    Report(mode.label, sf, compile_ms, r.exec_seconds_total * 1e3,
           json_out);
  }
  {  // naive IR interpretation — measured on a smaller SF and scaled
     // linearly (it is orders of magnitude slower; Fig 2's point).
    double naive_sf = std::min(sf, bench::EnvDouble("AQE_NAIVE_SF", 0.002));
    Catalog* small = bench::TpchAtScale(naive_sf);
    QueryEngine small_engine(small, 1);
    QueryProgram q1 = BuildTpchQuery(1, *small);
    QueryRunOptions options;
    options.engine = EngineKind::kNaiveIr;
    QueryRunResult r = small_engine.Run(q1, options);
    double scaled = r.exec_seconds_total * 1e3 * (sf / naive_sf);
    char note[64];
    std::snprintf(note, sizeof(note), "(measured at SF %g, scaled)",
                  naive_sf);
    Report("llvm-ir-interp", sf, r.codegen_millis_total, scaled, json_out,
           note);
  }
  std::printf("\nexpected shape: optimized = slowest compile/fastest exec; "
              "bytecode = ~0 compile/slowest exec (but far faster than IR "
              "interpretation); handwritten slightly beats optimized (no "
              "overflow checks)\n");
  if (json_out != nullptr) std::fclose(json_out);
  return 0;
}
