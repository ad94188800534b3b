// Microbenchmark: raw dispatch throughput of the interpreter engines (and
// the JIT tiers for context) on interpreter-mode kernels, isolating
// interpretation overhead from query plumbing.
//
// Configs compared side by side:
//   switch          for(;;)-switch dispatch, no cmp-branch fusion — the
//                   seed interpreter's shape (macro-op fusion on)
//   switch+fused    switch dispatch + compare-and-branch superinstructions
//   threaded        direct-threaded (computed goto) dispatch
//   threaded+fused  threaded dispatch + compare-and-branch fusion
//
// Three dispatch kernels: TPC-H Q6's scan-filter-sum pipeline (real
// generated code), a scan-filter count, and a synthetic expression loop
// (compare/branch/arithmetic heavy, the worst case for dispatch overhead).
// Then the CI gates' kernels: tracing and memory-accounting overhead, and
// translation and optimized-compile time per instruction.
//
// Each config prints one machine-readable JSON line (also written to
// BENCH_micro_vm_dispatch.json, one snapshot per run) so each PR's perf
// numbers can be archived and compared.
#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <llvm/IR/IRBuilder.h>

#include "bench/bench_util.h"
#include "codegen/query_compiler.h"
#include "common/timer.h"
#include "engine/query_engine.h"
#include "ir/ir_module.h"
#include "jit/jit_compiler.h"
#include "obs/memory_tracker.h"
#include "obs/metrics.h"
#include "obs/trace_ring.h"
#include "queries/generated_queries.h"
#include "runtime/runtime_registry.h"
#include "vm/interpreter.h"
#include "vm/translator.h"

namespace aqe {
namespace {

struct Q6Kernel {
  Catalog* catalog;
  QueryProgram program;
  std::unique_ptr<QueryContext> ctx;
  PipelineBindings bindings;
  std::vector<uint64_t> binding_values;  ///< the worker's `state` argument
  uint64_t rows;

  explicit Q6Kernel(double sf)
      : catalog(bench::TpchAtScale(sf)),
        program(BuildTpchQuery(6, *catalog)) {
    ctx = program.MakeContext(catalog);
    bindings = BindPipeline(program, program.pipelines()[0], *ctx);
    binding_values = bindings.Pack();
    rows = catalog->GetTable("lineitem")->num_rows();
  }
  const PipelineSpec& spec() const { return program.pipelines()[0]; }
  void* state() { return binding_values.data(); }
};

/// Builds `i64 f(i64 lo, i64 n, ptr buf)`: a loop over `n` rows of i64
/// data with a filter compare, a data-dependent branch, and a running sum —
/// the expression shape whose cost is almost entirely dispatch.
void BuildExpressionKernel(IrModule* mod) {
  auto& ctx = mod->context();
  llvm::IRBuilder<> b(ctx);
  auto* i64 = llvm::Type::getInt64Ty(ctx);
  auto* fty = llvm::FunctionType::get(
      i64, {i64, i64, llvm::Type::getInt64PtrTy(ctx)}, false);
  auto* fn = llvm::Function::Create(fty, llvm::Function::ExternalLinkage, "f",
                                    &mod->module());
  auto* entry = llvm::BasicBlock::Create(ctx, "entry", fn);
  auto* head = llvm::BasicBlock::Create(ctx, "head", fn);
  auto* body = llvm::BasicBlock::Create(ctx, "body", fn);
  auto* keep = llvm::BasicBlock::Create(ctx, "keep", fn);
  auto* next = llvm::BasicBlock::Create(ctx, "next", fn);
  auto* exit = llvm::BasicBlock::Create(ctx, "exit", fn);

  b.SetInsertPoint(entry);
  b.CreateBr(head);

  b.SetInsertPoint(head);
  auto* i = b.CreatePHI(i64, 2, "i");
  auto* sum = b.CreatePHI(i64, 2, "sum");
  auto* cond = b.CreateICmpSLT(i, fn->getArg(1));
  b.CreateCondBr(cond, body, exit);

  b.SetInsertPoint(body);
  auto* gep = b.CreateGEP(i64, fn->getArg(2), i);
  auto* v = b.CreateLoad(i64, gep);
  auto* pass = b.CreateICmpSGT(v, fn->getArg(0));
  b.CreateCondBr(pass, keep, next);

  b.SetInsertPoint(keep);
  auto* scaled = b.CreateMul(v, b.getInt64(3));
  auto* masked = b.CreateXor(scaled, b.CreateAnd(v, b.getInt64(0xFF)));
  auto* sum2 = b.CreateAdd(sum, masked);
  b.CreateBr(next);

  b.SetInsertPoint(next);
  auto* sum3 = b.CreatePHI(i64, 2, "sum3");
  auto* i2 = b.CreateAdd(i, b.getInt64(1));
  b.CreateBr(head);

  b.SetInsertPoint(exit);
  b.CreateRet(sum);

  i->addIncoming(b.getInt64(0), entry);
  i->addIncoming(i2, next);
  sum->addIncoming(b.getInt64(0), entry);
  sum->addIncoming(sum3, next);
  sum3->addIncoming(sum2, keep);
  sum3->addIncoming(sum, body);
}

/// Builds `i64 f(i64 k, i64 n, ptr buf)`: a selection count whose loaded
/// value is used ONLY by the filter compare — the canonical scan-filter
/// shape where load+compare+branch collapses into one br_load_* dispatch.
void BuildScanFilterKernel(IrModule* mod) {
  auto& ctx = mod->context();
  llvm::IRBuilder<> b(ctx);
  auto* i64 = llvm::Type::getInt64Ty(ctx);
  auto* fty = llvm::FunctionType::get(
      i64, {i64, i64, llvm::Type::getInt64PtrTy(ctx)}, false);
  auto* fn = llvm::Function::Create(fty, llvm::Function::ExternalLinkage, "f",
                                    &mod->module());
  auto* entry = llvm::BasicBlock::Create(ctx, "entry", fn);
  auto* head = llvm::BasicBlock::Create(ctx, "head", fn);
  auto* body = llvm::BasicBlock::Create(ctx, "body", fn);
  auto* keep = llvm::BasicBlock::Create(ctx, "keep", fn);
  auto* next = llvm::BasicBlock::Create(ctx, "next", fn);
  auto* exit = llvm::BasicBlock::Create(ctx, "exit", fn);

  b.SetInsertPoint(entry);
  b.CreateBr(head);

  b.SetInsertPoint(head);
  auto* i = b.CreatePHI(i64, 2, "i");
  auto* count = b.CreatePHI(i64, 2, "count");
  auto* cond = b.CreateICmpSLT(i, fn->getArg(1));
  b.CreateCondBr(cond, body, exit);

  b.SetInsertPoint(body);
  auto* gep = b.CreateGEP(i64, fn->getArg(2), i);
  auto* v = b.CreateLoad(i64, gep);
  auto* pass = b.CreateICmpSGT(v, fn->getArg(0));
  b.CreateCondBr(pass, keep, next);

  b.SetInsertPoint(keep);
  auto* count2 = b.CreateAdd(count, b.getInt64(1));
  b.CreateBr(next);

  b.SetInsertPoint(next);
  auto* count3 = b.CreatePHI(i64, 2, "count3");
  auto* i2 = b.CreateAdd(i, b.getInt64(1));
  b.CreateBr(head);

  b.SetInsertPoint(exit);
  b.CreateRet(count);

  i->addIncoming(b.getInt64(0), entry);
  i->addIncoming(i2, next);
  count->addIncoming(b.getInt64(0), entry);
  count->addIncoming(count3, next);
  count3->addIncoming(count2, keep);
  count3->addIncoming(count, body);
}

struct Config {
  const char* name;
  VmDispatch dispatch;
  bool fuse_cmp_branches;
  bool fuse_load_cmp_branches;
};

constexpr Config kConfigs[] = {
    {"switch", VmDispatch::kSwitch, false, false},
    {"switch+fused", VmDispatch::kSwitch, true, false},
    {"switch+ldfused", VmDispatch::kSwitch, true, true},
    {"threaded", VmDispatch::kThreaded, false, false},
    {"threaded+fused", VmDispatch::kThreaded, true, false},
    {"threaded+ldfused", VmDispatch::kThreaded, true, true},
};

struct Measurement {
  std::string config;
  double rows_per_sec = 0;
  uint64_t fused_cmp_branches = 0;
  uint64_t fused_load_cmp_branches = 0;
};

void Report(const char* kernel, std::vector<Measurement>& results,
            std::FILE* json_out) {
  double base = results.empty() ? 0 : results[0].rows_per_sec;
  std::printf("\n%-18s %14s %10s %8s %8s\n", kernel, "rows/s", "speedup",
              "cmp-brs", "ld-brs");
  for (const Measurement& m : results) {
    std::printf("%-18s %14.3e %9.2fx %8llu %8llu\n", m.config.c_str(),
                m.rows_per_sec, m.rows_per_sec / base,
                static_cast<unsigned long long>(m.fused_cmp_branches),
                static_cast<unsigned long long>(m.fused_load_cmp_branches));
    char line[384];
    std::snprintf(line, sizeof(line),
                  "{\"bench\":\"micro_vm_dispatch\",\"kernel\":\"%s\","
                  "\"config\":\"%s\",\"rows_per_sec\":%.6e,"
                  "\"speedup_vs_switch\":%.4f,\"fused_cmp_branches\":%llu,"
                  "\"fused_load_cmp_branches\":%llu}",
                  kernel, m.config.c_str(), m.rows_per_sec,
                  m.rows_per_sec / base,
                  static_cast<unsigned long long>(m.fused_cmp_branches),
                  static_cast<unsigned long long>(m.fused_load_cmp_branches));
    std::printf("%s\n", line);
    if (json_out != nullptr) std::fprintf(json_out, "%s\n", line);
  }
}

/// The §V-E generated query with `n` aggregates, bound for code generation
/// of its one pipeline; nothing runs.
struct GeneratedQueryKernel {
  QueryProgram program;
  std::unique_ptr<QueryContext> ctx;
  PipelineBindings bindings;
  GeneratedPipeline bound;  ///< the worker with bound literals

  GeneratedQueryKernel(Catalog* catalog, int n)
      : program(BuildGeneratedAggregateQuery(n, *catalog)) {
    ctx = program.MakeContext(catalog);
    bindings = BindPipeline(program, program.pipelines()[0], *ctx);
    bound = Generate(LiteralForm::kBound);
  }
  GeneratedPipeline Generate(LiteralForm form) const {
    return GeneratePipeline(program.pipelines()[0], bindings, form);
  }
  const llvm::Function& worker() const {
    return *bound.mod->module().getFunction("worker");
  }
};

/// Times one stage, `seconds(kernel)`, on the generated query at `sizes[0]`
/// and `sizes[1]` aggregates: the minimum over repeats (at least 3, and
/// until `budget` passes) per LLVM instruction of the worker. Prints both
/// and emits their ratio, the number a linearity ceiling gates.
template <typename Fn>
void ReportLinearity(const char* label, const char* kernel, Catalog* catalog,
                     const std::array<int, 2>& sizes, double budget,
                     const Fn& seconds, std::FILE* json_out) {
  double us_per_instruction[2] = {0, 0};
  for (int i = 0; i < 2; ++i) {
    GeneratedQueryKernel k(catalog, sizes[i]);
    double best = 1e30;
    Timer total;
    for (int rep = 0; rep < 3 || total.ElapsedSeconds() < budget; ++rep) {
      best = std::min(best, seconds(k));
    }
    us_per_instruction[i] =
        best * 1e6 / static_cast<double>(k.worker().getInstructionCount());
  }
  const double ratio = us_per_instruction[1] / us_per_instruction[0];
  std::printf("\n%-18s %14s %10s\n", label, "us/instr", "ratio");
  for (int i = 0; i < 2; ++i) {
    std::printf("n=%-16d %14.4f %9.2fx\n", sizes[i], us_per_instruction[i],
                us_per_instruction[i] / us_per_instruction[0]);
  }
  char line[256];
  std::snprintf(line, sizeof(line),
                "{\"bench\":\"micro_vm_dispatch\",\"kernel\":\"%s\","
                "\"config\":\"n%d_over_n%d\","
                "\"us_per_instruction_n%d\":%.4f,"
                "\"us_per_instruction_n%d\":%.4f,\"ratio\":%.4f}",
                kernel, sizes[1], sizes[0], sizes[0], us_per_instruction[0],
                sizes[1], us_per_instruction[1], ratio);
  std::printf("%s\n", line);
  if (json_out != nullptr) std::fprintf(json_out, "%s\n", line);
}

/// Runs `fn` repeatedly until ~`budget_seconds` elapsed; returns calls/sec
/// scaled by `rows` to rows/sec.
template <typename Fn>
double Throughput(uint64_t rows, double budget_seconds, const Fn& fn) {
  fn();  // warmup
  uint64_t iters = 0;
  Timer timer;
  do {
    fn();
    ++iters;
  } while (timer.ElapsedSeconds() < budget_seconds);
  return static_cast<double>(rows) * static_cast<double>(iters) /
         timer.ElapsedSeconds();
}

}  // namespace
}  // namespace aqe

int main(int argc, char** argv) {
  using namespace aqe;
  // --smoke: the CI perf gate's quick mode — short budgets, same JSON
  // shape; ci/check_perf_floors.py compares the archived ratios against
  // checked-in floors.
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const double sf = bench::EnvDouble("AQE_SF", 0.01);
  const double budget =
      bench::EnvDouble("AQE_BENCH_SECONDS", smoke ? 0.25 : 1.0);
  std::FILE* json_out = std::fopen("BENCH_micro_vm_dispatch.json", "w");

  std::printf("VM dispatch microbenchmark (SF %g, %.2fs per config)%s\n", sf,
              budget, smoke ? " [smoke]" : "");
  std::printf("threaded dispatch available: %s\n",
              VmThreadedDispatchAvailable() ? "yes" : "no");

  // --- kernel 1: TPC-H Q6 scan-filter-sum pipeline -------------------------
  {
    Q6Kernel k(sf);
    std::vector<Measurement> results;
    for (const Config& config : kConfigs) {
      GeneratedPipeline gen =
          GeneratePipeline(k.spec(), k.bindings, LiteralForm::kBound);
      TranslatorOptions options;
      options.fuse_cmp_branches = config.fuse_cmp_branches;
      options.fuse_load_cmp_branches = config.fuse_load_cmp_branches;
      BcProgram bc = TranslateToBytecode(
          *gen.mod->module().getFunction("worker"), RuntimeRegistry::Global(),
          options);
      Measurement m;
      m.config = config.name;
      m.fused_cmp_branches = bc.fused_cmp_branches;
      m.fused_load_cmp_branches = bc.fused_load_cmp_branches;
      const uint64_t args[4] = {reinterpret_cast<uint64_t>(k.state()), 0,
                                k.rows, reinterpret_cast<uint64_t>(&bc)};
      m.rows_per_sec = Throughput(
          k.rows, budget, [&] { VmExecute(bc, args, 4, config.dispatch); });
      results.push_back(std::move(m));
    }
    // JIT tiers for context.
    for (JitMode mode : {JitMode::kUnoptimized, JitMode::kOptimized}) {
      GeneratedPipeline gen =
          GeneratePipeline(k.spec(), k.bindings, LiteralForm::kImmediate);
      Status status;
      auto compiled = JitCompile(std::move(*gen.mod), mode,
                                 RuntimeRegistry::Global(), &status);
      AQE_CHECK_MSG(status.ok(), status.message().c_str());
      auto* fn = reinterpret_cast<void (*)(void*, uint64_t, uint64_t,
                                           const void*)>(
          compiled->Lookup("worker"));
      Measurement m;
      m.config = mode == JitMode::kOptimized ? "jit-opt" : "jit-unopt";
      m.rows_per_sec =
          Throughput(k.rows, budget, [&] { fn(k.state(), 0, k.rows, nullptr); });
      results.push_back(std::move(m));
    }
    Report("q6-pipeline", results, json_out);
  }

  // --- kernel 2: scan-filter selection count -------------------------------
  {
    const uint64_t rows = 1 << 18;
    std::vector<int64_t> data(rows);
    for (uint64_t r = 0; r < rows; ++r) {
      data[r] = static_cast<int64_t>((r * 2654435761u) % 1000);
    }
    std::vector<Measurement> results;
    for (const Config& config : kConfigs) {
      IrModule mod("scan");
      BuildScanFilterKernel(&mod);
      TranslatorOptions options;
      options.fuse_cmp_branches = config.fuse_cmp_branches;
      options.fuse_load_cmp_branches = config.fuse_load_cmp_branches;
      BcProgram bc =
          TranslateToBytecode(*mod.module().getFunction("f"),
                              RuntimeRegistry::Global(), options);
      Measurement m;
      m.config = config.name;
      m.fused_cmp_branches = bc.fused_cmp_branches;
      m.fused_load_cmp_branches = bc.fused_load_cmp_branches;
      uint64_t args[3] = {500, rows, reinterpret_cast<uint64_t>(data.data())};
      m.rows_per_sec = Throughput(
          rows, budget, [&] { VmExecute(bc, args, 3, config.dispatch); });
      results.push_back(std::move(m));
    }
    Report("scan-filter", results, json_out);
  }

  // --- kernel 3: synthetic expression loop ---------------------------------
  {
    const uint64_t rows = 1 << 18;
    std::vector<int64_t> data(rows);
    for (uint64_t r = 0; r < rows; ++r) {
      data[r] = static_cast<int64_t>((r * 2654435761u) % 1000);
    }
    std::vector<Measurement> results;
    for (const Config& config : kConfigs) {
      IrModule mod("expr");
      BuildExpressionKernel(&mod);
      TranslatorOptions options;
      options.fuse_cmp_branches = config.fuse_cmp_branches;
      options.fuse_load_cmp_branches = config.fuse_load_cmp_branches;
      BcProgram bc =
          TranslateToBytecode(*mod.module().getFunction("f"),
                              RuntimeRegistry::Global(), options);
      Measurement m;
      m.config = config.name;
      m.fused_cmp_branches = bc.fused_cmp_branches;
      m.fused_load_cmp_branches = bc.fused_load_cmp_branches;
      uint64_t args[3] = {500, rows, reinterpret_cast<uint64_t>(data.data())};
      m.rows_per_sec = Throughput(
          rows, budget, [&] { VmExecute(bc, args, 3, config.dispatch); });
      results.push_back(std::move(m));
    }
    Report("expression-loop", results, json_out);
  }

  // --- kernel 4: per-morsel tracing overhead -------------------------------
  // The CI floor for src/obs: the scan-filter kernel executed in
  // morsel-sized chunks, bare vs with the engine's full per-morsel
  // instrumentation (two MonotonicNanos reads, one TraceRing push, one
  // counter add, and the rate slot's three per-mode work counters —
  // exactly what adaptive/controller.cc's ExecuteMorsel records). The
  // traced/untraced throughput ratio must stay >= the obs floor in
  // ci/perf_floors.json (0.97, i.e. <= 3% overhead).
  {
    const uint64_t rows = 1 << 18;
    const uint64_t chunk = 4096;  // mid-schedule morsel (1024..16384)
    std::vector<int64_t> data(rows);
    for (uint64_t r = 0; r < rows; ++r) {
      data[r] = static_cast<int64_t>((r * 2654435761u) % 1000);
    }
    IrModule mod("scan");
    BuildScanFilterKernel(&mod);
    BcProgram bc = TranslateToBytecode(*mod.module().getFunction("f"),
                                       RuntimeRegistry::Global(), {});
    const auto run_chunk = [&](uint64_t begin, uint64_t end) {
      uint64_t args[3] = {500, end - begin,
                          reinterpret_cast<uint64_t>(data.data() + begin)};
      VmExecute(bc, args, 3);
    };
    const double untraced = Throughput(rows, budget, [&] {
      for (uint64_t begin = 0; begin < rows; begin += chunk) {
        run_chunk(begin, std::min(begin + chunk, rows));
      }
    });
    TraceRing ring(4096);
    Counter morsels;
    struct alignas(64) ModeWork {
      std::atomic<uint64_t> morsels{0};
      std::atomic<uint64_t> tuples{0};
      std::atomic<uint64_t> busy_nanos{0};
    } work;
    const double traced = Throughput(rows, budget, [&] {
      for (uint64_t begin = 0; begin < rows; begin += chunk) {
        const uint64_t end = std::min(begin + chunk, rows);
        const int64_t t0 = MonotonicNanos();
        run_chunk(begin, end);
        const int64_t t1 = MonotonicNanos();
        TraceEvent ev;
        ev.start_nanos = t0;
        ev.end_nanos = t1;
        ev.payload = end - begin;
        ev.query_id = 1;
        ev.kind = TraceEventKind::kMorsel;
        ring.Push(ev);
        morsels.Add();
        work.morsels.fetch_add(1, std::memory_order_relaxed);
        work.tuples.fetch_add(end - begin, std::memory_order_relaxed);
        work.busy_nanos.fetch_add(static_cast<uint64_t>(t1 - t0),
                                  std::memory_order_relaxed);
      }
    });
    const double ratio = untraced > 0 ? traced / untraced : 0.0;
    std::printf("\n%-18s %14s %10s\n", "trace-overhead", "rows/s", "ratio");
    std::printf("%-18s %14.3e %9.2fx\n", "untraced", untraced, 1.0);
    std::printf("%-18s %14.3e %9.3fx\n", "traced", traced, ratio);
    for (const auto& [name, rps] :
         {std::pair<const char*, double>{"untraced", untraced},
          std::pair<const char*, double>{"traced", traced}}) {
      char line[256];
      std::snprintf(line, sizeof(line),
                    "{\"bench\":\"micro_vm_dispatch\","
                    "\"kernel\":\"trace-overhead\",\"config\":\"%s\","
                    "\"rows_per_sec\":%.6e,\"ratio_vs_untraced\":%.4f}",
                    name, rps, untraced > 0 ? rps / untraced : 0.0);
      std::printf("%s\n", line);
      if (json_out != nullptr) std::fprintf(json_out, "%s\n", line);
    }
  }

  // --- kernel 5: memory-tracker overhead ------------------------------------
  // The CI floor for the resource-accounting layer: the same morsel-chunked
  // scan-filter kernel bare vs with the one tracker Charge/Release pair a
  // production morsel pays (the chunk-granular allocation sites). The
  // instrumented/bare throughput ratio must stay >= the resource floor in
  // ci/perf_floors.json (0.97, i.e. <= 3% overhead).
  {
    const uint64_t rows = 1 << 18;
    const uint64_t chunk = 4096;
    std::vector<int64_t> data(rows);
    for (uint64_t r = 0; r < rows; ++r) {
      data[r] = static_cast<int64_t>((r * 2654435761u) % 1000);
    }
    IrModule mod("scan");
    BuildScanFilterKernel(&mod);
    BcProgram bc = TranslateToBytecode(*mod.module().getFunction("f"),
                                       RuntimeRegistry::Global(), {});
    const auto run_chunk = [&](uint64_t begin, uint64_t end) {
      uint64_t args[3] = {500, end - begin,
                          reinterpret_cast<uint64_t>(data.data() + begin)};
      VmExecute(bc, args, 3);
    };
    QueryMemoryTracker tracker;
    const auto bare_pass = [&] {
      for (uint64_t begin = 0; begin < rows; begin += chunk) {
        run_chunk(begin, std::min(begin + chunk, rows));
      }
    };
    const auto instrumented_pass = [&] {
      for (uint64_t begin = 0; begin < rows; begin += chunk) {
        const uint64_t end = std::min(begin + chunk, rows);
        tracker.Charge((end - begin) * sizeof(int64_t));
        run_chunk(begin, end);
        tracker.Release((end - begin) * sizeof(int64_t));
      }
    };
    // Interleave the two configs in short alternating blocks: frequency
    // drift and background load then tax both sides equally, and the
    // ratio — the only thing the CI floor gates — stays stable even on a
    // one-core host.
    bare_pass();          // warmup
    instrumented_pass();  // warmup: tracker slots
    double bare_seconds = 0, inst_seconds = 0;
    uint64_t reps = 0;
    Timer total;
    do {
      Timer t_bare;
      for (int i = 0; i < 8; ++i) bare_pass();
      bare_seconds += t_bare.ElapsedSeconds();
      Timer t_inst;
      for (int i = 0; i < 8; ++i) instrumented_pass();
      inst_seconds += t_inst.ElapsedSeconds();
      reps += 8;
    } while (total.ElapsedSeconds() < 2 * budget);
    const double bare =
        static_cast<double>(rows) * static_cast<double>(reps) / bare_seconds;
    const double instrumented =
        static_cast<double>(rows) * static_cast<double>(reps) / inst_seconds;
    const double ratio = bare > 0 ? instrumented / bare : 0.0;
    std::printf("\n%-18s %14s %10s\n", "resource-overhead", "rows/s", "ratio");
    std::printf("%-18s %14.3e %9.2fx\n", "bare", bare, 1.0);
    std::printf("%-18s %14.3e %9.3fx\n", "instrumented", instrumented, ratio);
    for (const auto& [name, rps] :
         {std::pair<const char*, double>{"bare", bare},
          std::pair<const char*, double>{"instrumented", instrumented}}) {
      char line[256];
      std::snprintf(line, sizeof(line),
                    "{\"bench\":\"micro_vm_dispatch\","
                    "\"kernel\":\"resource-overhead\",\"config\":\"%s\","
                    "\"rows_per_sec\":%.6e,\"ratio_vs_bare\":%.4f}",
                    name, rps, bare > 0 ? rps / bare : 0.0);
      std::printf("%s\n", line);
      if (json_out != nullptr) std::fprintf(json_out, "%s\n", line);
    }
  }

  // --- kernel 6: translation and optimized-compile linearity --------------
  // The translator is linear (§IV, Fig 15), and so is the optimized tier's
  // pass list (src/jit/DESIGN.md). Each ratio must stay under its ceiling
  // in ci/perf_floors.json: a translator pass that walks a block per
  // instruction grows the first with N, and GVN grows the second.
  {
    Catalog* catalog = bench::TpchAtScale(sf);
    ReportLinearity(
        "translate", "translate-linearity", catalog, {50, 2000}, budget,
        [](const GeneratedQueryKernel& k) {
          Timer timer;
          TranslateToBytecode(k.worker(), RuntimeRegistry::Global());
          return timer.ElapsedSeconds();
        },
        json_out);
    // A fresh module per repeat: JitCompile consumes it.
    ReportLinearity(
        "jit-opt compile", "jit-opt-linearity", catalog, {50, 400}, budget,
        [](const GeneratedQueryKernel& k) {
          GeneratedPipeline gen = k.Generate(LiteralForm::kImmediate);
          Timer timer;
          Status status;
          auto compiled = JitCompile(std::move(*gen.mod), JitMode::kOptimized,
                                     RuntimeRegistry::Global(), &status);
          const double seconds = timer.ElapsedSeconds();
          AQE_CHECK_MSG(status.ok(), status.message().c_str());
          return seconds;
        },
        json_out);
  }

  if (json_out != nullptr) std::fclose(json_out);
  return 0;
}
