#include "adaptive/calibrate.h"

#include <algorithm>
#include <vector>

#include <llvm/IR/IRBuilder.h>

#include "common/timer.h"
#include "ir/ir_module.h"
#include "jit/jit_compiler.h"
#include "runtime/runtime_registry.h"
#include "vm/interpreter.h"
#include "vm/translator.h"

namespace aqe {
namespace {

/// Builds `i64 kernel(i64 threshold, i64 n, i64 buf)`: a scan loop with a
/// filter compare and a running checked-free sum — the same shape as a
/// generated scan-filter-aggregate worker, which is what the speedup ratios
/// are applied to.
void BuildCalibrationKernel(IrModule* mod) {
  auto& ctx = mod->context();
  llvm::IRBuilder<> b(ctx);
  auto* i64 = llvm::Type::getInt64Ty(ctx);
  auto* fty = llvm::FunctionType::get(i64, {i64, i64, i64}, false);
  auto* fn = llvm::Function::Create(fty, llvm::Function::ExternalLinkage,
                                    "kernel", &mod->module());
  auto* entry = llvm::BasicBlock::Create(ctx, "entry", fn);
  auto* head = llvm::BasicBlock::Create(ctx, "head", fn);
  auto* body = llvm::BasicBlock::Create(ctx, "body", fn);
  auto* keep = llvm::BasicBlock::Create(ctx, "keep", fn);
  auto* next = llvm::BasicBlock::Create(ctx, "next", fn);
  auto* exit = llvm::BasicBlock::Create(ctx, "exit", fn);

  b.SetInsertPoint(entry);
  auto* base =
      b.CreateIntToPtr(fn->getArg(2), i64->getPointerTo());
  b.CreateBr(head);

  b.SetInsertPoint(head);
  auto* i = b.CreatePHI(i64, 2, "i");
  auto* sum = b.CreatePHI(i64, 2, "sum");
  b.CreateCondBr(b.CreateICmpULT(i, fn->getArg(1)), body, exit);

  b.SetInsertPoint(body);
  auto* v = b.CreateLoad(i64, b.CreateGEP(i64, base, i));
  b.CreateCondBr(b.CreateICmpSGT(v, fn->getArg(0)), keep, next);

  b.SetInsertPoint(keep);
  auto* scaled = b.CreateMul(v, b.getInt64(3));
  auto* sum2 = b.CreateAdd(sum, b.CreateXor(scaled, b.getInt64(0x55)));
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

/// rows/second of `run` (called repeatedly over `rows` until ~budget).
template <typename Fn>
double MeasureRate(uint64_t rows, double budget_seconds, const Fn& run) {
  run();  // warmup
  uint64_t iters = 0;
  Timer timer;
  do {
    run();
    ++iters;
  } while (timer.ElapsedSeconds() < budget_seconds);
  return static_cast<double>(rows) * static_cast<double>(iters) /
         timer.ElapsedSeconds();
}

CostModelParams RunCalibration() {
  CostModelParams params;  // compile-time coefficients stay at defaults
  const RuntimeRegistry& registry = RuntimeRegistry::Global();
  constexpr uint64_t kRows = 1 << 16;
  constexpr double kBudgetSeconds = 8e-3;

  std::vector<int64_t> data(kRows);
  for (uint64_t r = 0; r < kRows; ++r) {
    data[r] = static_cast<int64_t>((r * 2654435761ULL) % 1000);
  }
  uint64_t args[3] = {500, kRows, reinterpret_cast<uint64_t>(data.data())};

  IrModule vm_mod("calibrate_vm");
  BuildCalibrationKernel(&vm_mod);
  Status translated;
  BcProgram bytecode = TranslateToBytecode(
      *vm_mod.module().getFunction("kernel"), registry, {}, &translated);
  AQE_CHECK_MSG(translated.ok(), translated.message().c_str());
  const double vm_rate = MeasureRate(
      kRows, kBudgetSeconds, [&] { VmExecute(bytecode, args, 3); });

  double jit_rates[2] = {0, 0};
  const JitMode modes[2] = {JitMode::kUnoptimized, JitMode::kOptimized};
  for (int m = 0; m < 2; ++m) {
    IrModule mod("calibrate_jit");
    BuildCalibrationKernel(&mod);
    Status status;
    auto compiled = JitCompile(std::move(mod), modes[m], registry, &status);
    AQE_CHECK_MSG(status.ok(), status.message().c_str());
    auto* fn = reinterpret_cast<int64_t (*)(int64_t, int64_t, int64_t)>(
        compiled->Lookup("kernel"));
    jit_rates[m] = MeasureRate(kRows, kBudgetSeconds, [&] {
      fn(500, static_cast<int64_t>(kRows),
         static_cast<int64_t>(reinterpret_cast<uint64_t>(data.data())));
    });
  }

  // Clamp to a sane band: a wildly off measurement (e.g. a descheduled
  // calibration run on a loaded box) must not wedge the controller into
  // never or always compiling.
  if (vm_rate > 0) {
    params.unopt_speedup = std::clamp(jit_rates[0] / vm_rate, 1.2, 30.0);
    params.opt_speedup =
        std::clamp(jit_rates[1] / vm_rate, params.unopt_speedup, 50.0);
  }
  return params;
}

}  // namespace

const CostModelParams& CalibratedCostModelParams() {
  static const CostModelParams params = RunCalibration();
  return params;
}

}  // namespace aqe
