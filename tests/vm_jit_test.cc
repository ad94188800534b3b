#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include <llvm/IR/IRBuilder.h>
#include <llvm/IR/Intrinsics.h>

#include "common/random.h"
#include "ir/ir_module.h"
#include "jit/jit_compiler.h"
#include "jit/naive_interpreter.h"
#include "runtime/runtime_registry.h"
#include "vm/interpreter.h"
#include "vm/translator.h"

namespace aqe {
namespace {

// Test runtime helpers callable from generated code.
uint64_t test_mix2(uint64_t a, uint64_t b) { return a * 31 + b; }
uint64_t test_mix3(uint64_t a, uint64_t b, uint64_t c) {
  return (a ^ (b << 1)) + c * 7;
}

RuntimeRegistry& TestRegistry() {
  static RuntimeRegistry* registry = [] {
    auto* r = new RuntimeRegistry();
    RegisterBuiltinRuntime(r);
    r->Register("test_mix2", reinterpret_cast<void*>(&test_mix2), 2, true);
    r->Register("test_mix3", reinterpret_cast<void*>(&test_mix3), 3, true);
    return r;
  }();
  return *registry;
}

/// A generator builds the function "f" into a fresh module (so each engine
/// gets its own copy — JIT compilation consumes the module).
using IrGenerator = std::function<void(IrModule*)>;

/// Executes `gen`'s function under every engine and checks they all agree.
/// Buffers: each engine gets its own copy of `buf_init` (64 i64 slots); the
/// final buffer contents must also agree.
struct DifferentialResult {
  uint64_t value;
  std::vector<int64_t> buffer;
};

DifferentialResult RunVm(const IrGenerator& gen, uint64_t a, uint64_t b,
                         const std::vector<int64_t>& buf_init,
                         const TranslatorOptions& options) {
  IrModule mod("vm");
  gen(&mod);
  EXPECT_EQ(mod.Verify(), "");
  BcProgram program = TranslateToBytecode(
      *mod.module().getFunction("f"), TestRegistry(), options);
  std::vector<int64_t> buf = buf_init;
  uint64_t args[3] = {a, b, reinterpret_cast<uint64_t>(buf.data())};
  uint64_t result = VmExecute(program, args, 3);
  return {result, std::move(buf)};
}

DifferentialResult RunNaive(const IrGenerator& gen, uint64_t a, uint64_t b,
                            const std::vector<int64_t>& buf_init) {
  IrModule mod("naive");
  gen(&mod);
  std::vector<int64_t> buf = buf_init;
  uint64_t args[3] = {a, b, reinterpret_cast<uint64_t>(buf.data())};
  uint64_t result = NaiveIrInterpret(*mod.module().getFunction("f"), args, 3,
                                     TestRegistry());
  return {result, std::move(buf)};
}

DifferentialResult RunJit(const IrGenerator& gen, uint64_t a, uint64_t b,
                          const std::vector<int64_t>& buf_init,
                          JitMode mode) {
  IrModule mod("jit");
  gen(&mod);
  Status status;
  auto compiled = JitCompile(std::move(mod), mode, TestRegistry(), &status);
  EXPECT_TRUE(status.ok()) << status.message();
  auto* fn = reinterpret_cast<uint64_t (*)(uint64_t, uint64_t, int64_t*)>(
      compiled->Lookup("f"));
  EXPECT_NE(fn, nullptr);
  std::vector<int64_t> buf = buf_init;
  uint64_t result = fn(a, b, buf.data());
  return {result, std::move(buf)};
}

void ExpectAllEnginesAgree(const IrGenerator& gen, uint64_t a, uint64_t b,
                           bool include_jit = true) {
  std::vector<int64_t> buf_init(64);
  for (int i = 0; i < 64; ++i) buf_init[static_cast<size_t>(i)] = i * 11 - 300;

  DifferentialResult reference = RunNaive(gen, a, b, buf_init);

  TranslatorOptions fused;
  DifferentialResult vm_fused = RunVm(gen, a, b, buf_init, fused);
  EXPECT_EQ(vm_fused.value, reference.value) << "vm fused vs naive";
  EXPECT_EQ(vm_fused.buffer, reference.buffer) << "vm fused buffer";

  TranslatorOptions unfused;
  unfused.fuse_macro_ops = false;
  DifferentialResult vm_unfused = RunVm(gen, a, b, buf_init, unfused);
  EXPECT_EQ(vm_unfused.value, reference.value) << "vm unfused vs naive";
  EXPECT_EQ(vm_unfused.buffer, reference.buffer) << "vm unfused buffer";

  TranslatorOptions window;
  window.strategy = RegAllocStrategy::kWindow;
  DifferentialResult vm_window = RunVm(gen, a, b, buf_init, window);
  EXPECT_EQ(vm_window.value, reference.value) << "vm window vs naive";

  TranslatorOptions noreuse;
  noreuse.strategy = RegAllocStrategy::kNoReuse;
  DifferentialResult vm_noreuse = RunVm(gen, a, b, buf_init, noreuse);
  EXPECT_EQ(vm_noreuse.value, reference.value) << "vm no-reuse vs naive";

  if (include_jit) {
    DifferentialResult jit_unopt =
        RunJit(gen, a, b, buf_init, JitMode::kUnoptimized);
    EXPECT_EQ(jit_unopt.value, reference.value) << "jit unopt vs naive";
    EXPECT_EQ(jit_unopt.buffer, reference.buffer) << "jit unopt buffer";

    DifferentialResult jit_opt =
        RunJit(gen, a, b, buf_init, JitMode::kOptimized);
    EXPECT_EQ(jit_opt.value, reference.value) << "jit opt vs naive";
    EXPECT_EQ(jit_opt.buffer, reference.buffer) << "jit opt buffer";
  }
}

/// Declares `i64 f(i64, i64, ptr)` and positions the builder in its entry.
llvm::Function* MakeF(IrModule* mod, llvm::IRBuilder<>* b) {
  auto& ctx = mod->context();
  auto* fty = llvm::FunctionType::get(
      llvm::Type::getInt64Ty(ctx),
      {llvm::Type::getInt64Ty(ctx), llvm::Type::getInt64Ty(ctx),
       llvm::Type::getInt64PtrTy(ctx)},
      false);
  auto* fn = llvm::Function::Create(fty, llvm::Function::ExternalLinkage, "f",
                                    &mod->module());
  b->SetInsertPoint(llvm::BasicBlock::Create(ctx, "entry", fn));
  return fn;
}

// --- directed differential tests ---------------------------------------------

TEST(VmJitTest, SimpleAdd) {
  IrGenerator gen = [](IrModule* mod) {
    llvm::IRBuilder<> b(mod->context());
    llvm::Function* fn = MakeF(mod, &b);
    b.CreateRet(b.CreateAdd(fn->getArg(0), fn->getArg(1)));
  };
  ExpectAllEnginesAgree(gen, 41, 1);
  ExpectAllEnginesAgree(gen, static_cast<uint64_t>(-5), 3);
}

TEST(VmJitTest, LoopWithPhis) {
  // sum of i*a for i in [0, b)
  IrGenerator gen = [](IrModule* mod) {
    llvm::IRBuilder<> b(mod->context());
    llvm::Function* fn = MakeF(mod, &b);
    auto& ctx = mod->context();
    auto* head = llvm::BasicBlock::Create(ctx, "head", fn);
    auto* body = llvm::BasicBlock::Create(ctx, "body", fn);
    auto* exit = llvm::BasicBlock::Create(ctx, "exit", fn);
    auto* entry = &fn->getEntryBlock();
    b.CreateBr(head);
    b.SetInsertPoint(head);
    auto* i = b.CreatePHI(b.getInt64Ty(), 2, "i");
    auto* sum = b.CreatePHI(b.getInt64Ty(), 2, "sum");
    auto* cond = b.CreateICmpSLT(i, fn->getArg(1));
    b.CreateCondBr(cond, body, exit);
    b.SetInsertPoint(body);
    auto* term = b.CreateMul(i, fn->getArg(0));
    auto* sum2 = b.CreateAdd(sum, term);
    auto* i2 = b.CreateAdd(i, b.getInt64(1));
    b.CreateBr(head);
    b.SetInsertPoint(exit);
    b.CreateRet(sum);
    i->addIncoming(b.getInt64(0), entry);
    i->addIncoming(i2, body);
    sum->addIncoming(b.getInt64(0), entry);
    sum->addIncoming(sum2, body);
  };
  ExpectAllEnginesAgree(gen, 3, 10);
  ExpectAllEnginesAgree(gen, 7, 0);  // zero-trip loop
}

TEST(VmJitTest, PhiSwapCycle) {
  // (x, y) = (y, x) each iteration — forces a parallel-copy cycle.
  IrGenerator gen = [](IrModule* mod) {
    llvm::IRBuilder<> b(mod->context());
    llvm::Function* fn = MakeF(mod, &b);
    auto& ctx = mod->context();
    auto* head = llvm::BasicBlock::Create(ctx, "head", fn);
    auto* body = llvm::BasicBlock::Create(ctx, "body", fn);
    auto* exit = llvm::BasicBlock::Create(ctx, "exit", fn);
    auto* entry = &fn->getEntryBlock();
    b.CreateBr(head);
    b.SetInsertPoint(head);
    auto* i = b.CreatePHI(b.getInt64Ty(), 2);
    auto* x = b.CreatePHI(b.getInt64Ty(), 2);
    auto* y = b.CreatePHI(b.getInt64Ty(), 2);
    auto* cond = b.CreateICmpSLT(i, b.getInt64(5));
    b.CreateCondBr(cond, body, exit);
    b.SetInsertPoint(body);
    auto* i2 = b.CreateAdd(i, b.getInt64(1));
    b.CreateBr(head);
    b.SetInsertPoint(exit);
    auto* r = b.CreateSub(b.CreateMul(x, b.getInt64(1000)), y);
    b.CreateRet(r);
    i->addIncoming(b.getInt64(0), entry);
    i->addIncoming(i2, body);
    x->addIncoming(fn->getArg(0), entry);
    x->addIncoming(y, body);  // swap
    y->addIncoming(fn->getArg(1), entry);
    y->addIncoming(x, body);  // swap
  };
  ExpectAllEnginesAgree(gen, 17, 99);
}

TEST(VmJitTest, OverflowCheckedAdd) {
  // Returns a+b, or -1 if it overflows (mirrors codegen's overflow blocks,
  // minus the noreturn call so all engines can observe both paths).
  IrGenerator gen = [](IrModule* mod) {
    llvm::IRBuilder<> b(mod->context());
    llvm::Function* fn = MakeF(mod, &b);
    auto& ctx = mod->context();
    auto* ovf = llvm::BasicBlock::Create(ctx, "ovf", fn);
    auto* cont = llvm::BasicBlock::Create(ctx, "cont", fn);
    auto* pair = b.CreateBinaryIntrinsic(llvm::Intrinsic::sadd_with_overflow,
                                         fn->getArg(0), fn->getArg(1));
    auto* val = b.CreateExtractValue(pair, 0);
    auto* flag = b.CreateExtractValue(pair, 1);
    b.CreateCondBr(flag, ovf, cont);
    b.SetInsertPoint(ovf);
    b.CreateRet(b.getInt64(static_cast<uint64_t>(-1)));
    b.SetInsertPoint(cont);
    b.CreateRet(val);
  };
  ExpectAllEnginesAgree(gen, 40, 2);
  ExpectAllEnginesAgree(gen, static_cast<uint64_t>(INT64_MAX), 1);
  ExpectAllEnginesAgree(gen, static_cast<uint64_t>(INT64_MIN),
                        static_cast<uint64_t>(-1));
}

TEST(VmJitTest, OverflowFusionProducesMacroOp) {
  IrModule mod("m");
  llvm::IRBuilder<> b(mod.context());
  llvm::Function* fn = MakeF(&mod, &b);
  auto& ctx = mod.context();
  auto* ovf = llvm::BasicBlock::Create(ctx, "ovf", fn);
  auto* cont = llvm::BasicBlock::Create(ctx, "cont", fn);
  auto* pair = b.CreateBinaryIntrinsic(llvm::Intrinsic::smul_with_overflow,
                                       fn->getArg(0), fn->getArg(1));
  auto* val = b.CreateExtractValue(pair, 0);
  auto* flag = b.CreateExtractValue(pair, 1);
  b.CreateCondBr(flag, ovf, cont);
  b.SetInsertPoint(ovf);
  b.CreateRet(b.getInt64(static_cast<uint64_t>(-1)));
  b.SetInsertPoint(cont);
  b.CreateRet(val);

  BcProgram fused = TranslateToBytecode(*fn, TestRegistry(), {});
  EXPECT_NE(fused.Disassemble().find("smul_ovf_br_i64"), std::string::npos);
  EXPECT_GT(fused.fused_instructions, 0u);

  TranslatorOptions no_fuse;
  no_fuse.fuse_macro_ops = false;
  BcProgram unfused = TranslateToBytecode(*fn, TestRegistry(), no_fuse);
  EXPECT_EQ(unfused.Disassemble().find("smul_ovf_br_i64"), std::string::npos);
  EXPECT_NE(unfused.Disassemble().find("smul_ovf_i64"), std::string::npos);
  // Fusion shrinks the program (4 LLVM instructions -> 1 VM instruction).
  EXPECT_LT(fused.code.size(), unfused.code.size());
}

TEST(VmJitTest, GepLoadStoreFusion) {
  // buf[(a & 63)] = buf[(b & 63)] * 3; returns buf[a & 63].
  IrGenerator gen = [](IrModule* mod) {
    llvm::IRBuilder<> b(mod->context());
    llvm::Function* fn = MakeF(mod, &b);
    auto* ia = b.CreateAnd(fn->getArg(0), b.getInt64(63));
    auto* ib = b.CreateAnd(fn->getArg(1), b.getInt64(63));
    auto* src = b.CreateGEP(b.getInt64Ty(), fn->getArg(2), ib);
    auto* v = b.CreateLoad(b.getInt64Ty(), src);
    auto* v3 = b.CreateMul(v, b.getInt64(3));
    auto* dst = b.CreateGEP(b.getInt64Ty(), fn->getArg(2), ia);
    b.CreateStore(v3, dst);
    auto* back = b.CreateGEP(b.getInt64Ty(), fn->getArg(2), ia);
    b.CreateRet(b.CreateLoad(b.getInt64Ty(), back));
  };
  ExpectAllEnginesAgree(gen, 5, 9);
  ExpectAllEnginesAgree(gen, 63, 63);

  IrModule mod("m");
  gen(&mod);
  BcProgram program =
      TranslateToBytecode(*mod.module().getFunction("f"), TestRegistry(), {});
  std::string disasm = program.Disassemble();
  EXPECT_NE(disasm.find("load_idx_i64"), std::string::npos);
  EXPECT_NE(disasm.find("store_idx_i64"), std::string::npos);
}

TEST(VmJitTest, RuntimeCalls) {
  IrGenerator gen = [](IrModule* mod) {
    auto& ctx = mod->context();
    llvm::IRBuilder<> b(ctx);
    llvm::Function* fn = MakeF(mod, &b);
    auto* i64 = llvm::Type::getInt64Ty(ctx);
    auto* mix2 = llvm::Function::Create(
        llvm::FunctionType::get(i64, {i64, i64}, false),
        llvm::Function::ExternalLinkage, "test_mix2", &mod->module());
    auto* mix3 = llvm::Function::Create(
        llvm::FunctionType::get(i64, {i64, i64, i64}, false),
        llvm::Function::ExternalLinkage, "test_mix3", &mod->module());
    auto* r1 = b.CreateCall(mix2, {fn->getArg(0), fn->getArg(1)});
    auto* r2 = b.CreateCall(mix3, {r1, fn->getArg(0), b.getInt64(5)});
    b.CreateRet(b.CreateXor(r1, r2));
  };
  ExpectAllEnginesAgree(gen, 12, 34);
}

TEST(VmJitTest, I32ArithmeticWraps) {
  IrGenerator gen = [](IrModule* mod) {
    llvm::IRBuilder<> b(mod->context());
    llvm::Function* fn = MakeF(mod, &b);
    auto* a32 = b.CreateTrunc(fn->getArg(0), b.getInt32Ty());
    auto* b32 = b.CreateTrunc(fn->getArg(1), b.getInt32Ty());
    auto* m = b.CreateMul(a32, b32);
    auto* s = b.CreateAdd(m, b.getInt32(100));
    auto* d = b.CreateSDiv(s, b.getInt32(7));
    b.CreateRet(b.CreateSExt(d, b.getInt64Ty()));
  };
  ExpectAllEnginesAgree(gen, 0x7FFFFFFF, 3);  // i32 overflow wraps
  ExpectAllEnginesAgree(gen, 1000, 999);
}

TEST(VmJitTest, DoubleArithmetic) {
  IrGenerator gen = [](IrModule* mod) {
    llvm::IRBuilder<> b(mod->context());
    llvm::Function* fn = MakeF(mod, &b);
    auto* x = b.CreateSIToFP(fn->getArg(0), b.getDoubleTy());
    auto* y = b.CreateSIToFP(fn->getArg(1), b.getDoubleTy());
    auto* q = b.CreateFDiv(x, b.CreateFAdd(y, llvm::ConstantFP::get(
                                                   b.getDoubleTy(), 1.0)));
    auto* s = b.CreateFMul(q, llvm::ConstantFP::get(b.getDoubleTy(), 4.0));
    b.CreateRet(b.CreateBitCast(s, b.getInt64Ty()));
  };
  ExpectAllEnginesAgree(gen, 10, 3);
  ExpectAllEnginesAgree(gen, static_cast<uint64_t>(-7), 2);
}

TEST(VmJitTest, SelectAndComparisons) {
  IrGenerator gen = [](IrModule* mod) {
    llvm::IRBuilder<> b(mod->context());
    llvm::Function* fn = MakeF(mod, &b);
    auto* lt = b.CreateICmpSLT(fn->getArg(0), fn->getArg(1));
    auto* max = b.CreateSelect(lt, fn->getArg(1), fn->getArg(0));
    auto* ult = b.CreateICmpULT(fn->getArg(0), fn->getArg(1));
    auto* bit = b.CreateZExt(ult, b.getInt64Ty());
    b.CreateRet(b.CreateAdd(max, bit));
  };
  ExpectAllEnginesAgree(gen, 5, 9);
  ExpectAllEnginesAgree(gen, static_cast<uint64_t>(-5), 9);
}

// --- the shared JIT session ---------------------------------------------------

/// Builds `i64 worker(i64 a, i64 b)` returning test_mix2(a * k, b): every
/// module defines the same symbol, and each body is told apart by `k`.
IrModule MakeWorkerModule(int64_t k) {
  IrModule mod("worker");
  auto& ctx = mod.context();
  llvm::IRBuilder<> b(ctx);
  auto* i64 = llvm::Type::getInt64Ty(ctx);
  auto* fn = llvm::Function::Create(
      llvm::FunctionType::get(i64, {i64, i64}, false),
      llvm::Function::ExternalLinkage, "worker", &mod.module());
  auto* mix2 = llvm::Function::Create(
      llvm::FunctionType::get(i64, {i64, i64}, false),
      llvm::Function::ExternalLinkage, "test_mix2", &mod.module());
  b.SetInsertPoint(llvm::BasicBlock::Create(ctx, "entry", fn));
  b.CreateRet(b.CreateCall(
      mix2, {b.CreateMul(fn->getArg(0), b.getInt64(static_cast<uint64_t>(k))),
             fn->getArg(1)}));
  return mod;
}

uint64_t ExpectedWorker(int64_t k, uint64_t a, uint64_t b) {
  return test_mix2(a * static_cast<uint64_t>(k), b);
}

using WorkerSig = uint64_t (*)(uint64_t, uint64_t);

std::unique_ptr<CompiledModule> CompileWorker(int64_t k, JitMode mode) {
  Status status;
  auto compiled = JitCompile(MakeWorkerModule(k), mode, TestRegistry(), &status);
  EXPECT_TRUE(status.ok()) << status.message();
  return compiled;
}

TEST(JitSessionTest, MissingRuntimeSymbolIsAnError) {
  for (JitMode mode : {JitMode::kUnoptimized, JitMode::kOptimized}) {
    IrModule mod("missing");
    llvm::IRBuilder<> b(mod.context());
    llvm::Function* fn = MakeF(&mod, &b);
    auto* i64 = b.getInt64Ty();
    auto* missing = llvm::Function::Create(
        llvm::FunctionType::get(i64, {i64}, false),
        llvm::Function::ExternalLinkage, "aqe_test_not_registered",
        &mod.module());
    b.CreateRet(b.CreateCall(missing, {fn->getArg(0)}));

    Status status;
    auto compiled = JitCompile(std::move(mod), mode, TestRegistry(), &status);
    EXPECT_EQ(compiled, nullptr) << JitModeName(mode);
    EXPECT_FALSE(status.ok()) << JitModeName(mode);
    EXPECT_NE(status.message().find("aqe_test_not_registered"),
              std::string::npos)
        << status.message();
  }
  // The failed link leaves the session usable.
  auto compiled = CompileWorker(3, JitMode::kUnoptimized);
  ASSERT_NE(compiled, nullptr);
  auto* fn = reinterpret_cast<WorkerSig>(compiled->Lookup("worker"));
  EXPECT_EQ(fn(5, 6), ExpectedWorker(3, 5, 6));
}

TEST(JitSessionTest, ModulesDefiningTheSameSymbolStayIsolated) {
  auto first = CompileWorker(2, JitMode::kUnoptimized);
  auto second = CompileWorker(7, JitMode::kOptimized);
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);
  EXPECT_GT(first->code_bytes(), 0u);
  EXPECT_GT(second->code_bytes(), 0u);
  EXPECT_EQ(first->Lookup("missing"), nullptr);

  auto* first_fn = reinterpret_cast<WorkerSig>(first->Lookup("worker"));
  auto* second_fn = reinterpret_cast<WorkerSig>(second->Lookup("worker"));
  ASSERT_NE(first_fn, second_fn);
  EXPECT_EQ(first_fn(10, 1), ExpectedWorker(2, 10, 1));
  EXPECT_EQ(second_fn(10, 1), ExpectedWorker(7, 10, 1));

  // Destroying one module unmaps only its own code.
  first.reset();
  EXPECT_EQ(second_fn(4, 9), ExpectedWorker(7, 4, 9));
  auto third = CompileWorker(11, JitMode::kUnoptimized);
  ASSERT_NE(third, nullptr);
  auto* third_fn = reinterpret_cast<WorkerSig>(third->Lookup("worker"));
  EXPECT_EQ(third_fn(4, 9), ExpectedWorker(11, 4, 9));
  EXPECT_EQ(second_fn(4, 9), ExpectedWorker(7, 4, 9));
}

TEST(JitSessionTest, ConcurrentCompileRunDestroy) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 12;
  std::atomic<int> wrong{0};
  std::atomic<int> failed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &wrong, &failed] {
      // Keep the previous round's module alive across the next compile, so
      // removals interleave with other threads' links.
      std::unique_ptr<CompiledModule> previous;
      int64_t previous_k = 0;
      for (int round = 0; round < kRounds; ++round) {
        const int64_t k = 1000 * (t + 1) + round;
        const JitMode mode =
            round % 2 == 0 ? JitMode::kUnoptimized : JitMode::kOptimized;
        Status status;
        auto compiled = JitCompile(MakeWorkerModule(k), mode, TestRegistry(),
                                   &status);
        if (compiled == nullptr || !status.ok()) {
          failed.fetch_add(1);
          continue;
        }
        auto* fn = reinterpret_cast<WorkerSig>(compiled->Lookup("worker"));
        const uint64_t a = static_cast<uint64_t>(round) + 3;
        if (fn == nullptr || fn(a, 17) != ExpectedWorker(k, a, 17)) {
          wrong.fetch_add(1);
        }
        if (previous != nullptr) {
          auto* old = reinterpret_cast<WorkerSig>(previous->Lookup("worker"));
          if (old(a, 5) != ExpectedWorker(previous_k, a, 5)) wrong.fetch_add(1);
        }
        previous = std::move(compiled);
        previous_k = k;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failed.load(), 0);
  EXPECT_EQ(wrong.load(), 0);
}

// --- register allocation strategies -------------------------------------------

TEST(RegAllocTest, StrategiesOrderedBySize) {
  // A function with several loops and many values: loop-aware must beat
  // window must beat no-reuse (§IV-C: 6 KB vs 21 KB vs 36 KB on TPC-DS q55).
  IrGenerator gen = [](IrModule* mod) {
    llvm::IRBuilder<> b(mod->context());
    llvm::Function* fn = MakeF(mod, &b);
    auto& ctx = mod->context();
    llvm::Value* acc = fn->getArg(0);
    llvm::BasicBlock* prev = &fn->getEntryBlock();
    for (int loop = 0; loop < 6; ++loop) {
      auto* head = llvm::BasicBlock::Create(ctx, "head", fn);
      auto* body = llvm::BasicBlock::Create(ctx, "body", fn);
      auto* exit = llvm::BasicBlock::Create(ctx, "exit", fn);
      b.SetInsertPoint(prev);
      // Some block-local temporaries before entering the loop.
      llvm::Value* t = acc;
      for (int k = 0; k < 8; ++k) {
        t = b.CreateAdd(b.CreateMul(t, b.getInt64(3)), b.getInt64(k));
      }
      b.CreateBr(head);
      b.SetInsertPoint(head);
      auto* i = b.CreatePHI(b.getInt64Ty(), 2);
      auto* s = b.CreatePHI(b.getInt64Ty(), 2);
      auto* cond = b.CreateICmpSLT(i, b.getInt64(4));
      b.CreateCondBr(cond, body, exit);
      b.SetInsertPoint(body);
      auto* s2 = b.CreateAdd(s, b.CreateXor(i, t));
      auto* i2 = b.CreateAdd(i, b.getInt64(1));
      b.CreateBr(head);
      i->addIncoming(b.getInt64(0), prev);
      i->addIncoming(i2, body);
      s->addIncoming(t, prev);
      s->addIncoming(s2, body);
      acc = s;
      prev = exit;
    }
    b.SetInsertPoint(prev);
    b.CreateRet(acc);
  };

  auto size_for = [&](RegAllocStrategy strategy) {
    IrModule mod("m");
    gen(&mod);
    TranslatorOptions options;
    options.strategy = strategy;
    options.window_size = 4;
    return TranslateToBytecode(*mod.module().getFunction("f"),
                               TestRegistry(), options)
        .register_file_size;
  };
  uint32_t loop_aware = size_for(RegAllocStrategy::kLoopAware);
  uint32_t window = size_for(RegAllocStrategy::kWindow);
  uint32_t no_reuse = size_for(RegAllocStrategy::kNoReuse);
  EXPECT_LT(loop_aware, window);
  EXPECT_LT(window, no_reuse);

  // All strategies must still execute correctly.
  ExpectAllEnginesAgree(gen, 3, 0, /*include_jit=*/false);
}

// --- randomized differential testing -----------------------------------------

/// Generates a random, structured, terminating function exercising i64/i32
/// arithmetic, comparisons, selects, phis (if-else joins and loop
/// accumulators), overflow intrinsics with branch, fused and unfused memory
/// access through the buffer argument, and runtime calls.
class RandomProgramGen {
 public:
  explicit RandomProgramGen(uint64_t seed) : seed_(seed) {}

  void operator()(IrModule* mod) const {
    Random rng(seed_);
    auto& ctx = mod->context();
    llvm::IRBuilder<> b(ctx);
    llvm::Function* fn = MakeF(mod, &b);
    auto* i64 = llvm::Type::getInt64Ty(ctx);
    auto* mix2 = llvm::Function::Create(
        llvm::FunctionType::get(i64, {i64, i64}, false),
        llvm::Function::ExternalLinkage, "test_mix2", &mod->module());
    auto* mix3 = llvm::Function::Create(
        llvm::FunctionType::get(i64, {i64, i64, i64}, false),
        llvm::Function::ExternalLinkage, "test_mix3", &mod->module());

    std::vector<llvm::Value*> pool = {fn->getArg(0), fn->getArg(1),
                                      b.getInt64(12345),
                                      b.getInt64(static_cast<uint64_t>(-7))};
    auto pick = [&]() {
      return pool[rng.NextBelow(pool.size())];
    };

    int budget = 12 + static_cast<int>(rng.NextBelow(20));
    for (int step = 0; step < budget; ++step) {
      switch (rng.NextBelow(10)) {
        case 0: {  // plain arithmetic
          llvm::Value* x = pick();
          llvm::Value* y = pick();
          switch (rng.NextBelow(6)) {
            case 0: pool.push_back(b.CreateAdd(x, y)); break;
            case 1: pool.push_back(b.CreateSub(x, y)); break;
            case 2: pool.push_back(b.CreateMul(x, y)); break;
            case 3: pool.push_back(b.CreateAnd(x, y)); break;
            case 4: pool.push_back(b.CreateOr(x, y)); break;
            default: pool.push_back(b.CreateXor(x, y)); break;
          }
          break;
        }
        case 1: {  // shift by bounded amount
          llvm::Value* amt = b.CreateAnd(pick(), b.getInt64(15));
          pool.push_back(rng.NextBool(0.5) ? b.CreateShl(pick(), amt)
                                           : b.CreateAShr(pick(), amt));
          break;
        }
        case 2: {  // guarded division
          llvm::Value* den = b.CreateOr(pick(), b.getInt64(1));
          pool.push_back(rng.NextBool(0.5) ? b.CreateSDiv(pick(), den)
                                           : b.CreateSRem(pick(), den));
          break;
        }
        case 3: {  // i32 round trip
          llvm::Value* x32 = b.CreateTrunc(pick(), b.getInt32Ty());
          llvm::Value* y32 = b.CreateTrunc(pick(), b.getInt32Ty());
          llvm::Value* r32 = rng.NextBool(0.5) ? b.CreateMul(x32, y32)
                                               : b.CreateAdd(x32, y32);
          pool.push_back(rng.NextBool(0.5)
                             ? b.CreateSExt(r32, i64)
                             : b.CreateZExt(r32, i64));
          break;
        }
        case 4: {  // compare + select/zext
          llvm::Value* c =
              rng.NextBool(0.5) ? b.CreateICmpSLT(pick(), pick())
                                : b.CreateICmpULE(pick(), pick());
          pool.push_back(rng.NextBool(0.5)
                             ? b.CreateSelect(c, pick(), pick())
                             : b.CreateZExt(c, i64));
          break;
        }
        case 5: {  // buffer load (fusable)
          llvm::Value* idx = b.CreateAnd(pick(), b.getInt64(63));
          auto* gep = b.CreateGEP(i64, fn->getArg(2), idx);
          pool.push_back(b.CreateLoad(i64, gep));
          break;
        }
        case 6: {  // buffer store
          llvm::Value* idx = b.CreateAnd(pick(), b.getInt64(63));
          auto* gep = b.CreateGEP(i64, fn->getArg(2), idx);
          b.CreateStore(pick(), gep);
          break;
        }
        case 7: {  // runtime call
          pool.push_back(
              rng.NextBool(0.5)
                  ? b.CreateCall(mix2, {pick(), pick()})
                  : b.CreateCall(mix3, {pick(), pick(), pick()}));
          break;
        }
        case 8: {  // if-else with phi join
          auto* then_bb = llvm::BasicBlock::Create(ctx, "t", fn);
          auto* else_bb = llvm::BasicBlock::Create(ctx, "e", fn);
          auto* join_bb = llvm::BasicBlock::Create(ctx, "j", fn);
          auto* cond = b.CreateICmpSGT(pick(), pick());
          b.CreateCondBr(cond, then_bb, else_bb);
          b.SetInsertPoint(then_bb);
          auto* tv = b.CreateAdd(pick(), b.getInt64(rng.Next() & 0xFF));
          b.CreateBr(join_bb);
          b.SetInsertPoint(else_bb);
          auto* ev = b.CreateXor(pick(), b.getInt64(rng.Next() & 0xFF));
          b.CreateBr(join_bb);
          b.SetInsertPoint(join_bb);
          auto* phi = b.CreatePHI(i64, 2);
          phi->addIncoming(tv, then_bb);
          phi->addIncoming(ev, else_bb);
          pool.push_back(phi);
          break;
        }
        default: {  // bounded loop with accumulator phi
          auto* pre = b.GetInsertBlock();
          auto* head = llvm::BasicBlock::Create(ctx, "lh", fn);
          auto* body = llvm::BasicBlock::Create(ctx, "lb", fn);
          auto* exit = llvm::BasicBlock::Create(ctx, "lx", fn);
          uint64_t trips = 1 + rng.NextBelow(6);
          llvm::Value* seed_val = pick();
          b.CreateBr(head);
          b.SetInsertPoint(head);
          auto* i = b.CreatePHI(i64, 2);
          auto* acc = b.CreatePHI(i64, 2);
          auto* cond = b.CreateICmpULT(i, b.getInt64(trips));
          b.CreateCondBr(cond, body, exit);
          b.SetInsertPoint(body);
          auto* step_v = b.CreateMul(acc, b.getInt64(3));
          auto* acc2 = b.CreateAdd(step_v, i);
          auto* i2 = b.CreateAdd(i, b.getInt64(1));
          b.CreateBr(head);
          b.SetInsertPoint(exit);
          i->addIncoming(b.getInt64(0), pre);
          i->addIncoming(i2, body);
          acc->addIncoming(seed_val, pre);
          acc->addIncoming(acc2, body);
          pool.push_back(acc);
          break;
        }
      }
    }

    // Occasionally end with an overflow-checked op on masked operands.
    if (rng.NextBool(0.6)) {
      auto* ovf_bb = llvm::BasicBlock::Create(ctx, "ovf", fn);
      auto* cont_bb = llvm::BasicBlock::Create(ctx, "cont", fn);
      auto* x = b.CreateAnd(pick(), b.getInt64(0xFFFFFFFFull));
      auto* y = b.CreateAnd(pick(), b.getInt64(0xFFFFFFFFull));
      auto* pair = b.CreateBinaryIntrinsic(
          rng.NextBool(0.5) ? llvm::Intrinsic::smul_with_overflow
                            : llvm::Intrinsic::sadd_with_overflow,
          x, y);
      auto* val = b.CreateExtractValue(pair, 0);
      auto* flag = b.CreateExtractValue(pair, 1);
      b.CreateCondBr(flag, ovf_bb, cont_bb);
      b.SetInsertPoint(ovf_bb);
      b.CreateRet(b.getInt64(0xDEADull));
      b.SetInsertPoint(cont_bb);
      pool.push_back(val);
    }

    // Mix the last few pool values into the return value.
    llvm::Value* result = b.getInt64(0);
    size_t n = pool.size();
    for (size_t k = n >= 6 ? n - 6 : 0; k < n; ++k) {
      result = b.CreateXor(b.CreateMul(result, b.getInt64(31)), pool[k]);
    }
    b.CreateRet(result);
  }

 private:
  uint64_t seed_;
};

TEST(VmJitRandomTest, VmVariantsMatchNaive) {
  for (uint64_t seed = 0; seed < 40; ++seed) {
    RandomProgramGen gen(seed);
    Random args(seed + 1000);
    ExpectAllEnginesAgree(gen, args.Next(), args.Next(),
                          /*include_jit=*/false);
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "failing seed: " << seed;
      break;
    }
  }
}

TEST(VmJitRandomTest, AllEnginesIncludingJit) {
  for (uint64_t seed = 100; seed < 108; ++seed) {
    RandomProgramGen gen(seed);
    Random args(seed + 2000);
    ExpectAllEnginesAgree(gen, args.Next(), args.Next(),
                          /*include_jit=*/true);
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "failing seed: " << seed;
      break;
    }
  }
}

}  // namespace
}  // namespace aqe
