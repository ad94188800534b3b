// Differential tests of the two interpreter dispatch engines (switch vs
// direct-threaded) and the compare-and-branch superinstruction peephole:
// the same BcProgram must produce bit-identical results under every engine
// and fusion setting, including at numeric boundary values.
#include <gtest/gtest.h>

#include <algorithm>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <optional>
#include <vector>

#include <llvm/IR/IRBuilder.h>
#include <llvm/IR/Intrinsics.h>

#include "ir/ir_module.h"
#include "runtime/runtime_registry.h"
#include "vm/interpreter.h"
#include "vm/translator.h"

namespace aqe {
namespace {

RuntimeRegistry& TestRegistry() {
  static RuntimeRegistry* registry = [] {
    auto* r = new RuntimeRegistry();
    RegisterBuiltinRuntime(r);
    return r;
  }();
  return *registry;
}

using IrGenerator = std::function<void(IrModule*)>;

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

/// Runs `gen`'s function under both dispatch engines for each translator
/// option set and checks that every (engine, options) combination agrees,
/// including the side-effect buffer.
void ExpectDispatchEnginesAgree(const IrGenerator& gen, uint64_t a,
                                uint64_t b) {
  std::vector<TranslatorOptions> option_sets;
  TranslatorOptions defaults;
  option_sets.push_back(defaults);
  TranslatorOptions no_load_fusion;
  no_load_fusion.fuse_load_cmp_branches = false;
  option_sets.push_back(no_load_fusion);
  TranslatorOptions no_chains;
  no_chains.fuse_branch_chains = false;
  option_sets.push_back(no_chains);
  TranslatorOptions no_cmp_fusion;
  no_cmp_fusion.fuse_cmp_branches = false;
  option_sets.push_back(no_cmp_fusion);
  TranslatorOptions no_fusion_at_all;
  no_fusion_at_all.fuse_macro_ops = false;
  no_fusion_at_all.fuse_cmp_branches = false;
  option_sets.push_back(no_fusion_at_all);

  bool have_reference = false;
  uint64_t ref_value = 0;
  std::vector<int64_t> ref_buf;
  for (size_t opt = 0; opt < option_sets.size(); ++opt) {
    IrModule mod("m");
    gen(&mod);
    ASSERT_EQ(mod.Verify(), "");
    BcProgram program = TranslateToBytecode(*mod.module().getFunction("f"),
                                            TestRegistry(), option_sets[opt]);
    for (VmDispatch dispatch : {VmDispatch::kSwitch, VmDispatch::kThreaded}) {
      std::vector<int64_t> buf(64);
      for (int i = 0; i < 64; ++i) buf[static_cast<size_t>(i)] = i * 7 - 100;
      uint64_t args[3] = {a, b, reinterpret_cast<uint64_t>(buf.data())};
      uint64_t value = VmExecute(program, args, 3, dispatch);
      if (!have_reference) {
        have_reference = true;
        ref_value = value;
        ref_buf = buf;
        continue;
      }
      EXPECT_EQ(value, ref_value)
          << "options[" << opt << "] " << VmDispatchName(dispatch);
      EXPECT_EQ(buf, ref_buf)
          << "options[" << opt << "] " << VmDispatchName(dispatch) << " buffer";
    }
  }
}

TEST(VmDispatchTest, ThreadedEngineIsCompiledIn) {
  // The supported compilers are GCC and Clang; if this starts failing the
  // dispatch benchmark silently degenerates to switch-vs-switch.
  EXPECT_TRUE(VmThreadedDispatchAvailable());
  // The engine runs the loop the build's AQE_VM_DISPATCH names.
#if defined(AQE_VM_DISPATCH_SWITCH)
  EXPECT_EQ(kVmBuildDispatch, VmDispatch::kSwitch);
#elif defined(AQE_VM_DISPATCH_THREADED)
  EXPECT_EQ(kVmBuildDispatch, VmDispatch::kThreaded);
#else
  ADD_FAILURE() << "the build defines neither AQE_VM_DISPATCH_SWITCH nor "
                   "AQE_VM_DISPATCH_THREADED";
#endif
}

// --- compare-and-branch superinstructions ------------------------------------

/// f = (a <pred> b) ? 111 : 222 via explicit branching (not select), so the
/// icmp + condbr pair is fusable.
IrGenerator CmpBranchGen(llvm::CmpInst::Predicate pred, bool use_i32) {
  return [pred, use_i32](IrModule* mod) {
    llvm::IRBuilder<> b(mod->context());
    llvm::Function* fn = MakeF(mod, &b);
    auto& ctx = mod->context();
    auto* then_bb = llvm::BasicBlock::Create(ctx, "t", fn);
    auto* else_bb = llvm::BasicBlock::Create(ctx, "e", fn);
    llvm::Value* lhs = fn->getArg(0);
    llvm::Value* rhs = fn->getArg(1);
    if (use_i32) {
      lhs = b.CreateTrunc(lhs, b.getInt32Ty());
      rhs = b.CreateTrunc(rhs, b.getInt32Ty());
    }
    b.CreateCondBr(b.CreateICmp(pred, lhs, rhs), then_bb, else_bb);
    b.SetInsertPoint(then_bb);
    b.CreateRet(b.getInt64(111));
    b.SetInsertPoint(else_bb);
    b.CreateRet(b.getInt64(222));
  };
}

TEST(VmDispatchTest, FusedIcmpBranchAllPredicatesAtBoundaries) {
  const llvm::CmpInst::Predicate predicates[] = {
      llvm::CmpInst::ICMP_EQ,  llvm::CmpInst::ICMP_NE,
      llvm::CmpInst::ICMP_SLT, llvm::CmpInst::ICMP_SLE,
      llvm::CmpInst::ICMP_SGT, llvm::CmpInst::ICMP_SGE,
      llvm::CmpInst::ICMP_ULT, llvm::CmpInst::ICMP_ULE,
      llvm::CmpInst::ICMP_UGT, llvm::CmpInst::ICMP_UGE,
  };
  const uint64_t boundary[] = {
      0,
      1,
      static_cast<uint64_t>(-1),
      static_cast<uint64_t>(std::numeric_limits<int32_t>::min()),
      static_cast<uint64_t>(std::numeric_limits<int32_t>::max()),
      static_cast<uint64_t>(std::numeric_limits<int64_t>::min()),
      static_cast<uint64_t>(std::numeric_limits<int64_t>::max()),
      0x80000000ull,  // i32 sign boundary as unsigned
  };
  for (llvm::CmpInst::Predicate pred : predicates) {
    for (bool use_i32 : {false, true}) {
      IrGenerator gen = CmpBranchGen(pred, use_i32);
      for (uint64_t x : boundary) {
        for (uint64_t y : boundary) {
          ExpectDispatchEnginesAgree(gen, x, y);
          if (::testing::Test::HasFailure()) {
            FAIL() << "pred=" << pred << " i32=" << use_i32 << " x=" << x
                   << " y=" << y;
          }
        }
      }
    }
  }
}

TEST(VmDispatchTest, FusedFcmpBranchWithNaN) {
  for (llvm::CmpInst::Predicate pred :
       {llvm::CmpInst::FCMP_OLT, llvm::CmpInst::FCMP_OGT}) {
    IrGenerator gen = [pred](IrModule* mod) {
      llvm::IRBuilder<> b(mod->context());
      llvm::Function* fn = MakeF(mod, &b);
      auto& ctx = mod->context();
      auto* then_bb = llvm::BasicBlock::Create(ctx, "t", fn);
      auto* else_bb = llvm::BasicBlock::Create(ctx, "e", fn);
      auto* x = b.CreateBitCast(fn->getArg(0), b.getDoubleTy());
      auto* y = b.CreateBitCast(fn->getArg(1), b.getDoubleTy());
      b.CreateCondBr(b.CreateFCmp(pred, x, y), then_bb, else_bb);
      b.SetInsertPoint(then_bb);
      b.CreateRet(b.getInt64(111));
      b.SetInsertPoint(else_bb);
      b.CreateRet(b.getInt64(222));
    };
    auto bits = [](double d) {
      uint64_t u;
      std::memcpy(&u, &d, sizeof(u));
      return u;
    };
    const double values[] = {0.0, -0.0, 1.5, -1.5,
                             std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()};
    for (double x : values) {
      for (double y : values) {
        ExpectDispatchEnginesAgree(gen, bits(x), bits(y));
      }
    }
  }
}

TEST(VmDispatchTest, CmpBranchFusionEmitsSuperinstruction) {
  IrGenerator gen = CmpBranchGen(llvm::CmpInst::ICMP_SLT, false);
  IrModule mod("m");
  gen(&mod);
  BcProgram fused =
      TranslateToBytecode(*mod.module().getFunction("f"), TestRegistry(), {});
  EXPECT_EQ(fused.fused_cmp_branches, 1u);
  EXPECT_NE(fused.Disassemble().find("br_slt_i64"), std::string::npos);
  EXPECT_EQ(fused.Disassemble().find("icmp_slt_i64"), std::string::npos);

  TranslatorOptions no_fuse;
  no_fuse.fuse_cmp_branches = false;
  BcProgram unfused = TranslateToBytecode(*mod.module().getFunction("f"),
                                          TestRegistry(), no_fuse);
  EXPECT_EQ(unfused.fused_cmp_branches, 0u);
  EXPECT_NE(unfused.Disassemble().find("icmp_slt_i64"), std::string::npos);
  EXPECT_NE(unfused.Disassemble().find("condbr"), std::string::npos);
  // Fusion removes one instruction (the icmp).
  EXPECT_EQ(fused.code.size() + 1, unfused.code.size());
}

/// f = (a <pred> K) ? 111 : 222 with the constant on the LHS or RHS: the
/// fused compare reads K from a constant-pool register on either side.
IrGenerator CmpConstBranchGen(llvm::CmpInst::Predicate pred, bool use_i32,
                            uint64_t constant, bool constant_lhs) {
  return [pred, use_i32, constant, constant_lhs](IrModule* mod) {
    llvm::IRBuilder<> b(mod->context());
    llvm::Function* fn = MakeF(mod, &b);
    auto& ctx = mod->context();
    auto* then_bb = llvm::BasicBlock::Create(ctx, "t", fn);
    auto* else_bb = llvm::BasicBlock::Create(ctx, "e", fn);
    llvm::Value* x = fn->getArg(0);
    llvm::Value* k;
    if (use_i32) {
      x = b.CreateTrunc(x, b.getInt32Ty());
      k = b.getInt32(static_cast<uint32_t>(constant));
    } else {
      k = b.getInt64(constant);
    }
    llvm::Value* cmp = constant_lhs ? b.CreateICmp(pred, k, x)
                                    : b.CreateICmp(pred, x, k);
    b.CreateCondBr(cmp, then_bb, else_bb);
    b.SetInsertPoint(then_bb);
    b.CreateRet(b.getInt64(111));
    b.SetInsertPoint(else_bb);
    b.CreateRet(b.getInt64(222));
  };
}

/// Whether `program` keeps `value` in a constant-pool register.
bool InConstantPool(const BcProgram& program, uint64_t value) {
  return std::any_of(program.constant_pool.begin(), program.constant_pool.end(),
                     [value](const BcProgram::PoolEntry& entry) {
                       return entry.value == value;
                     });
}

TEST(VmDispatchTest, ConstCmpBranchAllPredicatesBothEnginesAtBoundaries) {
  const llvm::CmpInst::Predicate predicates[] = {
      llvm::CmpInst::ICMP_EQ,  llvm::CmpInst::ICMP_NE,
      llvm::CmpInst::ICMP_SLT, llvm::CmpInst::ICMP_SLE,
      llvm::CmpInst::ICMP_SGT, llvm::CmpInst::ICMP_SGE,
      llvm::CmpInst::ICMP_ULT, llvm::CmpInst::ICMP_ULE,
      llvm::CmpInst::ICMP_UGT, llvm::CmpInst::ICMP_UGE,
  };
  const uint64_t constants[] = {
      2,  // plain
      static_cast<uint64_t>(-7),
      static_cast<uint64_t>(std::numeric_limits<int64_t>::min()),
      static_cast<uint64_t>(std::numeric_limits<int64_t>::max()),
      0x80000000ull,  // i32 sign boundary as unsigned
  };
  const uint64_t args[] = {0, 1, static_cast<uint64_t>(-7), 2, 3,
                           static_cast<uint64_t>(-1), 0x80000000ull};
  for (llvm::CmpInst::Predicate pred : predicates) {
    for (bool use_i32 : {false, true}) {
      for (bool constant_lhs : {false, true}) {
        for (uint64_t k : constants) {
          IrGenerator gen = CmpConstBranchGen(pred, use_i32, k, constant_lhs);
          for (uint64_t x : args) {
            ExpectDispatchEnginesAgree(gen, x, 0);
            if (::testing::Test::HasFailure()) {
              FAIL() << "pred=" << pred << " i32=" << use_i32
                     << " const_lhs=" << constant_lhs << " k=" << k
                     << " x=" << x;
            }
          }
        }
      }
    }
  }
}

TEST(VmDispatchTest, ConstCmpBranchReadsConstantPoolRegister) {
  IrGenerator gen =
      CmpConstBranchGen(llvm::CmpInst::ICMP_SLT, false, 42, /*lhs=*/false);
  IrModule mod("m");
  gen(&mod);
  BcProgram fused =
      TranslateToBytecode(*mod.module().getFunction("f"), TestRegistry(), {});
  EXPECT_EQ(fused.fused_cmp_branches, 1u);
  EXPECT_NE(fused.Disassemble().find("br_slt_i64"), std::string::npos);
  // The compared constant is a constant-pool register, loaded on entry.
  EXPECT_TRUE(fused.literal_pool.empty());
  EXPECT_TRUE(InConstantPool(fused, 42));
}

TEST(VmDispatchTest, ConstCmpBranchKeepsConstantLhsInPlace) {
  // 42 < x stays br_slt_i64 with the constant's register as its LHS.
  IrGenerator gen =
      CmpConstBranchGen(llvm::CmpInst::ICMP_SLT, false, 42, /*lhs=*/true);
  IrModule mod("m");
  gen(&mod);
  BcProgram program =
      TranslateToBytecode(*mod.module().getFunction("f"), TestRegistry(), {});
  EXPECT_EQ(program.fused_cmp_branches, 1u);
  EXPECT_NE(program.Disassemble().find("br_slt_i64"), std::string::npos);
  EXPECT_EQ(program.Disassemble().find("br_sgt_i64"), std::string::npos);
  for (uint64_t x : {uint64_t{41}, uint64_t{42}, uint64_t{43}}) {
    for (VmDispatch dispatch : {VmDispatch::kSwitch, VmDispatch::kThreaded}) {
      uint64_t args[3] = {x, 0, 0};
      EXPECT_EQ(VmExecute(program, args, 3, dispatch), x > 42 ? 111u : 222u)
          << x << " " << VmDispatchName(dispatch);
    }
  }
}

TEST(VmDispatchTest, ConstFcmpBranchWithNaN) {
  for (llvm::CmpInst::Predicate pred :
       {llvm::CmpInst::FCMP_OLT, llvm::CmpInst::FCMP_OGT}) {
    for (double k : {1.5, -3.25}) {
      IrGenerator gen = [pred, k](IrModule* mod) {
        llvm::IRBuilder<> b(mod->context());
        llvm::Function* fn = MakeF(mod, &b);
        auto& ctx = mod->context();
        auto* then_bb = llvm::BasicBlock::Create(ctx, "t", fn);
        auto* else_bb = llvm::BasicBlock::Create(ctx, "e", fn);
        auto* x = b.CreateBitCast(fn->getArg(0), b.getDoubleTy());
        b.CreateCondBr(b.CreateFCmp(pred, x, llvm::ConstantFP::get(
                                                 b.getDoubleTy(), k)),
                       then_bb, else_bb);
        b.SetInsertPoint(then_bb);
        b.CreateRet(b.getInt64(111));
        b.SetInsertPoint(else_bb);
        b.CreateRet(b.getInt64(222));
      };
      {
        IrModule mod("m");
        gen(&mod);
        BcProgram program = TranslateToBytecode(
            *mod.module().getFunction("f"), TestRegistry(), {});
        EXPECT_EQ(program.fused_cmp_branches, 1u);
        EXPECT_TRUE(program.literal_pool.empty());
      }
      auto bits = [](double d) {
        uint64_t u;
        std::memcpy(&u, &d, sizeof(u));
        return u;
      };
      const double values[] = {0.0, -0.0, 1.5, -1.5, -3.25,
                               std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity()};
      for (double x : values) ExpectDispatchEnginesAgree(gen, bits(x), 0);
    }
  }
}

TEST(VmDispatchTest, ConstCmpBranchReadsZeroAndOneFromReservedSlots) {
  // Compares against 0/1 read the reserved slots, which already hold those
  // values: no pool entry at all.
  for (uint64_t k : {uint64_t{0}, uint64_t{1}}) {
    IrGenerator gen =
        CmpConstBranchGen(llvm::CmpInst::ICMP_SGT, false, k, /*lhs=*/false);
    IrModule mod("m");
    gen(&mod);
    BcProgram program = TranslateToBytecode(*mod.module().getFunction("f"),
                                            TestRegistry(), {});
    EXPECT_EQ(program.fused_cmp_branches, 1u);
    EXPECT_TRUE(program.literal_pool.empty());
    EXPECT_FALSE(InConstantPool(program, k));
    ExpectDispatchEnginesAgree(gen, 0, 0);
    ExpectDispatchEnginesAgree(gen, 5, 0);
    ExpectDispatchEnginesAgree(gen, static_cast<uint64_t>(-5), 0);
  }
}

TEST(VmDispatchTest, MultiUseCompareIsNotFused) {
  // The i1 result is used by both the condbr and a zext -> no fusion.
  IrGenerator gen = [](IrModule* mod) {
    llvm::IRBuilder<> b(mod->context());
    llvm::Function* fn = MakeF(mod, &b);
    auto& ctx = mod->context();
    auto* then_bb = llvm::BasicBlock::Create(ctx, "t", fn);
    auto* else_bb = llvm::BasicBlock::Create(ctx, "e", fn);
    auto* cmp = b.CreateICmpSLT(fn->getArg(0), fn->getArg(1));
    auto* bit = b.CreateZExt(cmp, b.getInt64Ty());
    b.CreateCondBr(cmp, then_bb, else_bb);
    b.SetInsertPoint(then_bb);
    b.CreateRet(b.CreateAdd(bit, b.getInt64(100)));
    b.SetInsertPoint(else_bb);
    b.CreateRet(bit);
  };
  IrModule mod("m");
  gen(&mod);
  BcProgram program =
      TranslateToBytecode(*mod.module().getFunction("f"), TestRegistry(), {});
  EXPECT_EQ(program.fused_cmp_branches, 0u);
  ExpectDispatchEnginesAgree(gen, 3, 9);
  ExpectDispatchEnginesAgree(gen, 9, 3);
}

// --- short-circuit branch chains ---------------------------------------------

/// A scan-filter loop whose filter is one conjunction feeding a single
/// condbr — the and-tree shape every compiled multi-term predicate has, and
/// the branch-chain splitting target. Sums buf[i] over rows passing
/// `buf[i] > a && buf[i] < b && <third term>`. The first compare reads its
/// own single-use load (so its chain element can fold it, br_load_*); the
/// second load feeds the remaining terms and the sum. With
/// `unfusable_leaf` the third term is an fcmp OGE, which has no fused
/// branch form and must chain through a plain condbr.
IrGenerator ChainLoopGen(bool unfusable_leaf) {
  return [unfusable_leaf](IrModule* mod) {
    llvm::IRBuilder<> b(mod->context());
    llvm::Function* fn = MakeF(mod, &b);
    auto& ctx = mod->context();
    auto* i64 = llvm::Type::getInt64Ty(ctx);
    auto* head = llvm::BasicBlock::Create(ctx, "head", fn);
    auto* body = llvm::BasicBlock::Create(ctx, "body", fn);
    auto* keep = llvm::BasicBlock::Create(ctx, "keep", fn);
    auto* latch = llvm::BasicBlock::Create(ctx, "latch", fn);
    auto* exit = llvm::BasicBlock::Create(ctx, "exit", fn);
    auto* entry = b.GetInsertBlock();
    b.CreateBr(head);
    b.SetInsertPoint(head);
    auto* i = b.CreatePHI(i64, 2, "i");
    auto* sum = b.CreatePHI(i64, 2, "sum");
    i->addIncoming(b.getInt64(0), entry);
    sum->addIncoming(b.getInt64(0), entry);
    b.CreateCondBr(b.CreateICmpULT(i, b.getInt64(64)), body, exit);
    b.SetInsertPoint(body);
    auto* v1 = b.CreateLoad(i64, b.CreateGEP(i64, fn->getArg(2), i));
    auto* v2 = b.CreateLoad(i64, b.CreateGEP(i64, fn->getArg(2), i));
    auto* c1 = b.CreateICmpSGT(v1, fn->getArg(0));
    auto* c2 = b.CreateICmpSLT(v2, fn->getArg(1));
    llvm::Value* c3;
    if (unfusable_leaf) {
      auto* vd = b.CreateSIToFP(v2, b.getDoubleTy());
      c3 = b.CreateFCmpOGE(vd, llvm::ConstantFP::get(b.getDoubleTy(), -60.0));
    } else {
      c3 = b.CreateICmpNE(v2, b.getInt64(40));
    }
    b.CreateCondBr(b.CreateAnd(b.CreateAnd(c1, c2), c3), keep, latch);
    b.SetInsertPoint(keep);
    auto* sum2 = b.CreateAdd(sum, v2);
    b.CreateBr(latch);
    b.SetInsertPoint(latch);
    auto* sum3 = b.CreatePHI(i64, 2, "sum3");
    sum3->addIncoming(sum, body);
    sum3->addIncoming(sum2, keep);
    auto* next = b.CreateAdd(i, b.getInt64(1));
    i->addIncoming(next, latch);
    sum->addIncoming(sum3, latch);
    b.CreateBr(head);
    b.SetInsertPoint(exit);
    b.CreateRet(sum);
  };
}

TEST(VmDispatchTest, BranchChainSplitsConjunction) {
  IrGenerator gen = ChainLoopGen(/*unfusable_leaf=*/false);
  IrModule mod("m");
  gen(&mod);
  BcProgram chained =
      TranslateToBytecode(*mod.module().getFunction("f"), TestRegistry(), {});
  // Loop bound + all three conjunction leaves fuse; the first leaf's
  // single-use load folds into its chain element, and the bound (ult 64)
  // and ne-40 leaves read their constants from registers. No condbr
  // survives.
  EXPECT_EQ(chained.fused_cmp_branches, 4u);
  EXPECT_EQ(chained.fused_load_cmp_branches, 1u);
  EXPECT_TRUE(chained.literal_pool.empty());
  EXPECT_EQ(chained.Disassemble().find("condbr"), std::string::npos);

  TranslatorOptions no_chains;
  no_chains.fuse_branch_chains = false;
  BcProgram flat = TranslateToBytecode(*mod.module().getFunction("f"),
                                       TestRegistry(), no_chains);
  // Without chains the conjunction materializes into one condbr and only
  // the loop bound fuses.
  EXPECT_EQ(flat.fused_cmp_branches, 1u);
  EXPECT_EQ(flat.fused_load_cmp_branches, 0u);
  EXPECT_NE(flat.Disassemble().find("condbr"), std::string::npos);
}

TEST(VmDispatchTest, BranchChainKeepsUnfusableLeafAsCondbr) {
  IrGenerator gen = ChainLoopGen(/*unfusable_leaf=*/true);
  IrModule mod("m");
  gen(&mod);
  BcProgram chained =
      TranslateToBytecode(*mod.module().getFunction("f"), TestRegistry(), {});
  // The fcmp-OGE leaf has no fused branch form: it computes in the body
  // and chains through a plain condbr, while the loop bound and the two
  // icmp leaves still fuse.
  EXPECT_EQ(chained.fused_cmp_branches, 3u);
  EXPECT_EQ(chained.fused_load_cmp_branches, 1u);
  EXPECT_NE(chained.Disassemble().find("condbr"), std::string::npos);
}

TEST(VmDispatchTest, BranchChainAllEnginesAndOptionSetsAgree) {
  // Harness buf holds i*7 - 100 for i in [0, 64): range [-100, 341],
  // containing the ne-40 leaf's constant (i == 20). Thresholds picked so
  // each term is the short-circuit decider for some rows: always-pass,
  // always-fail, and boundary-straddling pairs.
  const int64_t pairs[][2] = {
      {-1000, 1000},  // every row passes the range terms
      {341, 1000},    // first term fails on every row
      {-1000, -99},   // second term fails on almost every row
      {0, 200},       // mixed
      {39, 41},       // isolates the ne-40 leaf
  };
  for (bool unfusable_leaf : {false, true}) {
    IrGenerator gen = ChainLoopGen(unfusable_leaf);
    for (const auto& p : pairs) {
      ExpectDispatchEnginesAgree(gen, static_cast<uint64_t>(p[0]),
                                 static_cast<uint64_t>(p[1]));
      if (::testing::Test::HasFailure()) {
        FAIL() << "unfusable_leaf=" << unfusable_leaf << " a=" << p[0]
               << " b=" << p[1];
      }
    }
  }
}

// --- load-compare-and-branch superinstructions -------------------------------

/// Stores b into buf[a & 63] (as i32 or i64), loads it back through a
/// GEP+load pair, and branches on `loaded <pred> a` — the exact shape the
/// br_load_* peephole fuses. `load_on_lhs`=false puts the load on the
/// compare's RHS to exercise the mirrored encoding.
IrGenerator LoadCmpBranchGen(llvm::CmpInst::Predicate pred, bool use_i32,
                             bool load_on_lhs) {
  return [pred, use_i32, load_on_lhs](IrModule* mod) {
    llvm::IRBuilder<> b(mod->context());
    llvm::Function* fn = MakeF(mod, &b);
    auto& ctx = mod->context();
    auto* then_bb = llvm::BasicBlock::Create(ctx, "t", fn);
    auto* else_bb = llvm::BasicBlock::Create(ctx, "e", fn);
    llvm::Type* elem_ty = use_i32 ? b.getInt32Ty() : b.getInt64Ty();
    auto* idx_s = b.CreateAnd(fn->getArg(0), b.getInt64(63));
    llvm::Value* stored = fn->getArg(1);
    if (use_i32) stored = b.CreateTrunc(stored, b.getInt32Ty());
    b.CreateStore(stored, b.CreateGEP(elem_ty, fn->getArg(2), idx_s));
    auto* idx_l = b.CreateAnd(fn->getArg(0), b.getInt64(63));
    auto* loaded =
        b.CreateLoad(elem_ty, b.CreateGEP(elem_ty, fn->getArg(2), idx_l));
    llvm::Value* other = fn->getArg(0);
    if (use_i32) other = b.CreateTrunc(other, b.getInt32Ty());
    llvm::Value* cmp = load_on_lhs ? b.CreateICmp(pred, loaded, other)
                                   : b.CreateICmp(pred, other, loaded);
    b.CreateCondBr(cmp, then_bb, else_bb);
    b.SetInsertPoint(then_bb);
    b.CreateRet(b.getInt64(111));
    b.SetInsertPoint(else_bb);
    b.CreateRet(b.getInt64(222));
  };
}

TEST(VmDispatchTest, LoadCmpBranchAllPredicatesBothEnginesAtBoundaries) {
  const llvm::CmpInst::Predicate predicates[] = {
      llvm::CmpInst::ICMP_EQ,  llvm::CmpInst::ICMP_NE,
      llvm::CmpInst::ICMP_SLT, llvm::CmpInst::ICMP_SLE,
      llvm::CmpInst::ICMP_SGT, llvm::CmpInst::ICMP_SGE,
      llvm::CmpInst::ICMP_ULT, llvm::CmpInst::ICMP_ULE,
      llvm::CmpInst::ICMP_UGT, llvm::CmpInst::ICMP_UGE,
  };
  const uint64_t boundary[] = {
      0,
      1,
      63,
      static_cast<uint64_t>(-1),
      static_cast<uint64_t>(std::numeric_limits<int32_t>::min()),
      static_cast<uint64_t>(std::numeric_limits<int32_t>::max()),
      static_cast<uint64_t>(std::numeric_limits<int64_t>::min()),
      static_cast<uint64_t>(std::numeric_limits<int64_t>::max()),
      0x80000000ull,  // i32 sign boundary as unsigned
  };
  for (llvm::CmpInst::Predicate pred : predicates) {
    for (bool use_i32 : {false, true}) {
      for (bool load_on_lhs : {true, false}) {
        IrGenerator gen = LoadCmpBranchGen(pred, use_i32, load_on_lhs);
        for (uint64_t x : boundary) {
          for (uint64_t y : boundary) {
            ExpectDispatchEnginesAgree(gen, x, y);
            if (::testing::Test::HasFailure()) {
              FAIL() << "pred=" << pred << " i32=" << use_i32
                     << " load_lhs=" << load_on_lhs << " x=" << x << " y=" << y;
            }
          }
        }
      }
    }
  }
}

TEST(VmDispatchTest, LoadCmpBranchEmitsSuperinstruction) {
  IrGenerator gen =
      LoadCmpBranchGen(llvm::CmpInst::ICMP_SGT, false, /*load_on_lhs=*/true);
  IrModule mod("m");
  gen(&mod);
  BcProgram fused =
      TranslateToBytecode(*mod.module().getFunction("f"), TestRegistry(), {});
  EXPECT_EQ(fused.fused_cmp_branches, 1u);
  EXPECT_EQ(fused.fused_load_cmp_branches, 1u);
  EXPECT_NE(fused.Disassemble().find("br_load_sgt_i64"), std::string::npos);
  EXPECT_EQ(fused.Disassemble().find("load_idx_i64"), std::string::npos);

  // With the tier disabled the same kernel keeps the PR-4 shape: a fused
  // indexed load followed by the compare-and-branch superinstruction.
  TranslatorOptions no_load;
  no_load.fuse_load_cmp_branches = false;
  BcProgram two_op = TranslateToBytecode(*mod.module().getFunction("f"),
                                         TestRegistry(), no_load);
  EXPECT_EQ(two_op.fused_cmp_branches, 1u);
  EXPECT_EQ(two_op.fused_load_cmp_branches, 0u);
  EXPECT_NE(two_op.Disassemble().find("load_idx_i64"), std::string::npos);
  EXPECT_NE(two_op.Disassemble().find("br_sgt_i64"), std::string::npos);
  // The tier folds the load away: one fewer instruction.
  EXPECT_EQ(fused.code.size() + 1, two_op.code.size());
}

TEST(VmDispatchTest, LoadCmpBranchMirrorsLoadOnRhs) {
  // a < buf[i]  must become  buf[i] > a (br_load_sgt_i64).
  IrGenerator gen =
      LoadCmpBranchGen(llvm::CmpInst::ICMP_SLT, false, /*load_on_lhs=*/false);
  IrModule mod("m");
  gen(&mod);
  BcProgram program =
      TranslateToBytecode(*mod.module().getFunction("f"), TestRegistry(), {});
  EXPECT_EQ(program.fused_load_cmp_branches, 1u);
  EXPECT_NE(program.Disassemble().find("br_load_sgt_i64"), std::string::npos);
}

/// Loads buf[a & 63] and branches on `loaded <pred> K`: the
/// load-compare-and-branch tier against a constant.
IrGenerator LoadCmpConstBranchGen(llvm::CmpInst::Predicate pred, bool use_i32,
                                  uint64_t constant) {
  return [pred, use_i32, constant](IrModule* mod) {
    llvm::IRBuilder<> b(mod->context());
    llvm::Function* fn = MakeF(mod, &b);
    auto& ctx = mod->context();
    auto* then_bb = llvm::BasicBlock::Create(ctx, "t", fn);
    auto* else_bb = llvm::BasicBlock::Create(ctx, "e", fn);
    llvm::Type* elem_ty = use_i32 ? b.getInt32Ty() : b.getInt64Ty();
    auto* idx = b.CreateAnd(fn->getArg(0), b.getInt64(63));
    auto* loaded =
        b.CreateLoad(elem_ty, b.CreateGEP(elem_ty, fn->getArg(2), idx));
    llvm::Value* k = use_i32
                         ? static_cast<llvm::Value*>(
                               b.getInt32(static_cast<uint32_t>(constant)))
                         : b.getInt64(constant);
    b.CreateCondBr(b.CreateICmp(pred, loaded, k), then_bb, else_bb);
    b.SetInsertPoint(then_bb);
    b.CreateRet(b.getInt64(111));
    b.SetInsertPoint(else_bb);
    b.CreateRet(b.getInt64(222));
  };
}

TEST(VmDispatchTest, LoadCmpConstBranchReadsConstantPoolRegister) {
  IrGenerator gen = LoadCmpConstBranchGen(llvm::CmpInst::ICMP_SLT, false, 42);
  IrModule mod("m");
  gen(&mod);
  BcProgram program =
      TranslateToBytecode(*mod.module().getFunction("f"), TestRegistry(), {});
  EXPECT_EQ(program.fused_load_cmp_branches, 1u);
  EXPECT_NE(program.Disassemble().find("br_load_slt_i64"), std::string::npos);
  EXPECT_TRUE(program.literal_pool.empty());
  EXPECT_TRUE(InConstantPool(program, 42));
  for (uint64_t x : {uint64_t{0}, uint64_t{7}, uint64_t{45}}) {
    ExpectDispatchEnginesAgree(gen, x, 0);
  }
}

TEST(VmDispatchTest, LoadCmpBranchReadsZeroAndOneFromReservedSlots) {
  // Constants 0/1 read the reserved register slots: no pool entry.
  for (uint64_t k : {uint64_t{0}, uint64_t{1}}) {
    IrGenerator gen = LoadCmpConstBranchGen(llvm::CmpInst::ICMP_SGT, true, k);
    IrModule mod("m");
    gen(&mod);
    BcProgram program =
        TranslateToBytecode(*mod.module().getFunction("f"), TestRegistry(), {});
    EXPECT_EQ(program.fused_load_cmp_branches, 1u);
    EXPECT_TRUE(program.literal_pool.empty());
    EXPECT_FALSE(InConstantPool(program, k));
    EXPECT_NE(program.Disassemble().find("br_load_sgt_i32"),
              std::string::npos);
    ExpectDispatchEnginesAgree(gen, 3, 0);
  }
}

TEST(VmDispatchTest, LoadCmpBranchNotFusedAcrossStore) {
  // A store between the load and the terminator blocks the tier (the fused
  // op would move the read past the write); the compare still fuses.
  IrGenerator gen = [](IrModule* mod) {
    llvm::IRBuilder<> b(mod->context());
    llvm::Function* fn = MakeF(mod, &b);
    auto& ctx = mod->context();
    auto* then_bb = llvm::BasicBlock::Create(ctx, "t", fn);
    auto* else_bb = llvm::BasicBlock::Create(ctx, "e", fn);
    auto* i64 = b.getInt64Ty();
    auto* idx = b.CreateAnd(fn->getArg(0), b.getInt64(63));
    auto* loaded = b.CreateLoad(i64, b.CreateGEP(i64, fn->getArg(2), idx));
    auto* idx2 = b.CreateAnd(fn->getArg(0), b.getInt64(63));
    b.CreateStore(fn->getArg(1), b.CreateGEP(i64, fn->getArg(2), idx2));
    b.CreateCondBr(b.CreateICmpSGT(loaded, fn->getArg(0)), then_bb, else_bb);
    b.SetInsertPoint(then_bb);
    b.CreateRet(b.getInt64(111));
    b.SetInsertPoint(else_bb);
    b.CreateRet(b.getInt64(222));
  };
  IrModule mod("m");
  gen(&mod);
  BcProgram program =
      TranslateToBytecode(*mod.module().getFunction("f"), TestRegistry(), {});
  EXPECT_EQ(program.fused_load_cmp_branches, 0u);
  EXPECT_EQ(program.fused_cmp_branches, 1u);
  ExpectDispatchEnginesAgree(gen, 5, 99);
  ExpectDispatchEnginesAgree(gen, static_cast<uint64_t>(-3), 12);
}

TEST(VmDispatchTest, LoadCmpBranchNotFusedForMultiUseLoad) {
  // The loaded value is also returned, so the load keeps its register.
  IrGenerator gen = [](IrModule* mod) {
    llvm::IRBuilder<> b(mod->context());
    llvm::Function* fn = MakeF(mod, &b);
    auto& ctx = mod->context();
    auto* then_bb = llvm::BasicBlock::Create(ctx, "t", fn);
    auto* else_bb = llvm::BasicBlock::Create(ctx, "e", fn);
    auto* i64 = b.getInt64Ty();
    auto* idx = b.CreateAnd(fn->getArg(0), b.getInt64(63));
    auto* loaded = b.CreateLoad(i64, b.CreateGEP(i64, fn->getArg(2), idx));
    b.CreateCondBr(b.CreateICmpSGT(loaded, fn->getArg(1)), then_bb, else_bb);
    b.SetInsertPoint(then_bb);
    b.CreateRet(loaded);
    b.SetInsertPoint(else_bb);
    b.CreateRet(b.getInt64(222));
  };
  IrModule mod("m");
  gen(&mod);
  BcProgram program =
      TranslateToBytecode(*mod.module().getFunction("f"), TestRegistry(), {});
  EXPECT_EQ(program.fused_load_cmp_branches, 0u);
  EXPECT_EQ(program.fused_cmp_branches, 1u);
  ExpectDispatchEnginesAgree(gen, 4, 0);
  ExpectDispatchEnginesAgree(gen, 4, 10000);
}

TEST(VmDispatchTest, LoadCmpBranchRequiresMatchingScale) {
  // GEP element type != loaded type (i8-scaled address of an i32 load): the
  // implied-scale encoding cannot express it, so only the compare fuses.
  IrGenerator gen = [](IrModule* mod) {
    llvm::IRBuilder<> b(mod->context());
    llvm::Function* fn = MakeF(mod, &b);
    auto& ctx = mod->context();
    auto* then_bb = llvm::BasicBlock::Create(ctx, "t", fn);
    auto* else_bb = llvm::BasicBlock::Create(ctx, "e", fn);
    auto* idx = b.CreateAnd(fn->getArg(0), b.getInt64(63));
    auto* loaded = b.CreateLoad(
        b.getInt32Ty(), b.CreateGEP(b.getInt8Ty(), fn->getArg(2), idx));
    auto* rhs = b.CreateTrunc(fn->getArg(1), b.getInt32Ty());
    b.CreateCondBr(b.CreateICmpEQ(loaded, rhs), then_bb, else_bb);
    b.SetInsertPoint(then_bb);
    b.CreateRet(b.getInt64(111));
    b.SetInsertPoint(else_bb);
    b.CreateRet(b.getInt64(222));
  };
  IrModule mod("m");
  gen(&mod);
  BcProgram program =
      TranslateToBytecode(*mod.module().getFunction("f"), TestRegistry(), {});
  EXPECT_EQ(program.fused_load_cmp_branches, 0u);
  EXPECT_EQ(program.fused_cmp_branches, 1u);
  ExpectDispatchEnginesAgree(gen, 8, 77);
}

// --- sign-extending loads ----------------------------------------------------

/// The storage widths a scan sign-extends from: 8-, 16- and 32-bit columns.
const unsigned kNarrowBits[] = {8, 16, 32};

/// `bits`-wide row values at the edges of the sign extension.
std::vector<int64_t> NarrowRows(unsigned bits) {
  const int64_t max = (int64_t{1} << (bits - 1)) - 1;
  return {-max - 1, -1, 0, max};
}

/// i64 compare operands around the range widened from `bits`: ±2^(bits-1)
/// and one past, the row values themselves, and the i64 extremes.
std::vector<int64_t> WideOperands(unsigned bits) {
  const int64_t half = int64_t{1} << (bits - 1);
  return {half,
          -half - 1,
          -half,
          half - 1,
          -1,
          0,
          1,
          std::numeric_limits<int64_t>::min(),
          std::numeric_limits<int64_t>::max()};
}

/// The " sext_iN_i64" mnemonic a widening of `bits` would dispatch alone.
std::string StandaloneSext(unsigned bits) {
  return " sext_i" + std::to_string(bits) + "_i64";
}

const llvm::CmpInst::Predicate kIntPredicates[] = {
    llvm::CmpInst::ICMP_EQ,  llvm::CmpInst::ICMP_NE,
    llvm::CmpInst::ICMP_SLT, llvm::CmpInst::ICMP_SLE,
    llvm::CmpInst::ICMP_SGT, llvm::CmpInst::ICMP_SGE,
    llvm::CmpInst::ICMP_ULT, llvm::CmpInst::ICMP_ULE,
    llvm::CmpInst::ICMP_UGT, llvm::CmpInst::ICMP_UGE,
};

/// The scan's widening shape: stores trunc(b) into `bits`-wide element
/// (a & 63), loads it back through a GEP+load pair and sign-extends it to
/// i64 — the exact `sext (load iN (gep base, i))` of a narrow column slot.
llvm::Value* StoreAndWiden(llvm::IRBuilder<>* b, llvm::Function* fn,
                           unsigned bits) {
  auto* narrow = b->getIntNTy(bits);
  auto* idx_s = b->CreateAnd(fn->getArg(0), b->getInt64(63));
  b->CreateStore(b->CreateTrunc(fn->getArg(1), narrow),
                 b->CreateGEP(narrow, fn->getArg(2), idx_s));
  auto* idx_l = b->CreateAnd(fn->getArg(0), b->getInt64(63));
  auto* loaded =
      b->CreateLoad(narrow, b->CreateGEP(narrow, fn->getArg(2), idx_l));
  return b->CreateSExt(loaded, b->getInt64Ty());
}

/// Branches on `sext(buf[a & 63]) <pred> rhs` after storing b there, with
/// buf a `bits`-wide array. With `constant` set, rhs is that i64 literal
/// (a constant-pool register); otherwise rhs is a itself.
/// `load_on_lhs`=false mirrors the compare.
IrGenerator SextLoadCmpBranchGen(unsigned bits, llvm::CmpInst::Predicate pred,
                                 std::optional<int64_t> constant,
                                 bool load_on_lhs) {
  return [bits, pred, constant, load_on_lhs](IrModule* mod) {
    llvm::IRBuilder<> b(mod->context());
    llvm::Function* fn = MakeF(mod, &b);
    auto& ctx = mod->context();
    auto* then_bb = llvm::BasicBlock::Create(ctx, "t", fn);
    auto* else_bb = llvm::BasicBlock::Create(ctx, "e", fn);
    llvm::Value* wide = StoreAndWiden(&b, fn, bits);
    llvm::Value* rhs =
        constant ? static_cast<llvm::Value*>(
                       b.getInt64(static_cast<uint64_t>(*constant)))
                 : fn->getArg(0);
    llvm::Value* cmp = load_on_lhs ? b.CreateICmp(pred, wide, rhs)
                                   : b.CreateICmp(pred, rhs, wide);
    b.CreateCondBr(cmp, then_bb, else_bb);
    b.SetInsertPoint(then_bb);
    b.CreateRet(b.getInt64(111));
    b.SetInsertPoint(else_bb);
    b.CreateRet(b.getInt64(222));
  };
}

/// The reference semantics of icmp `pred` on two i64 values.
bool EvalIcmp(llvm::CmpInst::Predicate pred, int64_t x, int64_t y) {
  const auto ux = static_cast<uint64_t>(x);
  const auto uy = static_cast<uint64_t>(y);
  switch (pred) {
    case llvm::CmpInst::ICMP_EQ: return x == y;
    case llvm::CmpInst::ICMP_NE: return x != y;
    case llvm::CmpInst::ICMP_SLT: return x < y;
    case llvm::CmpInst::ICMP_SLE: return x <= y;
    case llvm::CmpInst::ICMP_SGT: return x > y;
    case llvm::CmpInst::ICMP_SGE: return x >= y;
    case llvm::CmpInst::ICMP_ULT: return ux < uy;
    case llvm::CmpInst::ICMP_ULE: return ux <= uy;
    case llvm::CmpInst::ICMP_UGT: return ux > uy;
    case llvm::CmpInst::ICMP_UGE: return ux >= uy;
    default: ADD_FAILURE() << "unexpected predicate"; return false;
  }
}

/// Runs `gen` once with the default options under `dispatch`.
uint64_t RunDefault(const IrGenerator& gen, uint64_t a, uint64_t b,
                    VmDispatch dispatch) {
  IrModule mod("m");
  gen(&mod);
  BcProgram program =
      TranslateToBytecode(*mod.module().getFunction("f"), TestRegistry(), {});
  std::vector<int64_t> buf(64, 0);
  uint64_t args[3] = {a, b, reinterpret_cast<uint64_t>(buf.data())};
  return VmExecute(program, args, 3, dispatch);
}

TEST(VmDispatchTest, SextLoadCmpBranchAllPredicatesRegAndConst) {
  for (unsigned bits : kNarrowBits) {
    const std::vector<int64_t> wide_operands = WideOperands(bits);
    const std::string family = "br_load_sext_i" + std::to_string(bits) + "_";
    for (llvm::CmpInst::Predicate pred : kIntPredicates) {
      for (bool load_on_lhs : {true, false}) {
        // One program comparing against an argument register, and one per
        // constant, which the compare reads from a constant-pool register.
        std::vector<std::optional<int64_t>> constants = {std::nullopt};
        constants.insert(constants.end(), wide_operands.begin(),
                         wide_operands.end());
        for (const std::optional<int64_t>& k : constants) {
          IrGenerator gen = SextLoadCmpBranchGen(bits, pred, k, load_on_lhs);
          {
            IrModule mod("m");
            gen(&mod);
            BcProgram program = TranslateToBytecode(
                *mod.module().getFunction("f"), TestRegistry(), {});
            const std::string disasm = program.Disassemble();
            EXPECT_EQ(program.fused_load_cmp_branches, 1u) << disasm;
            EXPECT_NE(disasm.find(family), std::string::npos) << disasm;
            EXPECT_EQ(disasm.find(StandaloneSext(bits)), std::string::npos);
            EXPECT_TRUE(program.literal_pool.empty());
          }
          // a is the register operand (and, masked, the row index); the
          // constant form ignores it beyond the index.
          const std::vector<int64_t> regs =
              k ? std::vector<int64_t>{5} : wide_operands;
          for (int64_t a : regs) {
            for (int64_t row : NarrowRows(bits)) {
              const auto ua = static_cast<uint64_t>(a);
              const auto urow = static_cast<uint64_t>(row);
              ExpectDispatchEnginesAgree(gen, ua, urow);
              const int64_t rhs = k.value_or(a);
              const bool taken = load_on_lhs ? EvalIcmp(pred, row, rhs)
                                             : EvalIcmp(pred, rhs, row);
              for (VmDispatch d :
                   {VmDispatch::kSwitch, VmDispatch::kThreaded}) {
                EXPECT_EQ(RunDefault(gen, ua, urow, d), taken ? 111u : 222u)
                    << VmDispatchName(d);
              }
              if (::testing::Test::HasFailure()) {
                FAIL() << "bits=" << bits << " pred=" << pred
                       << " load_lhs=" << load_on_lhs
                       << " const=" << k.value_or(0) << " reg=" << a
                       << " row=" << row;
              }
            }
          }
        }
      }
    }
  }
}

/// Returns sext(buf[...]) + a after storing b, with buf a `bits`-wide
/// array: the sext's only user is an add, so the widening load fires.
/// `constant_index` addresses element 5 through a constant-index GEP
/// (offset-only address) instead.
IrGenerator WideningLoadGen(unsigned bits, bool constant_index) {
  return [bits, constant_index](IrModule* mod) {
    llvm::IRBuilder<> b(mod->context());
    llvm::Function* fn = MakeF(mod, &b);
    llvm::Value* wide;
    if (constant_index) {
      auto* narrow = b.getIntNTy(bits);
      b.CreateStore(b.CreateTrunc(fn->getArg(1), narrow),
                    b.CreateGEP(narrow, fn->getArg(2), b.getInt64(5)));
      auto* loaded = b.CreateLoad(
          narrow, b.CreateGEP(narrow, fn->getArg(2), b.getInt64(5)));
      wide = b.CreateSExt(loaded, b.getInt64Ty());
    } else {
      wide = StoreAndWiden(&b, fn, bits);
    }
    b.CreateRet(b.CreateAdd(wide, fn->getArg(0)));
  };
}

TEST(VmDispatchTest, WideningLoadFoldsSextAtBoundaries) {
  for (unsigned bits : kNarrowBits) {
    const std::string width = std::to_string(bits);
    for (bool constant_index : {false, true}) {
      IrGenerator gen = WideningLoadGen(bits, constant_index);
      IrModule mod("m");
      gen(&mod);
      BcProgram fused = TranslateToBytecode(*mod.module().getFunction("f"),
                                            TestRegistry(), {});
      const std::string disasm = fused.Disassemble();
      EXPECT_NE(disasm.find("load_idx_sext_i" + width + "_i64"),
                std::string::npos)
          << disasm;
      EXPECT_EQ(disasm.find(StandaloneSext(bits)), std::string::npos);
      EXPECT_EQ(disasm.find("load_idx_i" + width), std::string::npos);
      // Without macro-op fusion the pair stays a load and a sext.
      TranslatorOptions unfused_options;
      unfused_options.fuse_macro_ops = false;
      BcProgram unfused = TranslateToBytecode(*mod.module().getFunction("f"),
                                              TestRegistry(), unfused_options);
      EXPECT_NE(unfused.Disassemble().find(StandaloneSext(bits)),
                std::string::npos);
      for (int64_t row : NarrowRows(bits)) {
        for (int64_t a : {int64_t{0}, int64_t{7}, int64_t{-1}}) {
          const auto ua = static_cast<uint64_t>(a);
          const auto urow = static_cast<uint64_t>(row);
          ExpectDispatchEnginesAgree(gen, ua, urow);
          for (VmDispatch d : {VmDispatch::kSwitch, VmDispatch::kThreaded}) {
            EXPECT_EQ(RunDefault(gen, ua, urow, d),
                      static_cast<uint64_t>(row + a))
                << "bits=" << bits << " row=" << row << " a=" << a << " "
                << VmDispatchName(d);
          }
        }
      }
    }
  }
}

TEST(VmDispatchTest, MultiUseSextTakesTheWideningLoad) {
  // The widened value feeds the compare and the return, so the compare
  // cannot swallow it; the load still widens in one dispatch, and the
  // compare fuses on the register.
  for (unsigned bits : kNarrowBits) {
    IrGenerator gen = [bits](IrModule* mod) {
      llvm::IRBuilder<> b(mod->context());
      llvm::Function* fn = MakeF(mod, &b);
      auto& ctx = mod->context();
      auto* then_bb = llvm::BasicBlock::Create(ctx, "t", fn);
      auto* else_bb = llvm::BasicBlock::Create(ctx, "e", fn);
      llvm::Value* wide = StoreAndWiden(&b, fn, bits);
      b.CreateCondBr(b.CreateICmpSLT(wide, fn->getArg(0)), then_bb, else_bb);
      b.SetInsertPoint(then_bb);
      b.CreateRet(wide);
      b.SetInsertPoint(else_bb);
      b.CreateRet(b.getInt64(222));
    };
    IrModule mod("m");
    gen(&mod);
    BcProgram program =
        TranslateToBytecode(*mod.module().getFunction("f"), TestRegistry(), {});
    EXPECT_EQ(program.fused_load_cmp_branches, 0u);
    EXPECT_EQ(program.fused_cmp_branches, 1u);
    EXPECT_NE(program.Disassemble().find("load_idx_sext_i" +
                                         std::to_string(bits) + "_i64"),
              std::string::npos);
    for (int64_t row : NarrowRows(bits)) {
      ExpectDispatchEnginesAgree(gen, 3, static_cast<uint64_t>(row));
    }
  }
}

// --- overflow macro ops under both engines -----------------------------------

TEST(VmDispatchTest, OverflowOpsFusedAndUnfusedAtBoundaries) {
  for (llvm::Intrinsic::ID id :
       {llvm::Intrinsic::sadd_with_overflow, llvm::Intrinsic::ssub_with_overflow,
        llvm::Intrinsic::smul_with_overflow}) {
    IrGenerator gen = [id](IrModule* mod) {
      llvm::IRBuilder<> b(mod->context());
      llvm::Function* fn = MakeF(mod, &b);
      auto& ctx = mod->context();
      auto* ovf = llvm::BasicBlock::Create(ctx, "ovf", fn);
      auto* cont = llvm::BasicBlock::Create(ctx, "cont", fn);
      auto* pair =
          b.CreateBinaryIntrinsic(id, fn->getArg(0), fn->getArg(1));
      auto* val = b.CreateExtractValue(pair, 0);
      auto* flag = b.CreateExtractValue(pair, 1);
      b.CreateCondBr(flag, ovf, cont);
      b.SetInsertPoint(ovf);
      b.CreateRet(b.getInt64(static_cast<uint64_t>(-1)));
      b.SetInsertPoint(cont);
      b.CreateRet(val);
    };
    const uint64_t boundary[] = {
        0,
        1,
        static_cast<uint64_t>(-1),
        static_cast<uint64_t>(std::numeric_limits<int64_t>::min()),
        static_cast<uint64_t>(std::numeric_limits<int64_t>::max()),
        static_cast<uint64_t>(std::numeric_limits<int64_t>::max() - 1),
        0x100000000ull,
    };
    for (uint64_t x : boundary) {
      for (uint64_t y : boundary) {
        ExpectDispatchEnginesAgree(gen, x, y);
      }
    }
  }
}

// --- loops, memory traffic, calls --------------------------------------------

TEST(VmDispatchTest, FilterLoopWithStores) {
  // for i in [0,60): if (buf[i] > a) buf[i] = buf[i] * 3 - b; returns sum.
  IrGenerator gen = [](IrModule* mod) {
    llvm::IRBuilder<> b(mod->context());
    llvm::Function* fn = MakeF(mod, &b);
    auto& ctx = mod->context();
    auto* i64 = b.getInt64Ty();
    auto* head = llvm::BasicBlock::Create(ctx, "head", fn);
    auto* body = llvm::BasicBlock::Create(ctx, "body", fn);
    auto* hit = llvm::BasicBlock::Create(ctx, "hit", fn);
    auto* next = llvm::BasicBlock::Create(ctx, "next", fn);
    auto* exit = llvm::BasicBlock::Create(ctx, "exit", fn);
    auto* entry = &fn->getEntryBlock();
    b.CreateBr(head);
    b.SetInsertPoint(head);
    auto* i = b.CreatePHI(i64, 2);
    auto* sum = b.CreatePHI(i64, 2);
    b.CreateCondBr(b.CreateICmpULT(i, b.getInt64(60)), body, exit);
    b.SetInsertPoint(body);
    auto* gep = b.CreateGEP(i64, fn->getArg(2), i);
    auto* v = b.CreateLoad(i64, gep);
    b.CreateCondBr(b.CreateICmpSGT(v, fn->getArg(0)), hit, next);
    b.SetInsertPoint(hit);
    auto* updated = b.CreateSub(b.CreateMul(v, b.getInt64(3)), fn->getArg(1));
    auto* gep2 = b.CreateGEP(i64, fn->getArg(2), i);
    b.CreateStore(updated, gep2);
    b.CreateBr(next);
    b.SetInsertPoint(next);
    auto* v2 = b.CreateLoad(i64, b.CreateGEP(i64, fn->getArg(2), i));
    auto* sum2 = b.CreateAdd(sum, v2);
    auto* i2 = b.CreateAdd(i, b.getInt64(1));
    b.CreateBr(head);
    b.SetInsertPoint(exit);
    b.CreateRet(sum);
    i->addIncoming(b.getInt64(0), entry);
    i->addIncoming(i2, next);
    sum->addIncoming(b.getInt64(0), entry);
    sum->addIncoming(sum2, next);
  };
  ExpectDispatchEnginesAgree(gen, 0, 5);
  ExpectDispatchEnginesAgree(gen, static_cast<uint64_t>(-200), 17);
  ExpectDispatchEnginesAgree(gen, 200, 17);  // no row passes
}

// --- disassembly round trip --------------------------------------------------

struct ParsedInst {
  char name[32];
  unsigned a1, a2, a3;
  unsigned long long lit;
};

/// Parses one Disassemble() line back into its fields.
bool ParseDisassembly(const std::string& line, ParsedInst* out) {
  return std::sscanf(line.c_str(), "%*x %31s %u %u %u 0x%llx", out->name,
                     &out->a1, &out->a2, &out->a3, &out->lit) == 5;
}

TEST(VmDispatchTest, DisassembleRoundTripsEveryOpcode) {
  // One instruction per opcode with distinctive field values; the printed
  // form must recover op, a1..a3, and lit exactly.
  BcProgram program;
  const auto num_opcodes = static_cast<uint16_t>(Opcode::kNumOpcodes);
  for (uint16_t op = 0; op < num_opcodes; ++op) {
    BcInstruction inst;
    inst.op = op;
    inst.a1 = static_cast<uint16_t>(op * 3 + 1);
    inst.a2 = static_cast<uint16_t>(op * 5 + 2);
    inst.a3 = static_cast<uint16_t>(op * 7 + 3);
    inst.lit = 0x1234000000ull + op;
    program.code.push_back(inst);
  }
  std::string disasm = program.Disassemble();
  std::vector<std::string> lines;
  size_t pos = 0;
  while (pos < disasm.size()) {
    size_t nl = disasm.find('\n', pos);
    if (nl == std::string::npos) nl = disasm.size();
    std::string line = disasm.substr(pos, nl - pos);
    if (!line.empty() && line[0] != ';') lines.push_back(line);
    pos = nl + 1;
  }
  ASSERT_EQ(lines.size(), static_cast<size_t>(num_opcodes));
  // The sign-extending forms are part of the set: for each of the 8-, 16-
  // and 32-bit widths, the widening load and ten br_load_sext_iN_* (one per
  // predicate, register operand).
  for (unsigned bits : kNarrowBits) {
    const std::string width = std::to_string(bits);
    int sext_branches = 0;
    bool widening_load = false;
    for (uint16_t op = 0; op < num_opcodes; ++op) {
      const std::string name = OpcodeName(static_cast<Opcode>(op));
      sext_branches += name.rfind("br_load_sext_i" + width + "_", 0) == 0;
      widening_load |= name == "load_idx_sext_i" + width + "_i64";
    }
    EXPECT_EQ(sext_branches, 10) << bits;
    EXPECT_TRUE(widening_load) << bits;
  }
  // Constants reach every compare through a register: no opcode reads an
  // immediate operand from the literal pool.
  for (uint16_t op = 0; op < num_opcodes; ++op) {
    const std::string name = OpcodeName(static_cast<Opcode>(op));
    const bool imm = name.size() > 4 &&
                     name.compare(name.size() - 4, 4, "_imm") == 0;
    EXPECT_FALSE(imm) << name;
  }
  for (uint16_t op = 0; op < num_opcodes; ++op) {
    ParsedInst parsed;
    ASSERT_TRUE(ParseDisassembly(lines[op], &parsed)) << lines[op];
    const BcInstruction& inst = program.code[op];
    EXPECT_STREQ(parsed.name, OpcodeName(static_cast<Opcode>(op)));
    EXPECT_EQ(parsed.a1, inst.a1) << lines[op];
    EXPECT_EQ(parsed.a2, inst.a2) << lines[op];
    EXPECT_EQ(parsed.a3, inst.a3) << lines[op];
    EXPECT_EQ(parsed.lit, inst.lit) << lines[op];
  }
}

// A program needing more register slots than the 16-bit operand fields
// address cannot be encoded: translation reports it through its status (the
// engine fails that query) instead of aborting. Each distinct constant holds
// its own slot, so 70,000 of them overflow the 65,536 slots.
TEST(VmDispatchTest, OversizedProgramReportsStatus) {
  IrModule mod("test");
  llvm::IRBuilder<> b(mod.context());
  llvm::Function* fn = MakeF(&mod, &b);
  llvm::Value* acc = fn->getArg(0);
  for (uint64_t i = 0; i < 70000; ++i) {
    acc = b.CreateXor(acc, b.getInt64(1000 + i));
  }
  b.CreateRet(acc);
  Status status;
  BcProgram program =
      TranslateToBytecode(*fn, TestRegistry(), {}, &status);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("register slots"), std::string::npos)
      << status.message();
  EXPECT_TRUE(program.code.empty());
}

TEST(VmDispatchTest, CompactEncodingIs16Bytes) {
  static_assert(sizeof(BcInstruction) == 16, "compact encoding");
  EXPECT_EQ(sizeof(BcInstruction), 16u);
}

}  // namespace
}  // namespace aqe
