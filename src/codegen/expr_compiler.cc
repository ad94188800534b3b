#include "codegen/expr_compiler.h"

#include <llvm/IR/Intrinsics.h>
#include <llvm/IR/Module.h>

#include "common/status.h"

namespace aqe {

llvm::Value* ExprCompiler::CheckedOp(llvm::Intrinsic::ID intrinsic,
                                     llvm::Value* lhs, llvm::Value* rhs) {
  llvm::Function* fn = builder_->GetInsertBlock()->getParent();
  llvm::Value* pair = builder_->CreateBinaryIntrinsic(intrinsic, lhs, rhs);
  llvm::Value* value = builder_->CreateExtractValue(pair, 0);
  llvm::Value* flag = builder_->CreateExtractValue(pair, 1);
  llvm::BasicBlock* cont =
      llvm::BasicBlock::Create(builder_->getContext(), "ovf.cont", fn);
  builder_->CreateCondBr(flag, overflow_block_, cont);
  builder_->SetInsertPoint(cont);
  return value;
}

llvm::Value* ExprCompiler::BoundLiteral(const Expr& expr) const {
  auto it = literal_values_->find(&expr);
  AQE_CHECK_MSG(it != literal_values_->end(),
                "literal missing from the worker's binding array");
  return it->second;
}

llvm::Value* ExprCompiler::Compile(const Expr& expr,
                                   const std::vector<llvm::Value*>& slots) {
  auto child = [&](size_t i) { return Compile(*expr.children[i], slots); };
  llvm::IRBuilder<>& b = *builder_;
  switch (expr.kind) {
    case ExprKind::kSlot: {
      AQE_CHECK(expr.slot >= 0 &&
                static_cast<size_t>(expr.slot) < slots.size());
      return slots[static_cast<size_t>(expr.slot)];
    }
    case ExprKind::kConstI64:
      if (literal_values_ != nullptr) return BoundLiteral(expr);
      return b.getInt64(static_cast<uint64_t>(expr.i64_value));
    case ExprKind::kConstF64:
      if (literal_values_ != nullptr) return BoundLiteral(expr);
      return llvm::ConstantFP::get(b.getDoubleTy(), expr.f64_value);
    case ExprKind::kAdd: return b.CreateAdd(child(0), child(1));
    case ExprKind::kSub: return b.CreateSub(child(0), child(1));
    case ExprKind::kMul: return b.CreateMul(child(0), child(1));
    case ExprKind::kDiv: return b.CreateSDiv(child(0), child(1));
    case ExprKind::kCheckedAdd: {
      llvm::Value* l = child(0);
      llvm::Value* r = child(1);
      return CheckedOp(llvm::Intrinsic::sadd_with_overflow, l, r);
    }
    case ExprKind::kCheckedSub: {
      llvm::Value* l = child(0);
      llvm::Value* r = child(1);
      return CheckedOp(llvm::Intrinsic::ssub_with_overflow, l, r);
    }
    case ExprKind::kCheckedMul: {
      llvm::Value* l = child(0);
      llvm::Value* r = child(1);
      return CheckedOp(llvm::Intrinsic::smul_with_overflow, l, r);
    }
    case ExprKind::kFAdd: return b.CreateFAdd(child(0), child(1));
    case ExprKind::kFSub: return b.CreateFSub(child(0), child(1));
    case ExprKind::kFMul: return b.CreateFMul(child(0), child(1));
    case ExprKind::kFDiv: return b.CreateFDiv(child(0), child(1));
    case ExprKind::kEq: return b.CreateICmpEQ(child(0), child(1));
    case ExprKind::kNe: return b.CreateICmpNE(child(0), child(1));
    case ExprKind::kLt: return b.CreateICmpSLT(child(0), child(1));
    case ExprKind::kLe: return b.CreateICmpSLE(child(0), child(1));
    case ExprKind::kGt: return b.CreateICmpSGT(child(0), child(1));
    case ExprKind::kGe: return b.CreateICmpSGE(child(0), child(1));
    case ExprKind::kAnd: return b.CreateAnd(child(0), child(1));
    case ExprKind::kOr: return b.CreateOr(child(0), child(1));
    case ExprKind::kNot: return b.CreateNot(child(0));
    case ExprKind::kBitmapTest: {
      llvm::Value* code = child(0);
      auto it = bitmap_values_.find(expr.bitmap);
      AQE_CHECK_MSG(it != bitmap_values_.end(),
                    "bitmap missing from the worker's binding array");
      llvm::Value* base = b.CreateIntToPtr(
          it->second, llvm::Type::getInt8PtrTy(b.getContext()));
      llvm::Value* addr = b.CreateGEP(b.getInt8Ty(), base, code);
      llvm::Value* byte = b.CreateLoad(b.getInt8Ty(), addr);
      // Compare at i32 width: the VM's statically typed icmp opcodes cover
      // the widths the query compiler emits (i32/i64), not i8.
      return b.CreateICmpNE(b.CreateZExt(byte, b.getInt32Ty()),
                            b.getInt32(0));
    }
    case ExprKind::kLike: {
      // Per-row runtime call: the deliberate anti-fusion case. The callee
      // is a registered runtime function (uniform i64 ABI), so the VM
      // translator and JIT both resolve it; the predicate address comes
      // from the binding array to keep artifacts position-independent.
      llvm::Value* code = child(0);
      auto it = like_values_.find(expr.like_pred);
      AQE_CHECK_MSG(it != like_values_.end(),
                    "LIKE predicate missing from the worker's binding array");
      llvm::Module* mod = b.GetInsertBlock()->getParent()->getParent();
      auto* i64 = b.getInt64Ty();
      llvm::FunctionCallee callee = mod->getOrInsertFunction(
          "aqe_like_match", llvm::FunctionType::get(i64, {i64, i64}, false));
      llvm::Value* match = b.CreateCall(callee, {it->second, code});
      return b.CreateICmpNE(match, b.getInt64(0));
    }
    case ExprKind::kCastF64:
      return b.CreateSIToFP(child(0), b.getDoubleTy());
    case ExprKind::kBoolToI64:
      return b.CreateZExt(child(0), b.getInt64Ty());
  }
  AQE_UNREACHABLE("bad ExprKind");
}

}  // namespace aqe
