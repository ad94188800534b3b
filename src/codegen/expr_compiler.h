#ifndef AQE_CODEGEN_EXPR_COMPILER_H_
#define AQE_CODEGEN_EXPR_COMPILER_H_

#include <map>
#include <vector>

#include <llvm/IR/IRBuilder.h>

#include "plan/expr.h"

namespace aqe {

/// Compiles Expr trees to LLVM IR. Bound to one worker function: `builder`
/// tracks the current insertion point (checked arithmetic splits the block
/// and branches to `overflow_block`, which must call the runtime's overflow
/// handler and end in unreachable — the exact §IV-F pattern the bytecode
/// translator fuses back into one macro op).
///
/// `bitmap_values` maps a kBitmapTest bitmap pointer to the i64 value
/// holding its runtime base address (loaded from the worker's binding
/// array), and `like_values` does the same for kLike predicate objects, so
/// no address is ever embedded and a cached artifact runs against any
/// context. `literal_values`, when given, maps each plan literal to the
/// value loaded for it (LiteralForm::kBound); null embeds literals as
/// immediates (kImmediate).
class ExprCompiler {
 public:
  ExprCompiler(llvm::IRBuilder<>* builder, llvm::BasicBlock* overflow_block,
               const std::map<const uint8_t*, llvm::Value*>& bitmap_values,
               const std::map<const LikePredicate*, llvm::Value*>& like_values,
               const std::map<const Expr*, llvm::Value*>* literal_values)
      : builder_(builder),
        overflow_block_(overflow_block),
        bitmap_values_(bitmap_values),
        like_values_(like_values),
        literal_values_(literal_values) {}

  /// Compiles `expr` against the current slot values. Bool results are i1,
  /// I64 results i64, F64 results double.
  llvm::Value* Compile(const Expr& expr,
                       const std::vector<llvm::Value*>& slots);

  /// Compiles an overflow-checked i64 op (add/sub/mul by intrinsic id).
  llvm::Value* CheckedOp(llvm::Intrinsic::ID intrinsic, llvm::Value* lhs,
                         llvm::Value* rhs);

 private:
  /// The bound value of a plan literal (kBound form only).
  llvm::Value* BoundLiteral(const Expr& expr) const;

  llvm::IRBuilder<>* builder_;
  llvm::BasicBlock* overflow_block_;
  const std::map<const uint8_t*, llvm::Value*>& bitmap_values_;
  const std::map<const LikePredicate*, llvm::Value*>& like_values_;
  const std::map<const Expr*, llvm::Value*>* literal_values_;
};

}  // namespace aqe

#endif  // AQE_CODEGEN_EXPR_COMPILER_H_
