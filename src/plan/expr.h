#ifndef AQE_PLAN_EXPR_H_
#define AQE_PLAN_EXPR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace aqe {

struct LikePredicate;

/// Value types inside query expressions. Integer columns (dates, dict codes,
/// keys and decimals, stored as i32 or i64) are widened to I64 at scan
/// time; comparisons produce Bool; floating point is F64.
enum class ExprType : uint8_t { kI64, kF64, kBool };

/// Expression node kinds.
enum class ExprKind : uint8_t {
  kSlot,        ///< reference to a pipeline slot (see PipelineSpec)
  kConstI64,    ///< 64-bit integer / decimal / date / dict-code constant
  kConstF64,    ///< double constant
  kAdd, kSub, kMul, kDiv,                ///< plain i64 arithmetic
  kCheckedAdd, kCheckedSub, kCheckedMul, ///< overflow-checked i64 (§IV-F)
  kFAdd, kFSub, kFMul, kFDiv,            ///< f64 arithmetic
  kEq, kNe, kLt, kLe, kGt, kGe,          ///< i64 comparisons -> Bool
  kAnd, kOr, kNot,                       ///< Bool logic
  kBitmapTest,  ///< bitmap[child-as-index] != 0 (dictionary predicates)
  kLike,        ///< like_pred->Matches(child-as-dict-code) — the per-row
                ///< runtime-call path of LIKE (src/strings/); the bitmap
                ///< path lowers to kBitmapTest / code-range compares instead
  kCastF64,     ///< i64 -> f64
  kBoolToI64,   ///< Bool -> 0/1 as i64 (year arithmetic, conditional sums)
};

/// A query expression tree over pipeline slots. Plain data; compiled to
/// LLVM IR by codegen/expr_compiler and interpreted by the Volcano and
/// vectorized baselines.
struct Expr {
  ExprKind kind;
  ExprType type;
  int slot = -1;                    // kSlot
  int64_t i64_value = 0;            // kConstI64
  double f64_value = 0;             // kConstF64
  const uint8_t* bitmap = nullptr;  // kBitmapTest (not owned)
  const LikePredicate* like_pred = nullptr;  // kLike (not owned)
  std::vector<std::unique_ptr<Expr>> children;
};

using ExprPtr = std::unique_ptr<Expr>;

// --- factory helpers ---------------------------------------------------------

ExprPtr Slot(int slot, ExprType type = ExprType::kI64);
ExprPtr I64(int64_t value);
ExprPtr F64(double value);
ExprPtr Binary(ExprKind kind, ExprPtr lhs, ExprPtr rhs);
ExprPtr Add(ExprPtr lhs, ExprPtr rhs);
ExprPtr Sub(ExprPtr lhs, ExprPtr rhs);
ExprPtr Mul(ExprPtr lhs, ExprPtr rhs);
ExprPtr Div(ExprPtr lhs, ExprPtr rhs);
ExprPtr CheckedAdd(ExprPtr lhs, ExprPtr rhs);
ExprPtr CheckedSub(ExprPtr lhs, ExprPtr rhs);
ExprPtr CheckedMul(ExprPtr lhs, ExprPtr rhs);
ExprPtr FMul(ExprPtr lhs, ExprPtr rhs);
ExprPtr FDiv(ExprPtr lhs, ExprPtr rhs);
ExprPtr Eq(ExprPtr lhs, ExprPtr rhs);
ExprPtr Ne(ExprPtr lhs, ExprPtr rhs);
ExprPtr Lt(ExprPtr lhs, ExprPtr rhs);
ExprPtr Le(ExprPtr lhs, ExprPtr rhs);
ExprPtr Gt(ExprPtr lhs, ExprPtr rhs);
ExprPtr Ge(ExprPtr lhs, ExprPtr rhs);
ExprPtr And(ExprPtr lhs, ExprPtr rhs);
ExprPtr Or(ExprPtr lhs, ExprPtr rhs);
ExprPtr Not(ExprPtr child);
ExprPtr BitmapTest(const uint8_t* bitmap, ExprPtr code);
ExprPtr LikeMatch(const LikePredicate* pred, ExprPtr code);
ExprPtr CastF64(ExprPtr child);
ExprPtr BoolToI64(ExprPtr child);

/// Collects move-only expressions into a vector (a brace list would copy).
template <typename... Exprs>
std::vector<ExprPtr> ExprList(Exprs... exprs) {
  std::vector<ExprPtr> list;
  list.reserve(sizeof...(exprs));
  (list.push_back(std::move(exprs)), ...);
  return list;
}

/// Deep copy (query builders occasionally reuse sub-expressions).
ExprPtr CloneExpr(const Expr& expr);

/// Evaluates the expression on a materialized row of i64 slots (doubles
/// bit-cast). Shared reference semantics for baselines and tests.
int64_t EvalExpr(const Expr& expr, const int64_t* slots);

/// Number of expression nodes (for tests / diagnostics).
int ExprSize(const Expr& expr);

}  // namespace aqe

#endif  // AQE_PLAN_EXPR_H_
