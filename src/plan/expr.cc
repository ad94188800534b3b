#include "plan/expr.h"

#include <cstring>

#include "common/status.h"
#include "strings/string_predicate.h"

namespace aqe {

namespace {
ExprPtr MakeBinary(ExprKind kind, ExprType type, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::make_unique<Expr>();
  e->kind = kind;
  e->type = type;
  e->children.push_back(std::move(lhs));
  e->children.push_back(std::move(rhs));
  return e;
}
}  // namespace

ExprPtr Slot(int slot, ExprType type) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kSlot;
  e->type = type;
  e->slot = slot;
  return e;
}

ExprPtr I64(int64_t value) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kConstI64;
  e->type = ExprType::kI64;
  e->i64_value = value;
  return e;
}

ExprPtr F64(double value) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kConstF64;
  e->type = ExprType::kF64;
  e->f64_value = value;
  return e;
}

ExprPtr Binary(ExprKind kind, ExprPtr lhs, ExprPtr rhs) {
  ExprType type;
  switch (kind) {
    case ExprKind::kEq: case ExprKind::kNe: case ExprKind::kLt:
    case ExprKind::kLe: case ExprKind::kGt: case ExprKind::kGe:
    case ExprKind::kAnd: case ExprKind::kOr:
      type = ExprType::kBool;
      break;
    case ExprKind::kFAdd: case ExprKind::kFSub: case ExprKind::kFMul:
    case ExprKind::kFDiv:
      type = ExprType::kF64;
      break;
    default:
      type = ExprType::kI64;
      break;
  }
  return MakeBinary(kind, type, std::move(lhs), std::move(rhs));
}

ExprPtr Add(ExprPtr l, ExprPtr r) { return Binary(ExprKind::kAdd, std::move(l), std::move(r)); }
ExprPtr Sub(ExprPtr l, ExprPtr r) { return Binary(ExprKind::kSub, std::move(l), std::move(r)); }
ExprPtr Mul(ExprPtr l, ExprPtr r) { return Binary(ExprKind::kMul, std::move(l), std::move(r)); }
ExprPtr Div(ExprPtr l, ExprPtr r) { return Binary(ExprKind::kDiv, std::move(l), std::move(r)); }
ExprPtr CheckedAdd(ExprPtr l, ExprPtr r) { return Binary(ExprKind::kCheckedAdd, std::move(l), std::move(r)); }
ExprPtr CheckedSub(ExprPtr l, ExprPtr r) { return Binary(ExprKind::kCheckedSub, std::move(l), std::move(r)); }
ExprPtr CheckedMul(ExprPtr l, ExprPtr r) { return Binary(ExprKind::kCheckedMul, std::move(l), std::move(r)); }
ExprPtr FMul(ExprPtr l, ExprPtr r) { return Binary(ExprKind::kFMul, std::move(l), std::move(r)); }
ExprPtr FDiv(ExprPtr l, ExprPtr r) { return Binary(ExprKind::kFDiv, std::move(l), std::move(r)); }
ExprPtr Eq(ExprPtr l, ExprPtr r) { return Binary(ExprKind::kEq, std::move(l), std::move(r)); }
ExprPtr Ne(ExprPtr l, ExprPtr r) { return Binary(ExprKind::kNe, std::move(l), std::move(r)); }
ExprPtr Lt(ExprPtr l, ExprPtr r) { return Binary(ExprKind::kLt, std::move(l), std::move(r)); }
ExprPtr Le(ExprPtr l, ExprPtr r) { return Binary(ExprKind::kLe, std::move(l), std::move(r)); }
ExprPtr Gt(ExprPtr l, ExprPtr r) { return Binary(ExprKind::kGt, std::move(l), std::move(r)); }
ExprPtr Ge(ExprPtr l, ExprPtr r) { return Binary(ExprKind::kGe, std::move(l), std::move(r)); }
ExprPtr And(ExprPtr l, ExprPtr r) { return Binary(ExprKind::kAnd, std::move(l), std::move(r)); }
ExprPtr Or(ExprPtr l, ExprPtr r) { return Binary(ExprKind::kOr, std::move(l), std::move(r)); }

ExprPtr Not(ExprPtr child) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kNot;
  e->type = ExprType::kBool;
  e->children.push_back(std::move(child));
  return e;
}

ExprPtr BitmapTest(const uint8_t* bitmap, ExprPtr code) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kBitmapTest;
  e->type = ExprType::kBool;
  e->bitmap = bitmap;
  e->children.push_back(std::move(code));
  return e;
}

ExprPtr LikeMatch(const LikePredicate* pred, ExprPtr code) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kLike;
  e->type = ExprType::kBool;
  e->like_pred = pred;
  e->children.push_back(std::move(code));
  return e;
}

ExprPtr CastF64(ExprPtr child) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kCastF64;
  e->type = ExprType::kF64;
  e->children.push_back(std::move(child));
  return e;
}

ExprPtr BoolToI64(ExprPtr child) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kBoolToI64;
  e->type = ExprType::kI64;
  e->children.push_back(std::move(child));
  return e;
}

ExprPtr CloneExpr(const Expr& expr) {
  auto e = std::make_unique<Expr>();
  e->kind = expr.kind;
  e->type = expr.type;
  e->slot = expr.slot;
  e->i64_value = expr.i64_value;
  e->f64_value = expr.f64_value;
  e->bitmap = expr.bitmap;
  e->like_pred = expr.like_pred;
  for (const auto& child : expr.children) {
    e->children.push_back(CloneExpr(*child));
  }
  return e;
}

namespace {
double AsF64(int64_t bits) {
  double d;
  std::memcpy(&d, &bits, 8);
  return d;
}
int64_t FromF64(double d) {
  int64_t bits;
  std::memcpy(&bits, &d, 8);
  return bits;
}
}  // namespace

int64_t EvalExpr(const Expr& expr, const int64_t* slots) {
  // Leaves are read in place: engine steps evaluate per group (Q18: 450 k).
  auto child = [&](size_t i) {
    const Expr& c = *expr.children[i];
    if (c.kind == ExprKind::kSlot) return slots[c.slot];
    if (c.kind == ExprKind::kConstI64) return c.i64_value;
    return EvalExpr(c, slots);
  };
  switch (expr.kind) {
    case ExprKind::kSlot: return slots[expr.slot];
    case ExprKind::kConstI64: return expr.i64_value;
    case ExprKind::kConstF64: return FromF64(expr.f64_value);
    case ExprKind::kAdd: return child(0) + child(1);
    case ExprKind::kSub: return child(0) - child(1);
    case ExprKind::kMul: return child(0) * child(1);
    case ExprKind::kDiv: return child(0) / child(1);
    case ExprKind::kCheckedAdd: {
      int64_t r;
      AQE_CHECK_MSG(!__builtin_add_overflow(child(0), child(1), &r),
                    "overflow in EvalExpr");
      return r;
    }
    case ExprKind::kCheckedSub: {
      int64_t r;
      AQE_CHECK_MSG(!__builtin_sub_overflow(child(0), child(1), &r),
                    "overflow in EvalExpr");
      return r;
    }
    case ExprKind::kCheckedMul: {
      int64_t r;
      AQE_CHECK_MSG(!__builtin_mul_overflow(child(0), child(1), &r),
                    "overflow in EvalExpr");
      return r;
    }
    case ExprKind::kFAdd: return FromF64(AsF64(child(0)) + AsF64(child(1)));
    case ExprKind::kFSub: return FromF64(AsF64(child(0)) - AsF64(child(1)));
    case ExprKind::kFMul: return FromF64(AsF64(child(0)) * AsF64(child(1)));
    case ExprKind::kFDiv: return FromF64(AsF64(child(0)) / AsF64(child(1)));
    case ExprKind::kEq: return child(0) == child(1);
    case ExprKind::kNe: return child(0) != child(1);
    case ExprKind::kLt: return child(0) < child(1);
    case ExprKind::kLe: return child(0) <= child(1);
    case ExprKind::kGt: return child(0) > child(1);
    case ExprKind::kGe: return child(0) >= child(1);
    case ExprKind::kAnd: return (child(0) != 0) & (child(1) != 0);
    case ExprKind::kOr: return (child(0) != 0) | (child(1) != 0);
    case ExprKind::kNot: return child(0) == 0;
    case ExprKind::kBitmapTest:
      return expr.bitmap[static_cast<uint64_t>(child(0))] != 0;
    case ExprKind::kLike:
      return expr.like_pred->Matches(child(0));
    case ExprKind::kCastF64:
      return FromF64(static_cast<double>(child(0)));
    case ExprKind::kBoolToI64:
      return child(0) != 0;
  }
  AQE_UNREACHABLE("bad ExprKind");
}

int ExprSize(const Expr& expr) {
  int n = 1;
  for (const auto& child : expr.children) n += ExprSize(*child);
  return n;
}

}  // namespace aqe
