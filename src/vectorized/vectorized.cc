#include "vectorized/vectorized.h"

#include <algorithm>
#include <cstring>
#include <type_traits>
#include <vector>

#include "common/status.h"
#include "simd/simd.h"

namespace aqe {
namespace {

using Vec = std::vector<int64_t>;
using Sel = std::vector<int>;

constexpr uint64_t kVectorSize = 1024;

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

/// Evaluates `expr` for the lanes in `sel`, writing lane-indexed results to
/// `out`. Each node runs as one tight loop over the selection — the
/// vectorized-primitive execution model.
void EvalVec(const Expr& expr, const std::vector<Vec>& slot_vecs,
             const Sel& sel, uint64_t block_n, Vec* out) {
  out->resize(block_n);
  switch (expr.kind) {
    case ExprKind::kSlot: {
      const Vec& src = slot_vecs[static_cast<size_t>(expr.slot)];
      for (int lane : sel) (*out)[static_cast<size_t>(lane)] = src[static_cast<size_t>(lane)];
      return;
    }
    case ExprKind::kConstI64:
      for (int lane : sel) (*out)[static_cast<size_t>(lane)] = expr.i64_value;
      return;
    case ExprKind::kConstF64:
      for (int lane : sel) (*out)[static_cast<size_t>(lane)] = FromF64(expr.f64_value);
      return;
    case ExprKind::kNot: {
      Vec a;
      EvalVec(*expr.children[0], slot_vecs, sel, block_n, &a);
      for (int lane : sel) {
        (*out)[static_cast<size_t>(lane)] = a[static_cast<size_t>(lane)] == 0;
      }
      return;
    }
    case ExprKind::kBitmapTest: {
      Vec code;
      EvalVec(*expr.children[0], slot_vecs, sel, block_n, &code);
      if (sel.size() == block_n) {
        // Dense selection (sel is always an ascending subset of [0, n), so
        // full size means identity): hand the whole vector to the SIMD
        // gather kernel instead of probing lane by lane.
        BitmapTestI64(code.data(), static_cast<int>(block_n), expr.bitmap,
                      out->data());
        return;
      }
      for (int lane : sel) {
        (*out)[static_cast<size_t>(lane)] =
            expr.bitmap[static_cast<uint64_t>(code[static_cast<size_t>(lane)])] != 0;
      }
      return;
    }
    case ExprKind::kLike: {
      // One matcher invocation per selected lane — the vectorized engine
      // pays the call per row just like the compiled runtime-call path.
      Vec code;
      EvalVec(*expr.children[0], slot_vecs, sel, block_n, &code);
      for (int lane : sel) {
        (*out)[static_cast<size_t>(lane)] =
            expr.like_pred->Matches(code[static_cast<size_t>(lane)]) ? 1 : 0;
      }
      return;
    }
    case ExprKind::kBoolToI64: {
      Vec a;
      EvalVec(*expr.children[0], slot_vecs, sel, block_n, &a);
      for (int lane : sel) {
        (*out)[static_cast<size_t>(lane)] = a[static_cast<size_t>(lane)] != 0;
      }
      return;
    }
    case ExprKind::kCastF64: {
      Vec a;
      EvalVec(*expr.children[0], slot_vecs, sel, block_n, &a);
      for (int lane : sel) {
        (*out)[static_cast<size_t>(lane)] =
            FromF64(static_cast<double>(a[static_cast<size_t>(lane)]));
      }
      return;
    }
    default:
      break;
  }
  // Binary kinds.
  Vec a, b;
  EvalVec(*expr.children[0], slot_vecs, sel, block_n, &a);
  EvalVec(*expr.children[1], slot_vecs, sel, block_n, &b);
  switch (expr.kind) {
#define AQE_VEC_LOOP(op_expr)                                       \
  for (int lane : sel) {                                            \
    size_t i = static_cast<size_t>(lane);                           \
    (*out)[i] = (op_expr);                                          \
  }                                                                 \
  return
    case ExprKind::kAdd: AQE_VEC_LOOP(a[i] + b[i]);
    case ExprKind::kSub: AQE_VEC_LOOP(a[i] - b[i]);
    case ExprKind::kMul: AQE_VEC_LOOP(a[i] * b[i]);
    case ExprKind::kDiv: AQE_VEC_LOOP(a[i] / b[i]);
    case ExprKind::kCheckedAdd: {
      for (int lane : sel) {
        size_t i = static_cast<size_t>(lane);
        int64_t r;
        AQE_CHECK_MSG(!__builtin_add_overflow(a[i], b[i], &r),
                      "overflow in vectorized execution");
        (*out)[i] = r;
      }
      return;
    }
    case ExprKind::kCheckedSub: {
      for (int lane : sel) {
        size_t i = static_cast<size_t>(lane);
        int64_t r;
        AQE_CHECK_MSG(!__builtin_sub_overflow(a[i], b[i], &r),
                      "overflow in vectorized execution");
        (*out)[i] = r;
      }
      return;
    }
    case ExprKind::kCheckedMul: {
      for (int lane : sel) {
        size_t i = static_cast<size_t>(lane);
        int64_t r;
        AQE_CHECK_MSG(!__builtin_mul_overflow(a[i], b[i], &r),
                      "overflow in vectorized execution");
        (*out)[i] = r;
      }
      return;
    }
    case ExprKind::kFAdd: AQE_VEC_LOOP(FromF64(AsF64(a[i]) + AsF64(b[i])));
    case ExprKind::kFSub: AQE_VEC_LOOP(FromF64(AsF64(a[i]) - AsF64(b[i])));
    case ExprKind::kFMul: AQE_VEC_LOOP(FromF64(AsF64(a[i]) * AsF64(b[i])));
    case ExprKind::kFDiv: AQE_VEC_LOOP(FromF64(AsF64(a[i]) / AsF64(b[i])));
    case ExprKind::kEq: AQE_VEC_LOOP(a[i] == b[i]);
    case ExprKind::kNe: AQE_VEC_LOOP(a[i] != b[i]);
    case ExprKind::kLt: AQE_VEC_LOOP(a[i] < b[i]);
    case ExprKind::kLe: AQE_VEC_LOOP(a[i] <= b[i]);
    case ExprKind::kGt: AQE_VEC_LOOP(a[i] > b[i]);
    case ExprKind::kGe: AQE_VEC_LOOP(a[i] >= b[i]);
    case ExprKind::kAnd: AQE_VEC_LOOP((a[i] != 0) & (b[i] != 0));
    case ExprKind::kOr: AQE_VEC_LOOP((a[i] != 0) | (b[i] != 0));
#undef AQE_VEC_LOOP
    default:
      AQE_UNREACHABLE("bad ExprKind in vectorized evaluation");
  }
}

/// Materializes only the selected lanes of a scan column (other lanes keep
/// the vector's zero-fill — no downstream loop reads them), widening to
/// i64. Used after selection pushdown so non-probed columns pay per
/// survivor, not per row.
void LoadColumnVecSel(const Column& column, uint64_t base, uint64_t n,
                      const Sel& sel, Vec* out) {
  out->resize(n);
  if (column.type() == DataType::kF64) {
    const auto* data = static_cast<const double*>(column.data()) + base;
    for (int lane : sel) {
      (*out)[static_cast<size_t>(lane)] = FromF64(data[lane]);
    }
    return;
  }
  VisitIntColumn(column, [&](const auto* data) {
    data += base;
    for (int lane : sel) {
      (*out)[static_cast<size_t>(lane)] = data[lane];
    }
  });
}

/// Materializes one scan column for a block, widening to i64.
void LoadColumnVec(const Column& column, uint64_t base, uint64_t n, Vec* out) {
  out->resize(n);
  if (column.type() == DataType::kF64) {
    const auto* data = static_cast<const double*>(column.data()) + base;
    for (uint64_t i = 0; i < n; ++i) (*out)[i] = FromF64(data[i]);
    return;
  }
  VisitIntColumn(column, [&](const auto* data) {
    data += base;
    for (uint64_t i = 0; i < n; ++i) (*out)[i] = data[i];
  });
}

/// Probes `n` codes of a dictionary column, starting at row `base`, against
/// `bitmap`; writes the matching lanes to `sel` and returns their count.
/// 8- and 16-bit codes are widened into `widened` first, so every code
/// width up to 32 bits shares the 32-bit SIMD kernel.
int ProbeCodes(const Column& column, uint64_t base, int n,
               const uint8_t* bitmap, std::vector<int32_t>* widened,
               int32_t* sel) {
  return VisitIntColumn(column, [&](const auto* codes) {
    using T = std::remove_const_t<std::remove_pointer_t<decltype(codes)>>;
    codes += base;
    if constexpr (std::is_same_v<T, int64_t>) {
      return BitmapProbeSelI64(codes, n, bitmap, sel);
    } else if constexpr (std::is_same_v<T, int32_t>) {
      return BitmapProbeSelI32(codes, n, bitmap, sel);
    } else {
      widened->resize(static_cast<size_t>(n));
      for (int i = 0; i < n; ++i) (*widened)[static_cast<size_t>(i)] = codes[i];
      return BitmapProbeSelI32(widened->data(), n, bitmap, sel);
    }
  });
}

}  // namespace

void VectorizedWorker(void* state, uint64_t begin, uint64_t end,
                      const void*) {
  const auto& input = *static_cast<const InterpretedPipeline*>(state);
  const PipelineSpec& spec = *input.spec;
  QueryContext* ctx = input.ctx;
  std::vector<const Column*> columns;
  for (int c : spec.scan_columns) columns.push_back(&input.source->column(c));

  AggHashTable* agg_local = nullptr;
  if (const auto* agg = std::get_if<SinkAgg>(&spec.sink)) {
    agg_local = ctx->agg_sets[static_cast<size_t>(agg->agg)]->Local();
  }

  // Dictionary-aware selection pushdown: when the pipeline opens with a
  // bitmap filter over a raw scan column, probe the column's codes straight
  // out of storage and materialize every column only for the survivors —
  // the probe happens BEFORE any lane is widened to i64.
  int pushdown_slot = -1;
  const uint8_t* pushdown_bitmap = nullptr;
  if (!spec.ops.empty()) {
    if (const auto* filter = std::get_if<OpFilter>(&spec.ops[0])) {
      const Expr& pred = *filter->predicate;
      if (pred.kind == ExprKind::kBitmapTest &&
          pred.children[0]->kind == ExprKind::kSlot) {
        const int slot = pred.children[0]->slot;
        if (slot >= 0 && static_cast<size_t>(slot) < columns.size() &&
            columns[static_cast<size_t>(slot)]->type() != DataType::kF64) {
          pushdown_slot = slot;
          pushdown_bitmap = pred.bitmap;
        }
      }
    }
  }
  static_assert(sizeof(int) == sizeof(int32_t),
                "selection vectors feed the SIMD probe kernels directly");

  std::vector<Vec> slot_vecs;
  Vec tmp;
  Sel sel;
  std::vector<int32_t> widened_codes;  // narrow pushdown codes, per vector
  for (uint64_t base = begin; base < end; base += kVectorSize) {
    const uint64_t n = std::min(kVectorSize, end - base);
    slot_vecs.clear();
    size_t first_op = 0;
    if (pushdown_slot >= 0) {
      const Column& probe_col = *columns[static_cast<size_t>(pushdown_slot)];
      sel.assign(n, 0);
      const int hits = ProbeCodes(probe_col, base, static_cast<int>(n),
                                  pushdown_bitmap, &widened_codes, sel.data());
      if (hits == 0) continue;
      sel.resize(static_cast<size_t>(hits));
      first_op = 1;
      for (const Column* column : columns) {
        slot_vecs.emplace_back();
        LoadColumnVecSel(*column, base, n, sel, &slot_vecs.back());
      }
    } else {
      for (const Column* column : columns) {
        slot_vecs.emplace_back();
        LoadColumnVec(*column, base, n, &slot_vecs.back());
      }
      sel.resize(n);
      for (uint64_t i = 0; i < n; ++i) sel[i] = static_cast<int>(i);
    }

    for (size_t op_index = first_op; op_index < spec.ops.size(); ++op_index) {
      const PipelineOp& op = spec.ops[op_index];
      if (sel.empty()) break;
      if (const auto* filter = std::get_if<OpFilter>(&op)) {
        EvalVec(*filter->predicate, slot_vecs, sel, n, &tmp);
        Sel next;
        next.reserve(sel.size());
        for (int lane : sel) {
          if (tmp[static_cast<size_t>(lane)] != 0) next.push_back(lane);
        }
        sel = std::move(next);
      } else if (const auto* compute = std::get_if<OpCompute>(&op)) {
        slot_vecs.emplace_back();
        EvalVec(*compute->expr, slot_vecs, sel, n,
                &slot_vecs.back());
      } else {
        const auto& probe = std::get<OpProbe>(op);
        JoinHashTable* ht =
            ctx->join_tables[static_cast<size_t>(probe.ht)].get();
        EvalVec(*probe.key, slot_vecs, sel, n, &tmp);
        Sel next;
        next.reserve(sel.size());
        size_t payload_base = slot_vecs.size();
        if (probe.kind == JoinKind::kInner) {
          for (int k = 0; k < probe.payload_slots; ++k) {
            slot_vecs.emplace_back(n);
          }
        }
        for (int lane : sel) {
          size_t i = static_cast<size_t>(lane);
          void* node = ht->Lookup(tmp[i]);
          if (probe.kind == JoinKind::kAnti) {
            if (node == nullptr) next.push_back(lane);
            continue;
          }
          if (node == nullptr) continue;
          if (probe.kind == JoinKind::kInner) {
            const auto* payload = reinterpret_cast<const int64_t*>(
                static_cast<const uint8_t*>(node) + 16);
            for (int k = 0; k < probe.payload_slots; ++k) {
              slot_vecs[payload_base + static_cast<size_t>(k)][i] = payload[k];
            }
          }
          next.push_back(lane);
        }
        sel = std::move(next);
      }
    }
    if (sel.empty()) continue;

    if (const auto* build = std::get_if<SinkBuild>(&spec.sink)) {
      JoinHashTable* ht =
          ctx->join_tables[static_cast<size_t>(build->ht)].get();
      Vec key;
      EvalVec(*build->key, slot_vecs, sel, n, &key);
      std::vector<Vec> payload_vecs(build->payload.size());
      for (size_t k = 0; k < build->payload.size(); ++k) {
        EvalVec(*build->payload[k], slot_vecs, sel, n, &payload_vecs[k]);
      }
      for (int lane : sel) {
        size_t i = static_cast<size_t>(lane);
        auto* payload = static_cast<int64_t*>(ht->Insert(key[i]));
        for (size_t k = 0; k < payload_vecs.size(); ++k) {
          payload[k] = payload_vecs[k][i];
        }
      }
    } else if (const auto* agg = std::get_if<SinkAgg>(&spec.sink)) {
      Vec key;
      EvalVec(*agg->key, slot_vecs, sel, n, &key);
      std::vector<Vec> value_vecs(agg->items.size());
      for (size_t k = 0; k < agg->items.size(); ++k) {
        if (agg->items[k].kind != AggKind::kCount) {
          EvalVec(*agg->items[k].value, slot_vecs, sel, n, &value_vecs[k]);
        }
      }
      for (int lane : sel) {
        size_t i = static_cast<size_t>(lane);
        auto* payload = static_cast<int64_t*>(agg_local->FindOrInsert(key[i]));
        for (size_t k = 0; k < agg->items.size(); ++k) {
          switch (agg->items[k].kind) {
            case AggKind::kCount: payload[k] += 1; break;
            case AggKind::kSum: payload[k] += value_vecs[k][i]; break;
            case AggKind::kMin:
              payload[k] = std::min(payload[k], value_vecs[k][i]);
              break;
            case AggKind::kMax:
              payload[k] = std::max(payload[k], value_vecs[k][i]);
              break;
          }
        }
      }
    } else {
      const auto& out = std::get<SinkOutput>(spec.sink);
      OutputBuffer* buffer = ctx->outputs[static_cast<size_t>(out.output)].get();
      std::vector<Vec> value_vecs(out.values.size());
      for (size_t k = 0; k < out.values.size(); ++k) {
        EvalVec(*out.values[k], slot_vecs, sel, n, &value_vecs[k]);
      }
      for (int lane : sel) {
        size_t i = static_cast<size_t>(lane);
        int64_t* row = buffer->AllocRow();
        for (size_t k = 0; k < value_vecs.size(); ++k) {
          row[k] = value_vecs[k][i];
        }
      }
    }
  }
}

}  // namespace aqe
