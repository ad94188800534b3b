#include "volcano/volcano.h"

#include <cstring>

namespace aqe {
namespace {

/// Widened scan of one value.
int64_t LoadWidened(const Column& column, uint64_t row) {
  if (column.type() != DataType::kF64) return column.GetAsI64(row);
  double d = column.GetF64(row);
  int64_t bits;
  std::memcpy(&bits, &d, 8);
  return bits;
}

}  // namespace

void VolcanoWorker(void* state, uint64_t begin, uint64_t end, const void*) {
  const auto& input = *static_cast<const InterpretedPipeline*>(state);
  const PipelineSpec& spec = *input.spec;
  QueryContext* ctx = input.ctx;
  std::vector<const Column*> columns;
  for (int c : spec.scan_columns) columns.push_back(&input.source->column(c));

  AggHashTable* agg_local = nullptr;
  if (const auto* agg = std::get_if<SinkAgg>(&spec.sink)) {
    agg_local = ctx->agg_sets[static_cast<size_t>(agg->agg)]->Local();
  }

  std::vector<int64_t> slots;
  for (uint64_t row = begin; row < end; ++row) {
    slots.clear();
    for (const Column* column : columns) {
      slots.push_back(LoadWidened(*column, row));
    }
    bool keep = true;
    for (const PipelineOp& op : spec.ops) {
      if (const auto* filter = std::get_if<OpFilter>(&op)) {
        if (EvalExpr(*filter->predicate, slots.data()) == 0) {
          keep = false;
          break;
        }
      } else if (const auto* compute = std::get_if<OpCompute>(&op)) {
        slots.push_back(EvalExpr(*compute->expr, slots.data()));
      } else {
        const auto& probe = std::get<OpProbe>(op);
        JoinHashTable* ht =
            ctx->join_tables[static_cast<size_t>(probe.ht)].get();
        int64_t key = EvalExpr(*probe.key, slots.data());
        void* node = ht->Lookup(key);
        if (probe.kind == JoinKind::kAnti) {
          if (node != nullptr) {
            keep = false;
            break;
          }
        } else if (node == nullptr) {
          keep = false;
          break;
        } else if (probe.kind == JoinKind::kInner) {
          const auto* payload = reinterpret_cast<const int64_t*>(
              static_cast<const uint8_t*>(node) + 16);
          for (int k = 0; k < probe.payload_slots; ++k) {
            slots.push_back(payload[k]);
          }
        }
      }
    }
    if (!keep) continue;

    if (const auto* build = std::get_if<SinkBuild>(&spec.sink)) {
      JoinHashTable* ht =
          ctx->join_tables[static_cast<size_t>(build->ht)].get();
      int64_t key = EvalExpr(*build->key, slots.data());
      auto* payload = static_cast<int64_t*>(ht->Insert(key));
      for (size_t k = 0; k < build->payload.size(); ++k) {
        payload[k] = EvalExpr(*build->payload[k], slots.data());
      }
    } else if (const auto* agg = std::get_if<SinkAgg>(&spec.sink)) {
      int64_t key = EvalExpr(*agg->key, slots.data());
      auto* payload = static_cast<int64_t*>(agg_local->FindOrInsert(key));
      for (size_t k = 0; k < agg->items.size(); ++k) {
        const AggItem& item = agg->items[k];
        switch (item.kind) {
          case AggKind::kCount: payload[k] += 1; break;
          case AggKind::kSum:
            payload[k] += EvalExpr(*item.value, slots.data());
            break;
          case AggKind::kMin: {
            int64_t v = EvalExpr(*item.value, slots.data());
            payload[k] = std::min(payload[k], v);
            break;
          }
          case AggKind::kMax: {
            int64_t v = EvalExpr(*item.value, slots.data());
            payload[k] = std::max(payload[k], v);
            break;
          }
        }
      }
    } else {
      const auto& out = std::get<SinkOutput>(spec.sink);
      int64_t* row_out =
          ctx->outputs[static_cast<size_t>(out.output)]->AllocRow();
      for (size_t k = 0; k < out.values.size(); ++k) {
        row_out[k] = EvalExpr(*out.values[k], slots.data());
      }
    }
  }
}

}  // namespace aqe
