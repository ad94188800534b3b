#include "plan/step.h"

#include <algorithm>
#include <map>

#include "plan/plan.h"

namespace aqe {
namespace {

/// A group's slots: its entry, [key, payload...] (AggHashTable's layout).
const int64_t* GroupSlots(void* payload) {
  return static_cast<const int64_t*>(payload) - 1;
}

void Run(const StepReadGroups& read, QueryContext* ctx) {
  const AggHashTableSet& set = *ctx->agg_sets[static_cast<size_t>(read.agg)];
  const size_t width = 1 + set.kinds().size();
  // A scalar_agg read evaluates a copy of each group's slots with that
  // set's single group appended.
  std::vector<int64_t> slots;
  if (read.scalar_agg >= 0) {
    const AggHashTableSet& scalar =
        *ctx->agg_sets[static_cast<size_t>(read.scalar_agg)];
    slots.resize(width + scalar.kinds().size(), 0);
    scalar.ForEach([&](int64_t, void* payload) {
      std::copy_n(static_cast<const int64_t*>(payload), scalar.kinds().size(),
                  slots.begin() + static_cast<std::ptrdiff_t>(width));
    });
  }
  bool any = false;
  set.ForEach([&](int64_t, void* payload) {
    any = true;
    const int64_t* group = GroupSlots(payload);
    if (!slots.empty()) {
      std::copy_n(group, width, slots.begin());
      group = slots.data();
    }
    for (const GroupRow& row : read.rows) {
      if (row.filter != nullptr && EvalExpr(*row.filter, group) == 0) continue;
      std::vector<int64_t>& out = ctx->result.emplace_back();
      out.reserve(row.columns.size());
      for (const ExprPtr& column : row.columns) {
        out.push_back(EvalExpr(*column, group));
      }
    }
  });
  if (read.scalar && !any) {
    ctx->result.emplace_back(read.rows[0].columns.size(), 0);
  }
}

void Run(const StepReadOutput& read, QueryContext* ctx) {
  ctx->result = ctx->outputs[static_cast<size_t>(read.output)]->Rows();
}

void Run(const StepCountBy& count_by, QueryContext* ctx) {
  std::map<int64_t, int64_t> counts;
  ctx->agg_sets[static_cast<size_t>(count_by.agg)]->ForEach(
      [&](int64_t, void* payload) {
        ++counts[GroupSlots(payload)[count_by.column]];
      });
  for (const auto& [value, n] : counts) ctx->result.push_back({value, n});
}

void Run(const StepSort& sort, QueryContext* ctx) {
  SortRows(&ctx->result, sort.keys);
}

void Run(const StepTopK& top, QueryContext* ctx) {
  TopK(&ctx->result, top.keys, top.k);
}

void Run(const StepGroupsToJoinTable& build, QueryContext* ctx) {
  JoinHashTable& ht = *ctx->join_tables[static_cast<size_t>(build.ht)];
  const size_t width = ht.payload_slots();
  ctx->agg_sets[static_cast<size_t>(build.agg)]->ForEach(
      [&](int64_t key, void* payload) {
        if (build.filter != nullptr &&
            EvalExpr(*build.filter, GroupSlots(payload)) == 0) {
          return;
        }
        std::copy_n(static_cast<const int64_t*>(payload), width,
                    static_cast<int64_t*>(ht.Insert(key)));
      });
}

}  // namespace

StepReadGroups ReadGroups(int agg, std::vector<ExprPtr> columns,
                          ExprPtr filter, bool scalar) {
  StepReadGroups read;
  read.agg = agg;
  read.rows.push_back({std::move(filter), std::move(columns)});
  read.scalar = scalar;
  return read;
}

void RunStep(const EngineStep& step, QueryContext* ctx) {
  std::visit([ctx](const auto& s) { Run(s, ctx); }, step);
}

}  // namespace aqe
