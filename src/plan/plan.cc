#include "plan/plan.h"

#include <algorithm>

#include "common/status.h"
#include "simd/simd.h"

namespace aqe {

int QueryProgram::DeclareJoinTable(uint32_t payload_slots) {
  join_payload_slots_.push_back(payload_slots);
  return static_cast<int>(join_payload_slots_.size() - 1);
}

int QueryProgram::DeclareAggSet(std::vector<AggKind> kinds) {
  agg_decls_.push_back(std::move(kinds));
  return static_cast<int>(agg_decls_.size() - 1);
}

int QueryProgram::DeclareOutput(uint32_t row_slots) {
  output_slots_.push_back(row_slots);
  return static_cast<int>(output_slots_.size() - 1);
}

int QueryProgram::DeclareBaseTable(const std::string& name) {
  auto it = std::find(tables_.begin(), tables_.end(), name);
  if (it != tables_.end()) return static_cast<int>(it - tables_.begin());
  tables_.push_back(name);
  return static_cast<int>(tables_.size() - 1);
}

const uint8_t* QueryProgram::AddBitmap(std::vector<uint8_t> bitmap) {
  // The SIMD probe kernels gather 4 bytes at bitmap + code, so keep
  // kSimdBitmapPadding readable zero bytes past the last code (simd/simd.h).
  bitmap.resize(bitmap.size() + kSimdBitmapPadding, 0);
  bitmaps_.push_back(
      std::make_unique<std::vector<uint8_t>>(std::move(bitmap)));
  return bitmaps_.back()->data();
}

const LikePredicate* QueryProgram::AddLikePredicate(LikePredicate pred) {
  like_predicates_.push_back(
      std::make_unique<LikePredicate>(std::move(pred)));
  return like_predicates_.back().get();
}

namespace {

bool InRange(int id, size_t count) {
  return id >= 0 && static_cast<size_t>(id) < count;
}

}  // namespace

int QueryProgram::AddPipeline(PipelineSpec spec) {
  // Generated code moves exactly as many values as these counts say, so a
  // count that differs from the declared width reads or writes past it.
  AQE_CHECK_MSG(InRange(spec.source_table, tables_.size()),
                "pipeline scans an undeclared table");
  for (const PipelineOp& op : spec.ops) {
    const auto* probe = std::get_if<OpProbe>(&op);
    if (probe == nullptr) continue;
    AQE_CHECK_MSG(InRange(probe->ht, join_payload_slots_.size()),
                  "probe of an undeclared join table");
    const int width = probe->kind == JoinKind::kInner
                          ? static_cast<int>(join_payload_slots(probe->ht))
                          : 0;
    AQE_CHECK_MSG(probe->payload_slots == width,
                  "probe payload and join payload differ in width");
  }
  if (const auto* build = std::get_if<SinkBuild>(&spec.sink)) {
    AQE_CHECK_MSG(InRange(build->ht, join_payload_slots_.size()),
                  "build of an undeclared join table");
    AQE_CHECK_MSG(build->payload.size() == join_payload_slots(build->ht),
                  "build payload and join payload differ in width");
  } else if (const auto* agg = std::get_if<SinkAgg>(&spec.sink)) {
    AQE_CHECK_MSG(InRange(agg->agg, agg_decls_.size()),
                  "aggregation into an undeclared set");
    const std::vector<AggKind>& kinds =
        agg_decls_[static_cast<size_t>(agg->agg)];
    AQE_CHECK_MSG(std::equal(agg->items.begin(), agg->items.end(),
                             kinds.begin(), kinds.end(),
                             [](const AggItem& item, AggKind kind) {
                               return item.kind == kind;
                             }),
                  "aggregate items and declared kinds differ");
  } else {
    const auto& out = std::get<SinkOutput>(spec.sink);
    AQE_CHECK_MSG(InRange(out.output, output_slots_.size()),
                  "output into an undeclared buffer");
    AQE_CHECK_MSG(
        out.values.size() == output_slots_[static_cast<size_t>(out.output)],
        "output values and output width differ");
  }
  pipelines_.push_back(std::move(spec));
  stages_.push_back({static_cast<int>(pipelines_.size() - 1), -1});
  return stages_.back().pipeline;
}

void QueryProgram::AddStep(EngineStep step) {
  if (const auto* read = std::get_if<StepReadGroups>(&step)) {
    AQE_CHECK_MSG(!read->scalar || read->rows.size() == 1,
                  "a scalar read has exactly one row template");
  } else if (const auto* build = std::get_if<StepGroupsToJoinTable>(&step)) {
    AQE_CHECK_MSG(agg_decls_[static_cast<size_t>(build->agg)].size() ==
                      join_payload_slots(build->ht),
                  "group payload and join payload differ in width");
  }
  steps_.push_back(std::move(step));
  stages_.push_back({-1, static_cast<int>(steps_.size() - 1)});
}

std::unique_ptr<QueryContext> QueryProgram::MakeContext(
    const Catalog* catalog, QueryMemoryTracker* memory) const {
  auto ctx = std::make_unique<QueryContext>();
  ctx->catalog = catalog;
  for (uint32_t slots : join_payload_slots_) {
    ctx->join_tables.push_back(std::make_unique<JoinHashTable>(slots, memory));
  }
  for (const std::vector<AggKind>& kinds : agg_decls_) {
    ctx->agg_sets.push_back(std::make_unique<AggHashTableSet>(kinds, memory));
  }
  for (uint32_t slots : output_slots_) {
    ctx->outputs.push_back(std::make_unique<OutputBuffer>(slots, memory));
  }
  return ctx;
}

const Table* QueryProgram::ResolveTable(int table_id,
                                        const QueryContext& ctx) const {
  return ctx.catalog->GetTable(table_name(table_id));
}

}  // namespace aqe
