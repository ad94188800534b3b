#include "plan/plan.h"

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

int QueryProgram::AddPipeline(PipelineSpec spec) {
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
