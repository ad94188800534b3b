#include "plan/plan.h"

#include "common/status.h"
#include "obs/memory_tracker.h"
#include "simd/simd.h"

namespace aqe {

void QueryContext::AttachMemoryTracker(
    std::shared_ptr<QueryMemoryTracker> tracker) {
  memory = std::move(tracker);
  for (auto& set : agg_sets) set->set_memory_tracker(memory.get());
  for (auto& out : outputs) out->set_memory_tracker(memory.get());
}

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
  tables_.push_back({name, -1});
  return static_cast<int>(tables_.size() - 1);
}

int QueryProgram::DeclareTempTable() {
  tables_.push_back({"", num_temps_++});
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
  Stage stage;
  stage.pipeline = static_cast<int>(pipelines_.size() - 1);
  stages_.push_back(std::move(stage));
  return stage.pipeline;
}

void QueryProgram::AddStep(EngineStep step) {
  Stage stage;
  stage.step = std::move(step);
  stages_.push_back(std::move(stage));
}

std::unique_ptr<QueryContext> QueryProgram::MakeContext(
    const Catalog* catalog) const {
  auto ctx = std::make_unique<QueryContext>();
  ctx->catalog = catalog;
  ctx->join_tables.resize(join_payload_slots_.size());
  for (const std::vector<AggKind>& kinds : agg_decls_) {
    ctx->agg_sets.push_back(std::make_unique<AggHashTableSet>(kinds));
  }
  for (uint32_t slots : output_slots_) {
    ctx->outputs.push_back(std::make_unique<OutputBuffer>(slots));
  }
  ctx->temp_tables.resize(static_cast<size_t>(num_temps_));
  return ctx;
}

const Table* QueryProgram::ResolveTable(int table_id,
                                        const QueryContext& ctx) const {
  const TableDecl& decl = tables_[static_cast<size_t>(table_id)];
  if (decl.temp_index >= 0) {
    const Table* table =
        ctx.temp_tables[static_cast<size_t>(decl.temp_index)].get();
    AQE_CHECK_MSG(table != nullptr, "temp table not materialized yet");
    return table;
  }
  return ctx.catalog->GetTable(decl.base_name);
}

}  // namespace aqe
