#include "plan/builder.h"

#include <algorithm>

#include "common/status.h"

namespace aqe {
namespace {

/// Position of `name` in `names` (CHECK-fails if it is not there).
uint32_t IndexOf(const std::vector<std::string>& names,
                 std::string_view name) {
  auto it = std::find(names.begin(), names.end(), name);
  AQE_CHECK_MSG(it != names.end(),
                ("unknown name " + std::string(name)).c_str());
  return static_cast<uint32_t>(it - names.begin());
}

}  // namespace

uint32_t AggRef::slot(std::string_view name) const {
  return 1 + IndexOf(names, name);
}

ExprPtr AggRef::operator[](std::string_view name) const {
  return Slot(static_cast<int>(slot(name)));
}

int Pipe::slot(std::string_view name) const {
  return static_cast<int>(IndexOf(slots_, name));
}

ExprPtr Pipe::operator[](std::string_view name) const {
  return Slot(slot(name));
}

void Pipe::AddSlot(std::string name) {
  AQE_CHECK_MSG(std::find(slots_.begin(), slots_.end(), name) == slots_.end(),
                ("duplicate slot name " + name).c_str());
  slots_.push_back(std::move(name));
}

Pipe& Pipe::Filter(ExprPtr predicate) {
  spec_.ops.push_back(OpFilter{std::move(predicate)});
  return *this;
}

Pipe& Pipe::Compute(std::string name, ExprPtr expr) {
  AddSlot(std::move(name));
  spec_.ops.push_back(OpCompute{std::move(expr)});
  return *this;
}

Pipe& Pipe::Probe(const JoinRef& join, ExprPtr key, JoinKind kind) {
  OpProbe probe;
  probe.ht = join.id;
  probe.key = std::move(key);
  probe.kind = kind;
  if (kind == JoinKind::kInner) {
    probe.payload_slots = static_cast<int>(join.payload.size());
    for (const std::string& name : join.payload) AddSlot(name);
  }
  spec_.ops.push_back(std::move(probe));
  return *this;
}

JoinRef Pipe::Build(ExprPtr key, const std::vector<std::string>& payload) {
  JoinRef join{builder_->program().DeclareJoinTable(
                   static_cast<uint32_t>(payload.size())),
               payload};
  SinkBuild sink;
  sink.ht = join.id;
  sink.key = std::move(key);
  for (const std::string& name : payload) sink.payload.push_back((*this)[name]);
  Finish(std::move(sink));
  return join;
}

AggRef Pipe::Aggregate(ExprPtr key, std::vector<Agg> aggs) {
  AggRef ref;
  std::vector<AggKind> kinds;
  SinkAgg sink;
  sink.key = std::move(key);
  for (Agg& agg : aggs) {
    ref.names.push_back(std::move(agg.name));
    kinds.push_back(agg.kind);
    sink.items.push_back({agg.kind, std::move(agg.value), agg.checked});
  }
  ref.id = builder_->program().DeclareAggSet(std::move(kinds));
  sink.agg = ref.id;
  Finish(std::move(sink));
  return ref;
}

int Pipe::Output(const std::vector<std::string>& values) {
  SinkOutput sink;
  sink.output = builder_->program().DeclareOutput(
      static_cast<uint32_t>(values.size()));
  for (const std::string& name : values) sink.values.push_back((*this)[name]);
  const int output = sink.output;
  Finish(std::move(sink));
  return output;
}

void Pipe::Finish(PipelineSink sink) {
  AQE_CHECK_MSG(!finished_, "a pipeline has one sink");
  finished_ = true;
  spec_.sink = std::move(sink);
  builder_->program().AddPipeline(std::move(spec_));
}

Pipe PlanBuilder::Scan(std::string pipeline_name, const std::string& table,
                       const std::vector<std::string>& columns) {
  PipelineSpec spec;
  spec.name = std::move(pipeline_name);
  spec.source_table = program_.DeclareBaseTable(table);
  const Table* source = catalog_.GetTable(table);
  Pipe pipe(this, std::move(spec));
  for (const std::string& column : columns) {
    pipe.spec_.scan_columns.push_back(source->ColumnIndex(column));
    pipe.AddSlot(column);
  }
  return pipe;
}

JoinRef PlanBuilder::GroupsToJoin(const AggRef& agg, ExprPtr filter) {
  JoinRef join{program_.DeclareJoinTable(
                   static_cast<uint32_t>(agg.names.size())),
               agg.names};
  program_.AddStep(StepGroupsToJoinTable{agg.id, join.id, std::move(filter)});
  return join;
}

int64_t PlanBuilder::Code(const std::string& table, const std::string& column,
                          const std::string& value) const {
  const Table* t = catalog_.GetTable(table);
  const int32_t code = t->dictionary(t->ColumnIndex(column)).Find(value);
  AQE_CHECK_MSG(code >= 0, value.c_str());
  return code;
}

}  // namespace aqe
