#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/fixed_point.h"
#include "engine/query_engine.h"
#include "plan/builder.h"
#include "plan/expr.h"
#include "plan/plan.h"
#include "queries/tpch_queries.h"
#include "storage/table.h"
#include "tpch/tpch_gen.h"

namespace aqe {
namespace {

/// A small synthetic database: one fact table and one dimension table.
class EngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new Catalog();
    Table* dim = catalog_->CreateTable("dim");
    dim->AddColumn("d_key", DataType::kI64);
    dim->AddColumn("d_group", DataType::kI32);
    for (int64_t k = 0; k < 100; ++k) {
      dim->column(0).AppendInt(k);
      dim->column(1).AppendInt(static_cast<int32_t>(k % 7));
    }
    Table* fact = catalog_->CreateTable("fact");
    fact->AddColumn("f_key", DataType::kI64);
    fact->AddColumn("f_value", DataType::kI64);
    fact->AddColumn("f_flag", DataType::kI32);
    for (int64_t i = 0; i < 50000; ++i) {
      fact->column(0).AppendInt((i * 37) % 120);  // some keys miss the dim
      fact->column(1).AppendInt(i % 1000);
      fact->column(2).AppendInt(static_cast<int32_t>(i % 3));
    }
    engine_ = new QueryEngine(catalog_, /*num_threads=*/2);
  }
  static void TearDownTestSuite() {
    delete engine_;
    delete catalog_;
  }

  /// SELECT d_group, sum(f_value), count(*) FROM fact JOIN dim ON f_key =
  /// d_key WHERE f_flag <> 2 GROUP BY d_group ORDER BY d_group.
  static QueryProgram BuildJoinAggQuery() {
    PlanBuilder b(*catalog_, "join_agg");
    // Pipeline 1: build dim hash table (payload: d_group).
    Pipe dim = b.Scan("build dim", "dim", {"d_key", "d_group"});
    JoinRef groups = dim.Build(dim["d_key"], {"d_group"});
    // Pipeline 2: scan fact, filter, probe, aggregate by d_group.
    Pipe fact = b.Scan("probe fact", "fact", {"f_key", "f_value", "f_flag"});
    fact.Filter(Ne(fact["f_flag"], I64(2)));
    fact.Probe(groups, fact["f_key"]);
    AggRef agg = fact.Aggregate(
        fact["d_group"],
        Aggs(Agg{"sum", AggKind::kSum, fact["f_value"], /*checked=*/true},
             Agg{"count", AggKind::kCount, nullptr, /*checked=*/false}));
    // Final steps: read the merged groups, sort by group.
    b.Step(ReadGroups(agg.id, ExprList(agg.key(), agg["sum"], agg["count"])));
    b.Step(StepSort{{{0, false, false}}});
    return b.Take();
  }

  static Catalog* catalog_;
  static QueryEngine* engine_;
};

Catalog* EngineTest::catalog_ = nullptr;
QueryEngine* EngineTest::engine_ = nullptr;

/// Reference result computed with plain C++.
std::vector<std::vector<int64_t>> ReferenceJoinAgg(const Catalog& catalog) {
  const Table* dim = catalog.GetTable("dim");
  const Table* fact = catalog.GetTable("fact");
  std::unordered_map<int64_t, int32_t> dim_map;
  for (uint64_t r = 0; r < dim->num_rows(); ++r) {
    dim_map[dim->column(0).GetI64(r)] = dim->column(1).GetI32(r);
  }
  std::map<int64_t, std::pair<int64_t, int64_t>> groups;
  for (uint64_t r = 0; r < fact->num_rows(); ++r) {
    if (fact->column(2).GetI32(r) == 2) continue;
    auto it = dim_map.find(fact->column(0).GetI64(r));
    if (it == dim_map.end()) continue;
    auto& acc = groups[it->second];
    acc.first += fact->column(1).GetI64(r);
    acc.second += 1;
  }
  std::vector<std::vector<int64_t>> rows;
  for (const auto& [group, acc] : groups) {
    rows.push_back({group, acc.first, acc.second});
  }
  return rows;
}

TEST_F(EngineTest, AllEnginesAndModesAgree) {
  auto reference = ReferenceJoinAgg(*catalog_);
  ASSERT_FALSE(reference.empty());

  struct Config {
    EngineKind engine;
    ExecutionStrategy strategy;
    const char* label;
  };
  const Config configs[] = {
      {EngineKind::kVolcano, ExecutionStrategy::kBytecode, "volcano"},
      {EngineKind::kVectorized, ExecutionStrategy::kBytecode, "vectorized"},
      {EngineKind::kNaiveIr, ExecutionStrategy::kBytecode, "naive-ir"},
      {EngineKind::kCompiled, ExecutionStrategy::kBytecode, "vm"},
      {EngineKind::kCompiled, ExecutionStrategy::kUnoptimized, "jit-unopt"},
      {EngineKind::kCompiled, ExecutionStrategy::kOptimized, "jit-opt"},
      {EngineKind::kCompiled, ExecutionStrategy::kAdaptive, "adaptive"},
  };
  for (const Config& config : configs) {
    QueryProgram q = BuildJoinAggQuery();
    QueryRunOptions options;
    options.engine = config.engine;
    options.strategy = config.strategy;
    QueryRunResult result = engine_->Run(q, options);
    EXPECT_EQ(result.rows, reference) << config.label;
  }
}

TEST_F(EngineTest, UnfusedVmAlsoAgrees) {
  auto reference = ReferenceJoinAgg(*catalog_);
  QueryProgram q = BuildJoinAggQuery();
  QueryRunOptions options;
  options.engine = EngineKind::kCompiled;
  options.strategy = ExecutionStrategy::kBytecode;
  options.translator.fuse_macro_ops = false;
  EXPECT_EQ(engine_->Run(q, options).rows, reference);
}

TEST_F(EngineTest, ReportsInstrumentation) {
  QueryProgram q = BuildJoinAggQuery();
  QueryRunOptions options;
  options.strategy = ExecutionStrategy::kBytecode;
  // This test asserts *cold* costs (translation happened, time recorded);
  // the shared engine's artifact cache would legitimately zero them.
  options.use_artifact_cache = false;
  QueryRunResult result = engine_->Run(q, options);
  ASSERT_EQ(result.pipelines.size(), 2u);
  EXPECT_EQ(result.pipelines[0].name, "build dim");
  EXPECT_EQ(result.pipelines[1].name, "probe fact");
  EXPECT_EQ(result.pipelines[0].tuples, 100u);
  EXPECT_EQ(result.pipelines[1].tuples, 50000u);
  for (const auto& p : result.pipelines) {
    EXPECT_GT(p.instructions, 10u);
    EXPECT_GT(p.translate_millis, 0);
    EXPECT_GT(p.register_file_bytes, 16u);
    EXPECT_EQ(p.final_mode, ExecMode::kBytecode);
  }
  EXPECT_GT(result.codegen_millis_total, 0);
}

TEST_F(EngineTest, StaticModesReportCompileTimes) {
  QueryProgram q = BuildJoinAggQuery();
  QueryRunOptions options;
  options.strategy = ExecutionStrategy::kOptimized;
  // Cold costs again: bypass the shared engine's artifact cache.
  options.use_artifact_cache = false;
  QueryRunResult result = engine_->Run(q, options);
  EXPECT_GT(result.compile_millis_total, 0);
  for (const auto& p : result.pipelines) {
    EXPECT_EQ(p.final_mode, ExecMode::kOptimized);
    ASSERT_EQ(p.compiles.size(), 1u);
    EXPECT_EQ(p.compiles[0].first, ExecMode::kOptimized);
    // Satellite reporting fix: execution time excludes the blocking
    // up-front compile, so exec_only < exec and the totals split cleanly.
    EXPECT_LT(p.exec_only_seconds, p.exec_seconds);
  }
  EXPECT_GT(result.exec_seconds_total, 0);
  EXPECT_LT(result.exec_seconds_total,
            result.total_seconds - result.compile_millis_total / 1e3 + 1e-9);
}

TEST_F(EngineTest, MeasureCompileCosts) {
  QueryProgram q = BuildJoinAggQuery();
  auto costs = engine_->MeasureCompileCosts(q);
  ASSERT_EQ(costs.size(), 2u);
  for (const auto& c : costs) {
    EXPECT_GT(c.instructions, 0u);
    EXPECT_GT(c.bytecode_millis, 0);
    EXPECT_GT(c.unopt_millis, 0);
    EXPECT_GT(c.opt_millis, 0);
    // The latency ordering the whole paper is about:
    EXPECT_LT(c.bytecode_millis, c.unopt_millis);
    EXPECT_LT(c.unopt_millis, c.opt_millis);
  }
}

/// SELECT w_key, sum(b.w_value), count(*), min(p.w_value), max(p.w_value)
/// FROM wide p JOIN (SELECT * FROM wide WHERE w_value < 300000) b
///   ON p.w_key = b.w_key GROUP BY w_key,
/// over a table whose every key sits on two rows far apart (w_value is the
/// row number, so the build side holds each key once). The build side and
/// the group count are past the engine's inline thresholds, so on a
/// multi-worker engine the join table is sealed, and the aggregation
/// merged, in parallel on the workers.
TEST(EngineStepTest, ParallelMergeAndSealMatchReference) {
  constexpr int64_t kKeys = 300000;
  Catalog catalog;
  Table* wide = catalog.CreateTable("wide");
  wide->AddColumn("w_key", DataType::kI64);
  wide->AddColumn("w_value", DataType::kI64);
  // first_row[key]: the key's row below kKeys, the one the build keeps;
  // its other row is first_row[key] + kKeys.
  std::vector<int64_t> first_row(kKeys);
  for (int64_t r = 0; r < 2 * kKeys; ++r) {
    const int64_t key = (r * 7919) % kKeys;
    wide->column(0).AppendInt(key);
    wide->column(1).AppendInt(r);
    if (r < kKeys) first_row[static_cast<size_t>(key)] = r;
  }

  QueryProgram q("wide_self_join");
  const int table = q.DeclareBaseTable("wide");
  const int ht = q.DeclareJoinTable(1);
  const int agg = q.DeclareAggSet(
      {AggKind::kSum, AggKind::kCount, AggKind::kMin, AggKind::kMax});
  PipelineSpec build;
  build.name = "build wide";
  build.source_table = table;
  build.scan_columns = {0, 1};
  build.ops.push_back(OpFilter{Lt(Slot(1), I64(kKeys))});
  SinkBuild build_sink;
  build_sink.ht = ht;
  build_sink.key = Slot(0);
  build_sink.payload.push_back(Slot(1));
  build.sink = std::move(build_sink);
  q.AddPipeline(std::move(build));
  PipelineSpec probe;
  probe.name = "probe wide";
  probe.source_table = table;
  probe.scan_columns = {0, 1};
  OpProbe op;
  op.ht = ht;
  op.key = Slot(0);
  op.payload_slots = 1;  // build w_value -> slot 2
  probe.ops.push_back(std::move(op));
  SinkAgg sink;
  sink.agg = agg;
  sink.key = Slot(0);
  sink.items.push_back({AggKind::kSum, Slot(2), /*checked=*/true});
  sink.items.push_back({AggKind::kCount, nullptr, /*checked=*/false});
  sink.items.push_back({AggKind::kMin, Slot(1), /*checked=*/false});
  sink.items.push_back({AggKind::kMax, Slot(1), /*checked=*/false});
  probe.sink = std::move(sink);
  q.AddPipeline(std::move(probe));
  q.AddStep(ReadGroups(
      agg, ExprList(Slot(0), Slot(1), Slot(2), Slot(3), Slot(4))));

  // Bytecode, volcano and vectorized runs on 2 workers: the spread steps
  // are the engine's, not the mode's or the engine kind's, and two workers
  // already split them.
  QueryEngine engine(&catalog, /*num_threads=*/2);
  for (EngineKind kind : {EngineKind::kCompiled, EngineKind::kVolcano,
                          EngineKind::kVectorized}) {
    QueryRunOptions options;
    options.engine = kind;
    options.strategy = ExecutionStrategy::kBytecode;
    const uint64_t spread_before =
        engine.ObservabilitySnapshot().counter("exec.spread_steps");
    QueryRunResult result = engine.Run(q, options);
    // Every group against the reference: each key once, with its sums.
    EXPECT_EQ(result.rows.size(), static_cast<size_t>(kKeys))
        << EngineKindName(kind);
    std::vector<bool> seen(kKeys);
    int64_t wrong = 0;
    for (const std::vector<int64_t>& row : result.rows) {
      const int64_t key = row[0];
      if (key < 0 || key >= kKeys || seen[static_cast<size_t>(key)]) {
        ++wrong;
        continue;
      }
      seen[static_cast<size_t>(key)] = true;
      const int64_t r = first_row[static_cast<size_t>(key)];
      wrong += row[1] != 2 * r || row[2] != 2 || row[3] != r ||
               row[4] != r + kKeys;
    }
    EXPECT_EQ(wrong, 0) << EngineKindName(kind);
    // The merge and the seal are engine steps, not pipelines, and both were
    // large enough to be spread over the workers.
    EXPECT_EQ(result.pipelines.size(), 2u) << EngineKindName(kind);
    EXPECT_EQ(engine.ObservabilitySnapshot().counter("exec.spread_steps") -
                  spread_before,
              2u)
        << EngineKindName(kind);
  }
}

/// Each engine-step kind on a hand-filled context, against the same step
/// written in plain C++. The groups: `quads` holds Q12's shape (key 0..9;
/// MAIL high/all and SHIP high/all counts, some modes with no line),
/// `singles` 40 keys with one sum, `total` one global sum (Q11's) and
/// `empty` none (Q6's scalar read of an empty aggregate).
TEST(EngineStepTest, EachStepKindMatchesPlainCpp) {
  using Rows = std::vector<std::vector<int64_t>>;
  QueryProgram q("steps");
  const int quads = q.DeclareAggSet(std::vector<AggKind>(4, AggKind::kSum));
  const int singles = q.DeclareAggSet({AggKind::kSum});
  const int total = q.DeclareAggSet({AggKind::kSum});
  const int empty = q.DeclareAggSet({AggKind::kSum});
  const int output = q.DeclareOutput(2);
  const int ht = q.DeclareJoinTable(1);
  std::unique_ptr<QueryContext> ctx = q.MakeContext(nullptr);

  std::map<int64_t, std::vector<int64_t>> quad_groups, single_groups;
  for (int64_t k = 0; k < 10; ++k) {
    quad_groups[k] = {k % 3, k % 4, k % 2, k % 5};
  }
  for (int64_t k = 0; k < 40; ++k) single_groups[k * 3] = {(k * 7) % 11};
  const auto fill = [&ctx](int agg, const auto& groups) {
    for (const auto& [key, payload] : groups) {
      auto* p = static_cast<int64_t*>(
          ctx->agg_sets[static_cast<size_t>(agg)]->Local()->FindOrInsert(key));
      std::copy(payload.begin(), payload.end(), p);
    }
    ctx->agg_sets[static_cast<size_t>(agg)]->Merge();
  };
  fill(quads, quad_groups);
  fill(singles, single_groups);
  fill(total, std::map<int64_t, std::vector<int64_t>>{{0, {200}}});
  fill(empty, std::map<int64_t, std::vector<int64_t>>{});
  for (int64_t r = 0; r < 5; ++r) {
    int64_t* row = ctx->outputs[static_cast<size_t>(output)]->AllocRow();
    row[0] = r % 2;
    row[1] = 10 - r;
  }

  // The plain C++ of each step.
  Rows q12_rows;  // two templates: a row per mode whose "all" count is > 0
  for (const auto& [key, p] : quad_groups) {
    if (p[1] > 0) q12_rows.push_back({100, p[0], p[1] - p[0]});
    if (p[3] > 0) q12_rows.push_back({200, p[2], p[3] - p[2]});
  }
  Rows having_rows;  // Q11's HAVING against the global total
  for (const auto& [key, p] : single_groups) {
    if (p[0] * 30 > 200) having_rows.push_back({key, p[0]});
  }
  Rows count_rows;  // CountBy over slot 1 of the singles' groups
  std::map<int64_t, int64_t> counts;
  for (const auto& [key, p] : single_groups) ++counts[p[0]];
  for (const auto& [value, n] : counts) count_rows.push_back({value, n});
  Rows singles_rows;
  for (const auto& [key, p] : single_groups) {
    singles_rows.push_back({key, p[0]});
  }
  Rows sorted_rows = singles_rows;
  std::stable_sort(sorted_rows.begin(), sorted_rows.end(),
                   [](const auto& a, const auto& b) { return a[1] > b[1]; });
  Rows top_rows(sorted_rows.begin(), sorted_rows.begin() + 5);
  Rows output_rows = {{0, 6}, {0, 8}, {0, 10}, {1, 7}, {1, 9}};
  Rows join_rows;  // GroupsToJoinTable with the filter sum > 5
  for (const auto& [key, p] : single_groups) {
    if (p[0] > 5) join_rows.push_back({key, p[0]});
  }

  struct Case {
    const char* name;
    Rows input;  ///< ctx->result before the step
    EngineStep step;
    Rows expected;  ///< ctx->result after it, both sorted if `sort_after`
    bool sort_after;
  };
  std::vector<Case> cases;
  StepReadGroups q12;
  q12.agg = quads;
  for (const auto& [mode, high] : {std::pair(100, 1), std::pair(200, 3)}) {
    q12.rows.push_back(
        {Gt(Slot(high + 1), I64(0)),
         ExprList(I64(mode), Slot(high), Sub(Slot(high + 1), Slot(high)))});
  }
  cases.push_back({"q12 templates", {}, std::move(q12), q12_rows, true});
  cases.push_back({"empty scalar", {},
                   ReadGroups(empty, ExprList(Slot(1), Slot(0)), nullptr,
                              /*scalar=*/true),
                   {{0, 0}}, false});
  cases.push_back({"one-group scalar", {},
                   ReadGroups(total, ExprList(Slot(1)), nullptr,
                              /*scalar=*/true),
                   {{200}}, false});
  StepReadGroups having = ReadGroups(singles, ExprList(Slot(0), Slot(1)),
                                     Gt(Mul(Slot(1), I64(30)), Slot(2)));
  having.scalar_agg = total;
  cases.push_back({"scalar_agg having", {}, std::move(having), having_rows,
                   true});
  cases.push_back({"count by", {}, StepCountBy{singles, 1}, count_rows,
                   false});
  cases.push_back({"sort", singles_rows, StepSort{{{1, true, false}}},
                   sorted_rows, false});
  cases.push_back({"top-k", singles_rows, StepTopK{{{1, true, false}}, 5},
                   top_rows, false});
  cases.push_back({"read output", {{42}}, StepReadOutput{output}, output_rows,
                   true});
  for (Case& c : cases) {
    ctx->result = std::move(c.input);
    RunStep(c.step, ctx.get());
    if (c.sort_after) {  // group order is the hash table's
      std::sort(ctx->result.begin(), ctx->result.end());
      std::sort(c.expected.begin(), c.expected.end());
    }
    EXPECT_EQ(ctx->result, c.expected) << c.name;
  }

  ctx->result.clear();
  RunStep(StepGroupsToJoinTable{singles, ht, Gt(Slot(1), I64(5))}, ctx.get());
  JoinHashTable& table = *ctx->join_tables[static_cast<size_t>(ht)];
  table.Seal();
  Rows joined;
  table.ForEach([&joined](int64_t key, void* payload) {
    joined.push_back({key, *static_cast<const int64_t*>(payload)});
  });
  std::sort(joined.begin(), joined.end());
  EXPECT_EQ(joined, join_rows);
  EXPECT_TRUE(ctx->result.empty());
}

/// A pipeline over a three-column table with one probe of `ht` (`payload`
/// values appended), or none when `ht` is -1, ending in `sink`.
PipelineSpec CheckedPipeline(int table, int ht, int payload, JoinKind kind,
                             PipelineSink sink) {
  PipelineSpec spec;
  spec.name = "scan fact";
  spec.source_table = table;
  spec.scan_columns = {0, 1, 2};
  if (ht >= 0) {
    OpProbe probe;
    probe.ht = ht;
    probe.key = Slot(0);
    probe.payload_slots = payload;
    probe.kind = kind;
    spec.ops.push_back(std::move(probe));
  }
  spec.sink = std::move(sink);
  return spec;
}

SinkBuild BuildSink(int ht, int payload) {
  SinkBuild sink;
  sink.ht = ht;
  sink.key = Slot(0);
  for (int i = 0; i < payload; ++i) sink.payload.push_back(Slot(1));
  return sink;
}

SinkAgg AggSink(int agg, const std::vector<AggKind>& kinds) {
  SinkAgg sink;
  sink.agg = agg;
  sink.key = Slot(0);
  for (AggKind kind : kinds) sink.items.push_back({kind, Slot(1), false});
  return sink;
}

SinkOutput OutputSink(int output, int values) {
  SinkOutput sink;
  sink.output = output;
  for (int i = 0; i < values; ++i) sink.values.push_back(Slot(i));
  return sink;
}

// Generated code stores one value per build payload, loads payload_slots
// values per inner probe, updates one slot per aggregate item and writes
// one value per output value. AddPipeline checks each count against the
// declaration it indexes, and every id against the declared ones.
TEST(QueryProgramDeathTest, AddPipelineChecksIdsAndWidths) {
  QueryProgram q("checks");
  const int table = q.DeclareBaseTable("fact");
  const int ht = q.DeclareJoinTable(1);
  const int agg = q.DeclareAggSet({AggKind::kSum, AggKind::kCount});
  const int output = q.DeclareOutput(2);
  const auto add = [&q](int source, int probe_ht, int payload, JoinKind kind,
                        PipelineSink sink) {
    q.AddPipeline(
        CheckedPipeline(source, probe_ht, payload, kind, std::move(sink)));
  };
  const JoinKind inner = JoinKind::kInner;
  EXPECT_DEATH(add(table + 1, -1, 0, inner, BuildSink(ht, 1)),
               "scans an undeclared table");
  EXPECT_DEATH(add(table, ht + 1, 1, inner, OutputSink(output, 2)),
               "probe of an undeclared join table");
  for (const auto& [payload, kind] :
       {std::pair(0, inner), std::pair(2, inner), std::pair(1, JoinKind::kSemi),
        std::pair(1, JoinKind::kAnti)}) {
    EXPECT_DEATH(add(table, ht, payload, kind, OutputSink(output, 2)),
                 "probe payload and join payload differ in width");
  }
  EXPECT_DEATH(add(table, -1, 0, inner, BuildSink(ht + 1, 1)),
               "build of an undeclared join table");
  EXPECT_DEATH(add(table, -1, 0, inner, BuildSink(ht, 2)),
               "build payload and join payload differ in width");
  EXPECT_DEATH(add(table, -1, 0, inner, AggSink(agg + 1, {AggKind::kSum})),
               "aggregation into an undeclared set");
  EXPECT_DEATH(add(table, -1, 0, inner, AggSink(agg, {AggKind::kSum})),
               "aggregate items and declared kinds differ");
  EXPECT_DEATH(
      add(table, -1, 0, inner, AggSink(agg, {AggKind::kCount, AggKind::kSum})),
      "aggregate items and declared kinds differ");
  EXPECT_DEATH(add(table, -1, 0, inner, OutputSink(output + 1, 2)),
               "output into an undeclared buffer");
  EXPECT_DEATH(add(table, -1, 0, inner, OutputSink(output, 3)),
               "output values and output width differ");

  // The matching pipelines are added.
  add(table, -1, 0, inner, BuildSink(ht, 1));
  add(table, ht, 1, inner, AggSink(agg, {AggKind::kSum, AggKind::kCount}));
  add(table, ht, 0, JoinKind::kSemi, OutputSink(output, 2));
  EXPECT_EQ(q.pipelines().size(), 3u);
}

// The builder names slots; a name it was not given is a bug in the plan.
TEST(PlanBuilderDeathTest, UnknownAndDuplicateNamesDie) {
  Catalog catalog;
  Table* table = catalog.CreateTable("t");
  table->AddColumn("a", DataType::kI64);
  table->AddColumn("b", DataType::kI64);
  PlanBuilder b(catalog, "names");
  Pipe build = b.Scan("build t", "t", {"a", "b"});
  EXPECT_DEATH(build["c"], "unknown name c");
  EXPECT_DEATH(build.Compute("b", I64(1)), "duplicate slot name b");
  JoinRef join = build.Build(build["a"], {"b"});
  Pipe probe = b.Scan("probe t", "t", {"a", "b"});
  EXPECT_DEATH(probe.Probe(join, probe["a"]), "duplicate slot name b");
  AggRef agg = probe.Aggregate(probe["a"],
                               Aggs(Agg{"n", AggKind::kCount, nullptr, false}));
  EXPECT_DEATH(agg["m"], "unknown name m");
  EXPECT_EQ(agg.slot("n"), 1u);
  EXPECT_DEATH(probe.Output({"a"}), "a pipeline has one sink");
}

TEST_F(EngineTest, ExprEvalMatrix) {
  // EvalExpr agrees with manual computation on a few composite expressions.
  std::vector<int64_t> slots = {10, -3, 7};
  auto e1 = Add(Mul(Slot(0), I64(5)), Slot(1));
  EXPECT_EQ(EvalExpr(*e1, slots.data()), 47);
  auto e2 = And(Lt(Slot(1), I64(0)), Ge(Slot(2), I64(7)));
  EXPECT_EQ(EvalExpr(*e2, slots.data()), 1);
  auto e3 = Not(Eq(Slot(0), I64(10)));
  EXPECT_EQ(EvalExpr(*e3, slots.data()), 0);
  auto cloned = CloneExpr(*e2);
  EXPECT_EQ(EvalExpr(*cloned, slots.data()), 1);
  EXPECT_EQ(ExprSize(*e2), 7);
}

// Spreading a query over workers costs memory only for what each worker
// holds on its own. At SF 0.1 on 4 workers, Q9's join arenas are charged by
// the pages their nodes reach (not by whole chunks per worker), and Q18's
// aggregation adds each worker's capped table and the concurrent folds'
// indexes to runs that hold every group once.
TEST(EngineMemoryTest, WorkersAddLittleToTheTrackedPeak) {
  Catalog catalog;
  tpch::BuildTpchDatabase(&catalog, /*sf=*/0.1);
  QueryEngine one(&catalog, /*num_threads=*/1);
  QueryEngine four(&catalog, /*num_threads=*/4);
  QueryRunOptions single;
  single.single_threaded = true;
  for (const auto& [number, ratio] : {std::pair{9, 1.1}, std::pair{18, 1.15}}) {
    const uint64_t peak1 =
        one.Run(BuildTpchQuery(number, catalog), single).peak_memory_bytes;
    const uint64_t peak4 =
        four.Run(BuildTpchQuery(number, catalog)).peak_memory_bytes;
    EXPECT_LE(static_cast<double>(peak4), ratio * static_cast<double>(peak1))
        << "q" << number << ": " << peak4 << " bytes on 4 workers, " << peak1
        << " on one";
  }
}

}  // namespace
}  // namespace aqe
