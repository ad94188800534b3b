#include <gtest/gtest.h>

#include <string>

#include "codegen/query_compiler.h"
#include "engine/query_engine.h"
#include "queries/generated_queries.h"
#include "queries/handwritten_q1.h"
#include "queries/tpch_queries.h"
#include "runtime/runtime_registry.h"
#include "tpch/tpch_gen.h"
#include "vm/translator.h"

namespace aqe {
namespace {

/// All TPC-H query tests share one SF-0.01 database and engine.
class TpchQueryTest : public ::testing::TestWithParam<int> {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new Catalog();
    tpch::BuildTpchDatabase(catalog_, /*sf=*/0.01);
    engine_ = new QueryEngine(catalog_, /*num_threads=*/2);
  }
  static void TearDownTestSuite() {
    delete engine_;
    delete catalog_;
  }
  static Catalog* catalog_;
  static QueryEngine* engine_;
};

Catalog* TpchQueryTest::catalog_ = nullptr;
QueryEngine* TpchQueryTest::engine_ = nullptr;

/// Every engine and execution mode must produce identical rows for every
/// query — this is the end-to-end guarantee behind "no work is lost when
/// switching between execution modes".
TEST_P(TpchQueryTest, AllEnginesAgree) {
  const int number = GetParam();
  QueryRunOptions volcano;
  volcano.engine = EngineKind::kVolcano;
  QueryProgram ref_program = BuildTpchQuery(number, *catalog_);
  auto reference = engine_->Run(ref_program, volcano).rows;
  ASSERT_FALSE(reference.empty()) << "q" << number << " has empty result";

  struct Config {
    EngineKind engine;
    ExecutionStrategy strategy;
    VmDispatch vm_dispatch;
    const char* label;
  };
  // Both interpreter dispatch engines must be bit-identical on every query,
  // not just the compile-time default.
  const Config configs[] = {
      {EngineKind::kVectorized, ExecutionStrategy::kBytecode,
       VmDispatch::kDefault, "vectorized"},
      {EngineKind::kCompiled, ExecutionStrategy::kBytecode,
       VmDispatch::kSwitch, "vm-switch"},
      {EngineKind::kCompiled, ExecutionStrategy::kBytecode,
       VmDispatch::kThreaded, "vm-threaded"},
      {EngineKind::kCompiled, ExecutionStrategy::kUnoptimized,
       VmDispatch::kDefault, "jit-unopt"},
      {EngineKind::kCompiled, ExecutionStrategy::kAdaptive,
       VmDispatch::kDefault, "adaptive"},
  };
  for (const Config& config : configs) {
    QueryProgram program = BuildTpchQuery(number, *catalog_);
    QueryRunOptions options;
    options.engine = config.engine;
    options.strategy = config.strategy;
    options.vm_dispatch = config.vm_dispatch;
    auto rows = engine_->Run(program, options).rows;
    EXPECT_EQ(rows, reference) << "q" << number << " " << config.label;
  }
}

INSTANTIATE_TEST_SUITE_P(AllQueries, TpchQueryTest,
                         ::testing::ValuesIn(ImplementedTpchQueries()),
                         [](const auto& info) {
                           return "Q" + std::to_string(info.param);
                         });

class TpchFixtureTest : public ::testing::Test {
 protected:
  static Catalog& catalog() {
    static Catalog* catalog = [] {
      auto* c = new Catalog();
      tpch::BuildTpchDatabase(c, 0.01);
      return c;
    }();
    return *catalog;
  }
};

TEST_F(TpchFixtureTest, HandwrittenQ1MatchesCompiled) {
  QueryEngine engine(&catalog(), 1);
  QueryProgram q1 = BuildTpchQuery(1, catalog());
  QueryRunOptions options;
  options.strategy = ExecutionStrategy::kBytecode;
  auto compiled = engine.Run(q1, options).rows;
  auto handwritten = HandwrittenQ1(catalog());
  EXPECT_EQ(compiled, handwritten);
}

TEST_F(TpchFixtureTest, Q1HasExpectedGroups) {
  QueryEngine engine(&catalog(), 1);
  QueryProgram q1 = BuildTpchQuery(1, catalog());
  auto rows = engine.Run(q1, {}).rows;
  // TPC-H Q1 always produces the 4 (returnflag, linestatus) groups.
  EXPECT_EQ(rows.size(), 4u);
  // count column is last; all counts positive, sum roughly the filtered rows.
  int64_t total = 0;
  for (const auto& row : rows) {
    EXPECT_GT(row.back(), 0);
    total += row.back();
  }
  uint64_t lineitems = catalog().GetTable("lineitem")->num_rows();
  EXPECT_GT(static_cast<uint64_t>(total), lineitems * 95 / 100);
}

TEST_F(TpchFixtureTest, Q6SelectivityIsLow) {
  QueryEngine engine(&catalog(), 1);
  QueryProgram q6 = BuildTpchQuery(6, catalog());
  auto rows = engine.Run(q6, {}).rows;
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_GT(rows[0][0], 0);  // some revenue found
}

// Q6 scans a 16-bit date, an 8-bit discount, a 16-bit quantity and a 32-bit
// price. The translator widens each value inside its load — the indexed
// load (load_idx_sext_iN_i64) or, for the single-use l_quantity filter, the
// load-compare-and-branch (br_load_sext_i16_*) — so no separate
// sign-extension dispatch survives, at any width.
TEST_F(TpchFixtureTest, Q6BytecodeWidensInTheLoad) {
  QueryProgram q6 = BuildTpchQuery(6, catalog());
  auto ctx = q6.MakeContext(&catalog());
  const PipelineSpec& spec = q6.pipelines()[0];
  PipelineBindings bindings = BindPipeline(q6, spec, *ctx);
  EXPECT_EQ(bindings.column_types,
            (std::vector<DataType>{DataType::kI16, DataType::kI8,
                                   DataType::kI16, DataType::kI32}));
  auto translate = [&](const TranslatorOptions& options) {
    GeneratedPipeline gen = GeneratePipeline(spec, bindings);
    return TranslateToBytecode(*gen.mod->module().getFunction("worker"),
                               RuntimeRegistry::Global(), options);
  };
  BcProgram fused = translate({});
  const std::string disasm = fused.Disassemble();
  for (const char* sext : {" sext_i8_i64", " sext_i16_i64", " sext_i32_i64"}) {
    EXPECT_EQ(disasm.find(sext), std::string::npos) << sext << "\n" << disasm;
  }
  for (const char* widening : {"load_idx_sext_i8_i64", "load_idx_sext_i16_i64",
                               "load_idx_sext_i32_i64"}) {
    EXPECT_NE(disasm.find(widening), std::string::npos) << widening;
  }
  EXPECT_NE(disasm.find("br_load_sext_i16_slt_i64_imm"), std::string::npos);
  EXPECT_GE(fused.fused_load_cmp_branches, 1u);

  TranslatorOptions unfused_options;
  unfused_options.fuse_macro_ops = false;
  const std::string unfused = translate(unfused_options).Disassemble();
  for (const char* sext : {" sext_i8_i64", " sext_i16_i64", " sext_i32_i64"}) {
    EXPECT_NE(unfused.find(sext), std::string::npos) << sext;
  }
}

// Every base-table scan of every TPC-H query widens its 8-, 16- and 32-bit
// columns inside the load: with the default translator options, no
// standalone sign extension survives in any pipeline's bytecode.
TEST_F(TpchFixtureTest, EveryQueryWidensInTheLoad) {
  int pipelines = 0;
  for (int number : ImplementedTpchQueries()) {
    QueryProgram q = BuildTpchQuery(number, catalog());
    auto ctx = q.MakeContext(&catalog());
    for (const PipelineSpec& spec : q.pipelines()) {
      if (q.table_decl(spec.source_table).base_name == nullptr) continue;
      PipelineBindings bindings = BindPipeline(q, spec, *ctx);
      GeneratedPipeline gen = GeneratePipeline(spec, bindings);
      const std::string disasm =
          TranslateToBytecode(*gen.mod->module().getFunction("worker"),
                              RuntimeRegistry::Global(), {})
              .Disassemble();
      for (const char* sext :
           {" sext_i8_i64", " sext_i16_i64", " sext_i32_i64"}) {
        EXPECT_EQ(disasm.find(sext), std::string::npos)
            << "Q" << number << " " << spec.name << ": " << sext;
      }
      ++pipelines;
    }
  }
  EXPECT_GT(pipelines, 13);
}

TEST_F(TpchFixtureTest, GeneratedQueryScalesInstructions) {
  QueryEngine engine(&catalog(), 1);
  QueryProgram small = BuildGeneratedAggregateQuery(10, catalog());
  QueryProgram large = BuildGeneratedAggregateQuery(100, catalog());
  auto small_costs = engine.MeasureCompileCosts(small, false, false);
  auto large_costs = engine.MeasureCompileCosts(large, false, false);
  ASSERT_EQ(small_costs.size(), 1u);
  ASSERT_EQ(large_costs.size(), 1u);
  // ~10x the aggregates -> ~10x the instructions.
  EXPECT_GT(large_costs[0].instructions, 8 * small_costs[0].instructions);
}

TEST_F(TpchFixtureTest, GeneratedQueryAllEnginesAgree) {
  QueryEngine engine(&catalog(), 2);
  QueryRunOptions volcano;
  volcano.engine = EngineKind::kVolcano;
  QueryProgram ref_q = BuildGeneratedAggregateQuery(25, catalog());
  auto reference = engine.Run(ref_q, volcano).rows;

  QueryProgram vm_q = BuildGeneratedAggregateQuery(25, catalog());
  QueryRunOptions vm;
  vm.strategy = ExecutionStrategy::kBytecode;
  EXPECT_EQ(engine.Run(vm_q, vm).rows, reference);

  QueryProgram jit_q = BuildGeneratedAggregateQuery(25, catalog());
  QueryRunOptions jit;
  jit.strategy = ExecutionStrategy::kUnoptimized;
  EXPECT_EQ(engine.Run(jit_q, jit).rows, reference);
}

TEST_F(TpchFixtureTest, RegisterAllocationAblationOnRealQuery) {
  // §IV-C: loop-aware must produce a (much) smaller register file than
  // no-reuse on a real large worker function.
  QueryEngine engine(&catalog(), 1);
  QueryProgram big = BuildGeneratedAggregateQuery(200, catalog());
  TranslatorOptions loop_aware;
  auto aware = engine.MeasureCompileCosts(big, false, false, loop_aware);
  QueryProgram big2 = BuildGeneratedAggregateQuery(200, catalog());
  TranslatorOptions no_reuse;
  no_reuse.strategy = RegAllocStrategy::kNoReuse;
  auto noreuse = engine.MeasureCompileCosts(big2, false, false, no_reuse);
  EXPECT_LT(aware[0].register_file_bytes * 3, noreuse[0].register_file_bytes);
}

}  // namespace
}  // namespace aqe
