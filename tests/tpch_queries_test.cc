#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <map>
#include <ostream>
#include <string>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "cache/fingerprint.h"
#include "codegen/query_compiler.h"
#include "common/fixed_point.h"
#include "engine/query_engine.h"
#include "queries/generated_queries.h"
#include "queries/handwritten_q1.h"
#include "queries/tpch_queries.h"
#include "runtime/runtime_registry.h"
#include "tpch/tpch_gen.h"
#include "tpch/tpch_schema.h"
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
    four_workers_ = new QueryEngine(catalog_, /*num_threads=*/4);
  }
  static void TearDownTestSuite() {
    delete four_workers_;
    delete engine_;
    delete catalog_;
  }
  static Catalog* catalog_;
  static QueryEngine* engine_;
  static QueryEngine* four_workers_;
};

Catalog* TpchQueryTest::catalog_ = nullptr;
QueryEngine* TpchQueryTest::engine_ = nullptr;
QueryEngine* TpchQueryTest::four_workers_ = nullptr;

/// Every engine and execution mode must produce identical rows for every
/// query — this is the end-to-end guarantee behind "no work is lost when
/// switching between execution modes".
struct EngineConfig {
  EngineKind engine;
  ExecutionStrategy strategy;
  const char* label;

  QueryRunOptions Options() const {
    QueryRunOptions options;
    options.engine = engine;
    options.strategy = strategy;
    return options;
  }
};

/// The reference every engine is compared against: volcano on one thread,
/// scanning every row, so no parallel merge or seal and no pruning path
/// can make it agree with a wrong run.
QueryRunOptions ReferenceOptions() {
  QueryRunOptions options;
  options.engine = EngineKind::kVolcano;
  options.single_threaded = true;
  options.scan_pruning = false;
  return options;
}

// Every engine a query runs on with default options (on every worker,
// pruned), compared against the reference. Bytecode runs on the build's
// dispatch loop; VmDispatchCountsMatchPinned runs every query through the
// counting switch loop.
constexpr EngineConfig kEngineConfigs[] = {
    {EngineKind::kVolcano, ExecutionStrategy::kBytecode, "volcano"},
    {EngineKind::kVectorized, ExecutionStrategy::kBytecode, "vectorized"},
    {EngineKind::kCompiled, ExecutionStrategy::kBytecode, "vm"},
    {EngineKind::kCompiled, ExecutionStrategy::kUnoptimized, "jit-unopt"},
    {EngineKind::kCompiled, ExecutionStrategy::kAdaptive, "adaptive"},
};

// Each config runs on the 2-worker engine; the baselines run on the 4-worker
// engine too.
TEST_P(TpchQueryTest, AllEnginesAgree) {
  const int number = GetParam();
  QueryProgram ref_program = BuildTpchQuery(number, *catalog_);
  auto reference = engine_->Run(ref_program, ReferenceOptions()).rows;
  ASSERT_FALSE(reference.empty()) << "q" << number << " has empty result";

  for (const EngineConfig& config : kEngineConfigs) {
    QueryProgram program = BuildTpchQuery(number, *catalog_);
    auto rows = engine_->Run(program, config.Options()).rows;
    EXPECT_EQ(rows, reference) << "q" << number << " " << config.label;
    if (config.engine == EngineKind::kCompiled) continue;
    QueryProgram again = BuildTpchQuery(number, *catalog_);
    EXPECT_EQ(four_workers_->Run(again, config.Options()).rows, reference)
        << "q" << number << " " << config.label << " on 4 workers";
  }
}

/// FNV-1a over a result: its row count, then each row's width and values.
uint64_t RowsDigest(const std::vector<std::vector<int64_t>>& rows) {
  uint64_t h = 0xCBF29CE484222325ULL;
  const auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((v >> (8 * i)) & 0xFF)) * 0x100000001B3ULL;
    }
  };
  mix(rows.size());
  for (const std::vector<int64_t>& row : rows) {
    mix(row.size());
    for (int64_t v : row) mix(static_cast<uint64_t>(v));
  }
  return h;
}

// Every engine runs the same engine steps, so AllEnginesAgree cannot catch
// a wrong step. These digests of each query's rows at SF 0.01 were taken
// from the hand-written C++ steps that the typed steps replaced.
constexpr std::pair<int, uint64_t> kPinnedDigests[] = {
    {1, 0x141921c9a457eb50ULL},  {3, 0xe4da24b7bc91066aULL},
    {4, 0x3fb7fc9ccf50e5d6ULL},  {5, 0xe0f9b6f08e62c5d6ULL},
    {6, 0xc21e05eb018343e2ULL},  {7, 0xa177c9eccaa8011cULL},
    {9, 0x8c2455d87ef7d423ULL},  {10, 0x380e3f0f74eb4fbdULL},
    {11, 0x8d6d857d6f80f723ULL}, {12, 0xf17572256d952f19ULL},
    {14, 0x8eeb2d66146d50b2ULL}, {18, 0x06e398c8a8a8d513ULL},
    {19, 0x173987512818561cULL},
    {-8, 0x00a6a7abe2881d23ULL},  // -8: generated_8
};

uint64_t PinnedDigest(int number) {
  for (const auto& [n, digest] : kPinnedDigests) {
    if (n == number) return digest;
  }
  ADD_FAILURE() << "no pinned digest for q" << number;
  return 0;
}

// Volcano and 2-worker adaptive must both reproduce the pinned digests.
TEST_F(TpchQueryTest, RowsMatchPinnedDigest) {
  QueryRunOptions volcano;
  volcano.engine = EngineKind::kVolcano;
  for (const auto& [number, digest] : kPinnedDigests) {
    for (const QueryRunOptions& options : {volcano, QueryRunOptions{}}) {
      QueryProgram program =
          number > 0 ? BuildTpchQuery(number, *catalog_)
                     : BuildGeneratedAggregateQuery(-number, *catalog_);
      const uint64_t actual = RowsDigest(engine_->Run(program, options).rows);
      EXPECT_EQ(actual, digest) << program.name() << " on "
                                << EngineKindName(options.engine) << std::hex
                                << ": 0x" << actual;
    }
  }
}

// The morsel schedule end to end: the morsels each query claims on the
// 2-worker engine (adaptive, artifact cache off, pruning on). A boundary is
// a pure function of its shard's cursor, so the count does not depend on
// which worker claims what; a change to the morsel queues or the
// controller must not move it. Pinned from 20 identical runs.
TEST_F(TpchQueryTest, MorselCountsMatchPinned) {
  const std::pair<int, uint64_t> pinned[] = {
      {1, 36},  {3, 54},  {4, 52},  {5, 60},  {6, 36},  {7, 56}, {9, 64},
      {10, 54}, {11, 19}, {12, 52}, {14, 38}, {18, 52}, {19, 38},
  };
  QueryRunOptions options;
  options.use_artifact_cache = false;
  for (const auto& [number, morsels] : pinned) {
    QueryProgram program = BuildTpchQuery(number, *catalog_);
    const uint64_t before =
        engine_->ObservabilitySnapshot().counter("exec.morsels");
    engine_->Run(program, options);
    EXPECT_EQ(engine_->ObservabilitySnapshot().counter("exec.morsels") - before,
              morsels)
        << program.name();
  }
}

/// What one pipeline ran: its scheduled tuples, its modes' sums, and its
/// scan's pruning decision.
struct PipelineFacts {
  uint64_t tuples = 0;
  uint64_t mode_tuples = 0;
  uint64_t morsels = 0;
  bool analyzed = false;
  AccessPathKind primary_path = AccessPathKind::kFullScan;
  uint64_t selected_rows = 0;

  auto Tie() const {
    return std::tie(tuples, mode_tuples, morsels, analyzed, primary_path,
                    selected_rows);
  }
  bool operator==(const PipelineFacts& other) const {
    return Tie() == other.Tie();
  }
};

std::ostream& operator<<(std::ostream& os, const PipelineFacts& facts) {
  return os << "{tuples " << facts.tuples << ", mode tuples "
            << facts.mode_tuples << ", morsels " << facts.morsels
            << ", analyzed " << facts.analyzed << ", path "
            << AccessPathKindName(facts.primary_path) << ", selected "
            << facts.selected_rows << "}";
}

// Every engine runs its pipelines as morsel workers on a PipelineRun, and
// the engine kind picks only the worker: threads and pruning mean the same
// on every engine. A morsel boundary is a pure function of its shard's
// cursor over the scan's domain, whoever claims it, so for every pipeline
// every engine schedules the same tuples in the same morsels and reports
// the same pruning decision, and its modes cover each tuple once. Two
// passes: single-threaded and unpruned on the 2-worker engine, then on a
// 4-worker engine with pruning on. Naive-IR interpretation is slow, so it
// runs Q6 in both passes and Q3 in the second.
TEST_F(TpchQueryTest, EveryEngineRunsTheSameMorsels) {
  QueryRunOptions single;
  single.single_threaded = true;
  single.scan_pruning = false;
  const struct {
    const char* label;
    QueryEngine* engine;
    QueryRunOptions options;
    std::vector<int> naive_ir;
  } passes[] = {
      {"single-threaded, unpruned", engine_, single, {6}},
      {"4 workers, pruned", four_workers_, QueryRunOptions{}, {3, 6}},
  };
  for (const auto& pass : passes) {
    QueryRunOptions options = pass.options;
    options.strategy = ExecutionStrategy::kBytecode;
    options.use_artifact_cache = false;
    bool pruned = false;
    // Runs query `number` on `engine`; returns each pipeline's facts.
    const auto pipeline_facts = [&](int number, EngineKind engine) {
      options.engine = engine;
      QueryProgram program = BuildTpchQuery(number, *catalog_);
      const QueryRunResult result = pass.engine->Run(program, options);
      std::vector<PipelineFacts> facts;
      for (const PipelineReport& pp : result.pipelines) {
        PipelineFacts f;
        f.tuples = pp.tuples;
        for (const ModeSliceProfile& mode : pp.modes) {
          f.mode_tuples += mode.tuples;
          f.morsels += mode.morsels;
        }
        f.analyzed = pp.pruning.analyzed;
        f.primary_path = pp.pruning.primary_path;
        f.selected_rows = pp.pruning.selected_rows;
        EXPECT_EQ(f.mode_tuples, f.tuples)
            << program.name() << " " << pp.name << " on "
            << EngineKindName(engine) << ", " << pass.label;
        pruned |= f.analyzed && f.selected_rows < pp.pruning.table_rows;
        facts.push_back(f);
      }
      return facts;
    };
    for (int number : ImplementedTpchQueries()) {
      const std::vector<PipelineFacts> compiled =
          pipeline_facts(number, EngineKind::kCompiled);
      ASSERT_FALSE(compiled.empty()) << "q" << number;
      for (EngineKind engine : {EngineKind::kVolcano, EngineKind::kVectorized,
                                EngineKind::kNaiveIr}) {
        if (engine == EngineKind::kNaiveIr &&
            std::count(pass.naive_ir.begin(), pass.naive_ir.end(), number) ==
                0) {
          continue;
        }
        EXPECT_EQ(pipeline_facts(number, engine), compiled)
            << "q" << number << " on " << EngineKindName(engine) << ", "
            << pass.label;
      }
    }
    // A scan really pruned in the pruned pass (Q11's nation scan selects
    // one of 25 rows), so its check is not vacuous.
    EXPECT_EQ(pruned, pass.options.scan_pruning) << pass.label;
  }
}

// Each query's tracked peak memory at SF 0.01: single-threaded bytecode
// with the artifact cache off, so every allocation happens on one thread
// in one order. The peak counts every table, run, arena page, directory
// and output chunk the query held at once; a change to how the runtime
// allocates or charges them shows here.
TEST_F(TpchQueryTest, PeakMemoryMatchesPinned) {
  const std::pair<int, uint64_t> pinned[] = {
      {1, 20032},   {3, 155904},  {4, 107520}, {5, 67904},  {6, 5184},
      {7, 81088},   {9, 640512},  {10, 168960}, {11, 91392}, {12, 91136},
      {14, 71232},  {18, 401408}, {19, 103488},
  };
  QueryRunOptions options;
  options.strategy = ExecutionStrategy::kBytecode;
  options.single_threaded = true;
  options.use_artifact_cache = false;
  for (const auto& [number, peak] : pinned) {
    QueryProgram program = BuildTpchQuery(number, *catalog_);
    EXPECT_EQ(engine_->Run(program, options).peak_memory_bytes, peak)
        << program.name();
  }
}

/// The VM's exact dispatch count so far: the sum of its per-opcode counts.
uint64_t VmDispatches(const QueryEngine& engine) {
  uint64_t total = 0;
  for (const auto& [name, count] : engine.ObservabilitySnapshot().counters) {
    if (name.rfind("vm.op.", 0) == 0) total += count;
  }
  return total;
}

// The interpreter's work end to end: the exact number of VM dispatches each
// query makes at SF 0.01, single-threaded bytecode, counted with opcode
// profiling on. The count does not depend on the host, so a change to
// codegen, the translator or the morsel schedule that moves it shows here.
// Counting runs the switch loop, so the rows, checked against their pinned
// digests, cover the switch handlers on every query whatever loop the build
// runs.
TEST_F(TpchQueryTest, VmDispatchCountsMatchPinned) {
  const std::pair<int, uint64_t> pinned[] = {
      {1, 3765164},  {3, 1018295},  {4, 868189},   {5, 1052935},
      {6, 789996},   {7, 1159010},  {9, 1558761},  {10, 973765},
      {11, 235926},  {12, 1212847}, {14, 855844},  {18, 1166529},
      {19, 1418968},
  };
  QueryRunOptions options;
  options.strategy = ExecutionStrategy::kBytecode;
  options.single_threaded = true;
  options.use_artifact_cache = false;
  engine_->set_vm_opcode_profiling(true);
  for (const auto& [number, dispatches] : pinned) {
    QueryProgram program = BuildTpchQuery(number, *catalog_);
    const uint64_t before = VmDispatches(*engine_);
    const QueryRunResult result = engine_->Run(program, options);
    EXPECT_EQ(VmDispatches(*engine_) - before, dispatches) << program.name();
    EXPECT_EQ(RowsDigest(result.rows), PinnedDigest(number)) << program.name();
  }
  engine_->set_vm_opcode_profiling(false);
}

/// The translator option sets the benches run: the fusion tiers of
/// bench/ablation_fusion and bench/micro_vm_dispatch, then each register
/// allocation strategy of bench/ablation_regalloc with default fusion.
struct TranslatorConfig {
  const char* label;
  TranslatorOptions options;
};

std::vector<TranslatorConfig> TranslatorConfigs() {
  const auto fusion = [](bool macro, bool cmp, bool load, bool chains) {
    TranslatorOptions options;
    options.fuse_macro_ops = macro;
    options.fuse_cmp_branches = cmp;
    options.fuse_load_cmp_branches = load;
    options.fuse_branch_chains = chains;
    return options;
  };
  const auto strategy = [](RegAllocStrategy s) {
    TranslatorOptions options;
    options.strategy = s;
    return options;
  };
  return {
      {"fusion off", fusion(false, false, false, false)},
      {"macro", fusion(true, false, false, false)},
      {"macro+cmpbr", fusion(true, true, false, true)},
      {"fusion on", fusion(true, true, true, true)},
      {"no-reuse", strategy(RegAllocStrategy::kNoReuse)},
      {"window", strategy(RegAllocStrategy::kWindow)},
      {"loop-aware", strategy(RegAllocStrategy::kLoopAware)},
  };
}

/// Mixes a hash of everything a translated program runs with into `h`
/// (FNV-1a): each instruction's opcode, operands and immediate, the
/// register-file size, the constant pool, the argument slots and the four
/// fusion counters. A literal-pool entry is a callee address, which moves
/// between processes, so it is hashed by its runtime-registry name.
uint64_t MixBytecode(const BcProgram& program, uint64_t h) {
  const auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((v >> (8 * i)) & 0xFF)) * 0x100000001B3ULL;
    }
  };
  mix(program.code.size());
  for (const BcInstruction& inst : program.code) {
    mix(inst.op);
    mix(inst.a1);
    mix(inst.a2);
    mix(inst.a3);
    mix(inst.lit);
  }
  mix(program.register_file_size);
  mix(program.constant_pool.size());
  for (const BcProgram::PoolEntry& entry : program.constant_pool) {
    mix(entry.slot);
    mix(entry.value);
  }
  mix(program.literal_pool.size());
  for (uint64_t address : program.literal_pool) {
    const char* name = nullptr;
    for (const auto& [n, entry] : RuntimeRegistry::Global().entries()) {
      if (reinterpret_cast<uint64_t>(entry.address) == address) {
        name = n.c_str();
      }
    }
    EXPECT_NE(name, nullptr) << "literal is not a registered callee";
    for (const char* c = name != nullptr ? name : ""; *c != '\0'; ++c) {
      mix(static_cast<uint8_t>(*c));
    }
    mix(0);
  }
  mix(program.arg_offsets.size());
  for (uint32_t slot : program.arg_offsets) mix(slot);
  mix(program.source_instructions);
  mix(program.fused_instructions);
  mix(program.fused_cmp_branches);
  mix(program.fused_load_cmp_branches);
  return h;
}

/// The hash of every pipeline of `program` translated under `options`, in
/// pipeline order.
uint64_t BytecodeHash(const QueryProgram& program, const Catalog& catalog,
                      const TranslatorOptions& options, uint64_t h) {
  auto ctx = program.MakeContext(&catalog);
  for (const PipelineSpec& spec : program.pipelines()) {
    PipelineBindings bindings = BindPipeline(program, spec, *ctx);
    GeneratedPipeline gen =
        GeneratePipeline(spec, bindings, LiteralForm::kBound);
    h = MixBytecode(
        TranslateToBytecode(*gen.mod->module().getFunction("worker"),
                            RuntimeRegistry::Global(), options),
        h);
  }
  return h;
}

// The translator's output, instruction for instruction: one hash per TPC-H
// query's bytecode under the default options, one over every query per
// option set the benches use, and the §V-E generated query at N = 50. A
// change to how the translator selects or emits must leave every program
// as it was; a change to codegen shows here too.
TEST_F(TpchQueryTest, BytecodeMatchesPinned) {
  constexpr uint64_t kSeed = 0xCBF29CE484222325ULL;
  const std::pair<int, uint64_t> per_query[] = {
      {1, 0xf3d7910dcd046317ULL},  {3, 0x9008ee9d47313c63ULL},
      {4, 0x004d5593ebcd1ac6ULL},  {5, 0xef57e34b8b82b406ULL},
      {6, 0x80bb409eb63c6178ULL},  {7, 0xc0792017a1bfb1acULL},
      {9, 0x14ff2d62f92c2c07ULL},  {10, 0x2dad9b2ee8f50336ULL},
      {11, 0x209b8b34dfa36776ULL}, {12, 0x655ac49ba6a9d3f7ULL},
      {14, 0x55019fbc7aa27caaULL}, {18, 0x8bdc9fc1819ae187ULL},
      {19, 0x94727c6514082ddaULL},
  };
  for (const auto& [number, pin] : per_query) {
    QueryProgram program = BuildTpchQuery(number, *catalog_);
    const uint64_t h = BytecodeHash(program, *catalog_, {}, kSeed);
    EXPECT_EQ(h, pin) << program.name() << std::hex << ": 0x" << h;
  }
  const std::pair<const char*, uint64_t> per_config[] = {
      {"fusion off", 0x0dfc84ca1bc38f60ULL},
      {"macro", 0xc5f60027186429a1ULL},
      {"macro+cmpbr", 0x2a2df8a39b09f811ULL},
      {"fusion on", 0xae4ac865ee57006fULL},
      {"no-reuse", 0x317f795817831f63ULL},
      {"window", 0xae4ac865ee57006fULL},
      {"loop-aware", 0xae4ac865ee57006fULL},
  };
  const std::vector<TranslatorConfig> configs = TranslatorConfigs();
  ASSERT_EQ(configs.size(), std::size(per_config));
  for (size_t c = 0; c < configs.size(); ++c) {
    ASSERT_STREQ(configs[c].label, per_config[c].first);
    uint64_t h = kSeed;
    for (int number : ImplementedTpchQueries()) {
      h = BytecodeHash(BuildTpchQuery(number, *catalog_), *catalog_,
                       configs[c].options, h);
    }
    EXPECT_EQ(h, per_config[c].second)
        << configs[c].label << std::hex << ": 0x" << h;
  }
  const uint64_t generated = BytecodeHash(
      BuildGeneratedAggregateQuery(50, *catalog_), *catalog_, {}, kSeed);
  EXPECT_EQ(generated, 0x134b5902664d6ef3ULL)
      << "generated_50" << std::hex << ": 0x" << generated;
}

// Every translator option set the benches use returns each query's pinned
// rows: single-threaded bytecode, artifact cache off, so each run
// translates under its own options.
TEST_F(TpchQueryTest, EveryTranslatorOptionSetMatchesPinnedDigest) {
  for (const TranslatorConfig& config : TranslatorConfigs()) {
    QueryRunOptions options;
    options.strategy = ExecutionStrategy::kBytecode;
    options.single_threaded = true;
    options.use_artifact_cache = false;
    options.translator = config.options;
    for (const auto& [number, digest] : kPinnedDigests) {
      QueryProgram program =
          number > 0 ? BuildTpchQuery(number, *catalog_)
                     : BuildGeneratedAggregateQuery(-number, *catalog_);
      const uint64_t actual = RowsDigest(engine_->Run(program, options).rows);
      EXPECT_EQ(actual, digest) << program.name() << " under "
                                << config.label << std::hex << ": 0x"
                                << actual;
    }
  }
}

// The plans themselves: each builder's program at SF 0.01, fingerprinted.
// A change to how plans are written must leave the generated code alone,
// so it must not move the structural hash, the constants (with each
// pipeline's slice of them) or the pruning key.
TEST_F(TpchQueryTest, PlansMatchPinnedFingerprints) {
  struct Pin {
    uint64_t structural_hash;
    uint64_t constants;
    uint64_t pruning_key;
  };
  std::vector<std::pair<QueryProgram, Pin>> plans;
  const std::pair<int, Pin> pinned[] = {
      {1,
       {0xca25c473fb3cd6a5ULL, 0xf14967f6172ae225ULL, 0xc3817c016ba4ff30ULL}},
      {3,
       {0xfe2a9ee29a66c492ULL, 0x319e468f19a381ccULL, 0xc3817c016ba4ff30ULL}},
      {4,
       {0x3b576b3b16a36bcaULL, 0xc84a9f19093f8343ULL, 0xc3817c016ba4ff30ULL}},
      {5,
       {0x65123da35740c4e2ULL, 0xcd16665b02bd2aefULL, 0xc3817c016ba4ff30ULL}},
      {6,
       {0x5d007562b250d9e9ULL, 0x8f17087ae2cefc5aULL, 0xc3817c016ba4ff30ULL}},
      {7,
       {0x2d792216097f0892ULL, 0x6248d66fe2e1bc8cULL, 0xc3817c016ba4ff30ULL}},
      {9,
       {0xbd3cf9bcb3975af5ULL, 0x5cb440dc254ea1b7ULL, 0x1d80474f09629f1fULL}},
      {10,
       {0xa9a450867d71c4c5ULL, 0xd52b25e2a5e5360aULL, 0xc3817c016ba4ff30ULL}},
      {11,
       {0x081a245382c7b146ULL, 0x7fecc7eaf59d265fULL, 0xc3817c016ba4ff30ULL}},
      {12,
       {0xbec16fe844cec543ULL, 0x0788f44fb59ce5cbULL, 0xc3817c016ba4ff30ULL}},
      {14,
       {0x31e3118118f45e61ULL, 0x7adbc9c5b3938d80ULL, 0xc3817c016ba4ff30ULL}},
      {18,
       {0xb40d4f436f4b3cc2ULL, 0xa778165886276b69ULL, 0xc3817c016ba4ff30ULL}},
      {19,
       {0xacc03c614eb02d26ULL, 0x27b48fbe9ed2dcd8ULL, 0x66fe3eb97597edb4ULL}},
  };
  for (const auto& [number, pin] : pinned) {
    plans.emplace_back(BuildTpchQuery(number, *catalog_), pin);
  }
  TpchQ6Literals q6 = DefaultQ6Literals();
  q6.ship_date_lo += 365;
  q6.ship_date_hi += 365;
  q6.discount_lo = 2;
  q6.discount_hi = 4;
  q6.quantity_limit = 2500;
  plans.emplace_back(BuildTpchQ6Variant(*catalog_, q6),
                     Pin{0x5d007562b250d9e9ULL,
                         0xec82207d3f8f94c1ULL,
                         0xc3817c016ba4ff30ULL});
  plans.emplace_back(BuildTpchQ14Variant(*catalog_, "%BRASS"),
                     Pin{0xb21accb16f48771aULL,
                         0xb224a7ee57019043ULL,
                         0x1d80474f09629f1fULL});
  plans.emplace_back(BuildTpchQ18Variant(*catalog_, 301),
                     Pin{0xb40d4f436f4b3cc2ULL,
                         0xfd6e2762bc700215ULL,
                         0xc3817c016ba4ff30ULL});
  for (const auto& [program, pin] : plans) {
    const PlanFingerprint fp = FingerprintProgram(program);
    // The constants and the slice bounds as two rows of one digest.
    std::vector<int64_t> constants(fp.constants.begin(), fp.constants.end());
    std::vector<int64_t> slices;
    for (const auto& [begin, end] : fp.pipeline_constants) {
      slices.push_back(begin);
      slices.push_back(end);
    }
    const uint64_t constants_digest = RowsDigest({constants, slices});
    EXPECT_EQ(fp.structural_hash, pin.structural_hash)
        << program.name() << std::hex << ": 0x" << fp.structural_hash;
    EXPECT_EQ(constants_digest, pin.constants)
        << program.name() << std::hex << ": 0x" << constants_digest;
    EXPECT_EQ(fp.pruning_key, pin.pruning_key)
        << program.name() << std::hex << ": 0x" << fp.pruning_key;
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

using Rows = std::vector<std::vector<int64_t>>;

int64_t Value(const Table& table, const char* column, uint64_t row) {
  return table.column(column).GetAsI64(row);
}

std::string DictString(const Table& table, const char* column,
                       uint64_t row) {
  std::string buffer;
  return std::string(table.dictionary(table.ColumnIndex(column))
                         .Get(static_cast<int32_t>(Value(table, column, row)),
                              &buffer));
}

/// TPC-H Q4 evaluated straight from its SQL with hash maps, independent of
/// the plan builder:
///   SELECT o_orderpriority, count(*) FROM orders
///   WHERE o_orderdate >= '1993-07-01' AND o_orderdate < '1993-10-01'
///     AND EXISTS (SELECT * FROM lineitem WHERE l_orderkey = o_orderkey
///                 AND l_commitdate < l_receiptdate)
///   GROUP BY o_orderpriority ORDER BY o_orderpriority
/// Rows are {priority dictionary code, count}.
Rows OracleQ4(const Catalog& catalog) {
  const Table& lineitem = *catalog.GetTable("lineitem");
  const Table& orders = *catalog.GetTable("orders");
  std::unordered_set<int64_t> late_orders;
  for (uint64_t r = 0; r < lineitem.num_rows(); ++r) {
    if (Value(lineitem, "l_commitdate", r) <
        Value(lineitem, "l_receiptdate", r)) {
      late_orders.insert(Value(lineitem, "l_orderkey", r));
    }
  }
  const int64_t lo = tpch::DateToDays(1993, 7, 1);
  const int64_t hi = tpch::DateToDays(1993, 10, 1);
  std::map<std::string, std::pair<int64_t, int64_t>> by_priority;
  for (uint64_t r = 0; r < orders.num_rows(); ++r) {
    const int64_t date = Value(orders, "o_orderdate", r);
    if (date < lo || date >= hi ||
        late_orders.count(Value(orders, "o_orderkey", r)) == 0) {
      continue;
    }
    auto& [code, count] =
        by_priority[DictString(orders, "o_orderpriority", r)];
    code = Value(orders, "o_orderpriority", r);
    ++count;
  }
  Rows rows;
  for (const auto& [name, code_count] : by_priority) {
    rows.push_back({code_count.first, code_count.second});
  }
  return rows;
}

/// TPC-H Q9 as this repo defines it (p_type LIKE '%BRASS%' stands in for
/// p_name LIKE '%green%'; the nation is reported by key), evaluated
/// straight from its SQL with hash maps:
///   SELECT s_nationkey, extract(year FROM o_orderdate) AS o_year,
///          sum(l_extendedprice * (1 - l_discount)
///              - ps_supplycost * l_quantity)
///   FROM part, supplier, lineitem, partsupp, orders
///   WHERE s_suppkey = l_suppkey AND ps_suppkey = l_suppkey
///     AND ps_partkey = l_partkey AND p_partkey = l_partkey
///     AND o_orderkey = l_orderkey AND p_type LIKE '%BRASS%'
///   GROUP BY s_nationkey, o_year ORDER BY s_nationkey, o_year DESC
/// Rows are {nation key, year, profit at scale 1e4}.
Rows OracleQ9(const Catalog& catalog) {
  const Table& part = *catalog.GetTable("part");
  const Table& supplier = *catalog.GetTable("supplier");
  const Table& partsupp = *catalog.GetTable("partsupp");
  const Table& orders = *catalog.GetTable("orders");
  const Table& lineitem = *catalog.GetTable("lineitem");
  std::unordered_set<int64_t> brass_parts;
  for (uint64_t r = 0; r < part.num_rows(); ++r) {
    if (DictString(part, "p_type", r).find("BRASS") != std::string::npos) {
      brass_parts.insert(Value(part, "p_partkey", r));
    }
  }
  std::unordered_map<int64_t, int64_t> supplier_nation;
  for (uint64_t r = 0; r < supplier.num_rows(); ++r) {
    supplier_nation[Value(supplier, "s_suppkey", r)] =
        Value(supplier, "s_nationkey", r);
  }
  std::map<std::pair<int64_t, int64_t>, int64_t> supply_cost;
  for (uint64_t r = 0; r < partsupp.num_rows(); ++r) {
    supply_cost[{Value(partsupp, "ps_partkey", r),
                 Value(partsupp, "ps_suppkey", r)}] =
        Value(partsupp, "ps_supplycost", r);
  }
  std::unordered_map<int64_t, int64_t> order_date;
  for (uint64_t r = 0; r < orders.num_rows(); ++r) {
    order_date[Value(orders, "o_orderkey", r)] =
        Value(orders, "o_orderdate", r);
  }
  // Keyed (nation, -year) so the map iterates in ORDER BY order.
  std::map<std::pair<int64_t, int64_t>, int64_t> profit;
  for (uint64_t r = 0; r < lineitem.num_rows(); ++r) {
    const int64_t partkey = Value(lineitem, "l_partkey", r);
    const int64_t suppkey = Value(lineitem, "l_suppkey", r);
    if (brass_parts.count(partkey) == 0) continue;
    auto nation = supplier_nation.find(suppkey);
    auto cost = supply_cost.find({partkey, suppkey});
    auto date = order_date.find(Value(lineitem, "l_orderkey", r));
    if (nation == supplier_nation.end() || cost == supply_cost.end() ||
        date == order_date.end()) {
      continue;
    }
    int year = 0, month = 0, day = 0;
    tpch::DaysToDate(static_cast<int32_t>(date->second), &year, &month, &day);
    profit[{nation->second, -year}] +=
        Value(lineitem, "l_extendedprice", r) *
            (100 - Value(lineitem, "l_discount", r)) -
        cost->second * Value(lineitem, "l_quantity", r);
  }
  Rows rows;
  for (const auto& [group, sum] : profit) {
    rows.push_back({group.first, -group.second, sum});
  }
  return rows;
}

/// TPC-H Q12 evaluated straight from its SQL with hash maps:
///   SELECT l_shipmode,
///     sum(CASE WHEN o_orderpriority = '1-URGENT'
///               OR o_orderpriority = '2-HIGH' THEN 1 ELSE 0 END),
///     sum(CASE WHEN o_orderpriority <> '1-URGENT'
///              AND o_orderpriority <> '2-HIGH' THEN 1 ELSE 0 END)
///   FROM orders, lineitem
///   WHERE o_orderkey = l_orderkey AND l_shipmode IN ('MAIL', 'SHIP')
///     AND l_commitdate < l_receiptdate AND l_shipdate < l_commitdate
///     AND l_receiptdate >= '1994-01-01' AND l_receiptdate < '1995-01-01'
///   GROUP BY l_shipmode ORDER BY l_shipmode
/// Rows are {shipmode dictionary code, high line count, low line count}.
Rows OracleQ12(const Catalog& catalog) {
  const Table& orders = *catalog.GetTable("orders");
  const Table& lineitem = *catalog.GetTable("lineitem");
  std::unordered_map<int64_t, std::string> priority;
  for (uint64_t r = 0; r < orders.num_rows(); ++r) {
    priority[Value(orders, "o_orderkey", r)] =
        DictString(orders, "o_orderpriority", r);
  }
  const int64_t lo = tpch::DateToDays(1994, 1, 1);
  const int64_t hi = tpch::DateToDays(1995, 1, 1);
  std::map<std::string, std::vector<int64_t>> by_mode;
  for (uint64_t r = 0; r < lineitem.num_rows(); ++r) {
    const std::string mode = DictString(lineitem, "l_shipmode", r);
    const int64_t commit = Value(lineitem, "l_commitdate", r);
    const int64_t receipt = Value(lineitem, "l_receiptdate", r);
    if ((mode != "MAIL" && mode != "SHIP") || commit >= receipt ||
        Value(lineitem, "l_shipdate", r) >= commit || receipt < lo ||
        receipt >= hi) {
      continue;
    }
    auto order = priority.find(Value(lineitem, "l_orderkey", r));
    if (order == priority.end()) continue;
    auto [it, fresh] = by_mode.try_emplace(
        std::string(mode),
        std::vector<int64_t>{Value(lineitem, "l_shipmode", r), 0, 0});
    const bool high =
        order->second == "1-URGENT" || order->second == "2-HIGH";
    ++it->second[high ? 1 : 2];
  }
  Rows rows;
  for (const auto& [mode, row] : by_mode) rows.push_back(row);
  return rows;
}

/// TPC-H Q18 as this repo defines it (the customer is reported by key, so
/// the customer join drops out), evaluated straight from its SQL:
///   SELECT o_custkey, o_orderkey, o_orderdate, o_totalprice,
///          sum(l_quantity)
///   FROM orders, lineitem
///   WHERE o_orderkey IN (SELECT l_orderkey FROM lineitem
///                        GROUP BY l_orderkey HAVING sum(l_quantity) > 300)
///     AND o_orderkey = l_orderkey
///   GROUP BY o_custkey, o_orderkey, o_orderdate, o_totalprice
///   ORDER BY o_totalprice DESC, o_orderdate LIMIT 100
/// Rows are {custkey, orderkey, orderdate, totalprice, quantity}, with
/// decimals at scale 100.
Rows OracleQ18(const Catalog& catalog) {
  const Table& orders = *catalog.GetTable("orders");
  const Table& lineitem = *catalog.GetTable("lineitem");
  std::unordered_map<int64_t, int64_t> quantity;
  for (uint64_t r = 0; r < lineitem.num_rows(); ++r) {
    quantity[Value(lineitem, "l_orderkey", r)] +=
        Value(lineitem, "l_quantity", r);
  }
  Rows rows;
  for (uint64_t r = 0; r < orders.num_rows(); ++r) {
    auto sum = quantity.find(Value(orders, "o_orderkey", r));
    if (sum == quantity.end() || sum->second <= 300 * kDecimalScale) continue;
    rows.push_back({Value(orders, "o_custkey", r),
                    Value(orders, "o_orderkey", r),
                    Value(orders, "o_orderdate", r),
                    Value(orders, "o_totalprice", r), sum->second});
  }
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a[3] != b[3] ? a[3] > b[3] : a[2] < b[2];
  });
  if (rows.size() > 100) rows.resize(100);
  return rows;
}

// AllEnginesAgree compares engines running the same plan, so a wrong plan
// rewrite would pass it. Q4, Q9 and Q12 build their small side (Q4 probes
// orders from lineitem, Q9 filters partsupp by part, Q12 pre-aggregates
// its lineitems and probes them from orders), and Q18 turns its merged
// aggregation into a join table, so their rows are checked against the
// SQL evaluated directly, on every engine.
TEST_F(TpchFixtureTest, Q4AndQ9MatchSqlOracle) {
  QueryEngine engine(&catalog(), 2);
  const std::pair<int, Rows> cases[] = {{4, OracleQ4(catalog())},
                                        {9, OracleQ9(catalog())},
                                        {12, OracleQ12(catalog())},
                                        {18, OracleQ18(catalog())}};
  for (const auto& [number, expected] : cases) {
    ASSERT_FALSE(expected.empty()) << "q" << number;
    QueryProgram program = BuildTpchQuery(number, catalog());
    EXPECT_EQ(engine.Run(program, ReferenceOptions()).rows, expected)
        << "q" << number << " reference";
    for (const EngineConfig& config : kEngineConfigs) {
      QueryProgram program = BuildTpchQuery(number, catalog());
      EXPECT_EQ(engine.Run(program, config.Options()).rows, expected)
          << "q" << number << " " << config.label;
    }
    QueryRunOptions jit_opt;
    jit_opt.strategy = ExecutionStrategy::kOptimized;
    QueryProgram opt_program = BuildTpchQuery(number, catalog());
    EXPECT_EQ(engine.Run(opt_program, jit_opt).rows, expected)
        << "q" << number << " jit-opt";
  }
}

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
// load-compare-and-branch (br_load_sext_i16_*, comparing against the
// literal's register) — so no separate sign-extension dispatch survives, at
// any width.
TEST_F(TpchFixtureTest, Q6BytecodeWidensInTheLoad) {
  QueryProgram q6 = BuildTpchQuery(6, catalog());
  auto ctx = q6.MakeContext(&catalog());
  const PipelineSpec& spec = q6.pipelines()[0];
  PipelineBindings bindings = BindPipeline(q6, spec, *ctx);
  EXPECT_EQ(bindings.column_types,
            (std::vector<DataType>{DataType::kI16, DataType::kI8,
                                   DataType::kI16, DataType::kI32}));
  auto translate = [&](const TranslatorOptions& options) {
    GeneratedPipeline gen =
        GeneratePipeline(spec, bindings, LiteralForm::kBound);
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
  EXPECT_NE(disasm.find("br_load_sext_i16_slt_i64"), std::string::npos);
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
      PipelineBindings bindings = BindPipeline(q, spec, *ctx);
      GeneratedPipeline gen =
          GeneratePipeline(spec, bindings, LiteralForm::kBound);
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
  auto small_costs = engine.MeasureCompileCosts(small, false);
  auto large_costs = engine.MeasureCompileCosts(large, false);
  ASSERT_EQ(small_costs.size(), 1u);
  ASSERT_EQ(large_costs.size(), 1u);
  // ~10x the aggregates -> ~10x the instructions.
  EXPECT_GT(large_costs[0].instructions, 8 * small_costs[0].instructions);
}

TEST_F(TpchFixtureTest, GeneratedQueryAllEnginesAgree) {
  QueryEngine engine(&catalog(), 2);
  QueryProgram ref_q = BuildGeneratedAggregateQuery(25, catalog());
  auto reference = engine.Run(ref_q, ReferenceOptions()).rows;

  QueryProgram vm_q = BuildGeneratedAggregateQuery(25, catalog());
  QueryRunOptions vm;
  vm.strategy = ExecutionStrategy::kBytecode;
  EXPECT_EQ(engine.Run(vm_q, vm).rows, reference);

  QueryProgram jit_q = BuildGeneratedAggregateQuery(25, catalog());
  QueryRunOptions jit;
  jit.strategy = ExecutionStrategy::kUnoptimized;
  EXPECT_EQ(engine.Run(jit_q, jit).rows, reference);

  // The optimized pass list over the query's checked arithmetic, compiled
  // cold: up front, adaptively, and at N = 200, where a superlinear pass
  // list would dominate the test's time.
  for (ExecutionStrategy strategy :
       {ExecutionStrategy::kOptimized, ExecutionStrategy::kAdaptive}) {
    QueryProgram q = BuildGeneratedAggregateQuery(25, catalog());
    QueryRunOptions options;
    options.strategy = strategy;
    options.use_artifact_cache = false;
    EXPECT_EQ(engine.Run(q, options).rows, reference)
        << ExecutionStrategyName(strategy);
  }
  QueryProgram large_ref = BuildGeneratedAggregateQuery(200, catalog());
  QueryProgram large_opt = BuildGeneratedAggregateQuery(200, catalog());
  QueryRunOptions opt;
  opt.strategy = ExecutionStrategy::kOptimized;
  opt.use_artifact_cache = false;
  EXPECT_EQ(engine.Run(large_opt, opt).rows,
            engine.Run(large_ref, ReferenceOptions()).rows);
}

// A pipeline whose registers overflow the VM's 16-bit operand fields fails
// its query with a typed error instead of aborting the process: ~3 slots per
// aggregate put N = 22,000 past 65,536. With one query admitted at a time,
// the next query runs only if the failed one gave its admission slot back.
// MeasureCompileCosts reports the failure in its costs; without register
// reuse (~16 slots per aggregate) N = 4,500 is enough.
TEST_F(TpchFixtureTest, OversizedProgramFailsItsQueryAndTheEngineGoesOn) {
  QueryEngine engine(&catalog(), 2);
  engine.set_max_concurrent_queries(1);
  QueryRunOptions bytecode;
  bytecode.strategy = ExecutionStrategy::kBytecode;
  QueryProgram oversized = BuildGeneratedAggregateQuery(22000, catalog());
  try {
    engine.Submit(oversized, bytecode).get();
    ADD_FAILURE() << "an oversized program ran";
  } catch (const TranslationFailed& e) {
    EXPECT_NE(std::string(e.what()).find("register slots"), std::string::npos)
        << e.what();
  }
  QueryProgram q6 = BuildTpchQuery(6, catalog());
  std::future<QueryRunResult> next = engine.Submit(q6, bytecode);
  ASSERT_EQ(next.wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  EXPECT_EQ(RowsDigest(next.get().rows), PinnedDigest(6));

  TranslatorOptions no_reuse;
  no_reuse.strategy = RegAllocStrategy::kNoReuse;
  const std::vector<PipelineCompileCosts> costs = engine.MeasureCompileCosts(
      BuildGeneratedAggregateQuery(4500, catalog()), false, no_reuse);
  ASSERT_EQ(costs.size(), 1u);
  EXPECT_FALSE(costs[0].bytecode_status.ok());
  EXPECT_EQ(costs[0].bytecode_ops, 0u);
}

TEST_F(TpchFixtureTest, RegisterAllocationAblationOnRealQuery) {
  // §IV-C: loop-aware must produce a (much) smaller register file than
  // no-reuse on a real large worker function.
  QueryEngine engine(&catalog(), 1);
  QueryProgram big = BuildGeneratedAggregateQuery(200, catalog());
  TranslatorOptions loop_aware;
  auto aware = engine.MeasureCompileCosts(big, false, loop_aware);
  QueryProgram big2 = BuildGeneratedAggregateQuery(200, catalog());
  TranslatorOptions no_reuse;
  no_reuse.strategy = RegAllocStrategy::kNoReuse;
  auto noreuse = engine.MeasureCompileCosts(big2, false, no_reuse);
  EXPECT_LT(aware[0].register_file_bytes * 3, noreuse[0].register_file_bytes);
}

}  // namespace
}  // namespace aqe
