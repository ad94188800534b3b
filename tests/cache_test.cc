#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <mutex>
#include <set>
#include <string>
#include <thread>

#include "adaptive/calibrate.h"
#include "cache/fingerprint.h"
#include "codegen/query_compiler.h"
#include "common/timer.h"
#include "engine/query_engine.h"
#include "obs/regression.h"
#include "queries/tpch_queries.h"
#include "tpch/tpch_gen.h"
#include "vm/translator.h"

namespace aqe {
namespace {

/// All cache tests share one SF-0.01 TPC-H database; engines are created
/// per test so every test sees a cold cache with deterministic counters.
class CacheTest : public ::testing::Test {
 protected:
  static Catalog& catalog() {
    static Catalog* c = [] {
      auto* catalog = new Catalog();
      tpch::BuildTpchDatabase(catalog, /*sf=*/0.01);
      return catalog;
    }();
    return *c;
  }

  /// Reference rows with the artifact cache bypassed.
  static std::vector<std::vector<int64_t>> Uncached(
      QueryEngine* engine, const QueryProgram& q,
      ExecutionStrategy strategy = ExecutionStrategy::kBytecode) {
    QueryRunOptions options;
    options.strategy = strategy;
    options.use_artifact_cache = false;
    return engine->Run(q, options).rows;
  }

  /// A compile job publishes its code when it finishes, which may be after
  /// its query returned; wait for the publishes.
  static bool WaitForPublishes(QueryEngine* engine, uint64_t n) {
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (engine->artifact_cache_stats().publishes < n) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  }

  /// The compiled-code publish is a scheduler task too: waits until every
  /// pipeline of `q` holds optimized code for `q`'s own literals.
  static bool WaitForOptimizedCode(QueryEngine* engine, const QueryProgram& q,
                                   const QueryRunOptions& options) {
    const PlanFingerprint fp = FingerprintProgram(q);
    auto entry = engine->artifact_cache().Peek(
        ArtifactCacheKey(fp, options.translator));
    if (entry == nullptr) return false;
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < deadline) {
      bool resident = true;
      {
        std::lock_guard<std::mutex> lock(entry->mu);
        for (size_t p = 0; p < entry->pipelines.size(); ++p) {
          const auto [cb, ce] = fp.pipeline_constants[p];
          const CodeVariant* v = entry->pipelines[p].code_variants.Find(
              {fp.constants.begin() + cb, fp.constants.begin() + ce});
          resident &= v != nullptr && v->opt != nullptr;
        }
      }
      if (resident) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  }

  static TpchQ6Literals VariantLiterals() {
    TpchQ6Literals lit = DefaultQ6Literals();
    lit.ship_date_lo += 31;
    lit.ship_date_hi += 61;
    lit.discount_lo = 4;
    lit.discount_hi = 8;
    lit.quantity_limit = 3000;
    return lit;
  }
};

// --- fingerprinting ---------------------------------------------------------

TEST_F(CacheTest, RebuiltPlansFingerprintEqual) {
  for (int number : ImplementedTpchQueries()) {
    QueryProgram a = BuildTpchQuery(number, catalog());
    QueryProgram b = BuildTpchQuery(number, catalog());
    PlanFingerprint fa = FingerprintProgram(a);
    PlanFingerprint fb = FingerprintProgram(b);
    EXPECT_EQ(fa.structural_hash, fb.structural_hash) << "q" << number;
    EXPECT_EQ(fa.constants, fb.constants) << "q" << number;
    EXPECT_EQ(fa.pipeline_constants, fb.pipeline_constants) << "q" << number;
  }
}

TEST_F(CacheTest, LiteralVariantsShareStructuralHash) {
  QueryProgram standard = BuildTpchQuery(6, catalog());
  QueryProgram variant = BuildTpchQ6Variant(catalog(), VariantLiterals());
  PlanFingerprint fs = FingerprintProgram(standard);
  PlanFingerprint fv = FingerprintProgram(variant);
  EXPECT_EQ(fs.structural_hash, fv.structural_hash);
  EXPECT_NE(fs.constants, fv.constants);
  EXPECT_EQ(fs.constants.size(), fv.constants.size());
}

TEST_F(CacheTest, StructurallyDifferentPlansCollideFree) {
  std::set<uint64_t> hashes;
  for (int number : ImplementedTpchQueries()) {
    QueryProgram q = BuildTpchQuery(number, catalog());
    uint64_t h = FingerprintProgram(q).structural_hash;
    EXPECT_TRUE(hashes.insert(h).second)
        << "q" << number << " collides with an earlier query";
  }
  EXPECT_EQ(hashes.size(), ImplementedTpchQueries().size());
}

/// SELECT l_orderkey, sum(l_quantity) FROM lineitem GROUP BY l_orderkey
/// ORDER BY 2 DESC, 1 LIMIT k, under one plan name for every k.
QueryProgram TopKPlan(const Catalog& catalog, uint64_t k) {
  QueryProgram q("top_orders");
  const Table* lineitem = catalog.GetTable("lineitem");
  PipelineSpec scan;
  scan.name = "agg lineitem";
  scan.source_table = q.DeclareBaseTable("lineitem");
  scan.scan_columns = {lineitem->ColumnIndex("l_orderkey"),
                       lineitem->ColumnIndex("l_quantity")};
  SinkAgg sink;
  sink.agg = q.DeclareAggSet({AggKind::kSum});
  sink.key = Slot(0);
  sink.items.push_back({AggKind::kSum, Slot(1), /*checked=*/true});
  const int agg = sink.agg;
  scan.sink = std::move(sink);
  q.AddPipeline(std::move(scan));
  q.AddStep(ReadGroups(agg, ExprList(Slot(0), Slot(1))));
  q.AddStep(StepTopK{{{1, true, false}, {0, false, false}}, k});
  return q;
}

// The fingerprint hashes the engine steps: one plan name with two top-k
// sizes is two plans, each with its own cache entry and, since PlanStats
// records are keyed by the same ArtifactCacheKey, its own record.
TEST_F(CacheTest, StepFieldsSplitPlansOfOneName) {
  QueryProgram top20 = TopKPlan(catalog(), 20);
  QueryProgram top21 = TopKPlan(catalog(), 21);
  const uint64_t key20 = ArtifactCacheKey(FingerprintProgram(top20), {});
  const uint64_t key21 = ArtifactCacheKey(FingerprintProgram(top21), {});
  EXPECT_NE(key20, key21);

  QueryEngine engine(&catalog(), 2);
  QueryRunOptions options;
  options.strategy = ExecutionStrategy::kBytecode;
  EXPECT_EQ(engine.Run(top20, options).rows.size(), 20u);
  EXPECT_EQ(engine.Run(top21, options).rows.size(), 21u);
  EXPECT_EQ(engine.artifact_cache_stats().entry_misses, 2u);
  auto entry20 = engine.artifact_cache().Peek(key20);
  auto entry21 = engine.artifact_cache().Peek(key21);
  ASSERT_NE(entry20, nullptr);
  ASSERT_NE(entry21, nullptr);
  EXPECT_NE(entry20, entry21);

  RegressionTracker records;
  RegressionTracker::Observation run;
  run.fingerprint = key20;
  run.service_ms = 1;
  records.Observe(run, nullptr);
  EXPECT_TRUE(records.Lookup(key20).has_value());
  EXPECT_FALSE(records.Lookup(key21).has_value());
}

// A literal in an engine step (Q18's HAVING bound) is a constant like a
// pipeline literal: the variant keeps q18's key and every pipeline's
// constants, differs only in the step constants after them, and runs on
// q18's cached bytecode with its own rows.
TEST_F(CacheTest, StepLiteralVariantsShareArtifacts) {
  QueryProgram q300 = BuildTpchQ18Variant(catalog(), 300);
  QueryProgram q301 = BuildTpchQ18Variant(catalog(), 301);
  const PlanFingerprint f300 = FingerprintProgram(q300);
  const PlanFingerprint f301 = FingerprintProgram(q301);
  EXPECT_EQ(ArtifactCacheKey(f300, {}), ArtifactCacheKey(f301, {}));
  EXPECT_EQ(f300.pipeline_constants, f301.pipeline_constants);
  const uint32_t pipelines_end = f300.pipeline_constants.back().second;
  ASSERT_GT(f300.constants.size(), pipelines_end);
  EXPECT_TRUE(std::equal(f300.constants.begin(),
                         f300.constants.begin() + pipelines_end,
                         f301.constants.begin()));
  EXPECT_NE(f300.constants, f301.constants);
  EXPECT_EQ(FingerprintProgram(BuildTpchQuery(18, catalog())).constants,
            f300.constants);

  // At SF 0.01 one order passes 300 and 301 alike; 250 lets more pass.
  QueryProgram q250 = BuildTpchQ18Variant(catalog(), 250);
  QueryEngine engine(&catalog(), 2);
  const auto reference300 = Uncached(&engine, q300);
  const auto reference250 = Uncached(&engine, q250);
  EXPECT_GT(reference250.size(), reference300.size());
  QueryRunOptions options;
  options.strategy = ExecutionStrategy::kBytecode;
  EXPECT_EQ(engine.Run(q300, options).rows, reference300);
  QueryRunResult warm = engine.Run(q250, options);
  EXPECT_EQ(warm.rows, reference250);
  for (const PipelineReport& report : warm.pipelines) {
    EXPECT_TRUE(report.artifact_cache_hit) << report.name;
  }
}

// Every translator option shapes the bytecode, so each is part of the key:
// a run with one option flipped must translate its own program, not reuse
// the default run's.
TEST_F(CacheTest, CacheKeyCoversEveryTranslatorOption) {
  const PlanFingerprint fp = FingerprintProgram(BuildTpchQuery(6, catalog()));
  std::vector<TranslatorOptions> flipped(6);
  flipped[0].strategy = RegAllocStrategy::kWindow;
  flipped[1].window_size = 8;
  flipped[2].fuse_macro_ops = false;
  flipped[3].fuse_cmp_branches = false;
  flipped[4].fuse_load_cmp_branches = false;
  flipped[5].fuse_branch_chains = false;
  std::set<uint64_t> keys = {ArtifactCacheKey(fp, {})};
  for (size_t i = 0; i < flipped.size(); ++i) {
    EXPECT_TRUE(keys.insert(ArtifactCacheKey(fp, flipped[i])).second)
        << "option " << i;
  }

  QueryEngine engine(&catalog(), 2);
  QueryRunOptions options;
  options.strategy = ExecutionStrategy::kBytecode;
  const QueryRunResult chained = engine.Run(BuildTpchQuery(6, catalog()),
                                            options);
  const uint64_t misses = engine.artifact_cache_stats().bytecode_misses;
  options.translator.fuse_branch_chains = false;
  const QueryRunResult unchained = engine.Run(BuildTpchQuery(6, catalog()),
                                              options);
  EXPECT_GT(unchained.translate_millis_total, 0);
  EXPECT_EQ(engine.artifact_cache_stats().bytecode_misses, misses + 1);
  EXPECT_EQ(unchained.rows, chained.rows);
}

// --- the entry API, without an engine ---------------------------------------

/// A fresh one-pipeline entry of `cache`.
std::shared_ptr<CacheEntry> NewEntry(ArtifactCache* cache) {
  bool created = false;
  return cache->Intern(/*key=*/42, /*num_pipelines=*/1, "unit", &created);
}

std::shared_ptr<CachedCode> FakeCode(uint64_t code_bytes) {
  auto code = std::make_shared<CachedCode>();
  code->code_bytes = code_bytes;
  return code;
}

ArtifactRequest RequestFor(std::vector<uint64_t> constants,
                           ExecutionStrategy strategy) {
  ArtifactRequest request;
  request.constants = std::move(constants);
  request.strategy = strategy;
  request.pruning = true;
  return request;
}

TEST_F(CacheTest, InternRefusesAnotherPlansEntry) {
  ArtifactCache cache;
  bool created = false;
  ASSERT_NE(cache.Intern(7, 2, "a", &created), nullptr);
  EXPECT_TRUE(created);
  EXPECT_NE(cache.Intern(7, 2, "a", &created), nullptr);
  EXPECT_FALSE(created);
  EXPECT_EQ(cache.Intern(7, 2, "b", &created), nullptr);
  EXPECT_EQ(cache.Intern(7, 3, "a", &created), nullptr);
}

TEST_F(CacheTest, VariantListsEvictTheLeastRecentlyUsed) {
  ArtifactCache cache;
  auto entry = NewEntry(&cache);
  const auto request = [](uint64_t c) {
    return RequestFor({c}, ExecutionStrategy::kOptimized);
  };
  for (uint64_t c = 1; c <= 4; ++c) {
    cache.PublishCode(*entry, request(c), ExecMode::kOptimized,
                      FakeCode(100 * c), /*instructions=*/10,
                      /*runtime_call_fraction=*/0);
    PruningStats stats;
    stats.selected_rows = c;
    cache.PublishPruning(*entry, request(c), {nullptr, stats});
  }
  EXPECT_EQ(cache.stats().bytes, 1000u);
  // Lookups are uses: after touching 1 and 3, variant 2 is the least
  // recently used of each list.
  EXPECT_NE(cache.Lookup(*entry, request(1)).seed_code, nullptr);
  EXPECT_NE(cache.Lookup(*entry, request(3)).seed_code, nullptr);
  cache.PublishCode(*entry, request(5), ExecMode::kOptimized, FakeCode(500),
                    10, 0);
  PruningStats fifth;
  fifth.selected_rows = 5;
  cache.PublishPruning(*entry, request(5), {nullptr, fifth});

  EXPECT_EQ(cache.stats().bytes, 1000u - 200u + 500u);
  EXPECT_EQ(cache.stats().publishes, 5u);
  {
    std::lock_guard<std::mutex> lock(entry->mu);
    EXPECT_EQ(entry->pipelines[0].code_variants.size(),
              PipelineArtifact::kMaxCodeVariants);
    EXPECT_EQ(entry->pipelines[0].pruning_variants.size(),
              PipelineArtifact::kMaxPruningVariants);
  }
  for (uint64_t c = 1; c <= 5; ++c) {
    const CachedArtifacts found = cache.Lookup(*entry, request(c));
    EXPECT_EQ(found.seed_code != nullptr, c != 2) << c;
    ASSERT_EQ(found.pruning.has_value(), c != 2) << c;
    if (found.pruning) EXPECT_EQ(found.pruning->stats.selected_rows, c);
  }
}

TEST_F(CacheTest, OneBytecodeProgramServesEveryConstantVector) {
  auto program = std::make_shared<BcProgram>();
  ArtifactCache cache;
  auto entry = NewEntry(&cache);
  ArtifactRequest request = RequestFor({7, 1, 9}, ExecutionStrategy::kBytecode);
  ASSERT_TRUE(cache.PublishBytecode(*entry, request, program, 10, 0));
  EXPECT_FALSE(cache.PublishBytecode(*entry, request, program, 10, 0));
  EXPECT_EQ(cache.stats().bytes, BcProgramBytes(*program));

  for (std::vector<uint64_t> constants :
       {std::vector<uint64_t>{7, 1, 9}, {8, 1, 10}, {8, 2, 10}, {0, 0, 0}}) {
    request.constants = constants;
    const CachedArtifacts found = cache.Lookup(*entry, request);
    EXPECT_EQ(found.bytecode, program);
  }

  const ArtifactCacheStats stats = cache.stats();
  EXPECT_EQ(stats.bytecode_hits, 4u);
  EXPECT_EQ(stats.patched_hits, 0u);
  EXPECT_EQ(stats.bytecode_misses, 0u);
  EXPECT_EQ(stats.publishes, 1u);
}

// Q14's suffix-pattern variants test p_type through a bitmap of matching
// codes: they share a key and constants but not a pruning key, so a variant
// reuses the bytecode and code, never the pruning decision.
TEST_F(CacheTest, PruningKeySplitsDecisionsNotCode) {
  const PlanFingerprint brass =
      FingerprintProgram(BuildTpchQ14Variant(catalog(), "%BRASS"));
  const PlanFingerprint tin =
      FingerprintProgram(BuildTpchQ14Variant(catalog(), "%TIN"));
  EXPECT_EQ(ArtifactCacheKey(brass, {}), ArtifactCacheKey(tin, {}));
  EXPECT_EQ(brass.constants, tin.constants);
  EXPECT_NE(brass.pruning_key, tin.pruning_key);

  ArtifactCache cache;
  auto entry = NewEntry(&cache);
  ArtifactRequest request = RequestFor({5}, ExecutionStrategy::kAdaptive);
  request.pruning_key = brass.pruning_key;
  ASSERT_TRUE(cache.PublishBytecode(*entry, request,
                                    std::make_shared<BcProgram>(), 10, 0));
  cache.PublishCode(*entry, request, ExecMode::kUnoptimized, FakeCode(64), 10,
                    0);
  cache.PublishPruning(*entry, request, {nullptr, PruningStats{}});
  EXPECT_TRUE(cache.Lookup(*entry, request).pruning.has_value());

  request.pruning_key = tin.pruning_key;
  const CachedArtifacts variant = cache.Lookup(*entry, request);
  EXPECT_NE(variant.bytecode, nullptr);
  EXPECT_NE(variant.seed_code, nullptr);
  EXPECT_EQ(variant.seed_mode, ExecMode::kUnoptimized);
  EXPECT_FALSE(variant.pruning.has_value());
}

// --- end-to-end reuse -------------------------------------------------------

TEST_F(CacheTest, WarmRunSkipsTranslation) {
  QueryEngine engine(&catalog(), 2);
  QueryProgram q = BuildTpchQuery(6, catalog());
  auto reference = Uncached(&engine, q);

  QueryRunOptions options;
  options.strategy = ExecutionStrategy::kBytecode;

  QueryProgram cold_q = BuildTpchQuery(6, catalog());
  QueryRunResult cold = engine.Run(cold_q, options);
  EXPECT_EQ(cold.rows, reference);
  EXPECT_GT(cold.translate_millis_total, 0);
  EXPECT_FALSE(cold.pipelines[0].artifact_cache_hit);

  QueryProgram warm_q = BuildTpchQuery(6, catalog());
  QueryRunResult warm = engine.Run(warm_q, options);
  EXPECT_EQ(warm.rows, reference);
  EXPECT_EQ(warm.translate_millis_total, 0);
  EXPECT_EQ(warm.codegen_millis_total, 0);
  EXPECT_TRUE(warm.pipelines[0].artifact_cache_hit);
  EXPECT_GT(warm.exec_seconds_total, 0);

  ArtifactCacheStats stats = engine.artifact_cache_stats();
  EXPECT_GE(stats.entry_hits, 1u);
  EXPECT_GE(stats.bytecode_hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);
}

TEST_F(CacheTest, AdaptiveSeedsBestCachedMode) {
  QueryEngine engine(&catalog(), 2);
  QueryProgram q = BuildTpchQuery(6, catalog());
  auto reference = Uncached(&engine, q);

  // Force the adaptive controller to reach optimized code on the cold run:
  // free compilation with a huge modeled speedup.
  QueryRunOptions options;
  options.strategy = ExecutionStrategy::kAdaptive;
  options.single_threaded = true;
  options.adaptive_first_eval_seconds = 0;
  options.cost_model.unopt_base_seconds = 0;
  options.cost_model.unopt_per_instruction_seconds = 0;
  options.cost_model.opt_base_seconds = 0;
  options.cost_model.opt_per_instruction_seconds = 0;
  options.cost_model.unopt_speedup = 1.01;
  options.cost_model.opt_speedup = 100.0;

  QueryProgram cold_q = BuildTpchQuery(6, catalog());
  QueryRunResult cold = engine.Run(cold_q, options);
  EXPECT_EQ(cold.rows, reference);
  EXPECT_EQ(cold.pipelines[0].initial_mode, ExecMode::kBytecode);
  ASSERT_FALSE(cold.pipelines[0].compiles.empty());
  // Bytecode insert + compiled-code publish.
  ASSERT_TRUE(WaitForPublishes(&engine, 2));

  QueryProgram warm_q = BuildTpchQuery(6, catalog());
  QueryRunResult warm = engine.Run(warm_q, options);
  EXPECT_EQ(warm.rows, reference);
  // The acceptance shape: no translation, first morsel already runs the
  // best mode the plan ever reached, no recompilation.
  EXPECT_EQ(warm.translate_millis_total, 0);
  EXPECT_EQ(warm.pipelines[0].initial_mode, ExecMode::kOptimized);
  EXPECT_EQ(warm.pipelines[0].final_mode, ExecMode::kOptimized);
  EXPECT_TRUE(warm.pipelines[0].compiles.empty());
  EXPECT_GE(engine.artifact_cache_stats().code_hits, 1u);
}

/// The cached bytecode of `q`'s first pipeline, or null.
std::shared_ptr<const BcProgram> CachedBytecode(QueryEngine* engine,
                                                const QueryProgram& q,
                                                const QueryRunOptions& options) {
  auto entry = engine->artifact_cache().Peek(
      ArtifactCacheKey(FingerprintProgram(q), options.translator));
  if (entry == nullptr) return nullptr;
  std::lock_guard<std::mutex> lock(entry->mu);
  return entry->pipelines[0].bytecode;
}

// Bytecode reads the plan's literals from the binding array, so a literal
// variant runs the very program its plan shape translated, and still
// computes its own rows.
TEST_F(CacheTest, LiteralVariantSharesBytecode) {
  QueryEngine engine(&catalog(), 2);
  QueryProgram variant_ref = BuildTpchQ6Variant(catalog(), VariantLiterals());
  const auto reference = Uncached(&engine, variant_ref);

  QueryRunOptions options;
  options.strategy = ExecutionStrategy::kBytecode;
  QueryProgram standard = BuildTpchQuery(6, catalog());
  const auto standard_rows = engine.Run(standard, options).rows;
  ASSERT_NE(standard_rows, reference);
  const std::shared_ptr<const BcProgram> program =
      CachedBytecode(&engine, standard, options);
  ASSERT_NE(program, nullptr);

  QueryProgram variant = BuildTpchQ6Variant(catalog(), VariantLiterals());
  const uint64_t programs = TranslatorCountersSnapshot().programs;
  QueryRunResult warm = engine.Run(variant, options);
  EXPECT_EQ(TranslatorCountersSnapshot().programs, programs);
  EXPECT_EQ(warm.translate_millis_total, 0);
  EXPECT_TRUE(warm.pipelines[0].artifact_cache_hit);
  EXPECT_EQ(warm.rows, reference);

  ArtifactCacheStats stats = engine.artifact_cache_stats();
  EXPECT_EQ(stats.bytecode_hits, 1u);
  EXPECT_EQ(stats.bytecode_misses, 1u);
  EXPECT_EQ(stats.patched_hits, 0u);

  // What the variant's lookup returns is the cached program itself. The
  // lookup reads only the entry, so a bystander cache can make it without
  // touching the engine's counters.
  const PlanFingerprint fp = FingerprintProgram(variant);
  auto entry =
      engine.artifact_cache().Peek(ArtifactCacheKey(fp, options.translator));
  ASSERT_NE(entry, nullptr);
  ArtifactRequest request;
  request.constants.assign(
      fp.constants.begin() + fp.pipeline_constants[0].first,
      fp.constants.begin() + fp.pipeline_constants[0].second);
  request.strategy = options.strategy;
  ArtifactCache bystander;
  const CachedArtifacts found = bystander.Lookup(*entry, request);
  EXPECT_EQ(found.bytecode, program);
  EXPECT_EQ(CachedBytecode(&engine, variant, options), program);
}

// Literals equal to 0 or 1, or to another literal of the same pipeline, are
// bound like any other. So whichever of a plan's variants translated the
// program — one with such a literal, or one without — every other variant
// shares it, run after run, with nothing translated.
TEST_F(CacheTest, ZeroOneAndRepeatedLiteralsShareBytecode) {
  QueryEngine engine(&catalog(), 2);
  QueryRunOptions options;
  options.strategy = ExecutionStrategy::kBytecode;
  const TpchQ6Literals standard = DefaultQ6Literals();
  const auto standard_rows =
      Uncached(&engine, BuildTpchQ6Variant(catalog(), standard));

  TpchQ6Literals zero = standard;
  zero.discount_lo = 0;
  TpchQ6Literals one = standard;
  one.discount_lo = 1;
  TpchQ6Literals repeated = standard;
  repeated.discount_lo = 6;
  repeated.discount_hi = 6;
  for (const TpchQ6Literals& special : {zero, one, repeated}) {
    const auto special_rows =
        Uncached(&engine, BuildTpchQ6Variant(catalog(), special));
    EXPECT_NE(special_rows, standard_rows);
    for (bool special_first : {true, false}) {
      SCOPED_TRACE(::testing::Message()
                   << "discount " << special.discount_lo << ".."
                   << special.discount_hi << (special_first ? " first" : ""));
      engine.ClearArtifactCache();
      const uint64_t misses = engine.artifact_cache_stats().bytecode_misses;
      const QueryProgram first =
          BuildTpchQ6Variant(catalog(), special_first ? special : standard);
      engine.Run(first, options);
      const std::shared_ptr<const BcProgram> program =
          CachedBytecode(&engine, first, options);
      ASSERT_NE(program, nullptr);
      for (int run = 0; run < 2; ++run) {
        QueryProgram second =
            BuildTpchQ6Variant(catalog(), special_first ? standard : special);
        const uint64_t programs = TranslatorCountersSnapshot().programs;
        QueryRunResult result = engine.Run(second, options);
        EXPECT_EQ(TranslatorCountersSnapshot().programs, programs);
        EXPECT_TRUE(result.pipelines[0].artifact_cache_hit);
        EXPECT_EQ(result.rows, special_first ? standard_rows : special_rows);
      }
      EXPECT_EQ(CachedBytecode(&engine, first, options), program);
      EXPECT_EQ(engine.artifact_cache_stats().bytecode_misses, misses + 1);
    }
  }
}

// A cold miss translates each pipeline once: finding the literals needs no
// second translation.
TEST_F(CacheTest, ColdRunTranslatesOncePerPipeline) {
  QueryEngine engine(&catalog(), 2);
  QueryRunOptions options;
  options.strategy = ExecutionStrategy::kBytecode;
  for (int number : ImplementedTpchQueries()) {
    QueryProgram q = BuildTpchQuery(number, catalog());
    const uint64_t programs = TranslatorCountersSnapshot().programs;
    QueryRunResult cold = engine.Run(q, options);
    EXPECT_EQ(TranslatorCountersSnapshot().programs - programs,
              q.pipelines().size())
        << q.name();
    for (const PipelineReport& report : cold.pipelines) {
      EXPECT_FALSE(report.artifact_cache_hit) << q.name() << " " << report.name;
    }
  }
}

// The literals bytecode binds are numbered by the pipeline's own walk, and
// that walk meets them in the fingerprint's order: each pipeline's bound
// literals are exactly its slice of the fingerprint constants.
TEST_F(CacheTest, BoundLiteralsAreTheFingerprintSlice) {
  std::vector<QueryProgram> plans;
  for (int number : ImplementedTpchQueries()) {
    plans.push_back(BuildTpchQuery(number, catalog()));
  }
  plans.push_back(BuildTpchQ6Variant(catalog(), VariantLiterals()));
  plans.push_back(BuildTpchQ18Variant(catalog(), 301));
  for (const QueryProgram& q : plans) {
    const PlanFingerprint fp = FingerprintProgram(q);
    auto ctx = q.MakeContext(&catalog());
    for (size_t p = 0; p < q.pipelines().size(); ++p) {
      const auto [begin, end] = fp.pipeline_constants[p];
      const std::vector<uint64_t> slice(fp.constants.begin() + begin,
                                        fp.constants.begin() + end);
      EXPECT_EQ(BindPipeline(q, q.pipelines()[p], *ctx).literals, slice)
          << q.name() << " pipeline " << p;
    }
  }
}

TEST_F(CacheTest, CachedStaticModesSkipCompilation) {
  QueryEngine engine(&catalog(), 2);
  QueryProgram q = BuildTpchQuery(6, catalog());
  auto reference = Uncached(&engine, q, ExecutionStrategy::kOptimized);

  QueryRunOptions options;
  options.strategy = ExecutionStrategy::kOptimized;
  QueryProgram cold_q = BuildTpchQuery(6, catalog());
  QueryRunResult cold = engine.Run(cold_q, options);
  EXPECT_EQ(cold.rows, reference);
  EXPECT_GT(cold.compile_millis_total, 0);
  ASSERT_TRUE(WaitForPublishes(&engine, 1));

  QueryProgram warm_q = BuildTpchQuery(6, catalog());
  QueryRunResult warm = engine.Run(warm_q, options);
  EXPECT_EQ(warm.rows, reference);
  EXPECT_EQ(warm.compile_millis_total, 0);
  EXPECT_EQ(warm.codegen_millis_total, 0);
  EXPECT_EQ(warm.pipelines[0].initial_mode, ExecMode::kOptimized);
}

TEST_F(CacheTest, CodeVariantsCoexistPerConstantVector) {
  QueryEngine engine(&catalog(), 2);
  QueryProgram standard_ref = BuildTpchQuery(6, catalog());
  QueryProgram variant_ref = BuildTpchQ6Variant(catalog(), VariantLiterals());
  auto standard_rows =
      Uncached(&engine, standard_ref, ExecutionStrategy::kOptimized);
  auto variant_rows =
      Uncached(&engine, variant_ref, ExecutionStrategy::kOptimized);
  ASSERT_NE(standard_rows, variant_rows);

  QueryRunOptions options;
  options.strategy = ExecutionStrategy::kOptimized;
  engine.Run(BuildTpchQuery(6, catalog()), options);
  ASSERT_TRUE(WaitForPublishes(&engine, 1));
  engine.Run(BuildTpchQ6Variant(catalog(), VariantLiterals()), options);
  ASSERT_TRUE(WaitForPublishes(&engine, 2));

  // Machine code for both literal vectors is now resident side by side, so
  // re-running either compiles nothing. (With a single code slot per
  // pipeline, the variant's publish would have evicted the standard
  // constants' code and the first re-run below would recompile.)
  QueryRunResult warm_std = engine.Run(BuildTpchQuery(6, catalog()), options);
  EXPECT_EQ(warm_std.rows, standard_rows);
  EXPECT_EQ(warm_std.compile_millis_total, 0);
  QueryRunResult warm_var =
      engine.Run(BuildTpchQ6Variant(catalog(), VariantLiterals()), options);
  EXPECT_EQ(warm_var.rows, variant_rows);
  EXPECT_EQ(warm_var.compile_millis_total, 0);
  EXPECT_GE(engine.artifact_cache_stats().code_hits, 2u);

  // The per-entry variant map stays bounded under many distinct literals.
  for (int i = 0; i < 8; ++i) {
    TpchQ6Literals lit = DefaultQ6Literals();
    lit.quantity_limit = 400 + i;
    engine.Run(BuildTpchQ6Variant(catalog(), lit), options);
  }
  auto entry = engine.artifact_cache().Peek(
      ArtifactCacheKey(FingerprintProgram(standard_ref), options.translator));
  ASSERT_NE(entry, nullptr);
  std::lock_guard<std::mutex> lock(entry->mu);
  for (const PipelineArtifact& a : entry->pipelines) {
    EXPECT_LE(a.code_variants.size(), PipelineArtifact::kMaxCodeVariants);
  }
}

/// Repeated plans, cold then warm: every TPC-H query, three Q6 literal
/// variants submitted as prepared statements (their cold run compiles
/// eagerly under kOptimized, publishing machine code that warm adaptive
/// runs seed from), and three Q14 LIKE-pattern variants (fingerprint-equal
/// to q14, sharing its bytecode). Deterministic rounds in a fixed plan order
/// stand in for a timed Zipf mix.
TEST_F(CacheTest, RepeatedPlansRunWarmFromCachedArtifacts) {
  struct Plan {
    std::string label;
    std::function<QueryProgram()> build;
    bool prepared = false;
  };
  std::vector<Plan> plans;
  for (int number : ImplementedTpchQueries()) {
    plans.push_back({"q" + std::to_string(number),
                     [number] { return BuildTpchQuery(number, catalog()); }});
  }
  for (int v = 1; v <= 3; ++v) {
    TpchQ6Literals lit = DefaultQ6Literals();
    lit.ship_date_lo += 31 * v;
    lit.ship_date_hi += 31 * v;
    lit.quantity_limit += 100 * v;
    plans.push_back({"q6var" + std::to_string(v),
                     [lit] { return BuildTpchQ6Variant(catalog(), lit); },
                     /*prepared=*/true});
  }
  for (const char* pattern : {"STANDARD%", "SMALL%", "LARGE%"}) {
    plans.push_back({std::string("q14like_") + pattern, [pattern] {
                       return BuildTpchQ14Variant(catalog(), pattern);
                     }});
  }
  ASSERT_EQ(plans.size(), 19u);
  // Only the 13 plan shapes translate; their variants share the bytecode.
  uint64_t shape_pipelines = 0;
  for (int number : ImplementedTpchQueries()) {
    shape_pipelines += BuildTpchQuery(number, catalog()).pipelines().size();
  }

  QueryEngine engine(&catalog(), 2);

  // The calibrated cost model: the measured JIT speedups replace the
  // default ones.
  QueryRunOptions adaptive;
  adaptive.strategy = ExecutionStrategy::kAdaptive;
  adaptive.cost_model = CalibratedCostModelParams();
  QueryRunOptions prepared = adaptive;
  prepared.strategy = ExecutionStrategy::kOptimized;

  // Each round empties the cache and runs every plan cold, then at once
  // warm, so host load reaches both runs of a pair alike.
  constexpr int kRounds = 3;
  std::vector<std::vector<double>> cold_ms(plans.size());
  std::vector<std::vector<double>> warm_ms(plans.size());
  std::vector<std::vector<std::vector<int64_t>>> rows(plans.size());
  std::vector<uint64_t> peak_min(plans.size(), UINT64_MAX);
  std::vector<uint64_t> peak_max(plans.size(), 0);
  for (int round = 0; round < kRounds; ++round) {
    engine.ClearArtifactCache();
    const ArtifactCacheStats before = engine.artifact_cache_stats();
    uint64_t lookups = 0;  // pipelines that ran with bytecode
    for (size_t i = 0; i < plans.size(); ++i) {
      QueryProgram cold_q = plans[i].build();
      const QueryRunOptions& options = plans[i].prepared ? prepared : adaptive;
      lookups += cold_q.pipelines().size() * (plans[i].prepared ? 1 : 2);
      Timer cold_timer;
      QueryRunResult cold = engine.Run(cold_q, options);
      cold_ms[i].push_back(cold_timer.ElapsedMillis());
      ASSERT_FALSE(cold.rows.empty()) << plans[i].label;
      if (round == 0) rows[i] = cold.rows;
      EXPECT_EQ(cold.rows, rows[i]) << plans[i].label;
      if (plans[i].prepared) {
        ASSERT_TRUE(WaitForOptimizedCode(&engine, cold_q, options))
            << plans[i].label;
      }

      QueryProgram warm_q = plans[i].build();
      Timer warm_timer;
      QueryRunResult warm = engine.Run(warm_q, adaptive);
      warm_ms[i].push_back(warm_timer.ElapsedMillis());
      EXPECT_EQ(warm.rows, rows[i]) << plans[i].label;
      EXPECT_EQ(warm.translate_millis_total, 0) << plans[i].label;
      EXPECT_EQ(warm.codegen_millis_total, 0) << plans[i].label;
      EXPECT_GT(warm.peak_memory_bytes, 0u) << plans[i].label;
      peak_min[i] = std::min(peak_min[i], warm.peak_memory_bytes);
      peak_max[i] = std::max(peak_max[i], warm.peak_memory_bytes);
    }
    const ArtifactCacheStats delta = engine.artifact_cache_stats() - before;
    EXPECT_GT(delta.entry_misses, 0u);
    // Each plan shape translates once per round; every other bytecode
    // lookup, the literal and pattern variants' included, shares a program.
    EXPECT_EQ(delta.bytecode_misses, shape_pipelines);
    EXPECT_EQ(delta.bytecode_hits, lookups - shape_pipelines);
    EXPECT_EQ(delta.patched_hits, 0u);
  }
  // Cold runs start from an empty cache, so every code hit is a warm run
  // seeded from a prepared variant's published machine code.
  EXPECT_GT(engine.artifact_cache_stats().code_hits, 0u);

  // A warm rerun allocates the same state, so each plan's peak stays put;
  // a wide spread means charges leak or double-count.
  for (size_t i = 0; i < plans.size(); ++i) {
    EXPECT_LE(peak_max[i], 4 * peak_min[i]) << plans[i].label;
  }

  // Like for like: each plan's median cold run against its median warm
  // run, then the median over plans. Warm runs skip codegen and
  // translation and start in the best mode the plan reached, so reuse
  // never loses.
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[(v.size() - 1) / 2];
  };
  std::vector<double> speedups;
  for (size_t i = 0; i < plans.size(); ++i) {
    speedups.push_back(median(cold_ms[i]) / median(warm_ms[i]));
  }
  EXPECT_GE(median(speedups), 1.0);
}

// --- eviction ---------------------------------------------------------------

TEST_F(CacheTest, EvictionUnderByteBudget) {
  QueryEngine engine(&catalog(), 2);
  engine.set_artifact_cache_byte_budget(1);  // the cache evicts to 1 entry
  QueryRunOptions options;
  options.strategy = ExecutionStrategy::kBytecode;
  const size_t plans = ImplementedTpchQueries().size();

  for (int number : ImplementedTpchQueries()) {
    QueryProgram q = BuildTpchQuery(number, catalog());
    QueryRunResult r = engine.Run(q, options);
    EXPECT_FALSE(r.rows.empty()) << "q" << number;
  }
  ArtifactCacheStats stats = engine.artifact_cache_stats();
  // With a ~0 budget each plan's first publish evicts the plan before it:
  // only the most recent entry remains.
  EXPECT_EQ(stats.evictions, plans - 1);
  EXPECT_EQ(stats.entries, 1u);

  // An evicted plan misses again but still runs correctly.
  QueryProgram q1 = BuildTpchQuery(1, catalog());
  auto reference = Uncached(&engine, q1);
  QueryProgram q1_again = BuildTpchQuery(1, catalog());
  EXPECT_EQ(engine.Run(q1_again, options).rows, reference);
}

TEST_F(CacheTest, ShrinkingBudgetEvictsResidentEntries) {
  QueryEngine engine(&catalog(), 2);
  QueryRunOptions options;
  options.strategy = ExecutionStrategy::kBytecode;
  const size_t plans = ImplementedTpchQueries().size();
  for (int number : ImplementedTpchQueries()) {
    QueryProgram q = BuildTpchQuery(number, catalog());
    engine.Run(q, options);
  }
  EXPECT_EQ(engine.artifact_cache_stats().entries, plans);
  // After shrinking, the cache keeps only its most recent entry.
  engine.set_artifact_cache_byte_budget(1);
  ArtifactCacheStats stats = engine.artifact_cache_stats();
  EXPECT_EQ(stats.evictions, plans - 1);
  EXPECT_EQ(stats.entries, 1u);
}

// --- concurrency ------------------------------------------------------------

/// Concurrent clients share one engine with a budget small enough that
/// entries are continuously evicted while sibling queries execute them
/// (shared_ptr ownership is what keeps this safe); literal variants force
/// the patch path, adaptive switches force publish-vs-hit races, and Q14's
/// two LIKE patterns race lookups and publishes of pruning decisions under
/// two pruning keys of one entry. Run under TSan in CI.
TEST_F(CacheTest, ConcurrentHitPublishEvictStress) {
  QueryEngine engine(&catalog(), 3);
  engine.set_artifact_cache_byte_budget(1 << 14);  // a few entries at most

  QueryProgram ref_q6 = BuildTpchQuery(6, catalog());
  QueryProgram ref_var = BuildTpchQ6Variant(catalog(), VariantLiterals());
  QueryProgram ref_q1 = BuildTpchQuery(1, catalog());
  auto rows_q6 = Uncached(&engine, ref_q6);
  auto rows_var = Uncached(&engine, ref_var);
  auto rows_q1 = Uncached(&engine, ref_q1);
  const char* const patterns[2] = {"%BRASS", "%TIN"};
  std::vector<std::vector<int64_t>> rows_q14[2];
  for (int k = 0; k < 2; ++k) {
    rows_q14[k] =
        Uncached(&engine, BuildTpchQ14Variant(catalog(), patterns[k]));
  }

  constexpr int kThreads = 4;
  constexpr int kItersPerThread = 12;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kItersPerThread; ++i) {
        const int pick = (t + i) % 4;
        QueryProgram q =
            pick == 0   ? BuildTpchQuery(6, catalog())
            : pick == 1 ? BuildTpchQ6Variant(catalog(), VariantLiterals())
            : pick == 2 ? BuildTpchQuery(1, catalog())
                        : BuildTpchQ14Variant(catalog(), patterns[i % 2]);
        QueryRunOptions options;
        options.strategy = ExecutionStrategy::kAdaptive;
        // Cheap modeled compilation: frequent mode switches and publishes.
        options.adaptive_first_eval_seconds = 0;
        options.cost_model.unopt_base_seconds = 0;
        options.cost_model.unopt_per_instruction_seconds = 0;
        options.cost_model.opt_base_seconds = 0;
        options.cost_model.opt_per_instruction_seconds = 0;
        options.cost_model.opt_speedup = 100.0;
        QueryRunResult r = engine.Run(q, options);
        const auto& expect = pick == 0   ? rows_q6
                             : pick == 1 ? rows_var
                             : pick == 2 ? rows_q1
                                         : rows_q14[i % 2];
        if (r.rows != expect) failures.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);

  ArtifactCacheStats stats = engine.artifact_cache_stats();
  EXPECT_GT(stats.entry_hits + stats.entry_misses, 0u);
  EXPECT_GT(stats.publishes, 0u);
  EXPECT_GT(stats.evictions, 0u);
}

}  // namespace
}  // namespace aqe
