// String predicate subsystem tests (src/strings/): the LIKE pattern
// compiler against a reference matcher, the dictionary's order-preserving
// invariant and bitmap pre-evaluation, the runtime-call path, the lowering
// decision rule, end-to-end differential execution across every engine and
// mode (including the string edge cases: empty pattern, bare '%',
// '_'-only, absent code), pattern-variant artifact sharing, and the
// runtime-call-density cost-model hook. Runs under ASan and TSan in CI
// (the concurrent-submission test is the TSan surface).
#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <random>
#include <string>
#include <vector>

#include "adaptive/cost_model.h"
#include "cache/fingerprint.h"
#include "engine/query_engine.h"
#include "queries/tpch_queries.h"
#include "runtime/runtime_functions.h"
#include "storage/table.h"
#include "strings/like_lowering.h"
#include "strings/like_pattern.h"
#include "strings/string_predicate.h"
#include "tests/dictionary_test_util.h"
#include "tpch/tpch_gen.h"

namespace aqe {
namespace {

// ============================================================================
// Pattern compiler
// ============================================================================

/// Reference LIKE semantics: naive recursive backtracking. The compiled
/// matcher must agree with this on every input.
bool ReferenceLike(std::string_view pattern, std::string_view s) {
  if (pattern.empty()) return s.empty();
  if (pattern[0] == '%') {
    for (size_t skip = 0; skip <= s.size(); ++skip) {
      if (ReferenceLike(pattern.substr(1), s.substr(skip))) return true;
    }
    return false;
  }
  if (s.empty()) return false;
  if (pattern[0] != '_' && pattern[0] != s[0]) return false;
  return ReferenceLike(pattern.substr(1), s.substr(1));
}

TEST(LikeMatcherTest, Classification) {
  EXPECT_EQ(LikeMatcher::Compile("").pattern_class(),
            LikePatternClass::kEquality);
  EXPECT_EQ(LikeMatcher::Compile("abc").pattern_class(),
            LikePatternClass::kEquality);
  EXPECT_EQ(LikeMatcher::Compile("%").pattern_class(),
            LikePatternClass::kMatchAll);
  EXPECT_EQ(LikeMatcher::Compile("%%%").pattern_class(),
            LikePatternClass::kMatchAll);
  EXPECT_EQ(LikeMatcher::Compile("abc%").pattern_class(),
            LikePatternClass::kPrefix);
  EXPECT_EQ(LikeMatcher::Compile("%abc").pattern_class(),
            LikePatternClass::kSuffix);
  EXPECT_EQ(LikeMatcher::Compile("%abc%").pattern_class(),
            LikePatternClass::kContains);
  EXPECT_EQ(LikeMatcher::Compile("a%b").pattern_class(),
            LikePatternClass::kGeneral);
  EXPECT_EQ(LikeMatcher::Compile("___").pattern_class(),
            LikePatternClass::kGeneral);
  EXPECT_EQ(LikeMatcher::Compile("a_c%").pattern_class(),
            LikePatternClass::kGeneral);
  EXPECT_EQ(LikeMatcher::Compile("%a%b%").pattern_class(),
            LikePatternClass::kGeneral);
}

TEST(LikeMatcherTest, EdgeCases) {
  EXPECT_TRUE(LikeMatcher::Compile("").Matches(""));
  EXPECT_FALSE(LikeMatcher::Compile("").Matches("x"));
  EXPECT_TRUE(LikeMatcher::Compile("%").Matches(""));
  EXPECT_TRUE(LikeMatcher::Compile("%").Matches("anything"));
  EXPECT_TRUE(LikeMatcher::Compile("___").Matches("abc"));
  EXPECT_FALSE(LikeMatcher::Compile("___").Matches("ab"));
  EXPECT_FALSE(LikeMatcher::Compile("___").Matches("abcd"));
  EXPECT_TRUE(LikeMatcher::Compile("%%a%%").Matches("xax"));
  EXPECT_TRUE(LikeMatcher::Compile("a%a").Matches("aa"));
  EXPECT_FALSE(LikeMatcher::Compile("a%a").Matches("a"));  // no overlap
  EXPECT_TRUE(LikeMatcher::Compile("%special%requests%")
                  .Matches("the special pending requests sleep"));
  EXPECT_FALSE(LikeMatcher::Compile("%special%requests%")
                   .Matches("the requests were special"));  // order matters
}

TEST(LikeMatcherTest, DifferentialAgainstReference) {
  // Random patterns and subjects over a tiny alphabet so wildcards and
  // literals collide often.
  std::mt19937_64 rng(7);
  const char alphabet[] = {'a', 'b', 'c', '_', '%'};
  const char subject_alphabet[] = {'a', 'b', 'c'};
  for (int iter = 0; iter < 3000; ++iter) {
    std::string pattern;
    const size_t plen = rng() % 8;
    for (size_t i = 0; i < plen; ++i) pattern += alphabet[rng() % 5];
    LikeMatcher matcher = LikeMatcher::Compile(pattern);
    std::string s;
    const size_t slen = rng() % 10;
    for (size_t i = 0; i < slen; ++i) s += subject_alphabet[rng() % 3];
    EXPECT_EQ(matcher.Matches(s), ReferenceLike(pattern, s))
        << "pattern='" << pattern << "' s='" << s << "' class="
        << LikePatternClassName(matcher.pattern_class());
  }
}

TEST(LikeMatcherTest, LongSegmentsUseFallback) {
  // Segments beyond the 64-bit shift-or state fall back to the naive scan;
  // semantics must not change.
  const std::string long_lit(80, 'a');
  const std::string pattern = "%" + long_lit + "_z%";
  LikeMatcher m = LikeMatcher::Compile(pattern);
  EXPECT_EQ(m.pattern_class(), LikePatternClass::kGeneral);
  EXPECT_TRUE(m.Matches("xx" + long_lit + "qz" + "yy"));
  EXPECT_FALSE(m.Matches("xx" + long_lit.substr(1) + "qz"));
  EXPECT_EQ(m.Matches(long_lit + "zz"),
            ReferenceLike(pattern, long_lit + "zz"));
}

// ============================================================================
// Dictionary: bitmap pre-evaluation and the order-preserving invariant
// ============================================================================

const std::vector<std::string> kSmallDictStrings = {
    "PROMO ANODIZED TIN",     "STANDARD PLATED BRASS", "PROMO BRUSHED COPPER",
    "ECONOMY POLISHED STEEL", "",                      "PROMO",
    "MEDIUM POLISHED NICKEL"};

Dictionary SmallDict() {
  Dictionary d;
  testutil::BulkLoad(&d, kSmallDictStrings);
  return d;
}

TEST(DictionaryStringsTest, MatchBitmapAgreesWithScalarMatcher) {
  Dictionary d = SmallDict();
  for (const char* pattern :
       {"PROMO%", "%POLISHED%", "%TIN", "", "%", "P_OMO%", "%S_EEL",
        "MEDIUM POLISHED NICKEL", "missing"}) {
    LikeMatcher matcher = LikeMatcher::Compile(pattern);
    std::vector<uint8_t> bitmap = BuildLikeBitmap(d, matcher);
    ASSERT_EQ(bitmap.size(), static_cast<size_t>(d.size()));
    for (int32_t code = 0; code < d.size(); ++code) {
      const std::string s = testutil::Decode(d, code);
      EXPECT_EQ(bitmap[static_cast<size_t>(code)] != 0, matcher.Matches(s))
          << "pattern='" << pattern << "' string='" << s << "'";
    }
  }
}

TEST(DictionaryStringsTest, BulkLoadEstablishesOrderInvariant) {
  Dictionary d;
  const PageVector<int32_t> codes = testutil::BulkLoad(&d, kSmallDictStrings);
  for (size_t i = 0; i < kSmallDictStrings.size(); ++i) {
    // Each string decodes from its code, and Find agrees.
    EXPECT_EQ(testutil::Decode(d, codes[i]), kSmallDictStrings[i]);
    EXPECT_EQ(d.Find(kSmallDictStrings[i]), codes[i]);
  }
  // The invariant itself: code order == lexicographic order.
  for (int32_t c = 1; c < d.size(); ++c) {
    EXPECT_LT(testutil::Decode(d, c - 1), testutil::Decode(d, c));
  }
}

TEST(DictionaryStringsTest, BulkLoadedColumnDecodesEveryRow) {
  Table t("t");
  int sc = t.AddColumn("s", DataType::kI32, /*dictionary=*/true);
  std::vector<std::string> rows = {"delta", "alpha", "delta", "charlie",
                                   "bravo", "alpha"};
  for (const int32_t code : testutil::BulkLoad(&t.dictionary(sc), rows)) {
    t.column(sc).AppendInt(code);
  }
  for (uint64_t r = 0; r < rows.size(); ++r) {
    EXPECT_EQ(testutil::Decode(t.dictionary(sc), t.column(sc).GetI32(r)),
              rows[r]);
  }
}

TEST(DictionaryStringsTest, PrefixRangeMatchesBitmapOnSortedDict) {
  Dictionary d = SmallDict();
  for (const char* prefix : {"PROMO", "", "MEDIUM ", "Z", "P"}) {
    const auto [lo, hi] = d.PrefixRange(prefix);
    std::vector<uint8_t> bitmap = d.MatchPrefix(prefix);
    for (int32_t c = 0; c < d.size(); ++c) {
      EXPECT_EQ(c >= lo && c < hi, bitmap[static_cast<size_t>(c)] != 0)
          << "prefix='" << prefix << "' code=" << c;
    }
  }
}

TEST(DictionaryStringsTest, TpchDictionariesAreOrderPreserving) {
  Catalog catalog;
  tpch::BuildTpchDatabase(&catalog, /*sf=*/0.001);
  for (const char* name : {"region", "nation", "customer", "part", "orders",
                           "lineitem"}) {
    const Table* t = catalog.GetTable(name);
    for (int c = 0; c < t->num_columns(); ++c) {
      if (!t->has_dictionary(c)) continue;
      const std::vector<std::string> strings =
          testutil::DecodeAll(t->dictionary(c));
      for (size_t code = 1; code < strings.size(); ++code) {
        ASSERT_LT(strings[code - 1], strings[code])
            << name << "." << t->column(c).name() << " code " << code;
      }
      // And every stored code decodes.
      for (uint64_t r = 0; r < std::min<uint64_t>(t->num_rows(), 64); ++r) {
        const int64_t code = t->column(c).GetAsI64(r);
        ASSERT_GE(code, 0);
        ASSERT_LT(code, t->dictionary(c).size());
      }
    }
  }
}

// ============================================================================
// Runtime function: the per-row call path
// ============================================================================

TEST(LikeRuntimeTest, AbsentAndOutOfRangeCodesNeverMatch) {
  Dictionary d = SmallDict();
  LikePredicate pred{LikeMatcher::Compile("%"), &d};
  const uint64_t p = reinterpret_cast<uint64_t>(&pred);
  EXPECT_EQ(rt::aqe_like_match(p, 0), 1u);
  EXPECT_EQ(rt::aqe_like_match(p, static_cast<uint64_t>(d.size() - 1)), 1u);
  // Out of range in both directions: no crash, no match.
  EXPECT_EQ(rt::aqe_like_match(p, static_cast<uint64_t>(-1)), 0u);
  EXPECT_EQ(rt::aqe_like_match(p, static_cast<uint64_t>(d.size())), 0u);
  EXPECT_EQ(rt::aqe_like_match(p, 1u << 20), 0u);
}

// The per-row call decodes into a per-thread buffer: four threads match
// every code of one dictionary at once, each from its own starting code,
// and agree with the pre-evaluated bitmap.
TEST(LikeRuntimeTest, MatchesRunsOnFourThreadsAtOnce) {
  std::vector<std::string> strings;
  for (int i = 0; i < 4000; ++i) {
    strings.push_back(std::string(i % 7 == 0 ? "special " : "plain ") +
                      std::string(static_cast<size_t>(i % 40), 'x') +
                      (i % 3 == 0 ? " requests " : " deposits ") +
                      std::to_string(i));
  }
  Dictionary d;
  testutil::BulkLoad(&d, strings);
  const LikePredicate pred{LikeMatcher::Compile("%special%requests%"), &d};
  const std::vector<uint8_t> bitmap = BuildLikeBitmap(d, pred.matcher);
  ASSERT_GT(std::count(bitmap.begin(), bitmap.end(), 1), 0);
  std::vector<std::future<int>> mismatches;
  for (int t = 0; t < 4; ++t) {
    mismatches.push_back(std::async(std::launch::async, [&, t] {
      int wrong = 0;
      for (int pass = 0; pass < 4; ++pass) {
        for (int32_t i = 0; i < d.size(); ++i) {
          const int32_t code = (i + t * 997) % d.size();
          const uint64_t match = rt::aqe_like_match(
              reinterpret_cast<uint64_t>(&pred), static_cast<uint64_t>(code));
          wrong += match != bitmap[static_cast<size_t>(code)];
        }
      }
      return wrong;
    }));
  }
  for (std::future<int>& f : mismatches) EXPECT_EQ(f.get(), 0);
}

// ============================================================================
// Lowering: strategy decisions
// ============================================================================

/// A synthetic dictionary table: `distinct` distinct strings cycled over
/// `rows` rows, plus an empty string at code 0's row set.
struct SyntheticTable {
  Catalog catalog;
  Table* table = nullptr;
  int id_col = 0;
  int s_col = 0;

  SyntheticTable(uint64_t rows, uint64_t distinct) {
    table = catalog.CreateTable("t");
    id_col = table->AddColumn("id", DataType::kI64);
    s_col = table->AddColumn("s", DataType::kI32, /*dictionary=*/true);
    std::vector<std::string> strings;
    for (uint64_t i = 0; i < distinct; ++i) strings.push_back(MakeString(i));
    const PageVector<int32_t> codes =
        testutil::BulkLoad(&table->dictionary(s_col), strings);
    for (uint64_t r = 0; r < rows; ++r) {
      table->column(id_col).AppendInt(static_cast<int64_t>(r));
      table->column(s_col).AppendInt(codes[r % distinct]);
    }
  }

  static std::string MakeString(uint64_t i) {
    if (i == 0) return "";  // the empty-string edge case lives in the data
    static const char* kWords[] = {"special", "requests", "pending",
                                   "ironic", "express"};
    std::string s = kWords[i % 5];
    s += ' ';
    s += kWords[(i / 5) % 5];
    s += '#';
    s += std::to_string(i);
    return s;
  }
};

TEST(LikeLoweringTest, EqualityLowersToCodeCompare) {
  SyntheticTable st(100, 10);
  QueryProgram q("t");
  LoweredLike lowered = LowerLikePredicate(
      &q, *st.table, st.s_col, 0, SyntheticTable::MakeString(3));
  EXPECT_EQ(lowered.pattern_class, LikePatternClass::kEquality);
  EXPECT_FALSE(lowered.used_bitmap);
  EXPECT_FALSE(lowered.used_runtime_call);
  ASSERT_EQ(lowered.expr->kind, ExprKind::kEq);
  // Absent literal: same structure, impossible code.
  LoweredLike absent =
      LowerLikePredicate(&q, *st.table, st.s_col, 0, "no such string");
  ASSERT_EQ(absent.expr->kind, ExprKind::kEq);
  EXPECT_EQ(absent.expr->children[1]->i64_value, -1);
}

TEST(LikeLoweringTest, PrefixOnSortedDictLowersToRangeCompare) {
  SyntheticTable st(100, 10);
  QueryProgram q("t");
  LoweredLike lowered =
      LowerLikePredicate(&q, *st.table, st.s_col, 0, "special%");
  EXPECT_EQ(lowered.pattern_class, LikePatternClass::kPrefix);
  EXPECT_FALSE(lowered.used_bitmap);
  EXPECT_FALSE(lowered.used_runtime_call);
  ASSERT_EQ(lowered.expr->kind, ExprKind::kAnd);
}

TEST(LikeLoweringTest, AutoPicksBitmapForSmallDictAndCallForLarge) {
  // 8 distinct strings over 1000 rows: pre-evaluation amortizes.
  SyntheticTable small(1000, 8);
  QueryProgram q_small("t");
  LoweredLike b = LowerLikePredicate(&q_small, *small.table, small.s_col, 0,
                                     "%requests%");
  EXPECT_TRUE(b.used_bitmap);
  EXPECT_EQ(q_small.bitmaps().size(), 1u);

  // Every row distinct: pre-evaluating per distinct string would cost as
  // much as the scan — runtime-call path.
  SyntheticTable large(256, 256);
  QueryProgram q_large("t");
  LoweredLike c = LowerLikePredicate(&q_large, *large.table, large.s_col, 0,
                                     "%requests%");
  EXPECT_TRUE(c.used_runtime_call);
  EXPECT_EQ(q_large.like_predicates().size(), 1u);
  ASSERT_EQ(c.expr->kind, ExprKind::kLike);
}

TEST(LikeLoweringTest, CostModelDiscountsCallHeavyPipelines) {
  // The runtime-call-density hook: a call-free pipeline compiles, a
  // call-dominated one stays interpreted under identical rates.
  CostModelParams params;
  const double r0 = 1e6;
  // Short enough that compile cost must be earned back by real speedup: a
  // call-bound pipeline's ~2% effective gain cannot pay for it.
  const uint64_t remaining = 150'000;
  Decision call_free = ExtrapolatePipelineDurations(
      r0, remaining, 1, 200, ExecMode::kBytecode, params, 0.0);
  EXPECT_NE(call_free, Decision::kDoNothing);
  Decision call_bound = ExtrapolatePipelineDurations(
      r0, remaining, 1, 200, ExecMode::kBytecode, params, 0.97);
  EXPECT_EQ(call_bound, Decision::kDoNothing);
  // Effective speedup degrades monotonically toward 1.
  EXPECT_DOUBLE_EQ(CostModelParams::EffectiveSpeedup(3.5, 0.0), 3.5);
  EXPECT_LT(CostModelParams::EffectiveSpeedup(3.5, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(CostModelParams::EffectiveSpeedup(3.5, 1.0), 1.0);
  EXPECT_EQ(RuntimeCallFraction(100, 0, params), 0.0);
  EXPECT_GT(RuntimeCallFraction(100, 5, params), 0.3);
}

// ============================================================================
// End-to-end differential across engines
// ============================================================================

class LikeEndToEndTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kRows = 4000;
  static constexpr uint64_t kDistinct = 40;

  static void SetUpTestSuite() {
    table_ = new SyntheticTable(kRows, kDistinct);
    engine_ = new QueryEngine(&table_->catalog, /*num_threads=*/2);
  }
  static void TearDownTestSuite() {
    delete engine_;
    delete table_;
  }

  /// Builds: SELECT id, s FROM t WHERE s LIKE pattern, rows sorted.
  static QueryProgram BuildLikeQuery(const std::string& pattern,
                                     LikeStrategy strategy) {
    QueryProgram q("like_query");
    int t = q.DeclareBaseTable("t");
    LikeLoweringOptions options;
    options.strategy = strategy;
    LoweredLike lowered = LowerLikePredicate(&q, *table_->table,
                                             table_->s_col, /*code_slot=*/1,
                                             pattern, options);
    int output = q.DeclareOutput(2);
    PipelineSpec p;
    p.name = "scan t";
    p.source_table = t;
    p.scan_columns = {table_->id_col, table_->s_col};
    p.ops.push_back(OpFilter{std::move(lowered.expr)});
    SinkOutput sink;
    sink.output = output;
    sink.values.push_back(Slot(0));
    sink.values.push_back(Slot(1));
    p.sink = std::move(sink);
    q.AddPipeline(std::move(p));
    q.AddStep(StepReadOutput{output});
    q.AddStep(StepSort{{{0, false, false}, {1, false, false}}});
    return q;
  }

  static SyntheticTable* table_;
  static QueryEngine* engine_;
};

SyntheticTable* LikeEndToEndTest::table_ = nullptr;
QueryEngine* LikeEndToEndTest::engine_ = nullptr;

TEST_F(LikeEndToEndTest, AllEnginesAgreeOnEveryPatternAndStrategy) {
  const std::vector<std::string> patterns = {
      "",                                   // empty pattern
      "%",                                  // bare %
      "________",                           // '_'-only
      SyntheticTable::MakeString(7),        // equality, present
      "absent string",                      // equality, absent code
      "special%",                           // prefix (range compare)
      "%#17",                               // suffix
      "%requests%",                         // contains
      "%special%requests%",                 // general multi-segment
      "_pecial%#2_",                        // general with '_'
  };
  struct Config {
    EngineKind engine;
    ExecutionStrategy strategy;
    const char* label;
  };
  const Config configs[] = {
      {EngineKind::kVectorized, ExecutionStrategy::kBytecode, "vectorized"},
      {EngineKind::kCompiled, ExecutionStrategy::kBytecode, "vm"},
      {EngineKind::kCompiled, ExecutionStrategy::kUnoptimized, "jit-unopt"},
      {EngineKind::kCompiled, ExecutionStrategy::kOptimized, "jit-opt"},
      {EngineKind::kCompiled, ExecutionStrategy::kAdaptive, "adaptive"},
  };
  for (const std::string& pattern : patterns) {
    for (LikeStrategy strategy :
         {LikeStrategy::kAuto, LikeStrategy::kBitmap,
          LikeStrategy::kRuntimeCall}) {
      // Equality/prefix/match-all collapse to pure compares regardless of
      // strategy; the loop still exercises the request paths.
      QueryProgram ref_program = BuildLikeQuery(pattern, strategy);
      QueryRunOptions volcano;
      volcano.engine = EngineKind::kVolcano;
      volcano.single_threaded = true;
      volcano.scan_pruning = false;
      auto reference = engine_->Run(ref_program, volcano).rows;
      for (const Config& config : configs) {
        QueryProgram program = BuildLikeQuery(pattern, strategy);
        QueryRunOptions options;
        options.engine = config.engine;
        options.strategy = config.strategy;
        auto rows = engine_->Run(program, options).rows;
        EXPECT_EQ(rows, reference)
            << config.label << " pattern='" << pattern << "' strategy="
            << static_cast<int>(strategy);
      }
    }
  }
}

TEST_F(LikeEndToEndTest, PatternVariantsShareStructureAndArtifacts) {
  // Two runtime-call plans differing only in the pattern: identical
  // structural hash, different extracted string literals — and the second
  // run reuses the first's bytecode as-is (the matcher arrives through the
  // binding array, no patching needed).
  QueryProgram a = BuildLikeQuery("%special%requests%",
                                  LikeStrategy::kRuntimeCall);
  QueryProgram b = BuildLikeQuery("%ironic%express%",
                                  LikeStrategy::kRuntimeCall);
  PlanFingerprint fa = FingerprintProgram(a);
  PlanFingerprint fb = FingerprintProgram(b);
  EXPECT_EQ(fa.structural_hash, fb.structural_hash);
  EXPECT_EQ(fa.constants, fb.constants);
  ASSERT_EQ(fa.string_literals.size(), 1u);
  ASSERT_EQ(fb.string_literals.size(), 1u);
  EXPECT_NE(fa.string_literals[0], fb.string_literals[0]);

  QueryEngine engine(&table_->catalog, 2);
  QueryRunOptions options;
  options.strategy = ExecutionStrategy::kBytecode;
  engine.Run(a, options);
  const uint64_t misses_after_a = engine.artifact_cache_stats().bytecode_misses;
  engine.Run(b, options);
  const ArtifactCacheStats stats = engine.artifact_cache_stats();
  EXPECT_EQ(stats.bytecode_misses, misses_after_a);  // b translated nothing
  EXPECT_GT(stats.bytecode_hits, 0u);
}

TEST_F(LikeEndToEndTest, Q14PatternVariantsShareFingerprint) {
  Catalog catalog;
  tpch::BuildTpchDatabase(&catalog, /*sf=*/0.001);
  QueryProgram standard = BuildTpchQuery(14, catalog);
  QueryProgram variant = BuildTpchQ14Variant(catalog, "SMALL%");
  EXPECT_EQ(FingerprintProgram(standard).structural_hash,
            FingerprintProgram(variant).structural_hash);

  // And the variant shares the cached bytecode (range literals come from
  // the binding array).
  QueryEngine engine(&catalog, 2);
  QueryRunOptions options;
  options.strategy = ExecutionStrategy::kBytecode;
  auto r1 = engine.Run(standard, options);
  ASSERT_FALSE(r1.rows.empty());
  QueryProgram variant2 = BuildTpchQ14Variant(catalog, "SMALL%");
  auto r2 = engine.Run(variant2, options);
  ASSERT_FALSE(r2.rows.empty());
  const ArtifactCacheStats stats = engine.artifact_cache_stats();
  EXPECT_GT(stats.bytecode_hits, 0u);
}

TEST_F(LikeEndToEndTest, AdmissionCostFeedbackConverges) {
  QueryEngine engine(&table_->catalog, 2);
  QueryRunOptions options;
  for (int i = 0; i < 3; ++i) {
    QueryProgram q = BuildLikeQuery("special%", LikeStrategy::kAuto);
    engine.Run(q, options);
  }
  // Every completed run feeds the plan's service-time EWMA.
  EXPECT_GE(engine.ObservabilitySnapshot().counter(
                "cache.cost_feedback_updates"),
            3u);
}

TEST_F(LikeEndToEndTest, ConcurrentSubmissionsAreRaceFree) {
  // TSan surface: concurrent clients submitting bitmap- and call-path LIKE
  // queries against one engine (shared artifact cache entries, EWMA
  // updates, binding arrays).
  QueryEngine engine(&table_->catalog, 2);
  constexpr int kClients = 4;
  constexpr int kRuns = 6;
  QueryRunOptions ref_options;
  ref_options.engine = EngineKind::kVolcano;
  ref_options.single_threaded = true;
  ref_options.scan_pruning = false;
  QueryProgram ref = BuildLikeQuery("%requests%", LikeStrategy::kAuto);
  const auto reference = engine.Run(ref, ref_options).rows;

  std::vector<std::future<bool>> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(std::async(std::launch::async, [&engine, c,
                                                      &reference] {
      const LikeStrategy strategy =
          c % 2 == 0 ? LikeStrategy::kBitmap : LikeStrategy::kRuntimeCall;
      for (int i = 0; i < kRuns; ++i) {
        QueryProgram q = BuildLikeQuery("%requests%", strategy);
        QueryRunOptions options;
        options.strategy = i % 2 == 0 ? ExecutionStrategy::kBytecode
                                      : ExecutionStrategy::kAdaptive;
        if (engine.Run(q, options).rows != reference) return false;
      }
      return true;
    }));
  }
  for (auto& client : clients) EXPECT_TRUE(client.get());
}

}  // namespace
}  // namespace aqe
