// Boundary differential for narrow integer columns: i8, i16 and i32 columns
// holding each type's extremes, the values next to them and 0, scanned by
// filter/aggregate plans whose literals sit at (and just past) those bounds,
// on every engine and mode, with scan pruning on and off.
//
// Every column is reserved to exactly its row count and its last row holds
// an extreme value, so a load wider than the column reads past the end of
// its buffer: the result differs from the reference, and the sanitizer
// build reports the read (a misaligned load or a heap-buffer-overflow).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "engine/query_engine.h"
#include "index/table_index.h"
#include "plan/expr.h"
#include "plan/plan.h"
#include "simd/simd.h"
#include "storage/table.h"

namespace aqe {
namespace {

constexpr uint64_t kRows = 700;  // not a multiple of the zone block
constexpr uint32_t kZoneBlockRows = 128;

/// Column indices of the synthetic table.
enum Col { kC8, kC16, kC32, kS8, kS16, kNumCols };

/// An integer type's boundary values: min, min + 1, -1, 0, 1, max - 1, max.
template <typename T>
std::vector<int64_t> Boundaries() {
  const int64_t lo = std::numeric_limits<T>::min();
  const int64_t hi = std::numeric_limits<T>::max();
  return {lo, lo + 1, -1, 0, 1, hi - 1, hi};
}

/// The table's values, kept as int64 independently of the storage, so the
/// reference never reads through the code under test.
struct Values {
  std::vector<int64_t> column[kNumCols];
};

/// Bitmap over `num_codes` dictionary codes selecting the first two and the
/// last two codes, plus every seventh.
std::vector<uint8_t> CodeBitmap(int64_t num_codes) {
  std::vector<uint8_t> bitmap(
      static_cast<size_t>(num_codes) + kSimdBitmapPadding, 0);
  for (int64_t code = 0; code < num_codes; ++code) {
    const bool edge = code < 2 || code >= num_codes - 2;
    bitmap[static_cast<size_t>(code)] = edge || code % 7 == 0;
  }
  return bitmap;
}

class NarrowColumnTest : public ::testing::Test {
 protected:
  static constexpr int64_t kCodes8 = 128;     // every i8 code
  static constexpr int64_t kCodes16 = 32768;  // every i16 code

  static void SetUpTestSuite() {
    catalog_ = new Catalog();
    values_ = new Values();
    Table* t = catalog_->CreateTable("t");
    t->AddColumn("c8", DataType::kI8);
    t->AddColumn("c16", DataType::kI16);
    t->AddColumn("c32", DataType::kI32);
    t->AddColumn("s8", DataType::kI8, /*dictionary=*/true);
    t->AddColumn("s16", DataType::kI16, /*dictionary=*/true);
    // Zero-padded names register in sorted order: code i is "v<i>".
    char name[16];
    for (int64_t code = 0; code < kCodes16; ++code) {
      std::snprintf(name, sizeof(name), "v%05lld",
                    static_cast<long long>(code));
      if (code < kCodes8) t->dictionary(kS8).GetOrAdd(name);
      t->dictionary(kS16).GetOrAdd(name);
    }
    const std::vector<int64_t> b8 = Boundaries<int8_t>();
    const std::vector<int64_t> b16 = Boundaries<int16_t>();
    const std::vector<int64_t> b32 = Boundaries<int32_t>();
    for (uint64_t r = 0; r < kRows; ++r) {
      const bool last = r + 1 == kRows;
      // c8 ascends in runs (zone maps can prune it), c16 cycles row by row
      // (no block can be pruned), c32 cycles in runs of 13.
      int64_t row[kNumCols] = {
          b8[r * b8.size() / kRows], b16[r % b16.size()],
          b32[(r / 13) % b32.size()],
          static_cast<int64_t>(r % kCodes8),
          static_cast<int64_t>((r * 47) % kCodes16)};
      if (last) {
        row[kC8] = std::numeric_limits<int8_t>::max();
        row[kC16] = std::numeric_limits<int16_t>::max();
        row[kC32] = std::numeric_limits<int32_t>::max();
        row[kS8] = kCodes8 - 1;
        row[kS16] = kCodes16 - 1;
      }
      for (int c = 0; c < kNumCols; ++c) {
        t->column(c).AppendInt(row[c]);
        values_->column[c].push_back(row[c]);
      }
    }
    TableIndexOptions options;
    options.zone_block_rows = kZoneBlockRows;
    AttachTableIndexes(t, std::move(options));
    engine_ = new QueryEngine(catalog_, /*num_threads=*/2);
  }

  static void TearDownTestSuite() {
    delete engine_;
    delete values_;
    delete catalog_;
  }

  static Catalog* catalog_;
  static Values* values_;
  static QueryEngine* engine_;
};

Catalog* NarrowColumnTest::catalog_ = nullptr;
Values* NarrowColumnTest::values_ = nullptr;
QueryEngine* NarrowColumnTest::engine_ = nullptr;

/// SELECT count(*), sum(c8), sum(c16), sum(c32) FROM t WHERE <filter>,
/// with the sums of `summed` columns only (the others contribute 0): a
/// filter column that is also summed loads once for two users (a widening
/// load), one that is not is a single-use load the compare can swallow.
/// `make_filter` may register a bitmap with the program it filters.
QueryProgram BuildCountSum(
    const std::function<ExprPtr(QueryProgram*)>& make_filter,
    const std::vector<int>& summed) {
  QueryProgram q("narrow");
  const int table = q.DeclareBaseTable("t");
  const int agg = q.DeclareAggSet(
      {AggKind::kCount, AggKind::kSum, AggKind::kSum, AggKind::kSum});
  PipelineSpec scan;
  scan.name = "scan t";
  scan.source_table = table;
  scan.scan_columns = {kC8, kC16, kC32, kS8, kS16};
  scan.ops.push_back(OpFilter{make_filter(&q)});
  SinkAgg sink;
  sink.agg = agg;
  sink.key = I64(0);
  sink.items.push_back({AggKind::kCount, nullptr, /*checked=*/false});
  for (int c : {kC8, kC16, kC32}) {
    bool sum = false;
    for (int s : summed) sum |= s == c;
    sink.items.push_back({AggKind::kSum, sum ? Slot(c) : I64(0), true});
  }
  scan.sink = std::move(sink);
  q.AddPipeline(std::move(scan));
  q.AddStep(ReadGroups(agg, ExprList(Slot(1), Slot(2), Slot(3), Slot(4))));
  return q;
}

/// The reference result of BuildCountSum over the kept values.
template <typename Pred>
std::vector<std::vector<int64_t>> ReferenceCountSum(
    const Values& values, Pred keep, const std::vector<int>& summed) {
  std::vector<int64_t> row(4, 0);
  for (uint64_t r = 0; r < kRows; ++r) {
    if (!keep(r)) continue;
    ++row[0];
    for (int c : summed) row[1 + c] += values.column[c][r];
  }
  if (row[0] == 0) return {};
  return {row};
}

/// One engine/mode the differential runs a plan on. Bytecode runs on the
/// build's dispatch loop, fused and unfused.
struct Config {
  const char* label;
  EngineKind engine;
  ExecutionStrategy strategy;
  bool fused;
};

const Config kConfigs[] = {
    {"volcano", EngineKind::kVolcano, ExecutionStrategy::kBytecode, true},
    {"vectorized", EngineKind::kVectorized, ExecutionStrategy::kBytecode,
     true},
    {"naive-ir", EngineKind::kNaiveIr, ExecutionStrategy::kBytecode, true},
    {"vm-fused", EngineKind::kCompiled, ExecutionStrategy::kBytecode, true},
    {"vm-unfused", EngineKind::kCompiled, ExecutionStrategy::kBytecode, false},
    {"jit-unopt", EngineKind::kCompiled, ExecutionStrategy::kUnoptimized,
     true},
    {"jit-opt", EngineKind::kCompiled, ExecutionStrategy::kOptimized, true},
};

/// Runs `build()` on every config, with pruning on and off, and expects
/// `reference` from each.
/// Returns whether any pruned run scheduled fewer than all rows.
bool ExpectAllEnginesAgree(QueryEngine* engine,
                           const std::function<QueryProgram()>& build,
                           const std::vector<std::vector<int64_t>>& reference,
                           const std::string& what) {
  bool pruned = false;
  for (const Config& config : kConfigs) {
    for (bool pruning : {true, false}) {
      QueryRunOptions options;
      options.engine = config.engine;
      options.strategy = config.strategy;
      options.translator.fuse_macro_ops = config.fused;
      options.scan_pruning = pruning;
      QueryProgram q = build();
      const QueryRunResult result = engine->Run(q, options);
      EXPECT_EQ(result.rows, reference)
          << what << " on " << config.label << " pruning=" << pruning;
      for (const PipelineReport& p : result.pipelines) {
        pruned |= pruning && p.pruning.analyzed &&
                  p.pruning.selected_fraction() < 1.0;
      }
    }
  }
  return pruned;
}

/// Literals for compares on column `c`: its boundaries and one past each
/// end. The out-of-range ones only compare right at i64, after the sign
/// extension; a compare narrowed to the column's width would wrap them.
std::vector<int64_t> LiteralsFor(int c) {
  switch (c) {
    case kC8: return {-129, -128, -1, 0, 127, 128};
    case kC16: return {-32769, -32768, -1, 0, 32767, 32768};
    case kC32: {
      const int64_t half = int64_t{1} << 31;
      return {-half - 1, -half, -1, 0, half - 1, half};
    }
    case kS8: return {-1, 0, 127, 128};
    default: return {-1, 0, 32767, 32768};
  }
}

TEST_F(NarrowColumnTest, StorageIsExactlyTheDeclaredWidth) {
  const Table* t = catalog_->GetTable("t");
  const int widths[kNumCols] = {1, 2, 4, 1, 2};
  for (int c = 0; c < kNumCols; ++c) {
    EXPECT_EQ(DataTypeSize(t->column(c).type()), widths[c]);
    for (uint64_t r = 0; r < kRows; ++r) {
      ASSERT_EQ(t->column(c).GetAsI64(r), values_->column[c][r]);
    }
  }
}

TEST_F(NarrowColumnTest, CompareFiltersAgreeAtEveryBoundary) {
  using Make = ExprPtr (*)(ExprPtr, ExprPtr);
  struct Pred {
    const char* name;
    Make make;
    bool (*eval)(int64_t, int64_t);
    bool literal_on_left;
  };
  const Pred preds[] = {
      {"=", Eq, [](int64_t a, int64_t b) { return a == b; }, false},
      {"<>", Ne, [](int64_t a, int64_t b) { return a != b; }, false},
      {"<", Lt, [](int64_t a, int64_t b) { return a < b; }, false},
      {"<=", Le, [](int64_t a, int64_t b) { return a <= b; }, false},
      {">", Gt, [](int64_t a, int64_t b) { return a > b; }, false},
      {">=", Ge, [](int64_t a, int64_t b) { return a >= b; }, false},
      {"lit <", Lt, [](int64_t a, int64_t b) { return a < b; }, true},
      {"lit >=", Ge, [](int64_t a, int64_t b) { return a >= b; }, true},
  };
  bool any_pruned = false;
  for (int c = 0; c < kNumCols; ++c) {
    for (int64_t literal : LiteralsFor(c)) {
      for (const Pred& pred : preds) {
        // Summing the filter column too makes its load multi-use; the code
        // columns are filtered only.
        for (bool sum_filter_column : {false, true}) {
          if (sum_filter_column && c > kC32) continue;
          std::vector<int> summed = {c == kC32 ? kC8 : kC32};
          if (sum_filter_column) summed.push_back(c);
          auto build = [&] {
            return BuildCountSum(
                [&](QueryProgram*) {
                  return pred.literal_on_left ? pred.make(I64(literal), Slot(c))
                                              : pred.make(Slot(c), I64(literal));
                },
                summed);
          };
          const std::vector<int64_t>& column = values_->column[c];
          const auto reference = ReferenceCountSum(
              *values_,
              [&](uint64_t r) {
                return pred.literal_on_left ? pred.eval(literal, column[r])
                                            : pred.eval(column[r], literal);
              },
              summed);
          const std::string what = "column " + std::to_string(c) + " " +
                                   pred.name + " " + std::to_string(literal) +
                                   (sum_filter_column ? " (summed)" : "");
          any_pruned |= ExpectAllEnginesAgree(engine_, build, reference, what);
          if (HasFailure()) return;
        }
      }
    }
  }
  // The clustered i8 column's extremes prune blocks, so the pruned runs
  // read the narrow zone maps (not only the full-scan fallback).
  EXPECT_TRUE(any_pruned);
}

TEST_F(NarrowColumnTest, DictionaryBitmapFiltersAgreeOnNarrowCodes) {
  // A bitmap test over a raw code column is the vectorized engine's
  // selection pushdown: 8- and 16-bit codes widen per vector into the
  // 32-bit SIMD probe.
  for (const auto& [c, num_codes] :
       {std::pair{int{kS8}, kCodes8}, std::pair{int{kS16}, kCodes16}}) {
    const std::vector<uint8_t> bitmap = CodeBitmap(num_codes);
    const std::vector<int> summed = {kC8, kC16, kC32};
    auto build = [&] {
      return BuildCountSum(
          [&](QueryProgram* q) {
            return BitmapTest(q->AddBitmap(bitmap), Slot(c));
          },
          summed);
    };
    const std::vector<int64_t>& codes = values_->column[c];
    const auto reference = ReferenceCountSum(
        *values_,
        [&](uint64_t r) { return bitmap[static_cast<size_t>(codes[r])] != 0; },
        summed);
    ASSERT_FALSE(reference.empty());
    ExpectAllEnginesAgree(engine_, build, reference,
                          "bitmap on column " + std::to_string(c));
  }
}

/// A value just past each end of each integer width below 64 bits.
struct OutOfRangeCase {
  DataType type;
  int64_t value;
};
constexpr OutOfRangeCase kOutOfRangeCases[] = {
    {DataType::kI8, 128},
    {DataType::kI8, -129},
    {DataType::kI16, 32768},
    {DataType::kI16, -32769},
    {DataType::kI32, int64_t{1} << 31},
    {DataType::kI32, -(int64_t{1} << 31) - 1},
};

TEST(NarrowColumnDeathTest, AppendOutOfRangeValueFails) {
  for (const OutOfRangeCase& c : kOutOfRangeCases) {
    Column column("x", c.type);
    column.AppendInt(c.value > 0 ? c.value - 1 : c.value + 1);  // fits
    EXPECT_DEATH(column.AppendInt(c.value), "declared width")
        << DataTypeName(c.type) << " " << c.value;
  }
}

// The sized-write path the catalog's parallel writers take checks the
// same widths.
TEST(NarrowColumnDeathTest, SetOutOfRangeValueFails) {
  for (const OutOfRangeCase& c : kOutOfRangeCases) {
    Column column("x", c.type);
    column.Resize(2);
    column.SetInt(1, c.value > 0 ? c.value - 1 : c.value + 1);  // fits
    EXPECT_EQ(column.GetAsI64(1), c.value > 0 ? c.value - 1 : c.value + 1);
    EXPECT_DEATH(column.SetInt(0, c.value), "declared width")
        << DataTypeName(c.type) << " " << c.value;
  }
}

// A batch is checked whole before anything is stored: one value mid-batch
// that does not fit fails it, and so does a batch that ends past size().
TEST(NarrowColumnDeathTest, SetIntsChecksTheWholeBatch) {
  for (const OutOfRangeCase& c : kOutOfRangeCases) {
    Column column("x", c.type);
    column.Resize(5);
    const int64_t fits = c.value > 0 ? c.value - 1 : c.value + 1;
    std::vector<int64_t> values = {fits, -1, fits, 0, fits};
    column.SetInts(0, values.data(), values.size());
    for (uint64_t row = 0; row < values.size(); ++row) {
      EXPECT_EQ(column.GetAsI64(row), values[row]);
    }
    values[2] = c.value;
    EXPECT_DEATH(column.SetInts(0, values.data(), values.size()),
                 "declared width")
        << DataTypeName(c.type) << " " << c.value;
  }
  for (DataType type :
       {DataType::kI8, DataType::kI16, DataType::kI32, DataType::kI64}) {
    Column column("x", type);
    column.Resize(5);
    const int64_t values[3] = {1, 2, 3};
    column.SetInts(2, values, 3);  // ends at size()
    EXPECT_DEATH(column.SetInts(3, values, 3), "past the column's size")
        << DataTypeName(type);
  }
}

}  // namespace
}  // namespace aqe
