#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/fork_join.h"
#include "common/random.h"
#include "engine/query_engine.h"
#include "exec/morsel.h"
#include "index/access_path.h"
#include "index/dict_index.h"
#include "index/table_index.h"
#include "index/text_index.h"
#include "index/zone_map.h"
#include "plan/expr.h"
#include "plan/plan.h"
#include "storage/table.h"
#include "strings/like_lowering.h"
#include "strings/like_pattern.h"
#include "tests/dictionary_test_util.h"

namespace aqe {
namespace {

// ============================================================================
// ScanDomain + morsel queues over a pruned domain
// ============================================================================

TEST(ScanDomainTest, MakeNormalizesRanges) {
  auto d = ScanDomain::Make(
      {{500, 700}, {100, 200}, {150, 300}, {300, 310}, {900, 900}, {950, 2000}},
      /*table_rows=*/1000);
  // {100,200}+{150,300}+{300,310} merge (overlap + adjacency), {900,900} is
  // empty, {950,2000} clamps to table_rows.
  ASSERT_EQ(d->ranges.size(), 3u);
  EXPECT_EQ(d->ranges[0].begin, 100u);
  EXPECT_EQ(d->ranges[0].end, 310u);
  EXPECT_EQ(d->ranges[1].begin, 500u);
  EXPECT_EQ(d->ranges[1].end, 700u);
  EXPECT_EQ(d->ranges[2].begin, 950u);
  EXPECT_EQ(d->ranges[2].end, 1000u);
  EXPECT_EQ(d->selected(), 210u + 200u + 50u);
  // Virtual -> range mapping at the boundaries.
  EXPECT_EQ(d->RangeIndexFor(0), 0u);
  EXPECT_EQ(d->RangeIndexFor(209), 0u);
  EXPECT_EQ(d->RangeIndexFor(210), 1u);
  EXPECT_EQ(d->RangeIndexFor(409), 1u);
  EXPECT_EQ(d->RangeIndexFor(410), 2u);
}

TEST(ScanDomainTest, EmptyDomainSelectsNothing) {
  auto d = ScanDomain::Make({}, 1000);
  EXPECT_EQ(d->selected(), 0u);
  MorselQueue queue(d, 0, 0);
  MorselBatch batch;
  EXPECT_FALSE(queue.Next(&batch));
}

/// Claims every batch, flattens it into its ranges, and checks the union
/// is exactly the domain: sorted, gapless within ranges, no range crossing
/// a domain range boundary.
void DrainAndCheck(MorselQueue* queue, const ScanDomain& domain) {
  std::vector<MorselRange> claimed;
  MorselBatch batch;
  while (queue->Next(&batch)) {
    claimed.insert(claimed.end(), batch.ranges, batch.ranges + batch.count);
  }
  std::sort(claimed.begin(), claimed.end(),
            [](const MorselRange& a, const MorselRange& b) {
              return a.begin < b.begin;
            });
  size_t range = 0;
  uint64_t pos = domain.ranges.empty() ? 0 : domain.ranges[0].begin;
  uint64_t covered = 0;
  for (const MorselRange& c : claimed) {
    ASSERT_LT(range, domain.ranges.size());
    ASSERT_EQ(c.begin, pos);  // gapless, no overlap
    ASSERT_GT(c.end, c.begin);
    // Never spans past the containing range.
    ASSERT_LE(c.end, domain.ranges[range].end);
    covered += c.end - c.begin;
    pos = c.end;
    if (pos == domain.ranges[range].end && range + 1 < domain.ranges.size()) {
      ++range;
      pos = domain.ranges[range].begin;
    }
  }
  EXPECT_EQ(covered, domain.selected());
}

TEST(MorselQueueDomainTest, ClaimedMorselsCoverDomainExactly) {
  auto d = ScanDomain::Make({{100, 1500}, {3000, 3010}, {10000, 20000}},
                            /*table_rows=*/30000);
  MorselQueue queue(d, 0, d->selected(), /*initial_size=*/128,
                    /*max_size=*/1024, /*grow_every=*/4);
  DrainAndCheck(&queue, *d);
}

// Batch claims must cover a fragmented domain exactly once: every batch's
// ranges lie inside domain ranges, batches never overlap, rows sums match,
// and one claim packs several tiny fragments (the per-claim amortization
// the batch API exists for).
TEST(MorselQueueDomainTest, BatchClaimsCoverFragmentedDomainExactly) {
  // 200 islands of 3 rows every 50 rows: far smaller than the schedule.
  std::vector<MorselRange> islands;
  for (uint64_t i = 0; i < 200; ++i) {
    islands.push_back({i * 50, i * 50 + 3});
  }
  auto d = ScanDomain::Make(std::move(islands), /*table_rows=*/10000);
  ASSERT_EQ(d->selected(), 600u);
  MorselQueue queue(d, 0, d->selected(), /*initial_size=*/128);
  std::vector<char> seen(10000, 0);
  MorselBatch batch;
  int batches = 0;
  while (queue.Next(&batch)) {
    ++batches;
    ASSERT_GT(batch.count, 0);
    ASSERT_LE(batch.count, MorselBatch::kMaxRanges);
    uint64_t rows = 0;
    for (int i = 0; i < batch.count; ++i) {
      const MorselRange& r = batch.ranges[i];
      ASSERT_LT(r.begin, r.end);
      rows += r.end - r.begin;
      for (uint64_t row = r.begin; row < r.end; ++row) {
        ASSERT_EQ(seen[row], 0) << "row " << row << " claimed twice";
        seen[row] = 1;
        EXPECT_EQ(row % 50 < 3, true) << "row " << row << " outside domain";
      }
    }
    EXPECT_EQ(rows, batch.rows);
  }
  uint64_t covered = 0;
  for (char c : seen) covered += static_cast<uint64_t>(c);
  EXPECT_EQ(covered, d->selected());
  // 128-row schedule windows over 3-row islands clamped at kMaxRanges=32
  // ranges/batch: ~600/96 ≈ 7 batches, not 200 single-island claims.
  EXPECT_LE(batches, 20);
}

TEST(MorselQueueDomainTest, ShardedDomainCoversEverythingOnce) {
  auto d = ScanDomain::Make({{0, 100}, {5000, 5555}, {7000, 12000}},
                            /*table_rows=*/20000);
  ShardedMorselQueue queue(d, /*num_shards=*/4, /*initial_size=*/64);
  EXPECT_EQ(queue.total(), d->selected());
  std::vector<char> seen(20000, 0);
  MorselBatch batch;
  // Round-robin across shards (exercises stealing once shards drain).
  int shard = 0;
  while (queue.Next(shard, &batch)) {
    for (int i = 0; i < batch.count; ++i) {
      const MorselRange& m = batch.ranges[i];
      for (uint64_t r = m.begin; r < m.end; ++r) {
        ASSERT_EQ(seen[r], 0) << "row " << r << " claimed twice";
        seen[r] = 1;
      }
    }
    shard = (shard + 1) % 4;
  }
  uint64_t covered = 0;
  for (uint64_t r = 0; r < seen.size(); ++r) {
    if (!seen[r]) continue;
    ++covered;
    bool in_domain = false;
    for (const MorselRange& range : d->ranges) {
      in_domain |= r >= range.begin && r < range.end;
    }
    ASSERT_TRUE(in_domain) << "row " << r << " outside the domain";
  }
  EXPECT_EQ(covered, d->selected());
  EXPECT_EQ(queue.remaining(), 0u);
}

// ============================================================================
// Index structures
// ============================================================================

/// Synthetic table: `id` ascending (clustered), `val` = id % 1000
/// (uniform, unprunable), `s` a dictionary comment column where every
/// kSpecialStride-th row says "special requests pending" and the rest cycle
/// filler phrases. The stride exceeds kMergeGapRows, so
/// candidate rows stay separate ranges instead of merging into one dense
/// scan (hits closer than the merge gap are *deliberately* not prunable).
struct IndexedTable {
  Catalog catalog;
  Table* table = nullptr;
  int id_col, val_col, s_col;
  static constexpr uint64_t kRows = 20000;
  static constexpr uint64_t kSpecialStride = 128;

  IndexedTable() {
    table = catalog.CreateTable("t");
    id_col = table->AddColumn("id", DataType::kI64);
    val_col = table->AddColumn("val", DataType::kI64);
    s_col = table->AddColumn("s", DataType::kI32, /*dictionary=*/true);
    std::vector<std::string> comments;
    for (uint64_t i = 0; i < kRows; ++i) comments.push_back(MakeComment(i));
    const PageVector<int32_t> codes =
        testutil::BulkLoad(&table->dictionary(s_col), comments);
    for (uint64_t i = 0; i < kRows; ++i) {
      table->column(id_col).AppendInt(static_cast<int64_t>(i));
      table->column(val_col).AppendInt(static_cast<int64_t>(i % 1000));
      table->column(s_col).AppendInt(codes[i]);
    }
    TableIndexOptions options;
    options.text_columns = {"s"};
    AttachTableIndexes(table, std::move(options));
  }

  static std::string MakeComment(uint64_t i) {
    if (i % kSpecialStride == 0) {
      return "special requests pending #" + std::to_string(i);
    }
    static const char* kWords[] = {"carefully", "ironic", "deposits", "boost",
                                   "express", "accounts", "furiously"};
    std::string s = kWords[i % 7];
    s += ' ';
    s += kWords[(i / 7) % 7];
    s += " #";
    s += std::to_string(i % 400);
    return s;
  }
};

TEST(ZoneMapsTest, MinMaxTracksBlocksAndPresenceFindsCodes) {
  IndexedTable t;
  const TableIndexes& idx = *t.table->indexes();
  const ZoneMaps& zones = idx.zones;
  ASSERT_GT(zones.num_blocks(), 0u);
  const ZoneMaps::ColumnZones* id_zones = zones.ForColumn(t.id_col);
  ASSERT_NE(id_zones, nullptr);
  // id is ascending: block b covers [b * block_rows, ...).
  for (uint64_t b = 0; b < zones.num_blocks(); ++b) {
    EXPECT_EQ(id_zones->min[b],
              static_cast<int64_t>(b * zones.block_rows()));
    EXPECT_EQ(id_zones->max[b],
              static_cast<int64_t>(
                  std::min<uint64_t>(IndexedTable::kRows,
                                     (b + 1) * zones.block_rows()) - 1));
  }
  // Presence filter: every code stored in block 0 must test positive there.
  const ZoneMaps::ColumnZones* s_zones = zones.ForColumn(t.s_col);
  ASSERT_NE(s_zones, nullptr);
  ASSERT_TRUE(s_zones->has_presence);
  for (uint64_t r = 0; r < zones.block_rows(); ++r) {
    EXPECT_TRUE(ZoneMaps::PresenceMayContain(
        s_zones->presence.data(), t.table->column(t.s_col).GetI32(r)));
  }
}

/// A table of kRows rows, which end in a partial zone block: a value
/// column of each integer width, and dictionary columns whose blocks take
/// each presence path. `narrow` draws from 50 codes, so every block's codes
/// fit a bitset of fewer words than the block has rows (set once per
/// code). `wide` draws from 100,000 codes, so no block's do (set per row).
/// `mixed` draws from 400 codes, a bitset of 7 words, in every block but
/// the second, which is wide.
struct ZoneTable {
  Catalog catalog;
  Table* table = nullptr;
  static constexpr uint64_t kRows = 3 * 1024 + 100;
  static constexpr int32_t kWideCodes = 100000;

  ZoneTable() {
    table = catalog.CreateTable("z");
    const int i8 = table->AddColumn("i8", DataType::kI8);
    const int i16 = table->AddColumn("i16", DataType::kI16);
    const int i32 = table->AddColumn("i32", DataType::kI32);
    const int f64 = table->AddColumn("f64", DataType::kF64);
    const int narrow = table->AddColumn("narrow", DataType::kI8, true);
    const int wide = table->AddColumn("wide", DataType::kI32, true);
    const int mixed = table->AddColumn("mixed", DataType::kI32, true);
    Load(narrow, 50);
    Load(wide, kWideCodes);
    Load(mixed, kWideCodes);
    Random rng(7);
    for (uint64_t r = 0; r < kRows; ++r) {
      const auto draw = [&rng](int64_t lo, int64_t hi) {
        return lo + static_cast<int64_t>(
                        rng.NextBelow(static_cast<uint64_t>(hi - lo + 1)));
      };
      table->column(i8).AppendInt(draw(INT8_MIN, INT8_MAX));
      table->column(i16).AppendInt(draw(INT16_MIN, INT16_MAX));
      table->column(i32).AppendInt(draw(INT32_MIN, INT32_MAX));
      table->column(f64).AppendF64(static_cast<double>(r));
      table->column(narrow).AppendInt(draw(0, 49));
      table->column(wide).AppendInt(draw(0, kWideCodes - 1));
      table->column(mixed).AppendInt(
          r / 1024 == 1 ? draw(0, kWideCodes - 1) : draw(500, 899));
    }
    AttachTableIndexes(table);
  }

  /// Bulk-loads `codes` distinct strings into column c's dictionary,
  /// registered in order, so code i is the i-th string.
  void Load(int c, int32_t codes) {
    std::vector<std::string> values;
    for (int32_t code = 0; code < codes; ++code) {
      values.push_back(std::to_string(1000000 + code));
    }
    const PageVector<int32_t> loaded =
        testutil::BulkLoad(&table->dictionary(c), values);
    for (int32_t code = 0; code < codes; ++code) {
      ASSERT_EQ(loaded[static_cast<size_t>(code)], code);
    }
  }
};

TEST(ZoneMapsTest, MinMaxHoldForEveryWidth) {
  ZoneTable t;
  const ZoneMaps& zones = t.table->indexes()->zones;
  ASSERT_EQ(zones.num_blocks(), 4u);
  EXPECT_EQ(zones.ForColumn(t.table->ColumnIndex("f64")), nullptr);
  for (const char* name : {"i8", "i16", "i32", "narrow", "wide", "mixed"}) {
    const Column& column = t.table->column(name);
    const ZoneMaps::ColumnZones* cz =
        zones.ForColumn(t.table->ColumnIndex(name));
    ASSERT_NE(cz, nullptr) << name;
    for (uint64_t b = 0; b < zones.num_blocks(); ++b) {
      const uint64_t begin = b * zones.block_rows();
      const uint64_t end =
          std::min<uint64_t>(ZoneTable::kRows, begin + zones.block_rows());
      int64_t lo = column.GetAsI64(begin), hi = lo;
      for (uint64_t r = begin; r < end; ++r) {
        lo = std::min(lo, column.GetAsI64(r));
        hi = std::max(hi, column.GetAsI64(r));
      }
      EXPECT_EQ(cz->min[b], lo) << name << " block " << b;
      EXPECT_EQ(cz->max[b], hi) << name << " block " << b;
    }
  }
}

// Presence bits are set once per distinct code of a block, or once per row
// where a bitset of the block's codes would outgrow its rows; either way
// every block's words must equal setting each row's bits in turn.
TEST(ZoneMapsTest, PresenceWordsMatchAPerRowReference) {
  ZoneTable t;
  const ZoneMaps& zones = t.table->indexes()->zones;
  for (const char* name : {"narrow", "wide", "mixed"}) {
    const Column& column = t.table->column(name);
    const ZoneMaps::ColumnZones* cz =
        zones.ForColumn(t.table->ColumnIndex(name));
    ASSERT_NE(cz, nullptr) << name;
    ASSERT_TRUE(cz->has_presence) << name;
    for (uint64_t b = 0; b < zones.num_blocks(); ++b) {
      const uint64_t begin = b * zones.block_rows();
      const uint64_t end =
          std::min<uint64_t>(ZoneTable::kRows, begin + zones.block_rows());
      // The path the block takes: a bitset over [min, max] of more words
      // than the block has rows is set per row.
      const bool per_row =
          static_cast<uint64_t>(cz->max[b] - cz->min[b]) / 64 + 1 >
          end - begin;
      const std::string label = std::string(name) + " block " +
                                std::to_string(b) +
                                (per_row ? " (per row)" : " (per code)");
      EXPECT_EQ(per_row, std::string(name) == "wide" ||
                             (std::string(name) == "mixed" && b == 1))
          << label;
      uint64_t expected[ZoneMaps::kPresenceWords] = {};
      for (uint64_t r = begin; r < end; ++r) {
        ZoneMaps::PresenceAdd(expected, column.GetAsI64(r));
      }
      const uint64_t* words =
          cz->presence.data() + b * ZoneMaps::kPresenceWords;
      for (uint32_t w = 0; w < ZoneMaps::kPresenceWords; ++w) {
        EXPECT_EQ(words[w], expected[w]) << label << " word " << w;
      }
    }
  }
}

TEST(DictCodeIndexTest, RowsGroupedByCodeAndCountsMatch) {
  IndexedTable t;
  const DictCodeIndex& csr = t.table->indexes()->dict_indexes.at(t.s_col);
  EXPECT_EQ(csr.rows(), IndexedTable::kRows);
  EXPECT_EQ(csr.num_codes(), t.table->dictionary(t.s_col).size());
  EXPECT_EQ(csr.CountForCodeRange(0, csr.num_codes()), IndexedTable::kRows);
  // Every code is rare here, so every row is listed, and the listed-row
  // prefix sums are the row counts', stored once.
  EXPECT_EQ(csr.listed_rows(), IndexedTable::kRows);
  EXPECT_TRUE(csr.Listed(0, csr.num_codes()));
  EXPECT_EQ(csr.approx_bytes(),
            (csr.num_codes() + 1 + IndexedTable::kRows) * sizeof(uint32_t));
  // Every row listed under a code actually stores that code, ascending.
  for (int32_t c = 0; c < csr.num_codes(); ++c) {
    std::vector<uint32_t> rows;
    csr.CollectRows(c, c + 1, &rows);
    ASSERT_EQ(rows.size(), csr.CountForCodeRange(c, c + 1));
    for (size_t i = 0; i < rows.size(); ++i) {
      ASSERT_EQ(t.table->column(t.s_col).GetI32(rows[i]), c);
      if (i > 0) ASSERT_LT(rows[i - 1], rows[i]);
    }
  }
  // Out-of-range code ranges clamp instead of crashing.
  EXPECT_EQ(csr.CountForCodeRange(-5, 0), 0u);
  EXPECT_EQ(csr.CountForCodeRange(csr.num_codes(), csr.num_codes() + 9), 0u);
}

/// A dictionary column where 80% of rows hold one frequent code and the
/// rest spread over kRareCodes rare codes, kRareRows rows each, scattered
/// through the table.
struct SkewedTable {
  Catalog catalog;
  Table* table = nullptr;
  int id_col, k_col;
  static constexpr uint64_t kRows = 20000;
  static constexpr uint64_t kRareCodes = 1000;

  SkewedTable() {
    table = catalog.CreateTable("skew");
    id_col = table->AddColumn("id", DataType::kI32);
    k_col = table->AddColumn("k", DataType::kI32, /*dictionary=*/true);
    std::vector<std::string> values;
    for (uint64_t i = 0; i < kRows; ++i) {
      values.push_back(i % 5 == 0
                           ? "rare#" + std::to_string((i / 5) % kRareCodes)
                           : std::string("common"));
    }
    const PageVector<int32_t> codes =
        testutil::BulkLoad(&table->dictionary(k_col), values);
    for (uint64_t i = 0; i < kRows; ++i) {
      table->column(id_col).AppendInt(static_cast<int32_t>(i));
      table->column(k_col).AppendInt(codes[i]);
    }
    AttachTableIndexes(table, {});
  }

  int32_t Code(const std::string& value) const {
    return table->dictionary(k_col).Find(value);
  }
};

TEST(DictCodeIndexTest, ListsRowsOfRareCodesOnly) {
  SkewedTable t;
  const DictCodeIndex& csr = t.table->indexes()->dict_indexes.at(t.k_col);
  const Column& k = t.table->column(t.k_col);
  const int32_t common = t.Code("common");
  ASSERT_EQ(csr.num_codes(), static_cast<int32_t>(SkewedTable::kRareCodes + 1));
  EXPECT_EQ(csr.rows(), SkewedTable::kRows);
  // Brute force: every code's rows, ascending.
  std::vector<std::vector<uint32_t>> expected(
      static_cast<size_t>(csr.num_codes()));
  for (uint64_t r = 0; r < k.size(); ++r) {
    expected[static_cast<size_t>(k.GetI32(r))].push_back(
        static_cast<uint32_t>(r));
  }
  for (int32_t c = 0; c < csr.num_codes(); ++c) {
    const std::vector<uint32_t>& rows = expected[static_cast<size_t>(c)];
    ASSERT_EQ(csr.CountForCodeRange(c, c + 1), rows.size()) << "code " << c;
    if (c == common) continue;
    ASSERT_TRUE(csr.Listed(c, c + 1)) << "code " << c;
    std::vector<uint32_t> listed;
    csr.CollectRows(c, c + 1, &listed);
    ASSERT_EQ(listed, rows) << "code " << c;
  }
  // The frequent code (80% of rows, above the 10% candidate bound) stores
  // no row ids; counts over ranges containing it stay exact.
  const uint64_t common_rows = SkewedTable::kRows * 4 / 5;
  ASSERT_EQ(csr.CountForCodeRange(common, common + 1), common_rows);
  EXPECT_GT(common_rows, MaxCandidateRows(SkewedTable::kRows));
  EXPECT_FALSE(csr.Listed(common, common + 1));
  EXPECT_FALSE(csr.Listed(0, csr.num_codes()));
  EXPECT_EQ(csr.listed_rows(), SkewedTable::kRows - common_rows);
  EXPECT_EQ(csr.CountForCodeRange(0, csr.num_codes()), SkewedTable::kRows);
  // Both prefix-sum arrays are kept.
  EXPECT_EQ(csr.approx_bytes(),
            (2 * (csr.num_codes() + 1) + csr.listed_rows()) * sizeof(uint32_t));
}

/// Everything a table's indexes hold, flattened: the zone maps' blocks,
/// each code index's per-code counts, listing and rows, each token index's
/// counts and the candidates of `patterns`, and the byte total.
std::vector<int64_t> IndexContent(const Table& table,
                                  const std::vector<std::string>& patterns) {
  const TableIndexes& indexes = *table.indexes();
  std::vector<int64_t> out = {static_cast<int64_t>(indexes.rows),
                              static_cast<int64_t>(indexes.approx_bytes),
                              static_cast<int64_t>(indexes.zones.num_blocks())};
  for (int c = 0; c < table.num_columns(); ++c) {
    if (const ZoneMaps::ColumnZones* cz = indexes.zones.ForColumn(c)) {
      out.push_back(c);
      out.insert(out.end(), cz->min.begin(), cz->min.end());
      out.insert(out.end(), cz->max.begin(), cz->max.end());
      out.insert(out.end(), cz->presence.begin(), cz->presence.end());
    }
    if (const auto it = indexes.dict_indexes.find(c);
        it != indexes.dict_indexes.end()) {
      const DictCodeIndex& codes = it->second;
      out.push_back(codes.num_codes());
      for (int32_t code = 0; code < codes.num_codes(); ++code) {
        out.push_back(
            static_cast<int64_t>(codes.CountForCodeRange(code, code + 1)));
        if (!codes.Listed(code, code + 1)) continue;
        std::vector<uint32_t> rows;
        codes.CollectRows(code, code + 1, &rows);
        out.insert(out.end(), rows.begin(), rows.end());
      }
    }
    if (const auto it = indexes.text_indexes.find(c);
        it != indexes.text_indexes.end()) {
      const TokenIndex& tokens = it->second;
      out.push_back(static_cast<int64_t>(tokens.num_tokens()));
      out.push_back(static_cast<int64_t>(tokens.posting_entries()));
      out.push_back(static_cast<int64_t>(tokens.num_bitmaps()));
      for (const std::string& pattern : patterns) {
        std::vector<int32_t> candidates;
        tokens.CandidateCodes(pattern, &candidates);
        out.push_back(static_cast<int64_t>(candidates.size()));
        out.insert(out.end(), candidates.begin(), candidates.end());
      }
    }
  }
  return out;
}

// One AttachIndexes call builds every index of several tables as one task
// list; each table's indexes must equal building that table alone.
TEST(AttachIndexesTest, OneCallEqualsPerTableBuilds) {
  IndexedTable text_alone;  // each constructor attaches its table alone
  SkewedTable skew_alone;
  ZoneTable zone_alone;
  IndexedTable text;
  SkewedTable skew;
  ZoneTable zone;
  TableIndexOptions text_options;
  text_options.text_columns = {"s"};
  AttachIndexes({{zone.table, {}},
                 {text.table, std::move(text_options)},
                 {skew.table, {}}});
  const std::vector<std::string> patterns = {
      "%special requests%", "%ironic%", "%express%deposits%", "%#39%"};
  EXPECT_EQ(IndexContent(*text.table, patterns),
            IndexContent(*text_alone.table, patterns));
  EXPECT_EQ(IndexContent(*skew.table, patterns),
            IndexContent(*skew_alone.table, patterns));
  EXPECT_EQ(IndexContent(*zone.table, patterns),
            IndexContent(*zone_alone.table, patterns));
  EXPECT_EQ(text.table->indexes()->text_indexes.size(), 1u);
  EXPECT_EQ(text.table->indexes()->options.text_columns,
            std::vector<std::string>{"s"});
}

TEST(TokenIndexTest, PatternPartsSplitsAtWildcardsAndShortParts) {
  const auto parts = TokenIndex::PatternParts("%special requests%");
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0], "special");
  EXPECT_EQ(parts[1], "requests");
  // '_' splits chunks; 1-byte sub-parts are dropped.
  EXPECT_EQ(TokenIndex::PatternParts("a_b%").size(), 0u);
  EXPECT_EQ(TokenIndex::PatternParts("%%").size(), 0u);
  EXPECT_EQ(TokenIndex::PatternParts("ab_cd").size(), 2u);
}

TEST(TokenIndexTest, CandidateCodesAreASupersetOfMatches) {
  IndexedTable t;
  const Dictionary& dict = t.table->dictionary(t.s_col);
  const TokenIndex& tokens = t.table->indexes()->text_indexes.at(t.s_col);
  for (const char* pattern :
       {"%special requests%", "%ironic%express%", "%deposits%", "%#39%"}) {
    std::vector<int32_t> candidates;
    ASSERT_TRUE(tokens.CandidateCodes(pattern, &candidates)) << pattern;
    LikeMatcher matcher = LikeMatcher::Compile(pattern);
    dict.ForEach(0, dict.size(), [&](int32_t c, std::string_view s) {
      if (matcher.Matches(s)) {
        EXPECT_TRUE(std::binary_search(candidates.begin(), candidates.end(), c))
            << "pattern '" << pattern << "' lost match '" << s << "'";
      }
    });
  }
  // A pattern whose tokens exist nowhere: usable, empty candidates.
  std::vector<int32_t> none;
  ASSERT_TRUE(tokens.CandidateCodes("%zzyzzx qwqwq%", &none));
  EXPECT_TRUE(none.empty());
  // No usable sub-part: the index reports it cannot help.
  EXPECT_FALSE(tokens.CandidateCodes("%", &none));
  EXPECT_FALSE(tokens.CandidateCodes("_%_", &none));
}

/// `code` in five base-16 digits over ascending separator bytes, which form
/// no token, most significant first: distinct strings in code order, so a
/// token-index test registers its strings in order and code i is string i.
std::string CodePrefix(size_t code) {
  static constexpr char kSeparators[] = "!#$%&()*+,-./:;<";  // 16, ascending
  std::string prefix;
  for (int shift = 16; shift >= 0; shift -= 4) {
    prefix += kSeparators[code >> shift & 15];
  }
  return prefix;
}

/// Registers `tokens_of[i]`, each after a space, behind CodePrefix(i) as
/// code i of `dict`, and fills `reference`: each token's codes, ascending,
/// a code once however often its string repeats the token.
void MakeTokenDictionary(const std::vector<std::vector<std::string>>& tokens_of,
                         Dictionary* dict,
                         std::map<std::string, std::vector<int32_t>>* reference) {
  for (size_t code = 0; code < tokens_of.size(); ++code) {
    std::string s = CodePrefix(code);
    for (const std::string& token : tokens_of[code]) s += " " + token;
    ASSERT_EQ(dict->GetOrAdd(s), static_cast<int32_t>(code));
    for (const std::string& token : tokens_of[code]) {
      std::vector<int32_t>& codes = (*reference)[token];
      if (codes.empty() || codes.back() != static_cast<int32_t>(code)) {
        codes.push_back(static_cast<int32_t>(code));
      }
    }
  }
}

/// Checks `index` against a serial std::map build (`reference`, from
/// MakeTokenDictionary): its token and posting counts, and the candidates
/// of %t% for every token t, which are the codes of every token containing
/// t.
void ExpectMatchesReference(
    const TokenIndex& index,
    const std::map<std::string, std::vector<int32_t>>& reference) {
  ASSERT_EQ(index.num_tokens(), reference.size());
  uint64_t postings = 0;
  for (const auto& entry : reference) postings += entry.second.size();
  EXPECT_EQ(index.posting_entries(), postings);
  for (const auto& [token, codes] : reference) {
    std::vector<int32_t> candidates;
    const bool usable =
        index.CandidateCodes("%" + token + "%", &candidates);
    if (token.size() < TokenIndex::kMinSubpart) {
      EXPECT_FALSE(usable) << token;
      continue;
    }
    std::vector<int32_t> expected;
    for (const auto& [other, other_codes] : reference) {
      if (other.find(token) == std::string::npos) continue;
      expected.insert(expected.end(), other_codes.begin(), other_codes.end());
    }
    std::sort(expected.begin(), expected.end());
    expected.erase(std::unique(expected.begin(), expected.end()),
                   expected.end());
    ASSERT_TRUE(usable) << token;
    EXPECT_EQ(candidates, expected) << token;
  }
}

/// Whether a token of `count` codes is a bitmap in a dictionary of `codes`
/// codes: the container rule, 4 bytes per code against one bit per code.
bool IsBitmap(uint64_t count, uint64_t codes) {
  return count * sizeof(int32_t) > (codes + 63) / 64 * sizeof(uint64_t);
}

/// The bitmap tokens of `reference`.
size_t CountBitmaps(const std::map<std::string, std::vector<int32_t>>& reference,
                    uint64_t codes) {
  return static_cast<size_t>(
      std::count_if(reference.begin(), reference.end(), [codes](const auto& e) {
        return IsBitmap(e.second.size(), codes);
      }));
}

/// The first code of each range TokenIndex::Build splits a dictionary of
/// `n` >= kParallelBuildCodes codes into, and `n` last: 4 x ForkJoinWidth()
/// ranges, each starting on a multiple of 64 codes. The tests below place
/// tokens by these ranges; their checks against the reference hold for
/// any split.
std::vector<size_t> BuildRangeBegins(size_t n) {
  const size_t ranges = 4 * ForkJoinWidth();
  std::vector<size_t> begins;
  for (size_t r = 0; r <= ranges; ++r) {
    begins.push_back(std::min(n, (n * r / ranges + 63) / 64 * 64));
  }
  return begins;
}

// A dictionary of kParallelBuildCodes+ codes is tokenized in ranges on
// several threads; the index must equal a serial std::map build. The
// strings repeat tokens within one string, and the codes at every range
// boundary n*r/R of any range count R <= 64 carry a token of their own.
TEST(TokenIndexTest, ParallelBuildMatchesSerialReference) {
  static constexpr const char* kVocabulary[] = {
      "alpha", "beta", "gamma", "al", "pha", "x", "Z9", "42", "delta7"};
  const size_t n = TokenIndex::kParallelBuildCodes + 4099;
  std::vector<bool> boundary(n, false);
  for (size_t ranges = 1; ranges <= 64; ++ranges) {
    for (size_t r = 0; r < ranges; ++r) boundary[n * r / ranges] = true;
  }
  Random rng(43);
  std::vector<std::vector<std::string>> tokens_of(n);
  for (size_t code = 0; code < n; ++code) {
    std::vector<std::string>& tokens = tokens_of[code];
    for (uint64_t t = 1 + rng.NextBelow(6); t > 0; --t) {
      tokens.push_back(kVocabulary[rng.NextBelow(std::size(kVocabulary))]);
      if (rng.NextBelow(4) == 0) tokens.push_back(tokens.back());  // repeat
    }
    if (boundary[code]) tokens.push_back("edge");
  }
  Dictionary dict;
  std::map<std::string, std::vector<int32_t>> reference;
  MakeTokenDictionary(tokens_of, &dict, &reference);
  ExpectMatchesReference(TokenIndex::Build(dict), reference);
}

// Each range keeps a token's codes in a container of its own, by the
// container rule over the range's bitmap words. `denseone` is in every
// 16th code of the first range, a bitmap there, and in every 997th code of
// the others, arrays there; it is an array globally, so the flatten lists
// the set bits of the first range's bitmap. `alpha` is a bitmap in every
// range and globally, `rare` an array in every range and globally.
TEST(TokenIndexTest, DenseInOneRangeIsAnArrayGlobally) {
  const size_t n = TokenIndex::kParallelBuildCodes + 4099;
  const std::vector<size_t> begins = BuildRangeBegins(n);
  std::vector<std::vector<std::string>> tokens_of(n);
  for (size_t code = 0; code < n; ++code) {
    std::vector<std::string>& tokens = tokens_of[code];
    if (code < begins[1] ? code % 16 == 0 : code % 997 == 5) {
      tokens.push_back("denseone");
    }
    if (code % 3 == 0) tokens.push_back("alpha");
    if (code % 500 == 2) tokens.push_back("rare");
  }
  Dictionary dict;
  std::map<std::string, std::vector<int32_t>> reference;
  MakeTokenDictionary(tokens_of, &dict, &reference);
  const std::vector<int32_t>& dense = reference["denseone"];
  const auto in_first = static_cast<uint64_t>(
      std::lower_bound(dense.begin(), dense.end(),
                       static_cast<int32_t>(begins[1])) -
      dense.begin());
  ASSERT_TRUE(IsBitmap(in_first, begins[1]));
  ASSERT_FALSE(IsBitmap(dense.size(), n));
  const TokenIndex index = TokenIndex::Build(dict);
  EXPECT_EQ(index.num_bitmaps(), 1u);  // alpha
  EXPECT_EQ(CountBitmaps(reference, n), 1u);
  ExpectMatchesReference(index, reference);
}

// Since every range starts on a multiple of 64 codes, the ranges' bitmap
// words add up to the dictionary's: a token that is an array in every
// range is an array globally. `rangeedge` sits exactly at each range's
// crossover (two codes per bitmap word, an array in each), so it is
// exactly at the global one, an array too. `pastedge` has one code more, in
// the last range, which makes it a bitmap there and globally: the flatten
// sets the bits of the other ranges' arrays and copies the last range's
// bitmap.
TEST(TokenIndexTest, RangeArraysGatherIntoAGlobalBitmap) {
  const size_t n = TokenIndex::kParallelBuildCodes + 4099;
  const std::vector<size_t> begins = BuildRangeBegins(n);
  std::vector<std::vector<std::string>> tokens_of(n);
  for (size_t r = 0; r + 1 < begins.size(); ++r) {
    const size_t words = (begins[r + 1] - begins[r] + 63) / 64;
    const bool last = r + 2 == begins.size();
    for (size_t i = 0; i < 2 * words; ++i) {
      tokens_of[begins[r] + i].push_back("rangeedge");
    }
    for (size_t i = 0; i < 2 * words + (last ? 1 : 0); ++i) {
      tokens_of[begins[r + 1] - 1 - i].push_back("pastedge");
    }
  }
  for (size_t code = 0; code < n; code += 7) tokens_of[code].push_back("s7");
  Dictionary dict;
  std::map<std::string, std::vector<int32_t>> reference;
  MakeTokenDictionary(tokens_of, &dict, &reference);
  ASSERT_EQ(reference["rangeedge"].size(), 2 * ((n + 63) / 64));
  ASSERT_FALSE(IsBitmap(reference["rangeedge"].size(), n));
  ASSERT_TRUE(IsBitmap(reference["pastedge"].size(), n));
  const TokenIndex index = TokenIndex::Build(dict);
  EXPECT_EQ(index.num_bitmaps(), 2u);  // pastedge, s7
  EXPECT_EQ(CountBitmaps(reference, n), 2u);
  ExpectMatchesReference(index, reference);
}

// A dictionary below kParallelBuildCodes is one range, whose container
// rule is the global one: `crosses` turns from an array into a bitmap
// part-way through the build, `pastedge` on its last code, and `atedge`,
// exactly at the crossover, stays an array.
TEST(TokenIndexTest, OneRangeCrossesTheContainerSwitch) {
  const size_t n = TokenIndex::kParallelBuildCodes - 96;
  const size_t crossover = 2 * ((n + 63) / 64);
  std::vector<std::vector<std::string>> tokens_of(n);
  for (size_t code = 0; code < n; ++code) {
    if (code % 8 == 3) tokens_of[code].push_back("crosses");
    if (code % 100 == 0) tokens_of[code].push_back("few");
  }
  for (size_t i = 0; i < crossover; ++i) {
    tokens_of[n - 1 - 2 * i].push_back("atedge");
    tokens_of[n - 1 - 3 * i].push_back("pastedge");
  }
  tokens_of[0].push_back("pastedge");
  Dictionary dict;
  std::map<std::string, std::vector<int32_t>> reference;
  MakeTokenDictionary(tokens_of, &dict, &reference);
  ASSERT_EQ(reference["atedge"].size(), crossover);
  ASSERT_EQ(reference["pastedge"].size(), crossover + 1);
  const TokenIndex index = TokenIndex::Build(dict);
  EXPECT_EQ(index.num_bitmaps(), 2u);  // crosses, pastedge
  EXPECT_EQ(CountBitmaps(reference, n), 2u);
  ExpectMatchesReference(index, reference);
}

// Each token's postings are an array or a bitmap, whichever is smaller: a
// bitmap once 4 bytes per posting exceed one bit per code. Tokens sit on
// both sides of that crossover and one exactly at it (an array), and the
// patterns' sub-parts hit only bitmaps, only arrays or both. The
// candidates and the posting counts read must equal a brute-force scan of
// every string's tokens. The dictionary is big enough for the parallel
// build, whose ranges set bits in their own words.
TEST(TokenIndexTest, BitmapAndArrayPostingsMatchBruteForce) {
  const size_t n = TokenIndex::kParallelBuildCodes + 4099;
  // At `crossover` postings an array takes exactly the bitmap's bytes.
  const size_t crossover = 2 * ((n + 63) / 64);
  const size_t stride = n / (crossover + 1);
  std::vector<std::vector<std::string>> tokens_of(n);
  for (size_t code = 0; code < n; ++code) {
    std::vector<std::string>& tokens = tokens_of[code];
    if (code % 4 == 0) tokens.push_back("bigone");     // n / 4: bitmap
    if (code % 3 == 1) tokens.push_back("bigtwo");     // n / 3: bitmap
    if (code % 50 == 7) tokens.push_back("rareone");   // n / 50: array
    if (code % 70 == 3) tokens.push_back("raretwo");   // n / 70: array
    if (code % stride == 0 && code / stride < crossover) {
      tokens.push_back("atedge");  // exactly at the crossover: array
    }
    if (code % stride == 1 && code / stride < crossover + 1) {
      tokens.push_back("pastedge");  // one past it: bitmap
    }
  }
  Dictionary dict;
  for (size_t code = 0; code < n; ++code) {
    std::string s = CodePrefix(code);
    for (const std::string& token : tokens_of[code]) s += " " + token;
    ASSERT_EQ(dict.GetOrAdd(s), static_cast<int32_t>(code));
  }
  std::map<std::string, uint64_t> count;
  for (const auto& tokens : tokens_of) {
    for (const std::string& token : tokens) ++count[token];
  }
  ASSERT_EQ(count["atedge"], crossover);
  ASSERT_EQ(count["pastedge"], crossover + 1);
  const TokenIndex index = TokenIndex::Build(dict);
  ASSERT_EQ(index.num_tokens(), count.size());
  EXPECT_EQ(index.num_bitmaps(), 3u);  // bigone, bigtwo, pastedge
  uint64_t postings = 0;
  for (const auto& entry : count) postings += entry.second;
  EXPECT_EQ(index.posting_entries(), postings);

  for (const char* pattern :
       {"%big%", "%rare%", "%one%", "%two%", "%edge%", "%atedge%",
        "%pastedge%", "%big%rare%", "%one%two%", "%edge%big%", "%rare%edge%",
        "%bigone%bigtwo%pastedge%", "%zzz%", "%big%zzz%"}) {
    const std::vector<std::string> parts = TokenIndex::PatternParts(pattern);
    ASSERT_FALSE(parts.empty()) << pattern;
    // Brute force: a code matches when each sub-part lies inside one of its
    // tokens. The index reads sub-parts until the conjunction is empty.
    std::vector<bool> match(n, true);
    uint64_t touched = 0;
    for (const std::string& part : parts) {
      for (const auto& [token, codes] : count) {
        if (token.find(part) != std::string::npos) touched += codes;
      }
      bool any = false;
      for (size_t code = 0; code < n; ++code) {
        bool has = false;
        for (const std::string& token : tokens_of[code]) {
          has = has || token.find(part) != std::string::npos;
        }
        match[code] = match[code] && has;
        any = any || match[code];
      }
      if (!any) break;
    }
    std::vector<int32_t> expected;
    for (size_t code = 0; code < n; ++code) {
      if (match[code]) expected.push_back(static_cast<int32_t>(code));
    }
    std::vector<int32_t> candidates;
    uint64_t read = 0;
    ASSERT_TRUE(index.CandidateCodes(pattern, &candidates, &read)) << pattern;
    EXPECT_EQ(candidates, expected) << pattern;
    EXPECT_EQ(read, touched) << pattern;
  }
  // No usable sub-part: the index reports it cannot help.
  std::vector<int32_t> none;
  EXPECT_FALSE(index.CandidateCodes("%a_b%", &none));
}

// ============================================================================
// Access-path analysis
// ============================================================================

PipelineSpec RangeScanSpec(const IndexedTable& t, int64_t lo, int64_t hi) {
  PipelineSpec spec;
  spec.name = "scan t";
  spec.source_table = 0;
  spec.scan_columns = {t.id_col, t.val_col};
  spec.ops.push_back(
      OpFilter{And(Ge(Slot(0), I64(lo)), Lt(Slot(0), I64(hi)))});
  return spec;
}

TEST(AccessPathTest, ClusteredRangePrunesToMatchingBlocks) {
  IndexedTable t;
  PipelineSpec spec = RangeScanSpec(t, 5000, 6000);
  ScanPruning pruning = AnalyzeScanPruning(spec, *t.table);
  ASSERT_TRUE(pruning.stats.analyzed);
  ASSERT_NE(pruning.domain, nullptr);
  EXPECT_EQ(pruning.stats.primary_path, AccessPathKind::kZoneMap);
  EXPECT_GT(pruning.stats.zone_blocks_pruned, 0u);
  // Every matching row survives; the domain is block-aligned so it may
  // include a partial block on each side.
  for (const MorselRange& r : pruning.domain->ranges) {
    EXPECT_LT(r.begin, 6000u + 1024);
    EXPECT_GT(r.end, 5000u - 1024);
  }
  EXPECT_LE(pruning.domain->selected(), 1000u + 2 * 1024);
  uint64_t covered = 0;
  for (uint64_t row = 5000; row < 6000; ++row) {
    for (const MorselRange& r : pruning.domain->ranges) {
      if (row >= r.begin && row < r.end) {
        ++covered;
        break;
      }
    }
  }
  EXPECT_EQ(covered, 1000u);
}

TEST(AccessPathTest, UnprunableColumnKeepsFullScan) {
  IndexedTable t;
  PipelineSpec spec;
  spec.scan_columns = {t.val_col};
  spec.ops.push_back(OpFilter{Lt(Slot(0), I64(500))});
  ScanPruning pruning = AnalyzeScanPruning(spec, *t.table);
  ASSERT_TRUE(pruning.stats.analyzed);
  // val = id % 1000: every block holds [0, 999], nothing prunes.
  EXPECT_EQ(pruning.domain, nullptr);
  EXPECT_EQ(pruning.stats.primary_path, AccessPathKind::kFullScan);
  EXPECT_EQ(pruning.stats.selected_rows, IndexedTable::kRows);
}

TEST(AccessPathTest, ImpossiblePredicatePrunesEverything) {
  IndexedTable t;
  PipelineSpec spec = RangeScanSpec(t, 10 * IndexedTable::kRows,
                                    20 * IndexedTable::kRows);
  ScanPruning pruning = AnalyzeScanPruning(spec, *t.table);
  ASSERT_NE(pruning.domain, nullptr);
  EXPECT_EQ(pruning.domain->selected(), 0u);
  EXPECT_EQ(pruning.stats.selected_rows, 0u);
  EXPECT_EQ(pruning.stats.zone_blocks_pruned,
            pruning.stats.zone_blocks_total);
}

TEST(AccessPathTest, AbsentDictCodeEqualityIsEmpty) {
  IndexedTable t;
  // Equality with an absent string lowers to `code == -1`; clamped against
  // the non-negative code space this is a contradiction.
  QueryProgram q("t");
  LoweredLike lowered = LowerLikePredicate(&q, *t.table, t.s_col,
                                           /*code_slot=*/0, "no such string");
  PipelineSpec spec;
  spec.scan_columns = {t.s_col};
  spec.ops.push_back(OpFilter{std::move(lowered.expr)});
  ScanPruning pruning = AnalyzeScanPruning(spec, *t.table);
  ASSERT_NE(pruning.domain, nullptr);
  EXPECT_EQ(pruning.domain->selected(), 0u);
}

TEST(AccessPathTest, TokenIndexServesSelectiveLike) {
  IndexedTable t;
  QueryProgram q("t");
  LikeLoweringOptions options;
  options.strategy = LikeStrategy::kIndex;
  LoweredLike lowered =
      LowerLikePredicate(&q, *t.table, t.s_col, /*code_slot=*/0,
                         "%special requests%", options);
  ASSERT_TRUE(lowered.used_runtime_call);
  EXPECT_TRUE(lowered.chose_index_path);
  EXPECT_NEAR(lowered.index_selectivity,
              1.0 / IndexedTable::kSpecialStride, 1e-3);
  PipelineSpec spec;
  spec.scan_columns = {t.s_col};
  spec.ops.push_back(OpFilter{std::move(lowered.expr)});
  ScanPruning pruning = AnalyzeScanPruning(spec, *t.table);
  ASSERT_TRUE(pruning.stats.analyzed);
  ASSERT_NE(pruning.domain, nullptr);
  EXPECT_EQ(pruning.stats.primary_path, AccessPathKind::kTextIndex);
  EXPECT_GT(pruning.stats.posting_entries, 0u);
  // 1-in-kSpecialStride rows match; the scheduled domain stays well under
  // a tenth of the table.
  EXPECT_GE(pruning.stats.candidate_rows,
            IndexedTable::kRows / IndexedTable::kSpecialStride);
  EXPECT_LT(pruning.domain->selected(), IndexedTable::kRows / 10);
}

TEST(AccessPathTest, EmptyPostingListPrunesEverything) {
  IndexedTable t;
  QueryProgram q("t");
  LikeLoweringOptions options;
  options.strategy = LikeStrategy::kIndex;
  LoweredLike lowered = LowerLikePredicate(&q, *t.table, t.s_col, 0,
                                           "%zzyzzx qwqwq%", options);
  PipelineSpec spec;
  spec.scan_columns = {t.s_col};
  spec.ops.push_back(OpFilter{std::move(lowered.expr)});
  ScanPruning pruning = AnalyzeScanPruning(spec, *t.table);
  ASSERT_NE(pruning.domain, nullptr);
  EXPECT_EQ(pruning.domain->selected(), 0u);
  EXPECT_EQ(pruning.stats.primary_path, AccessPathKind::kTextIndex);
}

TEST(AccessPathTest, BitmapPredicateUsesDictBitmapPath) {
  IndexedTable t;
  QueryProgram q("t");
  LikeLoweringOptions options;
  options.strategy = LikeStrategy::kBitmap;
  LoweredLike lowered =
      LowerLikePredicate(&q, *t.table, t.s_col, 0, "%special requests%",
                         options);
  ASSERT_TRUE(lowered.used_bitmap);
  PipelineSpec spec;
  spec.scan_columns = {t.s_col};
  spec.ops.push_back(OpFilter{std::move(lowered.expr)});
  ScanPruning pruning = AnalyzeScanPruning(spec, *t.table);
  ASSERT_NE(pruning.domain, nullptr);
  EXPECT_EQ(pruning.stats.primary_path, AccessPathKind::kDictBitmap);
  EXPECT_LT(pruning.domain->selected(), IndexedTable::kRows / 10);
}

// ============================================================================
// End-to-end differential: pruned plans equal full scans on every engine
// ============================================================================

class IndexEndToEndTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    table_ = new IndexedTable();
    engine_ = new QueryEngine(&table_->catalog, /*num_threads=*/2);
  }
  static void TearDownTestSuite() {
    delete engine_;
    delete table_;
  }

  /// SELECT id, val, s FROM t WHERE id in [lo, hi) AND s LIKE pattern
  /// (either predicate optional), rows sorted.
  static QueryProgram BuildQuery(int64_t lo, int64_t hi,
                                 const std::string& pattern,
                                 LikeStrategy strategy) {
    QueryProgram q("index_query");
    int t = q.DeclareBaseTable("t");
    ExprPtr pred;
    if (lo < hi) {
      pred = And(Ge(Slot(0), I64(lo)), Lt(Slot(0), I64(hi)));
    }
    if (!pattern.empty()) {
      LikeLoweringOptions options;
      options.strategy = strategy;
      LoweredLike lowered = LowerLikePredicate(
          &q, *table_->table, table_->s_col, /*code_slot=*/2, pattern,
          options);
      pred = pred ? And(std::move(pred), std::move(lowered.expr))
                  : std::move(lowered.expr);
    }
    int output = q.DeclareOutput(3);
    PipelineSpec p;
    p.name = "scan t";
    p.source_table = t;
    p.scan_columns = {table_->id_col, table_->val_col, table_->s_col};
    if (pred) p.ops.push_back(OpFilter{std::move(pred)});
    SinkOutput sink;
    sink.output = output;
    sink.values.push_back(Slot(0));
    sink.values.push_back(Slot(1));
    sink.values.push_back(Slot(2));
    p.sink = std::move(sink);
    q.AddPipeline(std::move(p));
    q.AddStep(StepReadOutput{output});
    q.AddStep(
        StepSort{{{0, false, false}, {1, false, false}, {2, false, false}}});
    return q;
  }

  static IndexedTable* table_;
  static QueryEngine* engine_;
};

IndexedTable* IndexEndToEndTest::table_ = nullptr;
QueryEngine* IndexEndToEndTest::engine_ = nullptr;

TEST_F(IndexEndToEndTest, PrunedPlansMatchFullScansOnEveryEngine) {
  struct Shape {
    int64_t lo, hi;
    const char* pattern;
    LikeStrategy strategy;
    const char* label;
  };
  const Shape shapes[] = {
      {5000, 6000, "", LikeStrategy::kAuto, "zone range"},
      {0, 0, "%special requests%", LikeStrategy::kIndex, "text index"},
      {0, 0, "%special requests%", LikeStrategy::kBitmap, "dict bitmap"},
      {0, 0, "%zzyzzx qwqwq%", LikeStrategy::kIndex, "empty postings"},
      {0, 0, "no such string", LikeStrategy::kAuto, "absent code"},
      {static_cast<int64_t>(10 * IndexedTable::kRows),
       static_cast<int64_t>(20 * IndexedTable::kRows), "", LikeStrategy::kAuto,
       "all pruned"},
      {0, static_cast<int64_t>(IndexedTable::kRows), "", LikeStrategy::kAuto,
       "none pruned"},
      {3000, 9000, "%special requests%", LikeStrategy::kIndex,
       "range + text"},
  };
  struct Config {
    EngineKind engine;
    ExecutionStrategy strategy;
    const char* label;
  };
  const Config configs[] = {
      {EngineKind::kVolcano, ExecutionStrategy::kBytecode, "volcano"},
      {EngineKind::kVectorized, ExecutionStrategy::kBytecode, "vectorized"},
      {EngineKind::kCompiled, ExecutionStrategy::kBytecode, "vm"},
      {EngineKind::kCompiled, ExecutionStrategy::kOptimized, "jit-opt"},
      {EngineKind::kCompiled, ExecutionStrategy::kAdaptive, "adaptive"},
  };
  for (const Shape& shape : shapes) {
    // Reference: compiled full scan with pruning disabled.
    QueryProgram ref_program =
        BuildQuery(shape.lo, shape.hi, shape.pattern, shape.strategy);
    QueryRunOptions ref_options;
    ref_options.strategy = ExecutionStrategy::kBytecode;
    ref_options.scan_pruning = false;
    auto reference = engine_->Run(ref_program, ref_options).rows;
    for (const Config& config : configs) {
      QueryProgram program =
          BuildQuery(shape.lo, shape.hi, shape.pattern, shape.strategy);
      QueryRunOptions options;
      options.engine = config.engine;
      options.strategy = config.strategy;
      auto rows = engine_->Run(program, options).rows;
      EXPECT_EQ(rows, reference)
          << shape.label << " on " << config.label;
    }
  }
}

// Over a skewed column the CSR lists only the rare codes. Equality on a rare
// code still takes the row-granular path; equality on the frequent code
// never asks the CSR for rows (its count is over the candidate bound); and
// every engine returns the rows of an unpruned scan either way.
TEST(SkewedIndexTest, PartialListingKeepsAccessPathsAndResults) {
  SkewedTable t;
  const int32_t rare = t.Code("rare#17");
  const int32_t common = t.Code("common");
  ASSERT_GE(rare, 0);
  ASSERT_GE(common, 0);
  std::vector<uint8_t> bits(static_cast<size_t>(SkewedTable::kRareCodes + 1));
  for (int i = 0; i < 20; ++i) {
    bits[static_cast<size_t>(t.Code("rare#" + std::to_string(i * 7)))] = 1;
  }
  // Predicate 0: a rare code; 1: the frequent code; 2: 20 rare codes.
  auto spec_for = [&](int which, const uint8_t* bitmap) {
    PipelineSpec spec;
    spec.name = "scan skew";
    spec.scan_columns = {t.id_col, t.k_col};
    spec.ops.push_back(OpFilter{
        which == 2 ? BitmapTest(bitmap, Slot(1))
                   : Eq(Slot(1), I64(which == 0 ? rare : common))});
    return spec;
  };

  ScanPruning rare_path = AnalyzeScanPruning(spec_for(0, nullptr), *t.table);
  EXPECT_EQ(rare_path.stats.primary_path, AccessPathKind::kDictRange);
  EXPECT_EQ(rare_path.stats.candidate_rows,
            SkewedTable::kRows / 5 / SkewedTable::kRareCodes);
  ScanPruning common_path =
      AnalyzeScanPruning(spec_for(1, nullptr), *t.table);
  EXPECT_EQ(common_path.stats.candidate_rows, 0u);
  EXPECT_EQ(common_path.domain, nullptr);
  ScanPruning bitmap_path = AnalyzeScanPruning(spec_for(2, bits.data()),
                                               *t.table);
  EXPECT_EQ(bitmap_path.stats.primary_path, AccessPathKind::kDictBitmap);
  EXPECT_EQ(bitmap_path.stats.candidate_rows,
            20 * SkewedTable::kRows / 5 / SkewedTable::kRareCodes);

  QueryEngine engine(&t.catalog, /*num_threads=*/2);
  auto build = [&](int which) {
    QueryProgram q("skew_query");
    const int table = q.DeclareBaseTable("skew");
    const int output = q.DeclareOutput(1);
    PipelineSpec p =
        spec_for(which, which == 2 ? q.AddBitmap(bits) : nullptr);
    p.source_table = table;
    SinkOutput sink;
    sink.output = output;
    sink.values.push_back(Slot(0));
    p.sink = std::move(sink);
    q.AddPipeline(std::move(p));
    q.AddStep(StepReadOutput{output});
    q.AddStep(StepSort{{{0, false, false}}});
    return q;
  };
  for (int which = 0; which < 3; ++which) {
    QueryRunOptions ref_options;
    ref_options.engine = EngineKind::kVolcano;
    ref_options.single_threaded = true;
    ref_options.scan_pruning = false;
    const auto reference = engine.Run(build(which), ref_options).rows;
    ASSERT_FALSE(reference.empty());
    for (ExecutionStrategy strategy :
         {ExecutionStrategy::kBytecode, ExecutionStrategy::kOptimized}) {
      for (bool pruning : {false, true}) {
        QueryRunOptions options;
        options.strategy = strategy;
        options.scan_pruning = pruning;
        EXPECT_EQ(engine.Run(build(which), options).rows, reference)
            << "predicate " << which << " strategy "
            << static_cast<int>(strategy) << " pruning " << pruning;
      }
    }
  }
}

TEST_F(IndexEndToEndTest, ReportsPruningAndCachesTheDecision) {
  engine_->ClearArtifactCache();
  QueryRunOptions options;
  options.strategy = ExecutionStrategy::kBytecode;
  const auto before = engine_->ObservabilitySnapshot();

  QueryProgram first = BuildQuery(5000, 6000, "", LikeStrategy::kAuto);
  QueryRunResult r1 = engine_->Run(first, options);
  ASSERT_EQ(r1.pipelines.size(), 1u);
  ASSERT_TRUE(r1.pipelines[0].pruning.analyzed);
  EXPECT_FALSE(r1.pipelines[0].pruning_cache_hit);
  EXPECT_LT(r1.pipelines[0].pruning.selected_rows, IndexedTable::kRows);
  EXPECT_EQ(r1.pipelines[0].tuples,
            r1.pipelines[0].pruning.selected_rows);

  QueryProgram second = BuildQuery(5000, 6000, "", LikeStrategy::kAuto);
  QueryRunResult r2 = engine_->Run(second, options);
  ASSERT_TRUE(r2.pipelines[0].pruning.analyzed);
  EXPECT_TRUE(r2.pipelines[0].pruning_cache_hit);
  EXPECT_EQ(r2.pipelines[0].pruning.selected_rows,
            r1.pipelines[0].pruning.selected_rows);
  EXPECT_EQ(r1.rows, r2.rows);

  // A different literal variant of the same fingerprint must not alias the
  // cached decision (the constants key the pruning variant).
  QueryProgram third = BuildQuery(15000, 16000, "", LikeStrategy::kAuto);
  QueryRunResult r3 = engine_->Run(third, options);
  ASSERT_TRUE(r3.pipelines[0].pruning.analyzed);
  EXPECT_FALSE(r3.pipelines[0].pruning_cache_hit);

  // The index.* counters fold from the results: each moved by exactly the
  // three results' pruning sums. A pruned pipeline is one whose run
  // scheduled fewer rows than its table holds.
  const auto after = engine_->ObservabilitySnapshot();
  const auto delta = [&](const char* name) {
    return after.counter(name) - before.counter(name);
  };
  uint64_t hits = 0, misses = 0, pruned = 0, rows_pruned = 0;
  uint64_t rows_selected = 0, zone_blocks_pruned = 0, posting_entries = 0;
  for (const QueryRunResult* r : {&r1, &r2, &r3}) {
    for (const PipelineReport& p : r->pipelines) {
      if (!p.pruning.analyzed) continue;
      ++(p.pruning_cache_hit ? hits : misses);
      rows_selected += p.pruning.selected_rows;
      posting_entries += p.pruning.posting_entries;
      if (p.tuples < p.pruning.table_rows) {
        ++pruned;
        rows_pruned += p.pruning.table_rows - p.tuples;
        zone_blocks_pruned += p.pruning.zone_blocks_pruned;
      }
    }
  }
  EXPECT_EQ(hits, 1u);
  EXPECT_EQ(pruned, 3u);
  EXPECT_EQ(delta("index.prune_cache_hits"), hits);
  EXPECT_EQ(delta("index.prune_cache_misses"), misses);
  EXPECT_EQ(delta("index.pruned_pipelines"), pruned);
  EXPECT_EQ(delta("index.rows_pruned"), rows_pruned);
  EXPECT_EQ(delta("index.rows_selected"), rows_selected);
  EXPECT_EQ(delta("index.zone_blocks_pruned"), zone_blocks_pruned);
  EXPECT_EQ(delta("index.posting_entries"), posting_entries);
}

}  // namespace
}  // namespace aqe
