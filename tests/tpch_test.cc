#include <gtest/gtest.h>
#ifdef __linux__
#include <malloc.h>
#endif

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/fixed_point.h"
#include "index/table_index.h"
#include "index/text_index.h"
#include "storage/table.h"
#include "tpch/tpch_gen.h"
#include "tpch/tpch_schema.h"

namespace aqe {
namespace {

using tpch::DateToDays;
using tpch::DaysToDate;

TEST(DateTest, KnownDates) {
  EXPECT_EQ(DateToDays(1970, 1, 1), 0);
  EXPECT_EQ(DateToDays(1970, 1, 2), 1);
  EXPECT_EQ(DateToDays(1969, 12, 31), -1);
  // 1992-01-01 is 8035 days after epoch.
  EXPECT_EQ(DateToDays(1992, 1, 1), 8035);
}

TEST(DateTest, RoundTripAcrossYears) {
  for (int32_t d = DateToDays(1992, 1, 1); d <= DateToDays(1998, 12, 31);
       d += 13) {
    int y, m, day;
    DaysToDate(d, &y, &m, &day);
    EXPECT_EQ(DateToDays(y, m, day), d);
  }
}

TEST(DateTest, Ordering) {
  EXPECT_LT(DateToDays(1994, 1, 1), DateToDays(1995, 1, 1));
  EXPECT_LT(DateToDays(1995, 3, 14), DateToDays(1995, 3, 15));
}

class TpchTinyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new Catalog();
    tpch::BuildTpchDatabase(catalog_, /*sf=*/0.001);
  }
  static void TearDownTestSuite() {
    delete catalog_;
    catalog_ = nullptr;
  }
  static Catalog* catalog_;
};

Catalog* TpchTinyTest::catalog_ = nullptr;

TEST_F(TpchTinyTest, Cardinalities) {
  EXPECT_EQ(catalog_->GetTable("region")->num_rows(), 5u);
  EXPECT_EQ(catalog_->GetTable("nation")->num_rows(), 25u);
  EXPECT_EQ(catalog_->GetTable("supplier")->num_rows(), 10u);
  EXPECT_EQ(catalog_->GetTable("customer")->num_rows(), 150u);
  EXPECT_EQ(catalog_->GetTable("part")->num_rows(), 200u);
  EXPECT_EQ(catalog_->GetTable("partsupp")->num_rows(), 800u);
  EXPECT_EQ(catalog_->GetTable("orders")->num_rows(), 1500u);
  // lineitem has 1..7 lines per order
  uint64_t li = catalog_->GetTable("lineitem")->num_rows();
  EXPECT_GE(li, 1500u);
  EXPECT_LE(li, 1500u * 7);
}

TEST_F(TpchTinyTest, Deterministic) {
  Catalog other;
  tpch::BuildTpchDatabase(&other, 0.001);
  const Table* a = catalog_->GetTable("lineitem");
  const Table* b = other.GetTable("lineitem");
  ASSERT_EQ(a->num_rows(), b->num_rows());
  for (uint64_t r = 0; r < a->num_rows(); r += 97) {
    EXPECT_EQ(a->column("l_extendedprice").GetAsI64(r),
              b->column("l_extendedprice").GetAsI64(r));
    EXPECT_EQ(a->column("l_shipdate").GetAsI64(r),
              b->column("l_shipdate").GetAsI64(r));
  }
}

TEST_F(TpchTinyTest, ForeignKeysInRange) {
  const Table* li = catalog_->GetTable("lineitem");
  uint64_t parts = catalog_->GetTable("part")->num_rows();
  uint64_t supps = catalog_->GetTable("supplier")->num_rows();
  for (uint64_t r = 0; r < li->num_rows(); ++r) {
    int64_t pk = li->column("l_partkey").GetAsI64(r);
    int64_t sk = li->column("l_suppkey").GetAsI64(r);
    ASSERT_GE(pk, 1);
    ASSERT_LE(pk, static_cast<int64_t>(parts));
    ASSERT_GE(sk, 1);
    ASSERT_LE(sk, static_cast<int64_t>(supps));
  }
  const Table* ord = catalog_->GetTable("orders");
  uint64_t custs = catalog_->GetTable("customer")->num_rows();
  for (uint64_t r = 0; r < ord->num_rows(); ++r) {
    int64_t ck = ord->column("o_custkey").GetAsI64(r);
    ASSERT_GE(ck, 1);
    ASSERT_LE(ck, static_cast<int64_t>(custs));
  }
}

TEST_F(TpchTinyTest, DateRelationsHold) {
  const Table* li = catalog_->GetTable("lineitem");
  const Table* ord = catalog_->GetTable("orders");
  // Build orderkey -> orderdate.
  std::unordered_map<int64_t, int64_t> odate;
  for (uint64_t r = 0; r < ord->num_rows(); ++r) {
    odate[ord->column("o_orderkey").GetAsI64(r)] =
        ord->column("o_orderdate").GetAsI64(r);
  }
  for (uint64_t r = 0; r < li->num_rows(); ++r) {
    int64_t ok = li->column("l_orderkey").GetAsI64(r);
    ASSERT_TRUE(odate.count(ok));
    int64_t sd = li->column("l_shipdate").GetAsI64(r);
    int64_t rd = li->column("l_receiptdate").GetAsI64(r);
    EXPECT_GT(sd, odate[ok]);
    EXPECT_GT(rd, sd);
  }
}

TEST_F(TpchTinyTest, DecimalRangesSane) {
  const Table* li = catalog_->GetTable("lineitem");
  for (uint64_t r = 0; r < li->num_rows(); ++r) {
    int64_t qty = li->column("l_quantity").GetAsI64(r);
    int64_t disc = li->column("l_discount").GetAsI64(r);
    int64_t tax = li->column("l_tax").GetAsI64(r);
    EXPECT_GE(qty, 100);       // >= 1.00
    EXPECT_LE(qty, 5000);      // <= 50.00
    EXPECT_GE(disc, 0);
    EXPECT_LE(disc, 10);       // <= 0.10
    EXPECT_GE(tax, 0);
    EXPECT_LE(tax, 8);         // <= 0.08
  }
}

TEST_F(TpchTinyTest, DictionariesPopulated) {
  const Table* li = catalog_->GetTable("lineitem");
  const Dictionary& sm = li->dictionary(li->ColumnIndex("l_shipmode"));
  EXPECT_EQ(sm.size(), 7);
  EXPECT_GE(sm.Find("MAIL"), 0);
  EXPECT_GE(sm.Find("SHIP"), 0);
  const Dictionary& rf = li->dictionary(li->ColumnIndex("l_returnflag"));
  EXPECT_EQ(rf.size(), 3);

  const Table* part = catalog_->GetTable("part");
  const Dictionary& type = part->dictionary(part->ColumnIndex("p_type"));
  // 6 x 5 x 5 possible types; a tiny SF sees many of them.
  EXPECT_GT(type.size(), 20);
  auto promo = type.MatchPrefix("PROMO");
  int promo_count = 0;
  for (uint8_t b : promo) promo_count += b;
  EXPECT_GT(promo_count, 0);
}

TEST_F(TpchTinyTest, Q14StyleSelectivity) {
  // ~1/6 of parts should have a PROMO type.
  const Table* part = catalog_->GetTable("part");
  const Dictionary& type = part->dictionary(part->ColumnIndex("p_type"));
  auto promo = type.MatchPrefix("PROMO");
  const Column& tc = part->column("p_type");
  uint64_t hits = 0;
  for (uint64_t r = 0; r < part->num_rows(); ++r) {
    hits += promo[static_cast<size_t>(tc.GetAsI64(r))];
  }
  double sel = static_cast<double>(hits) / part->num_rows();
  EXPECT_NEAR(sel, 1.0 / 6.0, 0.08);
}

uint64_t Fnv1a64(uint64_t hash, const void* data, size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}

/// FNV-1a 64 over every column value, widened to int64 and hashed as its 8
/// little-endian bytes, and over every dictionary's strings in code order,
/// each followed by a '\0'. Hashing values rather than raw bytes keeps the
/// fingerprint independent of each column's storage width.
uint64_t CatalogFingerprint(const Catalog& catalog) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (const char* name : {"region", "nation", "supplier", "customer", "part",
                           "partsupp", "orders", "lineitem"}) {
    const Table* t = catalog.GetTable(name);
    for (int c = 0; c < t->num_columns(); ++c) {
      const Column& col = t->column(c);
      for (uint64_t r = 0; r < col.size(); ++r) {
        const auto value = static_cast<uint64_t>(col.GetAsI64(r));
        unsigned char bytes[8];
        for (int b = 0; b < 8; ++b) {
          bytes[b] = static_cast<unsigned char>(value >> (8 * b));
        }
        hash = Fnv1a64(hash, bytes, sizeof(bytes));
      }
      if (!t->has_dictionary(c)) continue;
      t->dictionary(c).ForEach(
          0, t->dictionary(c).size(), [&hash](int32_t, std::string_view s) {
            hash = Fnv1a64(hash, s.data(), s.size());
            hash = Fnv1a64(hash, "", 1);  // the terminating '\0'
          });
    }
  }
  return hash;
}

// Pins the generator's output. Storage or load-path refactors must leave
// every catalog value unchanged, so codes, sort order and data stay put;
// column widths may change (the values were pinned while keys and decimals
// were still 64-bit). At SF 0.1 o_comment has 143,681 codes, enough for
// the bulk load's parallel path.
TEST(TpchFingerprintTest, CatalogValuesMatchPinnedValue) {
  for (const auto& [sf, pinned] : {std::pair{0.01, 0x8a8e80ba035105f2ull},
                                   std::pair{0.1, 0x743ca4969da56fdcull}}) {
    Catalog catalog;
    tpch::BuildTpchDatabase(&catalog, sf);
    if (sf == 0.1) {
      const Table* orders = catalog.GetTable("orders");
      ASSERT_GE(orders->dictionary(orders->ColumnIndex("o_comment")).size(),
                Dictionary::kParallelBulkLoad);
    }
    const uint64_t hash = CatalogFingerprint(catalog);
    EXPECT_EQ(hash, pinned) << "SF " << sf << std::hex << ": got " << hash;
  }
}

// The same pin at a scale factor whose 67,650 orders are 66 full ranges of
// 1 Ki orders and a partial one of 66 orders.
TEST(TpchFingerprintTest, CatalogValuesMatchPinnedValueAtPartialRange) {
  Catalog catalog;
  tpch::BuildTpchDatabase(&catalog, 0.0451);
  ASSERT_EQ(catalog.GetTable("orders")->num_rows(), 67650u);
  const uint64_t hash = CatalogFingerprint(catalog);
  EXPECT_EQ(hash, 0x92ff247c569dfcf7ull) << std::hex << "got " << hash;
}

// Pins what the catalog fingerprint does not see: o_comment's token index,
// hashed as its token count, its posting count and the candidate codes of
// every word a comment is made of.
TEST(TpchFingerprintTest, TokenIndexMatchesPinnedValue) {
  static constexpr const char* kWords[] = {
      "carefully", "quickly",  "furiously",   "ironic", "final",
      "pending",   "bold",     "regular",     "express", "deposits",
      "accounts",  "packages", "theodolites", "foxes",  "ideas",
      "platelets", "special",  "requests"};
  for (const auto& [sf, pinned] :
       {std::pair{0.01, 0x1478e4a559669119ull},
        std::pair{0.1, 0x40613da7c168df11ull}}) {
    Catalog catalog;
    tpch::BuildTpchDatabase(&catalog, sf);
    const Table* orders = catalog.GetTable("orders");
    const TokenIndex& index =
        orders->indexes()->text_indexes.at(orders->ColumnIndex("o_comment"));
    uint64_t hash = 0xcbf29ce484222325ull;
    auto add = [&hash](uint64_t value) {
      hash = Fnv1a64(hash, &value, sizeof(value));
    };
    add(index.num_tokens());
    add(index.posting_entries());
    std::vector<int32_t> codes;
    for (const char* word : kWords) {
      ASSERT_TRUE(index.CandidateCodes("%" + std::string(word) + "%", &codes));
      add(codes.size());
      hash = Fnv1a64(hash, codes.data(), codes.size() * sizeof(int32_t));
    }
    EXPECT_EQ(hash, pinned) << "SF " << sf << std::hex << ": got " << hash;
  }
}

// Pins the content of the other secondary indexes, which the catalog
// fingerprint does not see either: every table's zone maps (each column's
// per-block min, max and presence words) and code indexes (each code's row
// count, whether it is listed, and the row ids of a listed code).
TEST(TpchFingerprintTest, IndexesMatchPinnedValue) {
  for (const auto& [sf, pinned] :
       {std::pair{0.01, 0x4c984af82e9e2a06ull},
        std::pair{0.1, 0x46213349ddddb835ull}}) {
    Catalog catalog;
    tpch::BuildTpchDatabase(&catalog, sf);
    uint64_t hash = 0xcbf29ce484222325ull;
    auto add = [&hash](uint64_t value) {
      hash = Fnv1a64(hash, &value, sizeof(value));
    };
    for (const char* name : {"region", "nation", "supplier", "customer",
                             "part", "partsupp", "orders", "lineitem"}) {
      const Table* t = catalog.GetTable(name);
      const TableIndexes& indexes = *t->indexes();
      add(indexes.zones.num_blocks());
      for (int c = 0; c < t->num_columns(); ++c) {
        const ZoneMaps::ColumnZones* zones = indexes.zones.ForColumn(c);
        if (zones != nullptr) {
          add(static_cast<uint64_t>(c));
          hash = Fnv1a64(hash, zones->min.data(),
                         zones->min.size() * sizeof(int64_t));
          hash = Fnv1a64(hash, zones->max.data(),
                         zones->max.size() * sizeof(int64_t));
          add(zones->presence.size());
          hash = Fnv1a64(hash, zones->presence.data(),
                         zones->presence.size() * sizeof(uint64_t));
        }
        if (!t->has_dictionary(c)) continue;
        const DictCodeIndex& codes = indexes.dict_indexes.at(c);
        add(static_cast<uint64_t>(codes.num_codes()));
        add(codes.listed_rows());
        std::vector<uint32_t> rows;
        for (int32_t code = 0; code < codes.num_codes(); ++code) {
          add(codes.CountForCodeRange(code, code + 1));
          const bool listed = codes.Listed(code, code + 1);
          add(listed);
          if (!listed) continue;
          rows.clear();
          codes.CollectRows(code, code + 1, &rows);
          hash = Fnv1a64(hash, rows.data(), rows.size() * sizeof(uint32_t));
        }
      }
    }
    EXPECT_EQ(hash, pinned) << "SF " << sf << std::hex << ": got " << hash;
  }
}

// Pins what the catalog holds besides its columns, per table at SF 0.1:
// the bytes of its indexes and of its dictionaries. Both are counts of what
// the structures store, so they repeat exactly on every load and under
// the sanitizers. A dictionary holds its front-coded blocks, their
// offsets and its decode slack; the o_comment token index keeps each
// token's postings in the smaller of an array and a bitmap; a code index
// whose codes are all listed keeps one prefix-sum array, not two.
TEST(TpchFingerprintTest, CatalogBytesMatchPinnedValues) {
  struct Pin {
    const char* table;
    uint64_t index_bytes;
    uint64_t dictionary_bytes;
  };
  static constexpr Pin kPins[] = {{"region", 144, 111},
                                  {"nation", 316, 295},
                                  {"supplier", 48, 0},
                                  {"customer", 122932, 121853},
                                  {"part", 246632, 2568},
                                  {"partsupp", 5056, 0},
                                  {"orders", 1549642, 4242138},
                                  {"lineitem", 290816, 382}};
  Catalog catalog;
  tpch::BuildTpchDatabase(&catalog, 0.1);
  for (const Pin& pin : kPins) {
    const Table* t = catalog.GetTable(pin.table);
    uint64_t dictionary_bytes = 0;
    for (int c = 0; c < t->num_columns(); ++c) {
      if (!t->has_dictionary(c)) continue;
      dictionary_bytes += t->dictionary(c).approx_bytes();
    }
    EXPECT_EQ(t->indexes()->approx_bytes, pin.index_bytes) << pin.table;
    EXPECT_EQ(dictionary_bytes, pin.dictionary_bytes) << pin.table;
  }
}

// Pins each table's storage layout: every fixed-domain column at the
// narrowest width its domain allows (dates, small decimals and
// fixed-vocabulary dictionaries at 1 or 2 bytes; keys and growing decimals
// at 4). A change that widens a column fails here; the values themselves
// are pinned by CatalogValuesMatchPinnedValue, which holds at any width.
TEST(TpchSchemaTest, BytesPerRowArePinned) {
  Catalog catalog;
  tpch::CreateTpchSchema(&catalog);
  const std::pair<const char*, int> expected[] = {
      {"lineitem", 31}, {"orders", 21},  {"partsupp", 14}, {"part", 13},
      {"customer", 10}, {"supplier", 9}, {"nation", 3},    {"region", 2}};
  for (const auto& [name, bytes_per_row] : expected) {
    const Table* t = catalog.GetTable(name);
    int bytes = 0;
    for (int c = 0; c < t->num_columns(); ++c) {
      bytes += DataTypeSize(t->column(c).type());
    }
    EXPECT_EQ(bytes, bytes_per_row) << name;
  }
}

#if defined(__GLIBC__) && !defined(__SANITIZE_ADDRESS__) && \
    !defined(__SANITIZE_THREAD__)
#if __GLIBC_PREREQ(2, 33)  // mallinfo2
#define AQE_TEST_MALLINFO 1

/// The most bytes any malloc arena but the main thread's holds, from
/// malloc_info's per-heap <system type="current"> entries (heap 0 is the
/// main arena).
size_t LargestHelperArenaBytes() {
  char* buf = nullptr;
  size_t len = 0;
  FILE* out = open_memstream(&buf, &len);
  malloc_info(0, out);
  std::fclose(out);
  const std::string xml(buf, len);
  std::free(buf);
  static constexpr std::string_view kHeap = "<heap nr=\"";
  static constexpr std::string_view kSystem = "<system type=\"current\" size=\"";
  size_t largest = 0;
  for (size_t heap = xml.find(kHeap); heap != std::string::npos;
       heap = xml.find(kHeap, heap + 1)) {
    if (std::stoi(xml.substr(heap + kHeap.size())) == 0) continue;
    const size_t system = xml.find(kSystem, heap) + kSystem.size();
    largest = std::max<size_t>(largest, std::stoull(xml.substr(system)));
  }
  return largest;
}
#endif
#endif

// The load runs tasks on helper threads, and glibc gives each thread its
// own malloc arena, which keeps what it frees resident. Helpers therefore
// take their large buffers from PageAllocator and leave their arenas
// nearly empty. Were they to take them from malloc, a helper arena would
// hold dictionaries and indexes plus the freed sort and growth buffers of
// earlier builds: 25-30 MB in one arena after the 4th SF 0.1 build.
TEST(TpchAllocatorTest, RepeatedBuildsRetainLittleHeap) {
#ifndef AQE_TEST_MALLINFO
  GTEST_SKIP() << "needs glibc's mallinfo2 and the unsanitized allocator";
#else
  std::unique_ptr<Catalog> catalog;
  for (int build = 0; build < 4; ++build) {
    catalog.reset();
    catalog = std::make_unique<Catalog>();
    tpch::BuildTpchDatabase(catalog.get(), /*sf=*/0.1);
  }
  const struct mallinfo2 info = mallinfo2();
  EXPECT_LT(info.fordblks, info.uordblks / 4)
      << "free " << (info.fordblks >> 20) << " MiB, in use "
      << (info.uordblks >> 20) << " MiB";
  // Every code index is a task of the load's one index list, so with
  // malloc a helper arena would hold each code index its thread built
  // (lineitem's four alone are 9.6 MB).
  const size_t helper_bytes = LargestHelperArenaBytes();
  EXPECT_LT(helper_bytes, size_t{4} << 20)
      << "a helper arena holds " << (helper_bytes >> 20) << " MiB";
#endif
}

TEST(TpchScaleTest, CardinalitiesScaleLinearly) {
  auto c1 = tpch::CardinalitiesForScale(0.01);
  auto c2 = tpch::CardinalitiesForScale(0.02);
  EXPECT_EQ(c2.orders, 2 * c1.orders);
  EXPECT_EQ(c2.customer, 2 * c1.customer);
}

}  // namespace
}  // namespace aqe
