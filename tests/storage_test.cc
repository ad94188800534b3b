#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "storage/column.h"
#include "storage/dictionary.h"
#include "storage/table.h"

namespace aqe {
namespace {

TEST(ColumnTest, AppendAndGet) {
  Column c("x", DataType::kI64);
  c.AppendInt(10);
  c.AppendInt(-20);
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c.GetI64(0), 10);
  EXPECT_EQ(c.GetI64(1), -20);
}

TEST(ColumnTest, I32Column) {
  Column c("d", DataType::kI32);
  c.AppendInt(123);
  c.AppendInt(-1);
  EXPECT_EQ(c.GetI32(0), 123);
  EXPECT_EQ(c.GetI32(1), -1);
  EXPECT_EQ(c.GetAsI64(1), -1);
}

TEST(ColumnTest, F64Column) {
  Column c("f", DataType::kF64);
  c.AppendF64(3.5);
  EXPECT_DOUBLE_EQ(c.GetF64(0), 3.5);
}

TEST(ColumnTest, RawDataPointerMatchesValues) {
  Column c("x", DataType::kI64);
  for (int64_t i = 0; i < 100; ++i) c.AppendInt(i * 7);
  const int64_t* raw = static_cast<const int64_t*>(c.data());
  for (int64_t i = 0; i < 100; ++i) EXPECT_EQ(raw[i], i * 7);
}

TEST(ColumnTest, TypeSizes) {
  EXPECT_EQ(DataTypeSize(DataType::kI32), 4);
  EXPECT_EQ(DataTypeSize(DataType::kI64), 8);
  EXPECT_EQ(DataTypeSize(DataType::kF64), 8);
  EXPECT_STREQ(DataTypeName(DataType::kI32), "i32");
}

TEST(DictionaryTest, GetOrAddIsIdempotent) {
  Dictionary d;
  int32_t a = d.GetOrAdd("MAIL");
  int32_t b = d.GetOrAdd("SHIP");
  EXPECT_NE(a, b);
  EXPECT_EQ(d.GetOrAdd("MAIL"), a);
  EXPECT_EQ(d.size(), 2);
  EXPECT_EQ(d.Get(a), "MAIL");
}

TEST(DictionaryTest, FindAbsentReturnsMinusOne) {
  Dictionary d;
  d.GetOrAdd("A");
  EXPECT_EQ(d.Find("B"), -1);
  EXPECT_EQ(d.Find("A"), 0);
}

TEST(DictionaryTest, MatchPrefix) {
  Dictionary d;
  d.GetOrAdd("PROMO ANODIZED TIN");
  d.GetOrAdd("STANDARD PLATED BRASS");
  d.GetOrAdd("PROMO BRUSHED COPPER");
  auto bm = d.MatchPrefix("PROMO");
  ASSERT_EQ(bm.size(), 3u);
  EXPECT_EQ(bm[0], 1);
  EXPECT_EQ(bm[1], 0);
  EXPECT_EQ(bm[2], 1);
}

TEST(DictionaryTest, MatchContains) {
  Dictionary d;
  d.GetOrAdd("MED BOX");
  d.GetOrAdd("LG CASE");
  auto bm = d.MatchContains("BOX");
  EXPECT_EQ(bm[0], 1);
  EXPECT_EQ(bm[1], 0);
}

TEST(DictionaryTest, MatchIn) {
  Dictionary d;
  d.GetOrAdd("AIR");
  d.GetOrAdd("MAIL");
  d.GetOrAdd("SHIP");
  auto bm = d.MatchIn({"MAIL", "SHIP", "NOT-PRESENT"});
  EXPECT_EQ(bm[0], 0);
  EXPECT_EQ(bm[1], 1);
  EXPECT_EQ(bm[2], 1);
}

// ---------------------------------------------------------------------------
// Differential test: Dictionary against a std::map reference
// ---------------------------------------------------------------------------

/// The reference model: `codes` assigns each string its code, `strings`
/// decodes it.
struct RefDict {
  std::map<std::string, int32_t> codes;
  std::vector<std::string> strings;

  int32_t GetOrAdd(const std::string& s) {
    auto [it, added] = codes.emplace(s, static_cast<int32_t>(strings.size()));
    if (added) strings.push_back(s);
    return it->second;
  }
  int32_t Find(const std::string& s) const {
    auto it = codes.find(s);
    return it == codes.end() ? -1 : it->second;
  }
  bool IsSorted() const {
    return std::is_sorted(strings.begin(), strings.end());  // distinct
  }
  /// What Dictionary::SortCodes does to the model; returns its remap.
  PageVector<int32_t> SortCodes() {
    PageVector<int32_t> remap(strings.size());
    strings.clear();
    for (auto& [s, code] : codes) {
      remap[static_cast<size_t>(code)] = static_cast<int32_t>(strings.size());
      code = static_cast<int32_t>(strings.size());
      strings.push_back(s);
    }
    return remap;
  }
};

/// 0..max_len bytes over a small alphabet, so shared prefixes and repeats
/// are common. The alphabet has '\0' and a byte above 0x7f, which must
/// compare as unsigned.
std::string RandomString(Random* rng, uint64_t max_len) {
  static constexpr char kAlphabet[] = {'a', 'b', 'c', 'x', ' ', '\0', '\xe9'};
  std::string s(rng->NextBelow(max_len + 1), ' ');
  for (char& c : s) c = kAlphabet[rng->NextBelow(sizeof(kAlphabet))];
  return s;
}

/// Checks every read of `d` against `ref`; `probes` drive Find, the match
/// bitmaps and (on a sorted dictionary) PrefixRange.
void ExpectMatchesReference(const Dictionary& d, const RefDict& ref,
                            const std::vector<std::string>& probes) {
  ASSERT_EQ(static_cast<size_t>(d.size()), ref.strings.size());
  ASSERT_EQ(d.is_sorted(), ref.IsSorted());
  for (int32_t code = 0; code < d.size(); ++code) {
    ASSERT_EQ(d.Get(code), ref.strings[static_cast<size_t>(code)]);
    ASSERT_EQ(d.Find(ref.strings[static_cast<size_t>(code)]), code);
  }
  std::vector<uint8_t> in(ref.strings.size(), 0);
  for (const std::string& p : probes) {
    ASSERT_EQ(d.Find(p), ref.Find(p));
    if (ref.Find(p) >= 0) in[static_cast<size_t>(ref.Find(p))] = 1;
  }
  EXPECT_EQ(d.MatchIn(probes), in);
  // The bitmaps are O(size()) each; a few probes cover them.
  for (size_t i = 0; i < std::min<size_t>(probes.size(), 12); ++i) {
    const std::string& p = probes[i];
    std::vector<uint8_t> prefix(ref.strings.size()), contains(prefix.size());
    int32_t below = 0, with_prefix = 0;
    for (size_t code = 0; code < ref.strings.size(); ++code) {
      const std::string& s = ref.strings[code];
      prefix[code] = s.compare(0, p.size(), p) == 0;
      contains[code] = s.find(p) != std::string::npos;
      below += s < p;
      with_prefix += prefix[code];
    }
    EXPECT_EQ(d.MatchPrefix(p), prefix) << "prefix '" << p << "'";
    EXPECT_EQ(d.MatchContains(p), contains) << "infix '" << p << "'";
    if (d.is_sorted()) {
      EXPECT_EQ(d.PrefixRange(p), std::make_pair(below, below + with_prefix))
          << "prefix '" << p << "'";
    }
  }
}

/// The bytes of a table-less dictionary: its strings and their ends.
uint64_t StringAndEndBytes(const RefDict& ref) {
  uint64_t bytes = ref.strings.size() * sizeof(uint64_t);
  for (const std::string& s : ref.strings) bytes += s.size();
  return bytes;
}

/// GetOrAdd on a sorted dictionary, which has no table: every string it
/// holds comes back with its code and nothing grows, a new string past the
/// last keeps it sorted, and a new string below the last builds the table
/// from nothing, at least twice the size. Runs on copies, so `d` stays
/// sorted for the caller.
void ExpectSortedGetOrAddMatchesReference(
    const Dictionary& d, const RefDict& ref,
    const std::vector<std::string>& probes) {
  ASSERT_TRUE(d.is_sorted());
  Dictionary copy = d;
  RefDict copy_ref = ref;
  for (size_t code = 0; code < ref.strings.size(); ++code) {
    ASSERT_EQ(copy.GetOrAdd(ref.strings[code]), static_cast<int32_t>(code));
  }
  ASSERT_EQ(copy.size(), d.size());
  const std::string last = ref.strings.empty() ? "" : ref.strings.back();
  ASSERT_EQ(copy.GetOrAdd(last + "b"), copy_ref.GetOrAdd(last + "b"));
  EXPECT_TRUE(copy.is_sorted());
  EXPECT_EQ(copy.approx_bytes(), StringAndEndBytes(copy_ref));
  ASSERT_EQ(copy.GetOrAdd(last + "a"), copy_ref.GetOrAdd(last + "a"));
  EXPECT_FALSE(copy.is_sorted());
  EXPECT_GE(copy.approx_bytes(), StringAndEndBytes(copy_ref) +
                                     2 * copy_ref.strings.size() *
                                         sizeof(int32_t));
  ExpectMatchesReference(copy, copy_ref, probes);
}

/// Sorts both, checks the remap and everything readable afterwards.
void SortAndExpectMatchesReference(Dictionary* d, RefDict* ref,
                                   const std::vector<std::string>& probes) {
  EXPECT_EQ(d->SortCodes(), ref->SortCodes());
  EXPECT_TRUE(d->is_sorted());
  ExpectMatchesReference(*d, *ref, probes);
  ExpectSortedGetOrAddMatchesReference(*d, *ref, probes);
}

/// Probes of 0..3 bytes: short enough to hit as prefixes and infixes, and
/// some are absent.
std::vector<std::string> ShortProbes(Random* rng) {
  std::vector<std::string> probes = {"", std::string(1, '\0'), "zz"};
  for (int i = 0; i < 24; ++i) probes.push_back(RandomString(rng, 3));
  return probes;
}

TEST(DictionaryDifferentialTest, EmptyDictionary) {
  Dictionary d;
  RefDict ref;
  EXPECT_EQ(d.Find(""), -1);
  EXPECT_EQ(d.Find("a"), -1);
  EXPECT_EQ(d.PrefixRange(""), std::make_pair(0, 0));
  ExpectMatchesReference(d, ref, {"", "a"});
  SortAndExpectMatchesReference(&d, &ref, {"", "a"});
  EXPECT_EQ(d.Find(""), -1);
}

TEST(DictionaryDifferentialTest, EmptyOneByteAndEmbeddedNulStrings) {
  Dictionary d;
  RefDict ref;
  using namespace std::string_literals;
  std::vector<std::string> values = {"",      "\0"s,    "\0\0"s, "a\0"s,
                                     "a\0b"s, "a"s,     "\0a"s,  "ab"s};
  // Every 1-byte string, in an order that is not sorted.
  for (int b = 255; b >= 0; --b) values.emplace_back(1, static_cast<char>(b));
  for (const std::string& v : values) {
    ASSERT_EQ(d.GetOrAdd(v), ref.GetOrAdd(v)) << "'" << v << "'";
  }
  ASSERT_EQ(d.size(), 8 + 256 - 2);  // "\0" and "a" came twice
  EXPECT_EQ(d.Get(d.Find("a\0b"s)).size(), 3u);
  // A view of the dictionary's own bytes is a valid argument, even when the
  // insert moves them: add 100 new 100-byte substrings of one string.
  std::string aperiodic(200, ' ');
  for (size_t i = 0; i < aperiodic.size(); ++i) {
    aperiodic[i] = static_cast<char>(i * 7 % 251);
  }
  const int32_t whole = d.GetOrAdd(aperiodic);
  ref.GetOrAdd(aperiodic);
  for (size_t i = 0; i < 100; ++i) {
    const std::string_view own = d.Get(whole).substr(i, 100);
    ASSERT_EQ(d.GetOrAdd(own), ref.GetOrAdd(std::string(own)));
  }
  ExpectMatchesReference(d, ref, values);
  SortAndExpectMatchesReference(&d, &ref, values);
}

TEST(DictionaryDifferentialTest, DuplicateHeavyStream) {
  Random rng(17);
  std::vector<std::string> pool;
  for (int i = 0; i < 300; ++i) pool.push_back(RandomString(&rng, 6));
  Dictionary d;
  RefDict ref;
  for (int i = 0; i < 50000; ++i) {
    const std::string& v = pool[rng.NextBelow(pool.size())];
    ASSERT_EQ(d.GetOrAdd(v), ref.GetOrAdd(v));
  }
  std::vector<std::string> probes = ShortProbes(&rng);
  probes.insert(probes.end(), pool.begin(), pool.begin() + 20);
  ExpectMatchesReference(d, ref, probes);
  SortAndExpectMatchesReference(&d, &ref, probes);
  // Re-adding after the sort hands out the sorted codes.
  for (const std::string& v : pool) ASSERT_EQ(d.GetOrAdd(v), ref.GetOrAdd(v));
  EXPECT_TRUE(d.is_sorted());
}

TEST(DictionaryDifferentialTest, ManyDistinctStringsGrowTheTable) {
  Random rng(23);
  Dictionary d;
  RefDict ref;
  // Sorted inserts keep the dictionary sorted until the first one out of
  // order.
  for (const char* v : {"a", "ab", "b", "ba"}) {
    ASSERT_EQ(d.GetOrAdd(v), ref.GetOrAdd(v));
  }
  EXPECT_TRUE(d.is_sorted());
  while (ref.strings.size() < 120000) {
    const std::string v = RandomString(&rng, 12);
    ASSERT_EQ(d.GetOrAdd(v), ref.GetOrAdd(v));
  }
  // Both sorts below take the parallel, bucketed path.
  ASSERT_GE(d.size(), Dictionary::kParallelSortCodes);
  const std::vector<std::string> probes = ShortProbes(&rng);
  ExpectMatchesReference(d, ref, probes);
  SortAndExpectMatchesReference(&d, &ref, probes);
  // Growth continues from the sorted state.
  while (ref.strings.size() < 150000) {
    const std::string v = RandomString(&rng, 12);
    ASSERT_EQ(d.GetOrAdd(v), ref.GetOrAdd(v));
  }
  ExpectMatchesReference(d, ref, probes);
  SortAndExpectMatchesReference(&d, &ref, probes);
}

// Strings sharing a 20-byte prefix: the MSD sort ties on their first two
// 8-byte digits and on part of the third, so it recurses at least three
// digits deep, on the parallel path. Three prefixes that differ in their
// first byte fill three buckets.
TEST(DictionaryDifferentialTest, ParallelSortRecursesPastSharedPrefixes) {
  Random rng(29);
  Dictionary d;
  RefDict ref;
  const std::string prefixes[] = {std::string(20, 'p'),
                                  "a" + std::string(19, '\0'),
                                  "\xf0" + std::string(19, 'z')};
  while (ref.strings.size() < 70000) {
    const std::string& prefix = prefixes[rng.NextBelow(3)];
    const std::string v = prefix + RandomString(&rng, 10);
    ASSERT_EQ(d.GetOrAdd(v), ref.GetOrAdd(v));
  }
  ASSERT_GE(d.size(), Dictionary::kParallelSortCodes);
  std::vector<std::string> probes = ShortProbes(&rng);
  for (const std::string& p : prefixes) {
    probes.push_back(p);
    probes.push_back(p.substr(0, 17));
  }
  std::rotate(probes.begin(), probes.end() - 6, probes.end());  // checked first
  SortAndExpectMatchesReference(&d, &ref, probes);
}

// ---------------------------------------------------------------------------
// Bulk load against the same reference: GetOrAdd on every row, then
// SortCodes
// ---------------------------------------------------------------------------

/// Bulk-loads `values` as a column's rows and checks each row's code, and
/// everything readable, against the reference.
void BulkLoadAndExpectMatchesReference(const std::vector<std::string>& values,
                                       const std::vector<std::string>& probes) {
  PageVector<char> bytes;
  PageVector<uint64_t> ends;
  RefDict ref;
  std::vector<int32_t> load_codes;  // the reference's codes before its sort
  for (const std::string& v : values) {
    bytes.insert(bytes.end(), v.begin(), v.end());
    ends.push_back(bytes.size());
    load_codes.push_back(ref.GetOrAdd(v));
  }
  const PageVector<int32_t> remap = ref.SortCodes();
  Dictionary d;
  const PageVector<int32_t> codes = d.BulkLoad(bytes, ends);
  ASSERT_EQ(codes.size(), values.size());
  for (size_t r = 0; r < values.size(); ++r) {
    ASSERT_EQ(codes[r], remap[static_cast<size_t>(load_codes[r])])
        << "row " << r << " '" << values[r] << "'";
  }
  EXPECT_TRUE(d.is_sorted());
  ExpectMatchesReference(d, ref, probes);
  ExpectSortedGetOrAddMatchesReference(d, ref, probes);
  // GetOrAdd goes on from the loaded state.
  const std::string past = "\xff\xff\xff";
  ASSERT_EQ(d.GetOrAdd(past), ref.GetOrAdd(past));
  EXPECT_EQ(d.is_sorted(), ref.IsSorted());
  EXPECT_EQ(d.Find(past), d.size() - 1);
}

TEST(BulkLoadDifferentialTest, NoValues) {
  Dictionary d;
  EXPECT_TRUE(d.BulkLoad({}, {}).empty());
  EXPECT_EQ(d.size(), 0);
  EXPECT_EQ(d.Find(""), -1);
  EXPECT_EQ(d.PrefixRange(""), std::make_pair(0, 0));
  BulkLoadAndExpectMatchesReference({}, {"", "a"});
}

TEST(BulkLoadDifferentialTest, EmptyNulAndHighBytes) {
  using namespace std::string_literals;
  std::vector<std::string> values = {"",         "\0"s,       "\0\0"s,
                                     "a\0"s,     "a\0b"s,     "a"s,
                                     "\0a"s,     "\x80"s,     "\xe9" "a"s,
                                     "\xff\0"s,  "\x7f\xff"s, ""};
  for (int b = 255; b >= 0; --b) values.emplace_back(1, static_cast<char>(b));
  BulkLoadAndExpectMatchesReference(values, values);
}

TEST(BulkLoadDifferentialTest, Duplicates) {
  Random rng(31);
  std::vector<std::string> pool;
  for (int i = 0; i < 300; ++i) pool.push_back(RandomString(&rng, 6));
  std::vector<std::string> values;
  for (int i = 0; i < 20000; ++i) {
    values.push_back(pool[rng.NextBelow(pool.size())]);
  }
  std::vector<std::string> probes = ShortProbes(&rng);
  probes.insert(probes.end(), pool.begin(), pool.begin() + 20);
  BulkLoadAndExpectMatchesReference(values, probes);
}

// Strings that end on either side of the 8-byte digit boundaries and
// share digits, and strings that differ only in trailing '\0's: the
// zero-padded digits of "ab" and "ab\0" tie, and the byte count orders them.
TEST(BulkLoadDifferentialTest, DigitBoundariesAndZeroPadding) {
  using namespace std::string_literals;
  const std::string base = "abcdefghijklmnopq";
  std::vector<std::string> values;
  for (size_t len : {7, 8, 9, 15, 16, 17}) {
    const std::string s = base.substr(0, len);
    values.push_back(s);
    values.push_back(s + "\0"s);
    values.push_back(s.substr(0, len - 1) + "\0"s);
    values.push_back(s.substr(0, len - 1) + "\xff"s);
    values.push_back(s.substr(0, len - 1) + "a"s);
  }
  for (size_t zeros = 0; zeros <= 10; ++zeros) {
    values.push_back("ab"s + std::string(zeros, '\0'));
    values.push_back("ab"s + std::string(zeros, '\0') + "c"s);
  }
  std::vector<std::string> shuffled = values;
  Random rng(37);
  for (size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.NextBelow(i)]);
  }
  values.insert(values.end(), shuffled.begin(), shuffled.end());
  BulkLoadAndExpectMatchesReference(values, values);
}

TEST(BulkLoadDifferentialTest, ParallelPath) {
  Random rng(41);
  std::vector<std::string> values;
  for (int i = 0; i < 90000; ++i) values.push_back(RandomString(&rng, 12));
  ASSERT_GE(values.size(), static_cast<size_t>(Dictionary::kParallelSortCodes));
  BulkLoadAndExpectMatchesReference(values, ShortProbes(&rng));
}

TEST(TableTest, SchemaAndRows) {
  Table t("t");
  int a = t.AddColumn("a", DataType::kI64);
  int b = t.AddColumn("b", DataType::kI32, /*dictionary=*/true);
  EXPECT_EQ(t.num_columns(), 2);
  EXPECT_EQ(t.ColumnIndex("a"), a);
  EXPECT_EQ(t.ColumnIndex("b"), b);
  EXPECT_FALSE(t.has_dictionary(a));
  EXPECT_TRUE(t.has_dictionary(b));
  t.column(a).AppendInt(1);
  t.column(b).AppendInt(t.dictionary(b).GetOrAdd("x"));
  EXPECT_EQ(t.num_rows(), 1u);
}

TEST(CatalogTest, CreateAndGet) {
  Catalog cat;
  Table* t = cat.CreateTable("foo");
  EXPECT_TRUE(cat.HasTable("foo"));
  EXPECT_FALSE(cat.HasTable("bar"));
  EXPECT_EQ(cat.GetTable("foo"), t);
}

}  // namespace
}  // namespace aqe
