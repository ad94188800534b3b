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
#include "tests/dictionary_test_util.h"

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
  EXPECT_EQ(testutil::Decode(d, a), "MAIL");
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
  d.GetOrAdd("PROMO BRUSHED COPPER");
  d.GetOrAdd("STANDARD PLATED BRASS");
  auto bm = d.MatchPrefix("PROMO");
  ASSERT_EQ(bm.size(), 3u);
  EXPECT_EQ(bm[0], 1);
  EXPECT_EQ(bm[1], 1);
  EXPECT_EQ(bm[2], 0);
}

TEST(DictionaryTest, MatchContains) {
  Dictionary d;
  d.GetOrAdd("LG CASE");
  d.GetOrAdd("MED BOX");
  auto bm = d.MatchContains("BOX");
  EXPECT_EQ(bm[0], 0);
  EXPECT_EQ(bm[1], 1);
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

TEST(DictionaryDeathTest, NewStringBelowTheLastDies) {
  Dictionary d;
  d.GetOrAdd("b");
  d.GetOrAdd("d");
  // A string the dictionary holds comes back with its code in any order.
  EXPECT_EQ(d.GetOrAdd("b"), 0);
  EXPECT_EQ(d.GetOrAdd("d"), 1);
  EXPECT_DEATH(d.GetOrAdd("c"), "BulkLoad");
  EXPECT_DEATH(d.GetOrAdd(""), "BulkLoad");
  EXPECT_EQ(d.size(), 2);
}

// ---------------------------------------------------------------------------
// Differential test: Dictionary against a std::map reference
// ---------------------------------------------------------------------------

/// The reference model: `codes` assigns each string its code, `strings`
/// decodes it. Codes follow string order.
struct RefDict {
  std::map<std::string, int32_t> codes;
  std::vector<std::string> strings;

  /// Dictionary::GetOrAdd of a held string, or of one past the last.
  int32_t GetOrAdd(const std::string& s) {
    auto [it, added] = codes.emplace(s, static_cast<int32_t>(strings.size()));
    if (added) strings.push_back(s);
    return it->second;
  }
  int32_t Find(const std::string& s) const {
    auto it = codes.find(s);
    return it == codes.end() ? -1 : it->second;
  }
  /// Dictionary::BulkLoad into an empty model: the distinct values are
  /// coded in string order. Returns each value's code.
  std::vector<int32_t> BulkLoad(const std::vector<std::string>& values) {
    for (const std::string& v : values) codes.emplace(v, 0);
    for (auto& [s, code] : codes) {
      code = static_cast<int32_t>(strings.size());
      strings.push_back(s);
    }
    std::vector<int32_t> value_codes;
    for (const std::string& v : values) value_codes.push_back(codes.at(v));
    return value_codes;
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
/// bitmaps and PrefixRange.
void ExpectMatchesReference(const Dictionary& d, const RefDict& ref,
                            const std::vector<std::string>& probes) {
  ASSERT_EQ(static_cast<size_t>(d.size()), ref.strings.size());
  EXPECT_EQ(d.approx_bytes(), testutil::FrontCodedBytes(ref.strings));
  std::string buffer;
  for (int32_t code = 0; code < d.size(); ++code) {
    ASSERT_EQ(d.Get(code, &buffer), ref.strings[static_cast<size_t>(code)]);
    ASSERT_EQ(d.Find(ref.strings[static_cast<size_t>(code)]), code);
  }
  // A walk from each of the first six codes decodes the same strings.
  for (int32_t begin = 0; begin <= std::min(d.size(), 5); ++begin) {
    int32_t next = begin;
    d.ForEach(begin, d.size(), [&](int32_t code, std::string_view s) {
      ASSERT_EQ(code, next++);
      ASSERT_EQ(s, ref.strings[static_cast<size_t>(code)]);
    });
    ASSERT_EQ(next, d.size());
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
    std::vector<uint8_t> prefix(ref.strings.size()), contains(prefix.size()),
        ends_with(prefix.size());
    int32_t below = 0, with_prefix = 0;
    for (size_t code = 0; code < ref.strings.size(); ++code) {
      const std::string& s = ref.strings[code];
      prefix[code] = s.compare(0, p.size(), p) == 0;
      contains[code] = s.find(p) != std::string::npos;
      ends_with[code] = s.size() >= p.size() &&
                        s.compare(s.size() - p.size(), p.size(), p) == 0;
      below += s < p;
      with_prefix += prefix[code];
    }
    EXPECT_EQ(d.MatchPrefix(p), prefix) << "prefix '" << p << "'";
    EXPECT_EQ(d.MatchContains(p), contains) << "infix '" << p << "'";
    EXPECT_EQ(d.MatchBitmap([&p](std::string_view s) {
      return s.size() >= p.size() && s.substr(s.size() - p.size()) == p;
    }), ends_with) << "suffix '" << p << "'";
    EXPECT_EQ(d.PrefixRange(p), std::make_pair(below, below + with_prefix))
        << "prefix '" << p << "'";
  }
}

/// GetOrAdd: every string the dictionary holds comes back with its code,
/// last code first, and nothing grows; new strings past the last are
/// appended in order. Runs on a copy, so `d` stays as the caller left it.
void ExpectGetOrAddMatchesReference(const Dictionary& d, const RefDict& ref,
                                    const std::vector<std::string>& probes) {
  Dictionary copy = d;
  RefDict copy_ref = ref;
  for (size_t code = ref.strings.size(); code-- > 0;) {
    ASSERT_EQ(copy.GetOrAdd(ref.strings[code]), static_cast<int32_t>(code));
  }
  ASSERT_EQ(copy.size(), d.size());
  const std::string last = ref.strings.empty() ? "" : ref.strings.back();
  for (const std::string& past : {last + "\xff", last + "\xff\xff"}) {
    ASSERT_EQ(copy.GetOrAdd(past), copy_ref.GetOrAdd(past));
  }
  ExpectMatchesReference(copy, copy_ref, probes);
}

/// Bulk-loads `values` as a column's rows and checks each row's code, and
/// everything readable, against the reference; then appends past the last.
void BulkLoadAndExpectMatchesReference(const std::vector<std::string>& values,
                                       const std::vector<std::string>& probes) {
  RefDict ref;
  const std::vector<int32_t> ref_codes = ref.BulkLoad(values);
  Dictionary d;
  const PageVector<int32_t> codes = testutil::BulkLoad(&d, values);
  ASSERT_EQ(codes.size(), values.size());
  for (size_t r = 0; r < values.size(); ++r) {
    ASSERT_EQ(codes[r], ref_codes[r]) << "row " << r << " '" << values[r] << "'";
  }
  ExpectMatchesReference(d, ref, probes);
  ExpectGetOrAddMatchesReference(d, ref, probes);
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
  ExpectGetOrAddMatchesReference(d, ref, {"", "a"});
}

TEST(DictionaryDifferentialTest, EmptyOneByteAndEmbeddedNulStrings) {
  using namespace std::string_literals;
  std::vector<std::string> values = {"",      "\0"s,    "\0\0"s, "a\0"s,
                                     "a\0b"s, "a"s,     "\0a"s,  "ab"s};
  // Every 1-byte string, in an order that is not sorted.
  for (int b = 255; b >= 0; --b) values.emplace_back(1, static_cast<char>(b));
  BulkLoadAndExpectMatchesReference(values, values);
}

// A view of a Get buffer is a valid argument while the arena grows: 100
// new 100-byte windows of one decoded string, each starting one byte
// later. Its bytes ascend, so each window sorts after the last.
TEST(DictionaryDifferentialTest, AppendsViewsOfADecodedStringWhileGrowing) {
  Dictionary d;
  RefDict ref;
  std::string ascending(200, ' ');
  for (size_t i = 0; i < ascending.size(); ++i) {
    ascending[i] = static_cast<char>(i + 1);
  }
  const int32_t whole = d.GetOrAdd(ascending);
  ref.GetOrAdd(ascending);
  std::string buffer;
  for (size_t i = 1; i <= 100; ++i) {
    const std::string_view window = d.Get(whole, &buffer).substr(i, 100);
    ASSERT_EQ(d.GetOrAdd(window), ref.GetOrAdd(std::string(window)));
  }
  const std::vector<std::string> probes = {ascending.substr(0, 1),
                                           ascending.substr(7, 3), "\x05"};
  ExpectMatchesReference(d, ref, probes);
  ExpectGetOrAddMatchesReference(d, ref, probes);
}

// Strings sharing a 20-byte prefix: the MSD sort ties on their first two
// 8-byte digits and on part of the third, so it recurses at least three
// digits deep, on the parallel path. Three prefixes that differ in their
// first byte fill three buckets.
TEST(DictionaryDifferentialTest, ParallelSortRecursesPastSharedPrefixes) {
  Random rng(29);
  std::vector<std::string> values;
  RefDict distinct;
  const std::string prefixes[] = {std::string(20, 'p'),
                                  "a" + std::string(19, '\0'),
                                  "\xf0" + std::string(19, 'z')};
  while (distinct.strings.size() < 70000) {
    const std::string& prefix = prefixes[rng.NextBelow(3)];
    values.push_back(prefix + RandomString(&rng, 10));
    distinct.GetOrAdd(values.back());
  }
  ASSERT_GE(values.size(), static_cast<size_t>(Dictionary::kParallelBulkLoad));
  std::vector<std::string> probes = ShortProbes(&rng);
  for (const std::string& p : prefixes) {
    probes.push_back(p);
    probes.push_back(p.substr(0, 17));
  }
  std::rotate(probes.begin(), probes.end() - 6, probes.end());  // checked first
  BulkLoadAndExpectMatchesReference(values, probes);
}

// ---------------------------------------------------------------------------
// Bulk load against the same reference
// ---------------------------------------------------------------------------

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
  ASSERT_GE(values.size(), static_cast<size_t>(Dictionary::kParallelBulkLoad));
  BulkLoadAndExpectMatchesReference(values, ShortProbes(&rng));
}

// The sort's hard orders, each loaded below kParallelBulkLoad (one bucket
// on one thread) and at it (buckets by the first two bytes on every
// thread). Quicksort's bad cases are ties and presorted runs; the radix
// quicksort also ties whole runs on a digit.
constexpr size_t kSortSizes[] = {1000, Dictionary::kParallelBulkLoad};

/// `n` distinct strings in sorted order: a shared 10-byte stem, so the
/// sort re-keys past it, then the number in 6 digits.
std::vector<std::string> SortedDistinct(size_t n) {
  std::vector<std::string> values;
  for (size_t i = 0; i < n; ++i) {
    const std::string number = std::to_string(i);
    values.push_back("sorted key" + std::string(6 - number.size(), '0') +
                     number);
  }
  return values;
}

TEST(BulkLoadSortTest, AllEqualStrings) {
  for (size_t n : kSortSizes) {
    SCOPED_TRACE(n);
    const std::vector<std::string> values(n, "the one string, 30 bytes long");
    BulkLoadAndExpectMatchesReference(values, {values[0], "the", ""});
  }
}

TEST(BulkLoadSortTest, SortedAndReverseSortedDistinctStrings) {
  for (size_t n : kSortSizes) {
    SCOPED_TRACE(n);
    std::vector<std::string> values = SortedDistinct(n);
    const std::vector<std::string> probes = {values[0], values[n / 2],
                                             "sorted key0", "zz"};
    BulkLoadAndExpectMatchesReference(values, probes);
    std::reverse(values.begin(), values.end());
    BulkLoadAndExpectMatchesReference(values, probes);
  }
}

// Musser's median-of-3 killer ("Introspective Sorting and Selection
// Algorithms", 1997): for n = 2k, position i (from 1) holds i for odd
// i <= k, k + i - 1 for even i <= k, and 2(i - k) after k, each value
// written as one 8-byte big-endian digit so every key is distinct at
// depth 0 and lands in one bucket. Without the partition cap the sort
// goes quadratic on it (100x a shuffled order at 60 k keys); with it, the
// run falls back to std::sort.
TEST(BulkLoadSortTest, MedianOfThreeKillerPermutation) {
  for (size_t n : kSortSizes) {
    SCOPED_TRACE(n);
    const size_t k = n / 2;
    std::vector<std::string> values;
    for (size_t i = 1; i <= n; ++i) {
      const uint64_t v = i > k ? 2 * (i - k) : (i % 2 == 1 ? i : k + i - 1);
      std::string digit(8, '\0');
      for (int b = 0; b < 8; ++b) {
        digit[static_cast<size_t>(b)] = static_cast<char>(v >> (56 - 8 * b));
      }
      values.push_back(std::move(digit));
    }
    BulkLoadAndExpectMatchesReference(values, {values[0], values[n - 1], ""});
  }
}

// o_comment's shape: 4 to 8 words of a 16-word vocabulary, so most keys of
// a bucket tie on their first digit and many on later ones.
TEST(BulkLoadSortTest, CommentShapedStrings) {
  static constexpr const char* kWords[16] = {
      "carefully", "quickly",  "furiously",   "ironic", "final",
      "pending",   "bold",     "regular",     "express", "deposits",
      "accounts",  "packages", "theodolites", "foxes",  "ideas",
      "platelets"};
  Random rng(43);
  for (size_t n : kSortSizes) {
    SCOPED_TRACE(n);
    std::vector<std::string> values;
    for (size_t i = 0; i < n; ++i) {
      std::string comment = kWords[rng.NextBelow(16)];
      for (uint64_t w = 3 + rng.NextBelow(5); w > 0; --w) {
        comment = comment + " " + kWords[rng.NextBelow(16)];
      }
      values.push_back(std::move(comment));
    }
    BulkLoadAndExpectMatchesReference(
        values, {values[0], "carefully quickly", "ideas ", "special", ""});
  }
}

// Two 1 MiB strings that differ only in their last byte tie on 131,071
// digits, so the sort re-keys them that many depths deep: a sort that
// recursed once per digit would need as many stack frames. Their prefixes
// end inside and on a digit boundary.
TEST(BulkLoadSortTest, LongStringsTieToTheirLastDigit) {
  constexpr size_t kLength = size_t{1} << 20;
  std::string a(kLength, 'x');
  for (size_t i = 0; i < kLength; i += 7) a[i] = static_cast<char>('a' + i % 19);
  std::string b = a;
  b.back() = static_cast<char>(b.back() + 1);
  const std::vector<std::string> values = {
      b, a.substr(0, kLength - 1), a, a.substr(0, 4096), a.substr(0, 4099),
      b.substr(0, kLength - 9), b};
  BulkLoadAndExpectMatchesReference(values, {a.substr(0, 5), "x", ""});
}

// ---------------------------------------------------------------------------
// Front-coded blocks
// ---------------------------------------------------------------------------

// Bulk loads of every size up to four blocks and one code, so the last
// block is full or partial. The strings share prefixes within and across
// blocks, and each load is checked against the reference, then appended to.
TEST(FrontCodingTest, EveryCodeRoundTripsAcrossBlockBoundaries) {
  for (int32_t n = 0; n <= 4 * Dictionary::kBlockCodes + 1; ++n) {
    std::vector<std::string> values;
    for (int32_t i = n; i-- > 0;) {
      values.push_back("shared prefix " + std::to_string(1000 + 7 * i));
    }
    SCOPED_TRACE(n);
    BulkLoadAndExpectMatchesReference(values, {"shared prefix 10", "", "z"});
  }
}

// "", NUL bytes, strings that prefix one another, and lengths and shared
// prefixes on either side of 255, where a stored length takes its escape.
TEST(FrontCodingTest, EmptyNulPrefixAndLongStrings) {
  using namespace std::string_literals;
  std::vector<std::string> values = {"",         "\0"s,   "\0\0"s, "ab"s,
                                     "ab\0"s,    "abc"s,  "ab\0c"s, "abd"s};
  for (size_t length : {254, 255, 256, 300, 70000}) {
    values.push_back(std::string(length, 'l'));
    values.push_back(std::string(length, 'l') + "\0"s);
    values.push_back(std::string(length, 'p') + "a");
    values.push_back(std::string(length, 'p') + "b" + std::string(length, 's'));
  }
  BulkLoadAndExpectMatchesReference(values, values);
  BulkLoadAndExpectMatchesReference({"", ""}, {"", "a"});  // no bytes at all
  Dictionary d;
  testutil::BulkLoad(&d, values);
  EXPECT_EQ(d.Find("ab\0"s), d.Find("ab") + 1);
  EXPECT_EQ(d.Find("ab\0c"s), d.Find("ab") + 2);
  EXPECT_EQ(d.Find("abc"), d.Find("ab") + 3);
  // The same strings appended in order store the same bytes.
  RefDict ref;
  ref.BulkLoad(values);
  Dictionary appended;
  for (const std::string& s : ref.strings) appended.GetOrAdd(s);
  EXPECT_EQ(appended.approx_bytes(), d.approx_bytes());
  ExpectMatchesReference(appended, ref, {"ab", "l", "p"});
}

// GetOrAdd after a BulkLoad of one code short of a block: the first append
// ends the block, the next opens one, and later ones fill it.
TEST(FrontCodingTest, GetOrAddAppendsAcrossABlockBoundaryAfterBulkLoad) {
  std::vector<std::string> values;
  for (int32_t i = 0; i < Dictionary::kBlockCodes - 1; ++i) {
    values.push_back("row " + std::to_string(i));
  }
  RefDict ref;
  ref.BulkLoad(values);
  Dictionary d;
  testutil::BulkLoad(&d, values);
  for (int32_t i = 0; i < 2 * Dictionary::kBlockCodes + 1; ++i) {
    const std::string s = "s" + std::to_string(10 + i);
    ASSERT_EQ(d.GetOrAdd(s), ref.GetOrAdd(s));
    ASSERT_EQ(testutil::Decode(d, d.size() - 1), s);
    ASSERT_EQ(d.GetOrAdd(values.front()), 0);  // a held string keeps its code
  }
  ExpectMatchesReference(d, ref, {"row", "s1", "s", "row 1", "s20"});
}

// Find and PrefixRange on a block head, on a string inside a block, on an
// absent string between two blocks, and on a prefix whose codes span a
// block boundary. Code i is 2i in three digits, so the odd numbers are
// absent.
TEST(FrontCodingTest, FindAndPrefixRangeAroundBlockHeads) {
  constexpr int32_t kB = Dictionary::kBlockCodes;
  const auto number = [](int32_t i) {
    std::string s = std::to_string(i);
    return std::string(3 - s.size(), '0') + s;
  };
  std::vector<std::string> values;
  for (int32_t code = 0; code < 3 * kB; ++code) {
    values.push_back(number(2 * code));
  }
  Dictionary d;
  testutil::BulkLoad(&d, values);
  // A block head and the string after it.
  EXPECT_EQ(d.Find(number(2 * kB)), kB);
  EXPECT_EQ(d.PrefixRange(number(2 * kB)), std::make_pair(kB, kB + 1));
  EXPECT_EQ(d.Find(number(2 * kB + 2)), kB + 1);
  EXPECT_EQ(d.PrefixRange(number(2 * kB + 2)), std::make_pair(kB + 1, kB + 2));
  // The last string of a block, and an absent one between it and the next
  // block's head.
  EXPECT_EQ(d.Find(number(2 * kB - 2)), kB - 1);
  EXPECT_EQ(d.Find(number(2 * kB - 1)), -1);
  EXPECT_EQ(d.PrefixRange(number(2 * kB - 1)), std::make_pair(kB, kB));
  // Before the first code and after the last.
  EXPECT_EQ(d.Find(""), -1);
  EXPECT_EQ(d.PrefixRange("/"), std::make_pair(0, 0));
  EXPECT_EQ(d.PrefixRange("9"), std::make_pair(3 * kB, 3 * kB));
  // The two digits the last code of block 0 and the head of block 1 share.
  const std::string prefix = number(2 * kB).substr(0, 2);
  ASSERT_EQ(number(2 * kB - 2).substr(0, 2), prefix);
  int32_t lo = 0;
  while (values[static_cast<size_t>(lo)].compare(0, 2, prefix) != 0) ++lo;
  int32_t hi = lo;
  while (hi < 3 * kB &&
         values[static_cast<size_t>(hi)].compare(0, 2, prefix) == 0) {
    ++hi;
  }
  ASSERT_LT(lo, kB);
  ASSERT_GT(hi, kB);
  EXPECT_EQ(d.PrefixRange(prefix), std::make_pair(lo, hi));
  EXPECT_EQ(d.PrefixRange(""), std::make_pair(0, 3 * kB));
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
