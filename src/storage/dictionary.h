#ifndef AQE_STORAGE_DICTIONARY_H_
#define AQE_STORAGE_DICTIONARY_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/page_allocator.h"

namespace aqe {

/// Order-preserving string dictionary. String columns are stored as I32 codes
/// into a per-column Dictionary; string predicates are evaluated against the
/// dictionary once per query and turned into integer comparisons or match
/// bitmaps, which is how HyPer executes them and keeps the generated code's
/// type system small (see DESIGN.md substitutions).
///
/// Each distinct string is stored once: the strings lie back to back in one
/// char arena, code c spanning [end(c-1), end(c)). Codes are assigned in
/// string order, so lookups are binary searches over the codes. Nothing is
/// allocated per string, and both arrays come from PageAllocator, so a
/// dictionary built on a helper thread leaves nothing behind in that
/// thread's malloc arena (see src/strings/DESIGN.md, "Storage layout").
class Dictionary {
 public:
  /// BulkLoad sorts and deduplicates at least this many strings on
  /// ForkJoinWidth() threads (see src/strings/DESIGN.md, "Storage layout").
  static constexpr int32_t kParallelBulkLoad = int32_t{64} << 10;

  Dictionary() = default;

  /// Returns the code of `s` if the dictionary holds it; otherwise appends
  /// `s`, which must sort after the last string (one compare), as the next
  /// code. A new string below the last CHECK-fails: load strings in any
  /// order with BulkLoad.
  int32_t GetOrAdd(std::string_view s);

  /// Returns the code for `s` or -1 if absent (a binary search).
  int32_t Find(std::string_view s) const;

  /// Returns the string for a code. The view points into the arena and stays
  /// valid until the next GetOrAdd, which may move it.
  std::string_view Get(int32_t code) const;

  int32_t size() const { return static_cast<int32_t>(ends_.size()); }

  /// Bytes held: the arena and the ends.
  uint64_t approx_bytes() const {
    return arena_.size() + ends_.size() * sizeof(uint64_t);
  }

  /// Builds a byte-per-code bitmap where bitmap[code] == 1 iff the dictionary
  /// string starts with `prefix` (the LIKE 'x%' pattern).
  std::vector<uint8_t> MatchPrefix(std::string_view prefix) const;

  /// Bitmap for "string contains `infix`" (LIKE '%x%').
  std::vector<uint8_t> MatchContains(std::string_view infix) const;

  /// Bitmap for membership in an explicit value list (IN (...)).
  std::vector<uint8_t> MatchIn(const std::vector<std::string>& values) const;

  /// Generic pre-evaluation hook: bitmap[code] == 1 iff
  /// `predicate(Get(code))` — one evaluation per *distinct* string, however
  /// expensive the predicate (the LIKE pattern matchers plug in here).
  std::vector<uint8_t> MatchBitmap(
      const std::function<bool(std::string_view)>& predicate) const;

  /// Loads an empty dictionary from a column's strings at once and returns
  /// each row's code: row r's string is bytes[ends[r-1], ends[r]) (ends[-1]
  /// reads as 0). The distinct strings are stored sorted: the one way to
  /// add strings in any order. GetOrAdd may append after it.
  PageVector<int32_t> BulkLoad(const PageVector<char>& bytes,
                               const PageVector<uint64_t>& ends);

  /// The [lo, hi) code range of strings starting with `prefix`: it turns a
  /// LIKE-prefix predicate into two integer compares on the code column.
  std::pair<int32_t, int32_t> PrefixRange(std::string_view prefix) const;

 private:
  /// The string of an in-range code (unchecked).
  std::string_view View(size_t code) const {
    const uint64_t begin = code == 0 ? 0 : ends_[code - 1];
    return {arena_.data() + begin, static_cast<size_t>(ends_[code] - begin)};
  }
  /// The first code in [lo, size()) whose string fails `before`, which
  /// must hold on a prefix of the codes (for an order-compatible
  /// `before`).
  template <typename Before>
  int32_t PartitionPoint(int32_t lo, const Before& before) const;
  /// Appends `s` as the next code and returns it; `s` may view the arena.
  int32_t Append(std::string_view s);
  /// Appends `s` to the arena; `s` may view the arena itself.
  void AppendToArena(std::string_view s);
  /// bitmap[code] = matches(Get(code)) for every code.
  template <typename Matches>
  std::vector<uint8_t> BitmapOf(const Matches& matches) const;

  /// Every string back to back, without separators.
  PageVector<char> arena_;
  /// Code c is arena_[ends_[c-1], ends_[c]) (ends_[-1] reads as 0); 64-bit
  /// so the arena may exceed 4 GiB.
  PageVector<uint64_t> ends_;
};

}  // namespace aqe

#endif  // AQE_STORAGE_DICTIONARY_H_
