#ifndef AQE_STORAGE_DICTIONARY_H_
#define AQE_STORAGE_DICTIONARY_H_

#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/page_allocator.h"
#include "common/status.h"

namespace aqe {

/// Order-preserving string dictionary. String columns are stored as I8,
/// I16 or I32 codes into a per-column Dictionary; string predicates are
/// evaluated against the dictionary once per query and turned into integer
/// comparisons or match bitmaps, which is how HyPer executes them and keeps
/// the generated code's type system small (see DESIGN.md substitutions).
///
/// Each distinct string is stored once, front-coded: codes are assigned in
/// string order and form blocks of kBlockCodes. A block's first string is
/// stored whole, each later one as the length of the prefix it shares with
/// the string before it and the bytes it adds. Lookups binary-search the
/// block heads and scan one block; Get decodes into caller storage. Nothing
/// is allocated per string, and both arrays come from PageAllocator, so a
/// dictionary built on a helper thread leaves nothing behind in that
/// thread's malloc arena (see src/strings/DESIGN.md, "Storage layout").
class Dictionary {
 public:
  /// BulkLoad sorts and deduplicates at least this many strings on
  /// ForkJoinWidth() threads (see src/strings/DESIGN.md, "Storage layout").
  static constexpr int32_t kParallelBulkLoad = int32_t{64} << 10;
  /// Codes per block. It divides 64, so a code range that starts on a
  /// multiple of 64 starts on a block head.
  static constexpr int32_t kBlockCodes = 4;
  /// Decoding copies 64 bytes at a time, so it may read and write up to
  /// this many bytes past a string's end.
  static constexpr uint32_t kDecodeSlack = 63;

  Dictionary() = default;

  /// Returns the code of `s` if the dictionary holds it; otherwise appends
  /// `s`, which must sort after the last string (one compare), as the next
  /// code. A new string below the last CHECK-fails: load strings in any
  /// order with BulkLoad.
  int32_t GetOrAdd(std::string_view s);

  /// Returns the code for `s` or -1 if absent (a binary search).
  int32_t Find(std::string_view s) const;

  /// Decodes the string of `code` into `buffer` and returns a view of it,
  /// valid until the buffer is next used or changed. The buffer only grows,
  /// to the longest string plus kDecodeSlack, so a buffer reused across
  /// calls makes Get allocate nothing.
  std::string_view Get(int32_t code, std::string* buffer) const;

  /// Calls visit(code, s) for each code in [begin, end) in order; `s` is
  /// valid during the call only. Decoding starts at begin's block head and
  /// runs on, so each string of the range is decoded once.
  template <typename Visit>
  void ForEach(int32_t begin, int32_t end, const Visit& visit) const;

  int32_t size() const { return size_; }

  /// Bytes held: the coded arena (with its kDecodeSlack tail) and one
  /// 32-bit offset per block.
  uint64_t approx_bytes() const {
    return arena_.size() + blocks_.size() * sizeof(uint32_t);
  }

  /// Builds a byte-per-code bitmap where bitmap[code] == 1 iff the dictionary
  /// string starts with `prefix` (the LIKE 'x%' pattern).
  std::vector<uint8_t> MatchPrefix(std::string_view prefix) const;

  /// Bitmap for "string contains `infix`" (LIKE '%x%').
  std::vector<uint8_t> MatchContains(std::string_view infix) const;

  /// Bitmap for membership in an explicit value list (IN (...)).
  std::vector<uint8_t> MatchIn(const std::vector<std::string>& values) const;

  /// Generic pre-evaluation hook: bitmap[code] == 1 iff
  /// `predicate(string of code)` — one evaluation per *distinct* string,
  /// however expensive the predicate (the LIKE pattern matchers plug in
  /// here).
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
  /// Reads a length the arena stores: one byte below 255, else 255 and
  /// four little-endian bytes.
  static uint32_t ReadLength(const char** p) {
    const auto first = static_cast<uint8_t>(*(*p)++);
    if (first < 255) return first;
    uint32_t length;
    std::memcpy(&length, *p, sizeof(length));
    *p += sizeof(length);
    return length;
  }
  /// Decodes the entry at `p` into `out`, which holds the string before it
  /// unless `head`; sets `size` to the string's and returns the next entry.
  static const char* DecodeEntry(const char* p, bool head, char* out,
                                 uint32_t* size) {
    const uint32_t shared = head ? 0 : ReadLength(&p);
    const uint32_t suffix = ReadLength(&p);
    for (uint32_t i = 0; i < suffix; i += 64) {
      std::memcpy(out + shared + i, p + i, 64);
    }
    *size = shared + suffix;
    return p + suffix;
  }
  /// The first string of a block, which is stored whole.
  std::string_view Head(size_t block) const {
    const char* p = arena_.data() + blocks_[block];
    const uint32_t size = ReadLength(&p);
    return {p, size};
  }
  /// Bytes a decode buffer needs: the longest string and the slack.
  size_t DecodeBytes() const { return size_t{longest_} + kDecodeSlack; }
  /// The first code whose string fails `before`, which must hold on a
  /// prefix of the codes (for an order-compatible `before`).
  template <typename Before>
  int32_t PartitionPoint(const Before& before) const;
  /// Appends `s`, which sorts after `last`, the last string, as the next
  /// code and returns it.
  int32_t Append(std::string_view s, std::string_view last);
  /// bitmap[code] = matches(string of code) for every code.
  template <typename Matches>
  std::vector<uint8_t> BitmapOf(const Matches& matches) const;

  /// The blocks back to back, then kDecodeSlack bytes (none while empty).
  /// A block's head is length and bytes; each later code is the length of
  /// the prefix it shares with the code before, its suffix's length, and
  /// the suffix.
  PageVector<char> arena_;
  /// Block b's head is at arena_[blocks_[b]]: 32-bit, so an arena is at
  /// most 4 GiB.
  PageVector<uint32_t> blocks_;
  int32_t size_ = 0;
  uint32_t longest_ = 0;  ///< the longest string's size
};

template <typename Visit>
void Dictionary::ForEach(int32_t begin, int32_t end,
                         const Visit& visit) const {
  AQE_CHECK(0 <= begin && begin <= end && end <= size_);
  if (begin == end) return;
  std::string buffer(DecodeBytes(), '\0');
  const char* p = arena_.data() + blocks_[begin / kBlockCodes];
  uint32_t size = 0;
  for (int32_t code = begin / kBlockCodes * kBlockCodes; code < end; ++code) {
    p = DecodeEntry(p, code % kBlockCodes == 0, buffer.data(), &size);
    if (code >= begin) visit(code, std::string_view(buffer.data(), size));
  }
}

}  // namespace aqe

#endif  // AQE_STORAGE_DICTIONARY_H_
