#include "storage/dictionary.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/fork_join.h"
#include "common/status.h"
#include "simd/simd.h"

namespace aqe {

namespace {

/// String i of a string list is bytes[ends[i-1], ends[i]) (ends[-1] reads
/// as 0): the arena's layout, and the bulk load's.
std::string_view ListEntry(const char* bytes, const uint64_t* ends,
                           size_t i) {
  const uint64_t begin = i == 0 ? 0 : ends[i - 1];
  return {bytes + begin, static_cast<size_t>(ends[i] - begin)};
}

/// One string's sort key at one depth of the MSD sort, compared as an
/// integer: its big-endian 8-byte digit at that depth (zero-padded past the
/// string's end) in the top 64 bits, then how many of the digit's bytes the
/// string has (0..8, or 9 if it goes on past the digit), then its index.
/// The byte count orders "ab" before "ab\0", whose digits tie; only keys
/// that tie on a 9 need the next digit.
using SortKey = unsigned __int128;

SortKey MakeSortKey(std::string_view s, size_t depth, uint32_t index) {
  static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__);
  const size_t at = 8 * depth;  // s.size() >= at: only a 9 recurses
  const size_t left = s.size() - at;
  uint64_t digit = 0;
  if (left > 0) std::memcpy(&digit, s.data() + at, std::min<size_t>(left, 8));
  const uint64_t bytes = std::min<size_t>(left, 9);
  return static_cast<SortKey>(__builtin_bswap64(digit)) << 64 |
         static_cast<SortKey>(bytes << 32 | index);
}

uint32_t KeyIndex(SortKey key) { return static_cast<uint32_t>(key); }

/// Sorts keys[0, n), built at depth 0, into string order: sorts a run of
/// keys as integers, then re-keys each run within it that ties on digit and
/// a byte count of 9 at the next depth and sorts that run the same way.
void SortKeys(const char* bytes, const uint64_t* ends, SortKey* keys,
              size_t n) {
  struct Run {
    size_t lo, hi, depth;
  };
  PageVector<Run> runs;  // an explicit stack: depth grows with the length
  runs.push_back({0, n, 0});
  while (!runs.empty()) {
    const Run run = runs.back();
    runs.pop_back();
    std::sort(keys + run.lo, keys + run.hi);
    for (size_t lo = run.lo, hi; lo < run.hi; lo = hi) {
      const SortKey tie = keys[lo] >> 32;
      for (hi = lo + 1; hi < run.hi && keys[hi] >> 32 == tie; ++hi) {
      }
      if (hi - lo < 2 || static_cast<uint32_t>(tie) != 9) continue;
      for (size_t i = lo; i < hi; ++i) {
        const uint32_t index = KeyIndex(keys[i]);
        keys[i] =
            MakeSortKey(ListEntry(bytes, ends, index), run.depth + 1, index);
      }
      runs.push_back({lo, hi, run.depth + 1});
    }
  }
}

/// The one string sort: returns the indexes of the `n` strings of the list
/// in byte-wise (unsigned) order, equal strings in any order. An MSD sort on
/// 8-byte digits. From Dictionary::kParallelBulkLoad strings on, the keys
/// are scattered into buckets by their first two bytes in ForkJoinWidth()
/// chunks, and the buckets, largest first, are sorted on as many threads;
/// below it one chunk fills one bucket.
PageVector<int32_t> SortStrings(const char* bytes, const uint64_t* ends,
                                size_t n) {
  AQE_CHECK_MSG(n <= static_cast<size_t>(std::numeric_limits<int32_t>::max()),
                "too many strings to sort");
  const bool parallel =
      n >= static_cast<size_t>(Dictionary::kParallelBulkLoad);
  const size_t chunks = parallel ? ForkJoinWidth() : 1;
  const size_t buckets = parallel ? size_t{1} << 16 : 1;
  const auto bucket_of = [parallel](SortKey key) {
    return parallel ? static_cast<size_t>(key >> 112) : 0;
  };
  const auto key_of = [bytes, ends](size_t i) {
    return MakeSortKey(ListEntry(bytes, ends, i), 0, static_cast<uint32_t>(i));
  };
  const auto chunk_begin = [n, chunks](size_t c) { return n * c / chunks; };
  // slots[c * buckets + b]: how many keys of chunk c fall in bucket b, then
  // the slot the next of them goes to.
  PageVector<uint32_t> slots(chunks * buckets, 0);
  ForkJoin(chunks, [&](size_t c) {
    uint32_t* count = slots.data() + c * buckets;
    for (size_t i = chunk_begin(c); i < chunk_begin(c + 1); ++i) {
      ++count[bucket_of(key_of(i))];
    }
  });
  struct Bucket {
    uint32_t begin, size;
  };
  PageVector<Bucket> filled;  // up to 64 Ki, on a helper thread
  uint32_t next = 0;
  for (size_t b = 0; b < buckets; ++b) {
    const uint32_t begin = next;
    for (size_t c = 0; c < chunks; ++c) {
      const uint32_t count = slots[c * buckets + b];
      slots[c * buckets + b] = next;
      next += count;
    }
    if (next > begin) filled.push_back({begin, next - begin});
  }
  PageVector<SortKey> keys(n);
  ForkJoin(chunks, [&](size_t c) {
    uint32_t* slot = slots.data() + c * buckets;
    for (size_t i = chunk_begin(c); i < chunk_begin(c + 1); ++i) {
      const SortKey key = key_of(i);
      keys[slot[bucket_of(key)]++] = key;
    }
  });
  std::sort(filled.begin(), filled.end(),
            [](Bucket a, Bucket b) { return a.size > b.size; });
  ForkJoin(filled.size(), [&](size_t f) {
    SortKeys(bytes, ends, keys.data() + filled[f].begin, filled[f].size);
  });
  PageVector<int32_t> order(n);
  ForkJoin(chunks, [&](size_t c) {
    for (size_t i = chunk_begin(c); i < chunk_begin(c + 1); ++i) {
      order[i] = static_cast<int32_t>(KeyIndex(keys[i]));
    }
  });
  return order;
}

}  // namespace

template <typename Before>
int32_t Dictionary::PartitionPoint(int32_t lo, const Before& before) const {
  int32_t hi = size();
  while (lo < hi) {
    const int32_t mid = lo + (hi - lo) / 2;
    if (before(View(static_cast<size_t>(mid)))) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

int32_t Dictionary::GetOrAdd(std::string_view s) {
  // An in-order append costs one compare with the last string.
  if (ends_.empty() || s > View(ends_.size() - 1)) return Append(s);
  const int32_t code = Find(s);
  AQE_CHECK_MSG(code >= 0,
                "GetOrAdd of a new string below the last one; load strings "
                "in any order with BulkLoad");
  return code;
}

int32_t Dictionary::Append(std::string_view s) {
  AQE_CHECK_MSG(ends_.size() < static_cast<size_t>(
                                   std::numeric_limits<int32_t>::max()),
                "dictionary code space exhausted");
  AppendToArena(s);  // may move the arena; `s` is not used again
  ends_.push_back(arena_.size());
  return size() - 1;
}

void Dictionary::AppendToArena(std::string_view s) {
  const size_t at = arena_.size();
  if (at + s.size() <= arena_.capacity()) {
    arena_.resize(at + s.size());  // in place: `s` stays valid
    std::copy(s.begin(), s.end(), arena_.begin() + at);
    return;
  }
  // Fill the grown buffer before the old one is freed: `s` may view it.
  PageVector<char> grown;
  grown.reserve(std::max(2 * arena_.capacity(), at + s.size()));
  grown.resize(at + s.size());
  std::copy(arena_.begin(), arena_.end(), grown.begin());
  std::copy(s.begin(), s.end(), grown.begin() + at);
  arena_.swap(grown);
}

int32_t Dictionary::Find(std::string_view s) const {
  const int32_t code =
      PartitionPoint(0, [s](std::string_view other) { return other < s; });
  return code < size() && View(static_cast<size_t>(code)) == s ? code : -1;
}

std::string_view Dictionary::Get(int32_t code) const {
  AQE_CHECK(code >= 0 && code < size());
  return View(static_cast<size_t>(code));
}

template <typename Matches>
std::vector<uint8_t> Dictionary::BitmapOf(const Matches& matches) const {
  std::vector<uint8_t> bitmap(ends_.size(), 0);
  for (size_t code = 0; code < ends_.size(); ++code) {
    bitmap[code] = matches(View(code)) ? 1 : 0;
  }
  return bitmap;
}

std::vector<uint8_t> Dictionary::MatchPrefix(std::string_view prefix) const {
  return BitmapOf([prefix](std::string_view s) {
    return s.substr(0, prefix.size()) == prefix;
  });
}

std::vector<uint8_t> Dictionary::MatchContains(std::string_view infix) const {
  if (infix.empty()) return std::vector<uint8_t>(ends_.size(), 1);
  return BitmapOf([infix](std::string_view s) {
    return FindSubstr(s.data(), s.size(), infix.data(), infix.size()) !=
           SIZE_MAX;
  });
}

std::vector<uint8_t> Dictionary::MatchIn(
    const std::vector<std::string>& values) const {
  std::vector<uint8_t> bitmap(ends_.size(), 0);
  for (const std::string& v : values) {
    int32_t code = Find(v);
    if (code >= 0) bitmap[static_cast<size_t>(code)] = 1;
  }
  return bitmap;
}

std::vector<uint8_t> Dictionary::MatchBitmap(
    const std::function<bool(std::string_view)>& predicate) const {
  return BitmapOf(predicate);
}

PageVector<int32_t> Dictionary::BulkLoad(const PageVector<char>& bytes,
                                         const PageVector<uint64_t>& ends) {
  AQE_CHECK_MSG(ends_.empty(), "bulk load into a non-empty dictionary");
  const size_t rows = ends.size();
  // Sorted position -> row.
  const PageVector<int32_t> order =
      SortStrings(bytes.data(), ends.data(), rows);
  const auto row_string = [&](size_t i) {
    return ListEntry(bytes.data(), ends.data(), static_cast<size_t>(order[i]));
  };
  // Pass 1 marks each sorted position that starts a new string and counts
  // the strings and their bytes per chunk; pass 2 writes them from the
  // chunk's first code and arena offset.
  const size_t chunks =
      rows >= static_cast<size_t>(kParallelBulkLoad) ? ForkJoinWidth() : 1;
  const auto chunk_begin = [rows, chunks](size_t c) {
    return rows * c / chunks;
  };
  PageVector<uint8_t> starts(rows);
  std::vector<uint64_t> first_code(chunks + 1, 0), first_byte(chunks + 1, 0);
  ForkJoin(chunks, [&](size_t c) {
    for (size_t i = chunk_begin(c); i < chunk_begin(c + 1); ++i) {
      const std::string_view s = row_string(i);
      starts[i] = i == 0 || s != row_string(i - 1);
      first_code[c + 1] += starts[i];
      first_byte[c + 1] += starts[i] ? s.size() : 0;
    }
  });
  for (size_t c = 0; c < chunks; ++c) {
    first_code[c + 1] += first_code[c];
    first_byte[c + 1] += first_byte[c];
  }
  arena_.resize(first_byte[chunks]);
  ends_.resize(first_code[chunks]);
  PageVector<int32_t> codes(rows);
  ForkJoin(chunks, [&](size_t c) {
    // A chunk may open inside the previous chunk's last string.
    auto code = static_cast<int32_t>(first_code[c]) - 1;
    uint64_t end = first_byte[c];
    for (size_t i = chunk_begin(c); i < chunk_begin(c + 1); ++i) {
      if (starts[i]) {
        const std::string_view s = row_string(i);
        std::copy(s.begin(), s.end(), arena_.begin() + end);
        end += s.size();
        ends_[static_cast<size_t>(++code)] = end;
      }
      codes[static_cast<size_t>(order[i])] = code;
    }
  });
  return codes;
}

std::pair<int32_t, int32_t> Dictionary::PrefixRange(
    std::string_view prefix) const {
  const int32_t lo =
      PartitionPoint(0, [prefix](std::string_view s) { return s < prefix; });
  const int32_t hi = PartitionPoint(lo, [prefix](std::string_view s) {
    return s.substr(0, prefix.size()) <= prefix;
  });
  return {lo, hi};
}

}  // namespace aqe
