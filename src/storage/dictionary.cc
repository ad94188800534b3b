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
/// as 0): the bulk load's input.
std::string_view ListEntry(const char* bytes, const uint64_t* ends,
                           size_t i) {
  const uint64_t begin = i == 0 ? 0 : ends[i - 1];
  return {bytes + begin, static_cast<size_t>(ends[i] - begin)};
}

/// One string's sort key at one depth of the MSD sort, an integer: its
/// big-endian 8-byte digit at that depth (zero-padded past the string's
/// end) in the top 64 bits, then how many of the digit's bytes the string
/// has (0..8, or 9 if it goes on past the digit), then its index. The sort
/// orders keys by their rank, the digit and byte count; the byte count
/// orders "ab" before "ab\0", whose digits tie. Keys that tie on a rank
/// with a count of 9 need the next digit; other ties are equal strings.
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

SortKey Rank(SortKey key) { return key >> 32; }

bool GoesOn(SortKey rank) { return static_cast<uint32_t>(rank) == 9; }

bool RankBefore(SortKey a, SortKey b) { return Rank(a) < Rank(b); }

/// Runs of fewer keys are insertion-sorted.
constexpr size_t kInsertionSortKeys = 24;

/// Partitions a run of n keys may take at one depth before it falls back
/// to std::sort: 2 floor(log2 n), introsort's depth limit.
size_t PartitionBudget(size_t n) {
  return 2 * static_cast<size_t>(63 - __builtin_clzll(n));
}

/// Sorts keys[0, n), built at depth 0, into string order: a three-way radix
/// quicksort on 8-byte digits (Bentley and Sedgewick, "Fast algorithms for
/// sorting and searching strings", SODA 1997). A run splits around the
/// median of its first, middle and last ranks into the keys below, equal
/// to and above it. The outer two stay at the run's depth; the equal part,
/// if its strings go on past the digit, is re-keyed at the next depth.
/// Runs below kInsertionSortKeys are insertion-sorted, and a run that has
/// used its PartitionBudget is std::sort-ed by rank, so each depth is
/// O(n log n) at worst. Equal strings come out in any order.
void SortKeys(const char* bytes, const uint64_t* ends, SortKey* keys,
              size_t n) {
  struct Run {
    size_t lo, hi, depth;
    size_t partitions_left;
  };
  // An explicit stack: depth grows with the strings' length, and nothing
  // recurses per digit.
  PageVector<Run> runs;
  // Re-keys keys[lo, hi), whose strings tie on a digit at `depth` and go
  // on past it, at the next depth.
  const auto descend = [&](size_t lo, size_t hi, size_t depth) {
    if (hi - lo < 2) return;
    for (size_t i = lo; i < hi; ++i) {
      const uint32_t index = KeyIndex(keys[i]);
      keys[i] = MakeSortKey(ListEntry(bytes, ends, index), depth + 1, index);
    }
    runs.push_back({lo, hi, depth + 1, PartitionBudget(hi - lo)});
  };
  if (n >= 2) runs.push_back({0, n, 0, PartitionBudget(n)});
  while (!runs.empty()) {
    const Run run = runs.back();
    runs.pop_back();
    SortKey* const first = keys + run.lo;
    SortKey* const last = keys + run.hi;
    if (run.hi - run.lo < kInsertionSortKeys || run.partitions_left == 0) {
      if (run.hi - run.lo < kInsertionSortKeys) {
        for (SortKey* next = first + 1; next < last; ++next) {
          const SortKey key = *next;
          SortKey* at = next;
          for (; at > first && RankBefore(key, at[-1]); --at) *at = at[-1];
          *at = key;
        }
      } else {
        std::sort(first, last, RankBefore);
      }
      for (size_t lo = run.lo, hi; lo < run.hi; lo = hi) {
        const SortKey rank = Rank(keys[lo]);
        for (hi = lo + 1; hi < run.hi && Rank(keys[hi]) == rank; ++hi) {
        }
        if (GoesOn(rank)) descend(lo, hi, run.depth);
      }
      continue;
    }
    const SortKey x = Rank(*first), y = Rank(first[(run.hi - run.lo) / 2]),
                  z = Rank(last[-1]);
    const SortKey pivot = std::max(std::min(x, y), std::min(std::max(x, y), z));
    // Bentley and McIlroy's split-end partition, as in the paper: b and c
    // scan in from the ends and swap the pairs on the wrong side, so
    // presorted keys stay put, and keys equal to the pivot gather at both
    // ends.
    size_t a = run.lo, b = run.lo, c = run.hi, d = run.hi;
    for (;;) {
      for (; b < c; ++b) {
        const SortKey rank = Rank(keys[b]);
        if (rank > pivot) break;
        if (rank == pivot) std::swap(keys[a++], keys[b]);
      }
      for (; b < c; --c) {
        const SortKey rank = Rank(keys[c - 1]);
        if (rank < pivot) break;
        if (rank == pivot) std::swap(keys[c - 1], keys[--d]);
      }
      if (b == c) break;
      std::swap(keys[b++], keys[--c]);
    }
    // [run.lo, a) and [d, run.hi) equal the pivot, [a, b) rank below it
    // and [c, d) above, and b == c. The equal keys swap into the middle.
    const size_t left = std::min(a - run.lo, b - a);
    std::swap_ranges(first, first + left, keys + b - left);
    const size_t right = std::min(d - c, run.hi - d);
    std::swap_ranges(keys + c, keys + c + right, last - right);
    const size_t lt = run.lo + (b - a), gt = run.hi - (d - c);
    if (GoesOn(pivot)) descend(lt, gt, run.depth);
    // The smaller outer part is popped first, so a depth keeps O(log n)
    // runs waiting.
    Run below{run.lo, lt, run.depth, run.partitions_left - 1};
    Run above{gt, run.hi, run.depth, run.partitions_left - 1};
    if (lt - run.lo < run.hi - gt) std::swap(below, above);
    for (const Run& part : {below, above}) {
      if (part.hi - part.lo >= 2) runs.push_back(part);
    }
  }
}

/// The one string sort: returns the indexes of the `n` strings of the list
/// in byte-wise (unsigned) order, equal strings in any order: SortKeys'
/// radix quicksort. From Dictionary::kParallelBulkLoad strings on, the keys
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

/// Bytes a stored length takes: one below 255, else an escape byte and
/// four (Dictionary::ReadLength).
size_t LengthBytes(size_t length) { return length < 255 ? 1 : 5; }

char* WriteLength(char* out, size_t length) {
  if (length < 255) {
    *out = static_cast<char>(length);
    return out + 1;
  }
  *out = static_cast<char>(255);
  const auto value = static_cast<uint32_t>(length);
  std::memcpy(out + 1, &value, sizeof(value));
  return out + 5;
}

/// The bytes of `s`'s entry: a block head stores its length and bytes; a
/// later code stores `shared`, the prefix it has in common with the code
/// before, its suffix's length and the suffix.
size_t EntryBytes(std::string_view s, size_t shared, bool head) {
  return head ? LengthBytes(s.size()) + s.size()
              : LengthBytes(shared) + LengthBytes(s.size() - shared) +
                    s.size() - shared;
}

/// Writes `s`'s entry (see EntryBytes) at `out`; returns its end.
char* WriteEntry(char* out, std::string_view s, size_t shared, bool head) {
  if (head) {
    shared = 0;  // a head is stored whole
  } else {
    out = WriteLength(out, shared);
  }
  out = WriteLength(out, s.size() - shared);
  return std::copy(s.begin() + shared, s.end(), out);  // data() may be null
}

/// The length of the longest common prefix of `a` and `b`, 8 bytes at a
/// time.
size_t CommonPrefix(std::string_view a, std::string_view b) {
  const size_t n = std::min(a.size(), b.size());
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t x, y;
    std::memcpy(&x, a.data() + i, 8);
    std::memcpy(&y, b.data() + i, 8);
    if (x != y) return i + static_cast<size_t>(__builtin_ctzll(x ^ y)) / 8;
  }
  while (i < n && a[i] == b[i]) ++i;
  return i;
}

/// A string longer than this cannot be stored: its length, and one more
/// (BulkLoad's repeat mark), must fit 32 bits.
constexpr size_t kMaxStringBytes = std::numeric_limits<uint32_t>::max() - 1;

/// The decode buffer of this thread's lookups and appends.
std::string& LookupBuffer() {
  thread_local std::string buffer;
  return buffer;
}

}  // namespace

template <typename Before>
int32_t Dictionary::PartitionPoint(const Before& before) const {
  // The blocks whose head holds `before` come first.
  size_t lo = 0, hi = blocks_.size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (before(Head(mid))) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == 0) return 0;
  // The point is in the last such block, after its head, or at the next.
  const auto first = static_cast<int32_t>(lo - 1) * kBlockCodes;
  const int32_t end = std::min(first + kBlockCodes, size_);
  std::string& buffer = LookupBuffer();
  for (int32_t code = first + 1; code < end; ++code) {
    if (!before(Get(code, &buffer))) return code;
  }
  return end;
}

int32_t Dictionary::GetOrAdd(std::string_view s) {
  if (size_ == 0) return Append(s, {});
  // An in-order append costs one compare with the last string.
  const std::string_view last = Get(size_ - 1, &LookupBuffer());
  if (s > last) return Append(s, last);
  const int32_t code = Find(s);
  AQE_CHECK_MSG(code >= 0,
                "GetOrAdd of a new string below the last one; load strings "
                "in any order with BulkLoad");
  return code;
}

int32_t Dictionary::Append(std::string_view s, std::string_view last) {
  AQE_CHECK_MSG(size_ < std::numeric_limits<int32_t>::max(),
                "dictionary code space exhausted");
  AQE_CHECK_MSG(s.size() <= kMaxStringBytes, "dictionary string too long");
  const bool head = size_ % kBlockCodes == 0;
  const size_t shared = head ? 0 : CommonPrefix(last, s);
  const size_t at = arena_.empty() ? 0 : arena_.size() - kDecodeSlack;
  const size_t end = at + EntryBytes(s, shared, head);
  AQE_CHECK_MSG(end + kDecodeSlack <= std::numeric_limits<uint32_t>::max(),
                "dictionary arena exceeds 4 GiB");
  arena_.resize(end + kDecodeSlack);  // `last` is not used again
  WriteEntry(arena_.data() + at, s, shared, head);
  if (head) blocks_.push_back(static_cast<uint32_t>(at));
  longest_ = std::max(longest_, static_cast<uint32_t>(s.size()));
  return size_++;
}

int32_t Dictionary::Find(std::string_view s) const {
  const int32_t code =
      PartitionPoint([s](std::string_view other) { return other < s; });
  return code < size_ && Get(code, &LookupBuffer()) == s ? code : -1;
}

std::string_view Dictionary::Get(int32_t code, std::string* buffer) const {
  AQE_CHECK(code >= 0 && code < size_);
  if (buffer->size() < DecodeBytes()) buffer->resize(DecodeBytes());
  char* out = buffer->data();
  const char* p = arena_.data() + blocks_[code / kBlockCodes];
  uint32_t size = 0;
  p = DecodeEntry(p, /*head=*/true, out, &size);
  for (int32_t i = code % kBlockCodes; i > 0; --i) {
    p = DecodeEntry(p, /*head=*/false, out, &size);
  }
  return {out, size};
}

template <typename Matches>
std::vector<uint8_t> Dictionary::BitmapOf(const Matches& matches) const {
  std::vector<uint8_t> bitmap(static_cast<size_t>(size_), 0);
  ForEach(0, size_, [&](int32_t code, std::string_view s) {
    bitmap[static_cast<size_t>(code)] = matches(s) ? 1 : 0;
  });
  return bitmap;
}

std::vector<uint8_t> Dictionary::MatchPrefix(std::string_view prefix) const {
  std::vector<uint8_t> bitmap(static_cast<size_t>(size_), 0);
  const auto [lo, hi] = PrefixRange(prefix);
  std::fill(bitmap.begin() + lo, bitmap.begin() + hi, 1);
  return bitmap;
}

std::vector<uint8_t> Dictionary::MatchContains(std::string_view infix) const {
  if (infix.empty()) {
    return std::vector<uint8_t>(static_cast<size_t>(size_), 1);
  }
  return BitmapOf([infix](std::string_view s) {
    return FindSubstr(s.data(), s.size(), infix.data(), infix.size()) !=
           SIZE_MAX;
  });
}

std::vector<uint8_t> Dictionary::MatchIn(
    const std::vector<std::string>& values) const {
  std::vector<uint8_t> bitmap(static_cast<size_t>(size_), 0);
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
  AQE_CHECK_MSG(size_ == 0, "bulk load into a non-empty dictionary");
  const size_t rows = ends.size();
  // Sorted position -> row.
  const PageVector<int32_t> order =
      SortStrings(bytes.data(), ends.data(), rows);
  const auto row_string = [&](size_t i) {
    return ListEntry(bytes.data(), ends.data(), static_cast<size_t>(order[i]));
  };
  // Pass 1 compares each sorted position with the one before: shared[i] is
  // 0 for a repeat, else 1 + the prefix the two have in common. It tallies
  // each chunk's strings and entry bytes, and pass 2 writes them from the
  // chunk's first code and arena offset. Which of a chunk's strings open a
  // block depends on the codes before the chunk, so the tally keeps the
  // bytes as if none did, plus, for each position j in a block, what
  // opening one adds to the chunk's strings j, j + B, ... (B =
  // kBlockCodes).
  const size_t chunks =
      rows >= static_cast<size_t>(kParallelBulkLoad) ? ForkJoinWidth() : 1;
  const auto chunk_begin = [rows, chunks](size_t c) {
    return rows * c / chunks;
  };
  struct Tally {
    uint64_t codes = 0;
    uint64_t bytes = 0;  ///< as if no string opened a block
    int64_t head_extra[kBlockCodes] = {};
    uint32_t longest = 0;
  };
  PageVector<uint32_t> shared(rows);
  std::vector<Tally> tallies(chunks);
  ForkJoin(chunks, [&](size_t c) {
    Tally& tally = tallies[c];
    for (size_t i = chunk_begin(c); i < chunk_begin(c + 1); ++i) {
      const std::string_view s = row_string(i);
      AQE_CHECK_MSG(s.size() <= kMaxStringBytes, "dictionary string too long");
      const std::string_view before =
          i == 0 ? std::string_view() : row_string(i - 1);
      const size_t common = CommonPrefix(before, s);
      if (i > 0 && common == s.size() && common == before.size()) {
        shared[i] = 0;
        continue;
      }
      shared[i] = static_cast<uint32_t>(common + 1);
      const auto after_head =
          static_cast<int64_t>(EntryBytes(s, common, false));
      tally.bytes += static_cast<uint64_t>(after_head);
      tally.head_extra[tally.codes % kBlockCodes] +=
          static_cast<int64_t>(EntryBytes(s, 0, true)) - after_head;
      ++tally.codes;
      tally.longest = std::max(tally.longest, static_cast<uint32_t>(s.size()));
    }
  });
  std::vector<uint64_t> first_code(chunks + 1, 0), first_byte(chunks + 1, 0);
  for (size_t c = 0; c < chunks; ++c) {
    const Tally& tally = tallies[c];
    // The chunk's string j opens a block iff first_code[c] + j is a
    // multiple of B.
    const uint64_t heads_at =
        (kBlockCodes - first_code[c] % kBlockCodes) % kBlockCodes;
    first_code[c + 1] = first_code[c] + tally.codes;
    first_byte[c + 1] = first_byte[c] + tally.bytes +
                        static_cast<uint64_t>(tally.head_extra[heads_at]);
    longest_ = std::max(longest_, tally.longest);
  }
  size_ = static_cast<int32_t>(first_code[chunks]);
  if (size_ > 0) {
    AQE_CHECK_MSG(first_byte[chunks] + kDecodeSlack <=
                      std::numeric_limits<uint32_t>::max(),
                  "dictionary arena exceeds 4 GiB");
    arena_.resize(first_byte[chunks] + kDecodeSlack);
  }
  blocks_.resize((first_code[chunks] + kBlockCodes - 1) / kBlockCodes);
  PageVector<int32_t> codes(rows);
  ForkJoin(chunks, [&](size_t c) {
    // A chunk may open inside the previous chunk's last string.
    auto code = static_cast<int32_t>(first_code[c]) - 1;
    char* out = arena_.data() + first_byte[c];
    for (size_t i = chunk_begin(c); i < chunk_begin(c + 1); ++i) {
      if (shared[i] != 0) {
        const bool head = ++code % kBlockCodes == 0;
        if (head) {
          blocks_[static_cast<size_t>(code / kBlockCodes)] =
              static_cast<uint32_t>(out - arena_.data());
        }
        out = WriteEntry(out, row_string(i), shared[i] - 1, head);
      }
      codes[static_cast<size_t>(order[i])] = code;
    }
  });
  return codes;
}

std::pair<int32_t, int32_t> Dictionary::PrefixRange(
    std::string_view prefix) const {
  const int32_t lo =
      PartitionPoint([prefix](std::string_view s) { return s < prefix; });
  const int32_t hi = PartitionPoint([prefix](std::string_view s) {
    return s.substr(0, prefix.size()) <= prefix;
  });
  return {lo, hi};
}

}  // namespace aqe
