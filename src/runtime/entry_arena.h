#ifndef AQE_RUNTIME_ENTRY_ARENA_H_
#define AQE_RUNTIME_ENTRY_ARENA_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/page_allocator.h"

namespace aqe {

class QueryMemoryTracker;

/// Fixed-size entries packed densely into chunks from PageAllocator: a join
/// table's per-thread nodes and an aggregation partition's spilled groups.
/// Entry i is the i-th appended. The first chunk holds the fewest entries,
/// a power of two, that fill PageAllocator's 64 KiB mapping threshold;
/// each next chunk holds twice as many, up to the most that fit in 1 MiB.
/// So every chunk is mapped and goes back to the OS when freed, a large
/// arena takes few allocations, and At(i) finds any entry by arithmetic.
///
/// Chunks are not zero-filled, so only the pages entries have reached are
/// resident. The tracker is charged the same way: a chunk's 4 KiB page
/// when the first entry reaches it, and released exactly what was charged
/// when the chunk is freed.
class EntryArena {
 public:
  /// `tracker` may be null.
  EntryArena(uint32_t entry_bytes, QueryMemoryTracker* tracker);
  ~EntryArena();

  EntryArena(const EntryArena&) = delete;
  EntryArena& operator=(const EntryArena&) = delete;

  /// Space for one more entry, uninitialized.
  uint8_t* Append() {
    if (__builtin_expect(charged_end_ - next_ < entry_bytes_, 0)) {
      return AppendSlow();
    }
    uint8_t* entry = next_;
    next_ += entry_bytes_;
    ++size_;
    return entry;
  }

  uint64_t size() const { return size_; }
  /// What the tracker is charged for: the pages entries have reached.
  uint64_t charged_bytes() const { return charged_bytes_; }

  /// Entry `i` (< size()).
  uint8_t* At(uint64_t i) const;

  /// Keeps entries [0, n) and frees every chunk past the one holding entry
  /// n - 1 (all of them for n = 0). A kept chunk keeps its charge: its
  /// pages stay resident.
  void Truncate(uint64_t n);

  /// Calls fn(first entry, entry count) for each chunk, in entry order.
  template <typename Fn>
  void ForEachChunk(Fn&& fn) const {
    uint64_t left = size_;
    for (size_t c = 0; c < chunks_.size() && left > 0; ++c) {
      const uint64_t count = std::min<uint64_t>(left, ChunkEntries(c));
      fn(const_cast<uint8_t*>(chunks_[c].bytes.data()), count);
      left -= count;
    }
  }

 private:
  struct Chunk {
    PageVector<uint8_t> bytes;
    uint64_t charged = 0;  ///< bytes from the chunk's start charged so far
  };

  uint64_t ChunkEntries(size_t c) const {
    return uint64_t{1} << (first_shift_ + std::min<size_t>(c, doublings_));
  }
  uint8_t* AppendSlow();
  /// Entries in chunks [0, c).
  uint64_t EntriesBefore(size_t c) const;
  /// The chunk holding entry `i`, and the entry's index within it.
  size_t ChunkOf(uint64_t i, uint64_t* offset) const;
  /// Points next_ and charged_end_ into the last chunk.
  void SetCursor();

  uint32_t entry_bytes_;
  uint32_t first_shift_;  ///< log2 of the first chunk's entries
  uint32_t doublings_;    ///< chunks that double before the size stays
  QueryMemoryTracker* tracker_;
  std::vector<Chunk> chunks_;
  uint64_t size_ = 0;
  uint64_t last_begin_ = 0;  ///< entries before the last chunk
  uint64_t charged_bytes_ = 0;
  /// Where the next entry goes, and the end of the charged, allocated bytes
  /// of its chunk: Append's fast path is one compare.
  uint8_t* next_ = nullptr;
  uint8_t* charged_end_ = nullptr;
};

}  // namespace aqe

#endif  // AQE_RUNTIME_ENTRY_ARENA_H_
