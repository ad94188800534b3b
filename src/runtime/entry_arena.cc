#include "runtime/entry_arena.h"

#include "common/status.h"
#include "obs/memory_tracker.h"

namespace aqe {

namespace {
constexpr uint64_t kPageBytes = 4096;
/// PageAllocator maps requests from this size on: smaller chunks from
/// operator new stayed resident in the workers' malloc arenas once freed
/// (with 4 KiB first chunks, benchsuite's adhoc-sf0.01 `peak_rss_mb` read
/// ~3 MB higher on a 4-vCPU VM).
constexpr uint64_t kFirstChunkBytes = uint64_t{64} << 10;
constexpr uint64_t kMaxChunkBytes = uint64_t{1} << 20;

/// log2 of the most entries of `entry_bytes` that fit in `bytes`, a power
/// of two (0 if not even one fits).
uint32_t FitShift(uint64_t bytes, uint32_t entry_bytes) {
  const uint64_t entries = bytes / entry_bytes;
  if (entries <= 1) return 0;
  return 63 - static_cast<uint32_t>(__builtin_clzll(entries));
}

/// log2 of the fewest entries of `entry_bytes`, a power of two, that fill
/// at least `bytes`.
uint32_t FillShift(uint64_t bytes, uint32_t entry_bytes) {
  const uint64_t entries = (bytes + entry_bytes - 1) / entry_bytes;
  if (entries <= 1) return 0;
  return 64 - static_cast<uint32_t>(__builtin_clzll(entries - 1));
}
}  // namespace

EntryArena::EntryArena(uint32_t entry_bytes, QueryMemoryTracker* tracker)
    : entry_bytes_(entry_bytes),
      first_shift_(FillShift(kFirstChunkBytes, entry_bytes)),
      doublings_(std::max(FitShift(kMaxChunkBytes, entry_bytes),
                          first_shift_) -
                 first_shift_),
      tracker_(tracker) {
  AQE_CHECK(entry_bytes > 0);
}

EntryArena::~EntryArena() {
  if (tracker_ != nullptr && charged_bytes_ > 0) {
    tracker_->Release(charged_bytes_);
  }
}

uint64_t EntryArena::EntriesBefore(size_t c) const {
  if (c <= doublings_) return ((uint64_t{1} << c) - 1) << first_shift_;
  return (((uint64_t{2} << doublings_) - 1) << first_shift_) +
         (c - doublings_ - 1) * ChunkEntries(doublings_);
}

size_t EntryArena::ChunkOf(uint64_t i, uint64_t* offset) const {
  // Chunk c <= doublings_ starts at entry (2^c - 1) << first_shift_.
  const size_t c = 63 - static_cast<size_t>(
                            __builtin_clzll((i >> first_shift_) + 1));
  if (c <= doublings_) {
    *offset = i - EntriesBefore(c);
    return c;
  }
  const uint32_t shift = first_shift_ + doublings_;
  const uint64_t j = i - EntriesBefore(doublings_ + 1);
  *offset = j & ((uint64_t{1} << shift) - 1);
  return doublings_ + 1 + (j >> shift);
}

uint8_t* EntryArena::At(uint64_t i) const {
  uint64_t offset;
  const size_t c = ChunkOf(i, &offset);
  return const_cast<uint8_t*>(chunks_[c].bytes.data()) + offset * entry_bytes_;
}

void EntryArena::SetCursor() {
  if (chunks_.empty()) {
    next_ = charged_end_ = nullptr;
    return;
  }
  Chunk& chunk = chunks_.back();
  next_ = chunk.bytes.data() + (size_ - last_begin_) * entry_bytes_;
  charged_end_ = chunk.bytes.data() + chunk.charged;
}

uint8_t* EntryArena::AppendSlow() {
  if (chunks_.empty() ||
      size_ - last_begin_ == ChunkEntries(chunks_.size() - 1)) {
    last_begin_ = size_;
    const uint64_t entries = ChunkEntries(chunks_.size());
    chunks_.push_back({PageVector<uint8_t>(entries * entry_bytes_), 0});
  }
  Chunk& chunk = chunks_.back();
  const uint64_t end = (size_ - last_begin_ + 1) * entry_bytes_;
  if (end > chunk.charged) {
    const uint64_t to = std::min<uint64_t>(
        (end + kPageBytes - 1) & ~(kPageBytes - 1), chunk.bytes.size());
    if (tracker_ != nullptr) tracker_->Charge(to - chunk.charged);
    charged_bytes_ += to - chunk.charged;
    chunk.charged = to;
  }
  SetCursor();
  return Append();
}

void EntryArena::Truncate(uint64_t n) {
  AQE_CHECK(n <= size_);
  uint64_t offset;
  const size_t keep = n == 0 ? 0 : ChunkOf(n - 1, &offset) + 1;
  uint64_t released = 0;
  while (chunks_.size() > keep) {
    released += chunks_.back().charged;
    chunks_.pop_back();
  }
  if (tracker_ != nullptr && released > 0) tracker_->Release(released);
  charged_bytes_ -= released;
  size_ = n;
  last_begin_ = chunks_.empty() ? 0 : EntriesBefore(chunks_.size() - 1);
  SetCursor();
}

}  // namespace aqe
