#include "runtime/join_hash_table.h"

#include <algorithm>
#include <cstring>

#include "common/status.h"
#include "obs/memory_tracker.h"

namespace aqe {

namespace {
/// Index of the calling worker thread, assigned by the scheduler (0 for the
/// main thread / single-threaded use). Also used by the aggregation runtime.
thread_local int t_thread_index = 0;
constexpr int kMaxThreads = 64;
}  // namespace

namespace runtime_internal {
void SetThreadIndex(int index) {
  AQE_CHECK(index >= 0 && index < kMaxThreads);
  t_thread_index = index;
}
int GetThreadIndex() { return t_thread_index; }
}  // namespace runtime_internal

/// One thread's node storage. Chunks start at the PageAllocator's mmap
/// threshold and double up to 1 MiB, so a small build table costs each
/// inserting worker 64 KiB, not a whole megabyte. Nodes are fixed-size and
/// packed from the start of each chunk: a chunk holds
/// ⌊chunk bytes / node bytes⌋ nodes, the last one `used_in_chunk / node`.
struct JoinHashTable::Arena {
  static constexpr size_t kFirstChunkBytes = 64 << 10;
  static constexpr size_t kMaxChunkBytes = 1 << 20;
  /// Not zero-filled: Insert writes every byte it hands out, so only the
  /// pages nodes have reached are resident.
  std::vector<PageVector<uint8_t>> chunks;
  size_t used_in_chunk = 0;
  uint64_t chunk_bytes = 0;  ///< sum of chunk sizes, charged to `tracker`
  QueryMemoryTracker* tracker = nullptr;

  uint8_t* Alloc(size_t bytes) {
    AQE_CHECK(bytes <= kFirstChunkBytes);
    if (chunks.empty() || used_in_chunk + bytes > chunks.back().size()) {
      const size_t size =
          chunks.empty() ? kFirstChunkBytes
                         : std::min(chunks.back().size() * 2, kMaxChunkBytes);
      chunks.emplace_back(size);
      used_in_chunk = 0;
      chunk_bytes += size;
      if (tracker != nullptr) tracker->Charge(size);
    }
    uint8_t* p = chunks.back().data() + used_in_chunk;
    used_in_chunk += bytes;
    return p;
  }

  /// Bytes of chunk `c` that may hold nodes.
  size_t Used(size_t c) const {
    return c + 1 == chunks.size() ? used_in_chunk : chunks[c].size();
  }

  uint64_t Nodes(size_t node_bytes) const {
    uint64_t nodes = 0;
    for (size_t c = 0; c < chunks.size(); ++c) nodes += Used(c) / node_bytes;
    return nodes;
  }

  /// Calls fn(node) for every node carved from this arena.
  template <typename Fn>
  void ForEachNode(size_t node_bytes, Fn&& fn) {
    for (size_t c = 0; c < chunks.size(); ++c) {
      for (size_t offset = 0; offset + node_bytes <= Used(c);
           offset += node_bytes) {
        fn(chunks[c].data() + offset);
      }
    }
  }
};

JoinHashTable::JoinHashTable(uint32_t payload_slots,
                             QueryMemoryTracker* tracker)
    : payload_slots_(payload_slots), tracker_(tracker) {
  arenas_.resize(kMaxThreads);
}

JoinHashTable::~JoinHashTable() {
  if (tracker_ == nullptr) return;
  uint64_t bytes = directory_.size() * sizeof(uint8_t*);
  for (const auto& arena : arenas_) {
    if (arena != nullptr) bytes += arena->chunk_bytes;
  }
  tracker_->Release(bytes);
}

uint64_t JoinHashTable::HashKey(int64_t key) {
  // Multiplicative hashing with a finalizer (good spread for dense keys).
  uint64_t h = static_cast<uint64_t>(key) * 0x9e3779b97f4a7c15ULL;
  h ^= h >> 32;
  return h;
}

uint8_t* JoinHashTable::AllocNode() {
  int index = runtime_internal::GetThreadIndex();
  Arena* arena = arenas_[static_cast<size_t>(index)].get();
  if (arena == nullptr) {
    std::lock_guard<std::mutex> lock(arena_mutex_);
    if (arenas_[static_cast<size_t>(index)] == nullptr) {
      auto fresh = std::make_unique<Arena>();
      fresh->tracker = tracker_;
      arenas_[static_cast<size_t>(index)] = std::move(fresh);
    }
    arena = arenas_[static_cast<size_t>(index)].get();
  }
  return arena->Alloc(node_bytes());
}

void* JoinHashTable::Insert(int64_t key) {
  AQE_CHECK_MSG(!sealed_, "join table insert after Seal");
  uint8_t* node = AllocNode();
  *reinterpret_cast<int64_t*>(node + 8) = key;
  std::memset(node + 16, 0, payload_slots_ * 8);
  return node + 16;
}

uint64_t JoinHashTable::size() const {
  uint64_t entries = 0;
  for (const auto& arena : arenas_) {
    if (arena != nullptr) entries += arena->Nodes(node_bytes());
  }
  return entries;
}

void JoinHashTable::Seal() {
  if (sealed_) return;
  sealed_ = true;
  const uint64_t entries = size();
  uint64_t buckets = 16;
  while (buckets < entries) buckets <<= 1;
  directory_.assign(buckets, nullptr);
  mask_ = buckets - 1;
  if (tracker_ != nullptr) tracker_->Charge(buckets * sizeof(uint8_t*));
  for (const auto& arena : arenas_) {
    if (arena == nullptr) continue;
    arena->ForEachNode(node_bytes(), [this](uint8_t* node) {
      uint8_t*& head =
          directory_[HashKey(*reinterpret_cast<const int64_t*>(node + 8)) &
                     mask_];
      *reinterpret_cast<uint8_t**>(node) = head;
      head = node;
    });
  }
}

void JoinHashTable::CheckSealed() const {
  AQE_CHECK_MSG(sealed_, "join table probed before Seal");
}

void* JoinHashTable::Lookup(int64_t key) const {
  CheckSealed();
  uint8_t* node = directory_[HashKey(key) & mask_];
  while (node != nullptr &&
         *reinterpret_cast<const int64_t*>(node + 8) != key) {
    node = *reinterpret_cast<uint8_t* const*>(node);
  }
  return node;
}

void* JoinHashTable::Next(void* node, int64_t key) {
  uint8_t* next = *reinterpret_cast<uint8_t* const*>(node);
  while (next != nullptr &&
         *reinterpret_cast<const int64_t*>(next + 8) != key) {
    next = *reinterpret_cast<uint8_t* const*>(next);
  }
  return next;
}

}  // namespace aqe
