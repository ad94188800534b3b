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
  Link</*kAtomic=*/false>(0, BeginSeal());
}

uint64_t JoinHashTable::BeginSeal() {
  AQE_CHECK_MSG(!sealed_, "join table sealed twice");
  sealed_ = true;
  uint64_t entries = 0;
  for (const auto& arena : arenas_) {
    if (arena == nullptr) continue;
    for (size_t c = 0; c < arena->chunks.size(); ++c) {
      const uint64_t nodes = arena->Used(c) / node_bytes();
      if (nodes == 0) continue;
      runs_.push_back({entries, nodes, arena->chunks[c].data()});
      entries += nodes;
    }
  }
  uint64_t buckets = 16;
  while (buckets < entries) buckets <<= 1;
  directory_.assign(buckets, nullptr);
  mask_ = buckets - 1;
  if (tracker_ != nullptr) tracker_->Charge(buckets * sizeof(uint8_t*));
  return entries;
}

void JoinHashTable::LinkNodes(uint64_t begin, uint64_t end) {
  Link</*kAtomic=*/true>(begin, end);
}

template <bool kAtomic>
void JoinHashTable::Link(uint64_t begin, uint64_t end) {
  if (begin >= end) return;
  // The last run starting at or before `begin`.
  auto run = std::upper_bound(
      runs_.begin(), runs_.end(), begin,
      [](uint64_t node, const NodeRun& r) { return node < r.first; });
  AQE_CHECK(run != runs_.begin());
  --run;
  // Locals, not members: the links are pointer stores, which the compiler
  // must assume could overwrite any member read through `this`.
  uint8_t** const directory = directory_.data();
  const uint64_t mask = mask_;
  const uint32_t bytes = node_bytes();
  for (uint64_t n = begin; n < end; ++run) {
    const uint64_t stop = std::min(end, run->first + run->count);
    uint8_t* node = run->base + (n - run->first) * bytes;
    for (; n < stop; ++n, node += bytes) {
      uint8_t** head =
          &directory[HashKey(*reinterpret_cast<const int64_t*>(node + 8)) &
                     mask];
      uint8_t* next;
      if constexpr (kAtomic) {
        next = __atomic_exchange_n(head, node, __ATOMIC_RELAXED);
      } else {
        next = *head;
        *head = node;
      }
      *reinterpret_cast<uint8_t**>(node) = next;
    }
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
