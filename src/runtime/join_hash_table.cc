#include "runtime/join_hash_table.h"

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

struct JoinHashTable::Arena {
  static constexpr size_t kChunkBytes = 1 << 20;
  /// Not zero-filled: Insert writes every byte it hands out, so only the
  /// pages nodes have reached are resident.
  std::vector<std::vector<uint8_t, PageAllocator<uint8_t>>> chunks;
  size_t used_in_chunk = kChunkBytes;  // force first allocation
  QueryMemoryTracker* tracker = nullptr;

  uint8_t* Alloc(size_t bytes) {
    AQE_CHECK(bytes <= kChunkBytes);
    if (used_in_chunk + bytes > kChunkBytes) {
      chunks.emplace_back(kChunkBytes);
      used_in_chunk = 0;
      if (tracker != nullptr) tracker->Charge(kChunkBytes);
    }
    uint8_t* p = chunks.back().data() + used_in_chunk;
    used_in_chunk += bytes;
    return p;
  }
};

JoinHashTable::JoinHashTable(uint64_t expected_entries,
                             uint32_t payload_slots,
                             QueryMemoryTracker* tracker)
    : payload_slots_(payload_slots), tracker_(tracker) {
  uint64_t buckets = 16;
  while (buckets < expected_entries) buckets <<= 1;
  directory_ = decltype(directory_)(buckets);
  for (auto& slot : directory_) slot.store(nullptr, std::memory_order_relaxed);
  mask_ = buckets - 1;
  arenas_.resize(kMaxThreads);
  if (tracker_ != nullptr) {
    tracker_->Charge(directory_.size() * sizeof(std::atomic<uint8_t*>));
  }
}

JoinHashTable::~JoinHashTable() {
  if (tracker_ == nullptr) return;
  uint64_t bytes = directory_.size() * sizeof(std::atomic<uint8_t*>);
  for (const auto& arena : arenas_) {
    if (arena != nullptr) bytes += arena->chunks.size() * Arena::kChunkBytes;
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
  uint8_t* node = AllocNode();
  *reinterpret_cast<int64_t*>(node + 8) = key;
  std::memset(node + 16, 0, payload_slots_ * 8);
  std::atomic<uint8_t*>& head = directory_[HashKey(key) & mask_];
  uint8_t* expected = head.load(std::memory_order_relaxed);
  do {
    *reinterpret_cast<uint8_t**>(node) = expected;
  } while (!head.compare_exchange_weak(expected, node,
                                       std::memory_order_release,
                                       std::memory_order_relaxed));
  size_.fetch_add(1, std::memory_order_relaxed);
  return node + 16;
}

void* JoinHashTable::Lookup(int64_t key) const {
  uint8_t* node =
      directory_[HashKey(key) & mask_].load(std::memory_order_acquire);
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
