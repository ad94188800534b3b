#include "runtime/join_hash_table.h"

#include <algorithm>
#include <cstring>

#include "common/status.h"
#include "obs/memory_tracker.h"
#include "runtime/thread_index.h"

namespace aqe {

JoinHashTable::JoinHashTable(uint32_t payload_slots,
                             QueryMemoryTracker* tracker)
    : payload_slots_(payload_slots), tracker_(tracker) {
  arenas_.resize(kMaxThreads);
}

JoinHashTable::~JoinHashTable() {
  if (tracker_ != nullptr) {
    tracker_->Release(directory_.size() * sizeof(uint8_t*));
  }
}

uint64_t JoinHashTable::HashKey(int64_t key) {
  // Multiplicative hashing with a finalizer (good spread for dense keys).
  uint64_t h = static_cast<uint64_t>(key) * 0x9e3779b97f4a7c15ULL;
  h ^= h >> 32;
  return h;
}

uint8_t* JoinHashTable::AllocNode() {
  int index = runtime_internal::GetThreadIndex();
  EntryArena* arena = arenas_[static_cast<size_t>(index)].get();
  if (arena == nullptr) {
    std::lock_guard<std::mutex> lock(arena_mutex_);
    auto& slot = arenas_[static_cast<size_t>(index)];
    if (slot == nullptr) {
      slot = std::make_unique<EntryArena>(node_bytes(), tracker_);
    }
    arena = slot.get();
  }
  return arena->Append();
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
    if (arena != nullptr) entries += arena->size();
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
    arena->ForEachChunk([&](uint8_t* base, uint64_t nodes) {
      runs_.push_back({entries, nodes, base});
      entries += nodes;
    });
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
