#ifndef AQE_RUNTIME_JOIN_HASH_TABLE_H_
#define AQE_RUNTIME_JOIN_HASH_TABLE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/page_allocator.h"

namespace aqe {

class QueryMemoryTracker;

/// Chaining hash table for hash joins, usable concurrently from generated
/// code (JIT or VM alike). The directory is sized up front from the build
/// pipeline's known input cardinality (morsel framework always knows the
/// total work of a pipeline, §III-A); inserts are lock-free CAS pushes onto
/// the bucket chains, with nodes carved from per-thread arenas.
///
/// Node layout (seen by generated code):
///   [0]  next node pointer
///   [8]  join key (i64)
///   [16] payload: `payload_slots` 8-byte values
class JoinHashTable {
 public:
  /// `expected_entries` sizes the directory (an upper bound is fine);
  /// `payload_slots` is the number of 8-byte payload values per entry.
  /// `tracker` (may be null) is charged for the directory up front and for
  /// each per-thread arena chunk as build inserts allocate them.
  JoinHashTable(uint64_t expected_entries, uint32_t payload_slots,
                QueryMemoryTracker* tracker = nullptr);
  ~JoinHashTable();

  JoinHashTable(const JoinHashTable&) = delete;
  JoinHashTable& operator=(const JoinHashTable&) = delete;

  /// Inserts `key` and returns the payload pointer for the new entry.
  /// Thread-safe; called per build tuple from generated code.
  void* Insert(int64_t key);

  /// First chain node whose key equals `key`, or nullptr.
  void* Lookup(int64_t key) const;

  /// Next matching node after `node`, or nullptr.
  static void* Next(void* node, int64_t key);

  uint64_t size() const { return size_.load(std::memory_order_relaxed); }
  uint32_t payload_slots() const { return payload_slots_; }

  /// Total bytes of one node.
  uint32_t node_bytes() const { return 16 + payload_slots_ * 8; }

  /// Iterates all entries (single-threaded; for tests and ht-scan
  /// pipelines). Calls fn(key, payload_ptr).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (uint64_t b = 0; b < directory_.size(); ++b) {
      for (uint8_t* node = directory_[b].load(std::memory_order_acquire);
           node != nullptr;
           node = *reinterpret_cast<uint8_t* const*>(node)) {
        fn(*reinterpret_cast<const int64_t*>(node + 8),
           reinterpret_cast<void*>(node + 16));
      }
    }
  }

 private:
  struct Arena;

  static uint64_t HashKey(int64_t key);
  uint8_t* AllocNode();

  std::vector<std::atomic<uint8_t*>, PageAllocator<std::atomic<uint8_t*>>>
      directory_;
  uint64_t mask_;
  uint32_t payload_slots_;
  std::atomic<uint64_t> size_{0};
  QueryMemoryTracker* tracker_ = nullptr;

  mutable std::mutex arena_mutex_;
  std::vector<std::unique_ptr<Arena>> arenas_;
};

}  // namespace aqe

#endif  // AQE_RUNTIME_JOIN_HASH_TABLE_H_
