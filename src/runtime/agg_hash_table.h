#ifndef AQE_RUNTIME_AGG_HASH_TABLE_H_
#define AQE_RUNTIME_AGG_HASH_TABLE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/page_allocator.h"

namespace aqe {

class QueryMemoryTracker;

namespace runtime_internal {
/// Worker-thread index plumbing shared by the runtime (set by the morsel
/// scheduler, read by thread-local runtime structures).
void SetThreadIndex(int index);
int GetThreadIndex();
}  // namespace runtime_internal

/// Linear-probing hash table for group-by aggregation. One instance per
/// worker thread (obtained via AggHashTableSet); generated code updates the
/// aggregate slots in place, the engine merges the per-thread tables when
/// the pipeline finishes.
///
/// Entry layout (seen by generated code): [key i64][slots...]; FindOrInsert
/// returns the pointer to the first aggregate slot.
class AggHashTable {
 public:
  /// `payload_slots` aggregate values per group, initialized to
  /// `init_values` (size payload_slots) on first touch. `tracker` (may be
  /// null) is charged for the backing arrays, including growth.
  AggHashTable(uint32_t payload_slots, std::vector<int64_t> init_values,
               QueryMemoryTracker* tracker = nullptr);
  ~AggHashTable();

  AggHashTable(const AggHashTable&) = delete;
  AggHashTable& operator=(const AggHashTable&) = delete;
  AggHashTable(AggHashTable&& other) noexcept;
  AggHashTable& operator=(AggHashTable&& other) noexcept;

  /// Payload pointer for `key`, inserting an initialized entry if new.
  void* FindOrInsert(int64_t key);

  /// Payload pointer for `key` or nullptr (no insert).
  void* Find(int64_t key) const;

  uint64_t size() const { return size_; }
  uint32_t payload_slots() const { return payload_slots_; }

  /// Iterates entries: fn(key, payload pointer).
  void ForEach(const std::function<void(int64_t, void*)>& fn) const;

 private:
  uint32_t entry_bytes() const { return 8 + payload_slots_ * 8; }
  uint8_t* EntryAt(uint64_t slot) const {
    return const_cast<uint8_t*>(data_.data()) + slot * entry_bytes();
  }
  uint64_t footprint() const { return data_.size() + occupied_.size(); }
  /// Allocates empty arrays for `capacity` slots.
  void Allocate(uint64_t capacity);
  void Grow();

  uint32_t payload_slots_;
  std::vector<int64_t> init_values_;
  uint64_t capacity_;  // power of two
  uint64_t mask_;
  uint64_t size_ = 0;
  /// capacity_ * entry_bytes(); an entry is written only when occupied.
  std::vector<uint8_t, PageAllocator<uint8_t>> data_;
  std::vector<uint8_t, PageAllocator<uint8_t>> occupied_;  // capacity_ bytes
  QueryMemoryTracker* tracker_ = nullptr;
  uint64_t charged_bytes_ = 0;  ///< what tracker_ was charged so far
};

/// The per-thread set of aggregation tables for one aggregation operator.
/// Generated code calls aqe_agg_local(set) to fetch its thread's table.
class AggHashTableSet {
 public:
  AggHashTableSet(uint32_t payload_slots, std::vector<int64_t> init_values,
                  int max_threads = 64);

  /// Memory accounting for tables created from now on (existing tables are
  /// not retro-charged; the engine attaches the tracker before execution).
  void set_memory_tracker(QueryMemoryTracker* tracker) { tracker_ = tracker; }

  /// Table of the calling worker thread (created lazily).
  AggHashTable* Local();

  /// All thread tables that were actually created.
  std::vector<AggHashTable*> NonEmptyTables() const;

  /// Merges all per-thread tables with a per-slot merge function:
  /// merge(slot_index, accumulator_ptr, value) — engine-side, not generated.
  /// An empty `target` adopts the largest thread table: its storage and
  /// tracker charge move, nothing is copied, so a single-threaded run
  /// merges for free. (Merging a value into a fresh entry must therefore be
  /// the identity, as it is for sum, count, min and max.) The others are
  /// folded in, each released with its charge right after, so the merge
  /// never holds every thread table and the merged table at once; nothing
  /// reads a thread table after the merge.
  void MergeInto(
      AggHashTable* target,
      const std::function<void(uint32_t, int64_t*, int64_t)>& merge);

 private:
  uint32_t payload_slots_;
  std::vector<int64_t> init_values_;
  std::vector<std::unique_ptr<AggHashTable>> tables_;
  QueryMemoryTracker* tracker_ = nullptr;
};

}  // namespace aqe

#endif  // AQE_RUNTIME_AGG_HASH_TABLE_H_
