#ifndef AQE_RUNTIME_AGG_HASH_TABLE_H_
#define AQE_RUNTIME_AGG_HASH_TABLE_H_

#include <atomic>
#include <cstdint>
#include <cstring>
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

/// Aggregate function of one aggregation slot.
enum class AggKind : uint8_t { kSum, kCount, kMin, kMax };

/// A slot's value before its first update: 0 for sums and counts, the
/// type's extreme for min and max. Folding a value into a fresh slot is
/// therefore the identity for every kind.
int64_t AggInitValue(AggKind kind);

/// Partitions of an aggregation table: enough to give every worker a share
/// of an aggregation's merge.
constexpr int kAggPartitionBits = 4;
constexpr int kAggPartitions = 1 << kAggPartitionBits;

/// Linear-probing hash table for group-by aggregation, split by the hash's
/// high bits into kAggPartitions partitions of equal capacity. The
/// partitions share one pair of arrays (partition p owns slots
/// [p * capacity, (p + 1) * capacity)), and a key probes only within its
/// partition, so each partition can be merged, and released, on its own.
/// One allocation per table keeps a large table on huge pages.
///
/// When an insert finds its partition 3/4 full, every partition doubles.
/// The entries move partition by partition, and each old partition's pages
/// go back to the OS (with their tracker charge) as soon as its entries
/// have moved, so growing holds the new arrays and one old partition, not
/// both generations whole. Keys whose hashes crowd into one partition make
/// the table larger than its groups need, by up to kAggPartitions times.
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

  /// The table's hash of `key`: its high bits pick the partition, its low
  /// bits the slot within it.
  static uint64_t Hash(int64_t key) {
    uint64_t h = static_cast<uint64_t>(key) * 0x9e3779b97f4a7c15ULL;
    return h ^ (h >> 32);
  }
  static int PartitionOf(uint64_t hash) {
    return static_cast<int>(hash >> (64 - kAggPartitionBits));
  }

  /// Payload pointer for `key`, inserting an initialized entry if new.
  void* FindOrInsert(int64_t key);

  /// Payload pointer for `key` or nullptr (no insert).
  void* Find(int64_t key) const;

  uint64_t size() const;
  /// Groups in partition `p`.
  uint64_t partition_size(int p) const { return sizes_[p]; }
  uint32_t payload_slots() const { return payload_slots_; }
  /// Bytes of the backing arrays (what the tracker is charged once every
  /// partition is in use).
  uint64_t footprint() const { return data_.size() + occupied_.size(); }

  /// Iterates entries: fn(key, payload pointer).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (int p = 0; p < kAggPartitions; ++p) ForEachInPartition(p, fn);
  }

  /// Iterates the entries of partition `p`: fn(key, payload pointer).
  template <typename Fn>
  void ForEachInPartition(int p, Fn&& fn) const {
    const uint64_t first = static_cast<uint64_t>(p) << part_bits_;
    ForEachOccupied(occupied_.data() + first, uint64_t{1} << part_bits_,
                    [&](uint64_t i) {
                      uint8_t* entry = EntryAt(first + i);
                      fn(*reinterpret_cast<const int64_t*>(entry),
                         static_cast<void*>(entry + 8));
                    });
  }

 private:
  friend class AggHashTableSet;

  /// A merge target: `part_bits` sized, charged for its occupancy bytes
  /// now and for each partition's entries by ChargePartition.
  AggHashTable(uint32_t payload_slots, std::vector<int64_t> init_values,
               QueryMemoryTracker* tracker, uint32_t part_bits);

  /// Calls fn(i) for each occupied byte i of `occupied[0, count)`, in
  /// order. Reads the bytes eight at a time, so a run of empty slots costs
  /// one test per eight, not a mispredicted branch per slot.
  template <typename Fn>
  static void ForEachOccupied(const uint8_t* occupied, uint64_t count,
                              Fn&& fn) {
    uint64_t base = 0;
    for (; base + 8 <= count; base += 8) {
      uint64_t word;  // one bit set per occupied slot's byte
      std::memcpy(&word, occupied + base, sizeof(word));
      for (; word != 0; word &= word - 1) {
        fn(base + (__builtin_ctzll(word) >> 3));
      }
    }
    for (; base < count; ++base) {
      if (occupied[base]) fn(base);
    }
  }

  /// The smallest partition size (log2) that holds `groups` without
  /// growing.
  static uint32_t PartBitsFor(uint64_t groups);

  uint32_t entry_bytes() const { return 8 + payload_slots_ * 8; }
  uint64_t partition_data_bytes() const {
    return (uint64_t{1} << part_bits_) * entry_bytes();
  }
  uint8_t* EntryAt(uint64_t slot) const {
    return const_cast<uint8_t*>(data_.data()) + slot * entry_bytes();
  }
  /// Entry of `key` in partition `p`, inserted if new (counted in `size`,
  /// the partition's group count); never grows. A merge counts into a local
  /// and stores it once: concurrent merges would otherwise share sizes_'s
  /// cache lines on every insert.
  void* FindOrInsertInPartition(int p, int64_t key, uint64_t hash,
                                uint64_t& size);
  /// The insert paths, kept out of line so the lookup of an existing
  /// group (one per tuple, from generated code) stays a leaf function.
  void* InsertAt(uint64_t slot, int64_t key, uint64_t& size);
  void* GrowAndInsert(int64_t key);
  /// Allocates empty arrays of 2^part_bits slots per partition (at least
  /// 4).
  void Allocate(uint32_t part_bits);
  void Grow();
  void Charge(uint64_t bytes);
  void Release(uint64_t bytes);
  /// Charges one partition's entry bytes of a merge target.
  void ChargePartition() { Charge(partition_data_bytes()); }
  /// Returns partition `p`'s pages to the OS, if its arrays are mapped, and
  /// their charge to the tracker. The partition is not read again.
  void ReleasePartition(int p);

  uint32_t payload_slots_;
  std::vector<int64_t> init_values_;
  uint32_t part_bits_ = 0;  ///< log2 of the slots per partition
  uint64_t part_mask_ = 0;
  /// An insert into a partition holding this many groups (3/4 of its
  /// slots) grows the table first.
  uint64_t grow_at_ = 0;
  uint64_t sizes_[kAggPartitions] = {};
  /// kAggPartitions << part_bits_ entries; an entry is written only when
  /// occupied.
  PageVector<uint8_t> data_;
  PageVector<uint8_t> occupied_;  // one byte per slot
  QueryMemoryTracker* tracker_ = nullptr;
  /// What tracker_ is charged for now; merges of distinct partitions
  /// charge and release concurrently.
  std::atomic<uint64_t> charged_bytes_{0};
};

/// The aggregation tables of one aggregation operator: one AggHashTable
/// per worker thread while the aggregating pipeline runs, then one merged
/// table that the engine steps read.
///
/// Merging is partitioned, as in morsel-driven parallelism (Leis et al.,
/// SIGMOD 2014): partition p's merge folds every thread table's partition
/// p into the merged table's partition p and touches nothing else, so the
/// engine runs the kAggPartitions merges as independent morsels on its
/// workers (or in a loop) once the pipeline has finished. A merge adopts
/// its only non-empty source (a single-threaded run merges for free).
/// Otherwise the merged table is sized to the largest summed partition, so
/// it never grows, and is charged partition by partition as the merges fold
/// into it, each slot with its AggKind; each source partition is released
/// as soon as it is folded. Reading the set before every pending group is
/// merged is a CHECK failure.
class AggHashTableSet {
 public:
  /// One slot per entry of `kinds`, each starting at AggInitValue(kind).
  /// `tracker` (may be null) is charged for every table the set holds.
  explicit AggHashTableSet(std::vector<AggKind> kinds,
                           QueryMemoryTracker* tracker = nullptr,
                           int max_threads = 64);

  /// Table of the calling worker thread (created lazily).
  AggHashTable* Local();

  /// Starts merging the thread tables, and the merged table of an earlier
  /// merge if groups were added since: adopts the only non-empty one, or
  /// allocates the merged table. Returns the groups left to fold: 0 when
  /// nothing is, otherwise every partition must be passed to MergePartition
  /// before the set is read. Must not overlap an insert.
  uint64_t BeginMerge();

  /// Folds partition `p` of the merge BeginMerge started (see the class
  /// comment). Calls on distinct partitions may run concurrently.
  void MergePartition(int p);

  /// BeginMerge and every pending MergePartition, on the calling thread.
  void Merge();

  /// The slot kinds, one 8-byte payload value each.
  const std::vector<AggKind>& kinds() const { return kinds_; }
  /// Merged groups.
  uint64_t size() const;
  /// Bytes of the merged table's arrays.
  uint64_t footprint() const;

  /// Iterates the merged groups: fn(key, payload pointer).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    CheckMerged();
    if (merged_ != nullptr) merged_->ForEach(fn);
  }

  /// Merged payload pointer for `key`, or nullptr.
  void* Find(int64_t key) const;

 private:
  void CheckMerged() const;

  std::vector<AggKind> kinds_;
  std::vector<int64_t> init_values_;
  std::vector<std::unique_ptr<AggHashTable>> tables_;
  std::unique_ptr<AggHashTable> merged_;
  /// The tables the merge in flight folds; freed by the last partition's
  /// merge.
  std::vector<std::unique_ptr<AggHashTable>> sources_;
  std::atomic<int> partitions_left_{0};
  QueryMemoryTracker* tracker_;
};

inline void* AggHashTable::FindOrInsert(int64_t key) {
  const uint64_t hash = Hash(key);
  const int p = PartitionOf(hash);
  if (__builtin_expect(sizes_[p] >= grow_at_, 0)) return GrowAndInsert(key);
  return FindOrInsertInPartition(p, key, hash, sizes_[p]);
}

inline void* AggHashTable::FindOrInsertInPartition(int p, int64_t key,
                                                   uint64_t hash,
                                                   uint64_t& size) {
  const uint64_t first = static_cast<uint64_t>(p) << part_bits_;
  uint64_t slot = hash & part_mask_;
  for (;;) {
    if (!occupied_[first + slot]) return InsertAt(first + slot, key, size);
    uint8_t* entry = EntryAt(first + slot);
    if (*reinterpret_cast<const int64_t*>(entry) == key) return entry + 8;
    slot = (slot + 1) & part_mask_;
  }
}

}  // namespace aqe

#endif  // AQE_RUNTIME_AGG_HASH_TABLE_H_
