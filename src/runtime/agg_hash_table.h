#ifndef AQE_RUNTIME_AGG_HASH_TABLE_H_
#define AQE_RUNTIME_AGG_HASH_TABLE_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <vector>

#include "common/page_allocator.h"
#include "runtime/entry_arena.h"
#include "runtime/thread_index.h"

namespace aqe {

class QueryMemoryTracker;

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

/// Largest size of a thread table's arrays: an L2-sized bound, past which
/// a full partition spills instead of the table growing.
constexpr uint64_t kAggTableBytes = uint64_t{256} << 10;

class AggHashTableSet;

/// A worker thread's aggregation table: a linear-probing hash table split
/// by the hash's high bits into kAggPartitions partitions of equal
/// capacity. The partitions share one pair of arrays (partition p owns
/// slots [p * capacity, (p + 1) * capacity)), and a key probes only within
/// its partition.
///
/// The table starts at 64 slots. When an insert finds its partition 3/4
/// full, every partition doubles, but only while the arrays stay within
/// kAggTableBytes, so the table stays in cache. Past that, the full
/// partition spills instead: its entries move to the set's spill run of the
/// same partition and the partition starts empty. So the table holds the
/// groups seen lately, and a group spilled earlier is folded with its
/// later entries in the run.
///
/// Entry layout (seen by generated code): [key i64][slots...]; FindOrInsert
/// returns the pointer to the first aggregate slot, valid until the next
/// call.
class AggHashTable {
 public:
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

  /// Payload pointer for `key`, inserting an initialized entry if the
  /// table holds none. Valid until the next call.
  void* FindOrInsert(int64_t key);

  /// Groups the table holds (not counting what it spilled).
  uint64_t size() const;
  /// Bytes of the arrays, what the tracker is charged for.
  uint64_t footprint() const { return data_.size() + occupied_.size(); }

 private:
  friend class AggHashTableSet;

  explicit AggHashTable(AggHashTableSet* set);

  /// Calls fn(entry) for each occupied slot of partition `p`, in order.
  /// Reads the occupancy bytes eight at a time, so a run of empty slots
  /// costs one test per eight, not a mispredicted branch per slot.
  template <typename Fn>
  void ForEachInPartition(int p, Fn&& fn) const {
    const uint64_t first = static_cast<uint64_t>(p) << part_bits_;
    const uint8_t* occupied = occupied_.data() + first;
    const uint64_t count = uint64_t{1} << part_bits_;
    uint64_t base = 0;
    for (; base + 8 <= count; base += 8) {
      uint64_t word;  // one bit set per occupied slot's byte
      std::memcpy(&word, occupied + base, sizeof(word));
      for (; word != 0; word &= word - 1) {
        fn(EntryAt(first + base + (__builtin_ctzll(word) >> 3)));
      }
    }
    for (; base < count; ++base) {
      if (occupied[base]) fn(EntryAt(first + base));
    }
  }

  uint8_t* EntryAt(uint64_t slot) const {
    return const_cast<uint8_t*>(data_.data()) + slot * entry_bytes_;
  }
  /// The insert paths, kept out of line so the lookup of an existing
  /// group (one per tuple, from generated code) stays a leaf function.
  /// Inserts into `slot` of partition `p`, or, when `p` is 3/4 full,
  /// grows the table or spills `p` and inserts again.
  void* InsertAt(uint64_t slot, int64_t key, int p);
  /// Allocates empty arrays of 2^part_bits slots per partition and charges
  /// them.
  void Allocate(uint32_t part_bits);
  void Grow();
  /// Moves partition `p`'s entries to the set's run `p` (see
  /// AggHashTableSet::Spill) and empties it.
  void Spill(int p, bool fold_when_doubled);

  AggHashTableSet* set_;
  uint32_t entry_bytes_;
  uint32_t part_bits_ = 0;  ///< log2 of the slots per partition
  uint32_t max_part_bits_;  ///< the largest part_bits_ within kAggTableBytes
  uint64_t part_mask_ = 0;
  /// An insert into a partition holding this many groups (3/4 of its
  /// slots) grows the table or spills the partition first.
  uint64_t grow_at_ = 0;
  uint64_t sizes_[kAggPartitions] = {};
  /// kAggPartitions << part_bits_ entries; an entry is written only when
  /// occupied.
  PageVector<uint8_t> data_;
  PageVector<uint8_t> occupied_;  // one byte per slot
};

/// The groups of one aggregation operator: one AggHashTable per worker
/// thread while the aggregating pipeline runs, and one spill run per
/// partition, shared by the threads. A run is an EntryArena of
/// [key][payload] entries that may repeat a key.
///
/// This is the partitioned aggregation of morsel-driven parallelism (Leis
/// et al., SIGMOD 2014, §4.4): thread tables pre-aggregate in cache and
/// spill to partitions, and each partition is aggregated on its own. A
/// spill appends under the partition's lock. A run that has doubled since
/// it was last folded (FoldAt) is folded in place then, so a stream of many
/// distinct groups holds at most two entries' bytes per group, not an entry
/// per tuple, and a stream whose keys all fall in one partition costs no
/// more than one spread over all 16.
///
/// BeginMerge spills what every thread table still holds and frees the
/// tables; MergePartition(p) folds run p once, so the engine runs the
/// kAggPartitions merges as independent morsels on its workers (or in a
/// loop) once the pipeline has finished. The merged set is the 16 runs,
/// each holding every group of its partition once; the engine steps
/// iterate it (ForEach). Reading the set before every spilled entry is
/// folded is a CHECK failure.
class AggHashTableSet {
 public:
  /// One slot per entry of `kinds`, each starting at AggInitValue(kind).
  /// `tracker` (may be null) is charged for every table and run the set
  /// holds and for each fold's transient index.
  explicit AggHashTableSet(std::vector<AggKind> kinds,
                           QueryMemoryTracker* tracker = nullptr,
                           int max_threads = kMaxThreads);
  ~AggHashTableSet();

  /// Table of the calling worker thread (created lazily).
  AggHashTable* Local();

  /// Starts merging: spills every thread table into the runs and frees the
  /// tables. Returns the entries left to fold: 0 when every run already
  /// holds each of its keys once (one thread's table that never spilled),
  /// otherwise every partition must be passed to MergePartition before
  /// the set is read. Must not overlap an insert.
  uint64_t BeginMerge();

  /// Folds run `p` of the merge BeginMerge started. Calls on distinct
  /// partitions may run concurrently.
  void MergePartition(int p);

  /// BeginMerge and every MergePartition, on the calling thread.
  void Merge();

  /// The slot kinds, one 8-byte payload value each.
  const std::vector<AggKind>& kinds() const { return kinds_; }
  /// Merged groups.
  uint64_t size() const;
  /// Bytes the merged runs are charged for.
  uint64_t footprint() const;

  /// Iterates the merged groups: fn(key, payload pointer).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    CheckMerged();
    for (const auto& part : parts_) {
      part->run.ForEachChunk([&](uint8_t* entry, uint64_t count) {
        for (uint64_t i = 0; i < count; ++i, entry += entry_bytes_) {
          fn(*reinterpret_cast<const int64_t*>(entry),
             static_cast<void*>(entry + 8));
        }
      });
    }
  }

 private:
  friend class AggHashTable;

  /// One partition's spill run. Entries [0, distinct) hold distinct keys.
  struct Partition {
    Partition(uint32_t entry_bytes, QueryMemoryTracker* tracker)
        : run(entry_bytes, tracker) {}
    std::mutex mutex;
    EntryArena run;
    uint64_t distinct = 0;
    /// A spill that leaves the run this long folds it (FoldAt).
    uint64_t fold_at = 0;
  };

  /// The run length at which a run folded down to `distinct` entries has
  /// doubled: its entries and its fold's index take twice the bytes of
  /// `distinct` entries. So a run and its fold never hold more than twice
  /// the bytes of the partition's groups.
  uint64_t FoldAt(uint64_t distinct) const;

  /// Appends `table`'s partition `p` to run `p`, under its lock; folds the
  /// run if `fold_when_doubled` and the run has reached its fold_at.
  void Spill(const AggHashTable& table, int p, bool fold_when_doubled);
  /// Folds the entries of `part` that repeat a key into the first entry of
  /// that key, and compacts the run in place.
  void Fold(Partition& part);
  /// Folds payload `src` into `dst`, each slot by its AggKind.
  void FoldSlots(int64_t* dst, const int64_t* src) const;
  void CheckMerged() const;

  std::vector<AggKind> kinds_;
  std::vector<int64_t> init_values_;
  uint32_t entry_bytes_;
  QueryMemoryTracker* tracker_;
  std::vector<std::unique_ptr<AggHashTable>> tables_;
  std::unique_ptr<Partition> parts_[kAggPartitions];
};

inline void* AggHashTable::FindOrInsert(int64_t key) {
  const uint64_t hash = Hash(key);
  const int p = PartitionOf(hash);
  const uint64_t first = static_cast<uint64_t>(p) << part_bits_;
  uint64_t slot = hash & part_mask_;
  for (;;) {
    if (!occupied_[first + slot]) return InsertAt(first + slot, key, p);
    uint8_t* entry = EntryAt(first + slot);
    if (*reinterpret_cast<const int64_t*>(entry) == key) return entry + 8;
    slot = (slot + 1) & part_mask_;
  }
}

}  // namespace aqe

#endif  // AQE_RUNTIME_AGG_HASH_TABLE_H_
