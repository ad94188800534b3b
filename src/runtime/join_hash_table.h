#ifndef AQE_RUNTIME_JOIN_HASH_TABLE_H_
#define AQE_RUNTIME_JOIN_HASH_TABLE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/page_allocator.h"
#include "runtime/entry_arena.h"

namespace aqe {

class QueryMemoryTracker;

/// Chaining hash table for hash joins, usable concurrently from generated
/// code (JIT or VM alike). It is built in two phases, as in morsel-driven
/// parallelism (Leis et al., SIGMOD 2014):
///   1. Build: workers append nodes to their own per-thread arenas; no
///      shared state is touched, so inserts need no synchronization.
///   2. Seal: once the build pipeline has finished, the first pipeline that
///      probes the table seals it at bind time (BindPipeline). Seal sizes
///      the bucket directory to the number of nodes actually inserted and
///      links every node into its chain. The count is known before any
///      node is linked, so the links can be split: BeginSeal sizes the
///      directory, and LinkNodes links a range of nodes, pushing each onto
///      its chain with an atomic exchange of the bucket head. The engine
///      runs a large table's ranges as morsels on its workers.
/// Lookups need a sealed table; an insert after the seal is a CHECK failure.
/// So no cardinality estimate is needed, and a selective build costs a
/// directory sized to the rows that passed its filters, not to its input.
///
/// Node layout (seen by generated code):
///   [0]  next node pointer (written by Seal)
///   [8]  join key (i64)
///   [16] payload: `payload_slots` 8-byte values
class JoinHashTable {
 public:
  /// `payload_slots` is the number of 8-byte payload values per entry.
  /// `tracker` (may be null) is charged for each page of a per-thread arena
  /// as the first node reaches it (EntryArena) and for the directory when
  /// Seal allocates it.
  explicit JoinHashTable(uint32_t payload_slots,
                         QueryMemoryTracker* tracker = nullptr);
  ~JoinHashTable();

  JoinHashTable(const JoinHashTable&) = delete;
  JoinHashTable& operator=(const JoinHashTable&) = delete;

  /// Inserts `key` and returns the payload pointer for the new entry
  /// (zeroed). Thread-safe; called per build tuple from generated code.
  void* Insert(int64_t key);

  /// Sizes the directory to the inserted count and links every node on
  /// the calling thread. Idempotent; must not run concurrently with Insert.
  void Seal();

  /// The first half of a split seal: sizes the directory and returns the
  /// node count. The nodes are numbered in arena order, 0 .. count - 1.
  uint64_t BeginSeal();
  /// Links nodes [begin, end) after BeginSeal. Calls on disjoint ranges
  /// may run concurrently; the table may be probed once every node is
  /// linked.
  void LinkNodes(uint64_t begin, uint64_t end);

  bool sealed() const { return sealed_; }

  /// First chain node whose key equals `key`, or nullptr. Needs Seal().
  void* Lookup(int64_t key) const;

  /// Next matching node after `node`, or nullptr.
  static void* Next(void* node, int64_t key);

  /// Number of entries inserted (not during concurrent inserts).
  uint64_t size() const;
  uint32_t payload_slots() const { return payload_slots_; }

  /// Total bytes of one node.
  uint32_t node_bytes() const { return 16 + payload_slots_ * 8; }

  /// Bucket count of the sealed directory (0 before Seal).
  uint64_t directory_slots() const { return directory_.size(); }

  /// Iterates all entries of a sealed table (single-threaded; for tests).
  /// Calls fn(key, payload_ptr).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    CheckSealed();
    for (uint8_t* head : directory_) {
      for (uint8_t* node = head; node != nullptr;
           node = *reinterpret_cast<uint8_t* const*>(node)) {
        fn(*reinterpret_cast<const int64_t*>(node + 8),
           reinterpret_cast<void*>(node + 16));
      }
    }
  }

 private:
  /// A run of nodes in one arena chunk, in seal numbering.
  struct NodeRun {
    uint64_t first;  ///< seal number of the run's first node
    uint64_t count;
    uint8_t* base;
  };

  static uint64_t HashKey(int64_t key);
  uint8_t* AllocNode();
  void CheckSealed() const;
  /// Links nodes [begin, end); kAtomic for concurrent callers.
  template <bool kAtomic>
  void Link(uint64_t begin, uint64_t end);

  PageVector<uint8_t*> directory_;
  uint64_t mask_ = 0;
  uint32_t payload_slots_;
  bool sealed_ = false;
  QueryMemoryTracker* tracker_ = nullptr;

  mutable std::mutex arena_mutex_;
  std::vector<std::unique_ptr<EntryArena>> arenas_;  ///< per worker thread
  std::vector<NodeRun> runs_;  ///< every chunk's nodes, set by BeginSeal
};

}  // namespace aqe

#endif  // AQE_RUNTIME_JOIN_HASH_TABLE_H_
