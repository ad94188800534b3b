#ifndef AQE_EXEC_MORSEL_H_
#define AQE_EXEC_MORSEL_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

namespace aqe {

/// A morsel: the smallest unit of work (§III-B), a range of row indices.
struct MorselRange {
  uint64_t begin;
  uint64_t end;
};

/// One claim's worth of work: the physical row ranges covered by a single
/// cursor advance; an unpruned scan's claim is one range. A pruned scan's
/// domain can be fragmented into clusters far smaller than the morsel
/// schedule (a selective text-index scan keeps ~3-row islands); claiming
/// them one range at a time would pay the full per-claim bookkeeping (CAS,
/// rate sample, trace event, handle dispatch) per island. A batch claims
/// one schedule-sized virtual window spanning up to kMaxRanges ranges, so
/// that bookkeeping amortizes across the fragments while the claimed row
/// count — the checkpoint granularity — stays bounded by the schedule.
struct MorselBatch {
  static constexpr int kMaxRanges = 32;
  MorselRange ranges[kMaxRanges];
  int count = 0;
  uint64_t rows = 0;  ///< total rows across ranges
};

/// The rows a scan schedules: a sorted, disjoint set of physical row ranges
/// plus prefix sums that map a *virtual* position (0 .. selected) onto a
/// physical row. An unpruned scan of n rows is the one-range domain
/// Make({{0, n}}, n); index/zone-map pruning leaves fewer. Morsel queues run
/// their cursor in virtual coordinates — the growth schedule, remaining()
/// and the cost model all see only the rows that will actually be
/// scheduled — and translate each claim back to physical rows. Shared
/// (immutable) between all shards of one pipeline and, via the pruning
/// cache, between repeated runs of the same plan fingerprint.
struct ScanDomain {
  std::vector<MorselRange> ranges;  ///< sorted, disjoint, non-empty
  /// prefix[i] = selected rows before ranges[i]; prefix.back() = selected().
  std::vector<uint64_t> prefix;
  uint64_t table_rows = 0;  ///< unpruned scan cardinality

  /// Normalizes `ranges` (sorts, merges overlapping/adjacent, drops empty)
  /// and builds the prefix sums.
  static std::shared_ptr<const ScanDomain> Make(std::vector<MorselRange> ranges,
                                                uint64_t table_rows);

  uint64_t selected() const { return prefix.empty() ? 0 : prefix.back(); }

  /// Index of the range containing virtual position `v` (v < selected()).
  size_t RangeIndexFor(uint64_t v) const;
};

/// Hands out morsels of a ScanDomain's selected rows to worker threads
/// from a single atomic cursor: whichever thread finishes first grabs the
/// next morsel, so no thread imbalance can build up (§III-A).
///
/// Morsel sizes grow dynamically from `initial_size` to `max_size`
/// (doubling after every `grow_every` morsels of the current size), which
/// gives the adaptive controller many early sample points for its rate
/// estimates (§III-C: "dynamically growing morsel size, yielding a higher
/// number of sample points"). The size is a pure function of the cursor
/// position, so the sequence of morsel boundaries is deterministic no
/// matter how many threads claim concurrently.
///
/// The cursor runs over a virtual window [vbase, vbase + total) of the
/// domain's selected rows; each claim is translated to physical
/// coordinates as one batch of up to MorselBatch::kMaxRanges ranges.
class MorselQueue {
 public:
  /// Serves the domain's virtual rows [vbase, vend) in physical
  /// coordinates.
  MorselQueue(std::shared_ptr<const ScanDomain> domain, uint64_t vbase,
              uint64_t vend, uint64_t initial_size = 1024,
              uint64_t max_size = 16384, uint64_t grow_every = 8);

  /// Claims the next batch: one schedule-sized window of virtual rows
  /// covering up to MorselBatch::kMaxRanges physical ranges. Returns false
  /// when the window is exhausted.
  bool Next(MorselBatch* out);

  uint64_t total() const { return total_; }

  /// Virtual (selected) rows already handed out — an upper bound on rows
  /// processed.
  uint64_t dispatched() const {
    return std::min(cursor_.load(std::memory_order_relaxed), total_);
  }

  /// Rows not yet handed out — the `n` of Fig 7. Selected rows only, so
  /// rate extrapolation sees the work that will actually run.
  uint64_t remaining() const { return total_ - dispatched(); }

  /// The morsel size used at cursor position `offset` (doubles after every
  /// `grow_every` morsels of each size, clamped at `max_size`). Exposed so
  /// the growth schedule is unit-testable.
  uint64_t SizeAt(uint64_t offset) const;

 private:
  uint64_t total_;
  uint64_t initial_size_;
  uint64_t max_size_;
  uint64_t grow_every_;
  std::shared_ptr<const ScanDomain> domain_;
  uint64_t vbase_;  ///< domain virtual offset of cursor position 0
  std::atomic<uint64_t> cursor_{0};
};

/// A MorselQueue sharded into per-worker contiguous ranges with stealing
/// across shards: worker w claims from shard w (preserving cache/NUMA
/// locality and avoiding a single hammered cursor) and falls back to the
/// richest other shard when its own runs dry, so the no-imbalance property
/// of the flat queue is kept. The domain's *selected* rows are split evenly
/// (contiguous virtual windows per shard; all shards share the one
/// immutable domain), so pruned rows never reach any shard. Each shard runs
/// the dynamic growth schedule independently, so early pipelines still
/// produce many small sample morsels per worker.
class ShardedMorselQueue {
 public:
  ShardedMorselQueue(std::shared_ptr<const ScanDomain> domain, int num_shards,
                     uint64_t initial_size = 1024, uint64_t max_size = 16384,
                     uint64_t grow_every = 8);

  /// Claims a batch, preferring `shard` and stealing from the shard with
  /// the most remaining rows otherwise. Returns false when every shard is
  /// exhausted.
  bool Next(int shard, MorselBatch* out);

  int num_shards() const { return static_cast<int>(shards_.size()); }
  /// Selected rows (what the cost model extrapolates on).
  uint64_t total() const { return total_; }
  uint64_t remaining() const;

  /// Rows remaining in one shard (steal-victim selection, tests).
  uint64_t shard_remaining(int shard) const;

 private:
  uint64_t total_;
  std::vector<std::unique_ptr<MorselQueue>> shards_;
};

}  // namespace aqe

#endif  // AQE_EXEC_MORSEL_H_
