#ifndef AQE_OBS_MEMORY_TRACKER_H_
#define AQE_OBS_MEMORY_TRACKER_H_

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "runtime/thread_index.h"

namespace aqe {

/// Typed failure for per-class memory budgets: thrown through the query's
/// promise (never across a worker's VM/JIT frames) when a query's
/// cache-estimated footprint exceeds its class budget at admission, or when
/// its live allocations cross the budget at a runtime growth point. Clients
/// catch it like any other query failure; the engine stays healthy and
/// other classes keep running.
class MemoryBudgetExceeded : public std::runtime_error {
 public:
  MemoryBudgetExceeded(int query_class, uint64_t budget_bytes,
                       uint64_t attempted_bytes, bool at_admission);

  int query_class() const { return query_class_; }
  uint64_t budget_bytes() const { return budget_bytes_; }
  uint64_t attempted_bytes() const { return attempted_bytes_; }
  /// true: rejected before admission from the fingerprint's cached peak
  /// estimate; false: the running query's tracker crossed the budget.
  bool at_admission() const { return at_admission_; }

 private:
  int query_class_;
  uint64_t budget_bytes_;
  uint64_t attempted_bytes_;
  bool at_admission_;
};

/// Per-query memory accounting: one tracker per submitted query, shared
/// (via shared_ptr) with every runtime structure that allocates on the
/// query's behalf — join/agg hash tables, output buffers, binding arrays,
/// private bytecode copies. Allocation sites are page- or chunk-granular
/// (4 KiB arena pages, doubling hash tables and directories, 8 KiB output
/// chunks), so a charge is rare relative to row work; small charges are additionally
/// thread-cached in per-thread slots and folded into the shared counters
/// only when a slot accumulates `kFlushBytes`, so even byte-granular
/// callers never contend.
///
/// `current_bytes()` is exact at any quiesce point (it folds the slot
/// residues in); `peak_bytes()` tracks the shared counter's high-water and
/// can under-report by up to `kFlushBytes` per concurrently-charging
/// thread *between* folds. The engine closes that skew at every slice
/// boundary and at completion by calling `FoldResidues()`, which moves all
/// slot residues into the shared counter — so the peak a query reports and
/// the budget latch both see every byte the query ever held across a
/// boundary, and only sub-slice transients can hide in the slots.
///
/// Budgets are *soft*: `Charge` never throws (it may run under a JIT/VM
/// frame); crossing the limit latches `over_budget()`, and the engine
/// checks the flag at slice boundaries where unwinding is safe.
class QueryMemoryTracker {
 public:
  static constexpr int kSlots = kMaxThreads;
  static constexpr int64_t kFlushBytes = 64 << 10;

  QueryMemoryTracker() = default;
  QueryMemoryTracker(const QueryMemoryTracker&) = delete;
  QueryMemoryTracker& operator=(const QueryMemoryTracker&) = delete;

  void Charge(uint64_t bytes);
  void Release(uint64_t bytes);

  /// Moves every thread slot's residue into the shared counter, updating
  /// the peak high-water and the over-budget latch. Safe against concurrent
  /// Charge/Release (exchange keeps the books exact); the engine calls it
  /// at slice boundaries and query completion — the quiesce points where
  /// peak and budget answers must be exact.
  void FoldResidues();

  /// Shared counter plus all thread-slot residues, clamped at 0 (a release
  /// can fold in before its charge's slot flushes).
  uint64_t current_bytes() const;
  /// High-water of the shared counter (see class comment for the skew).
  uint64_t peak_bytes() const;

  /// 0 = unlimited. Crossing the limit latches over_budget(); it never
  /// unlatches (a query that ever exceeded its budget is failed).
  void set_soft_limit(uint64_t bytes) {
    soft_limit_.store(bytes, std::memory_order_relaxed);
  }
  uint64_t soft_limit() const {
    return soft_limit_.load(std::memory_order_relaxed);
  }
  bool over_budget() const {
    return over_budget_.load(std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Slot {
    std::atomic<int64_t> pending{0};
  };

  /// Moves `delta` into the shared counter, updates the peak high-water
  /// and the over-budget latch.
  void FoldShared(int64_t delta);

  Slot slots_[kSlots];
  std::atomic<int64_t> shared_{0};
  std::atomic<uint64_t> peak_{0};
  std::atomic<uint64_t> soft_limit_{0};
  std::atomic<bool> over_budget_{false};
};

}  // namespace aqe

#endif  // AQE_OBS_MEMORY_TRACKER_H_
