#ifndef AQE_OBS_MEMORY_TRACKER_H_
#define AQE_OBS_MEMORY_TRACKER_H_

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>

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
/// chunks), so a query makes at most a few thousand charges: one shared
/// counter takes them all, and `current_bytes()`, `peak_bytes()` and the
/// budget latch are exact at every charge.
///
/// Budgets are *soft*: `Charge` never throws (it may run under a JIT/VM
/// frame); the charge that crosses the limit latches `over_budget()`, and
/// the engine checks the flag at slice boundaries where unwinding is safe.
class QueryMemoryTracker {
 public:
  QueryMemoryTracker() = default;
  QueryMemoryTracker(const QueryMemoryTracker&) = delete;
  QueryMemoryTracker& operator=(const QueryMemoryTracker&) = delete;

  void Charge(uint64_t bytes);
  void Release(uint64_t bytes);

  uint64_t current_bytes() const {
    const int64_t now = current_.load(std::memory_order_relaxed);
    return now > 0 ? static_cast<uint64_t>(now) : 0;
  }
  /// High-water of current_bytes().
  uint64_t peak_bytes() const { return peak_.load(std::memory_order_relaxed); }

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
  std::atomic<int64_t> current_{0};
  std::atomic<uint64_t> peak_{0};
  std::atomic<uint64_t> soft_limit_{0};
  std::atomic<bool> over_budget_{false};
};

}  // namespace aqe

#endif  // AQE_OBS_MEMORY_TRACKER_H_
