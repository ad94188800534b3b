#include "obs/memory_tracker.h"

#include <cstdio>

#include "runtime/thread_index.h"

namespace aqe {

MemoryBudgetExceeded::MemoryBudgetExceeded(int query_class,
                                           uint64_t budget_bytes,
                                           uint64_t attempted_bytes,
                                           bool at_admission)
    : std::runtime_error([&] {
        char buf[192];
        std::snprintf(buf, sizeof(buf),
                      "memory budget exceeded (%s): class %d budget %llu "
                      "bytes, query %s %llu bytes",
                      at_admission ? "admission" : "runtime", query_class,
                      static_cast<unsigned long long>(budget_bytes),
                      at_admission ? "estimated" : "reached",
                      static_cast<unsigned long long>(attempted_bytes));
        return std::string(buf);
      }()),
      query_class_(query_class),
      budget_bytes_(budget_bytes),
      attempted_bytes_(attempted_bytes),
      at_admission_(at_admission) {}

void QueryMemoryTracker::FoldShared(int64_t delta) {
  const int64_t now = shared_.fetch_add(delta, std::memory_order_relaxed) +
                      delta;
  if (delta <= 0 || now <= 0) return;
  const uint64_t unow = static_cast<uint64_t>(now);
  uint64_t peak = peak_.load(std::memory_order_relaxed);
  while (unow > peak &&
         !peak_.compare_exchange_weak(peak, unow, std::memory_order_relaxed)) {
  }
  const uint64_t limit = soft_limit_.load(std::memory_order_relaxed);
  if (limit != 0 && unow > limit) {
    over_budget_.store(true, std::memory_order_relaxed);
  }
}

void QueryMemoryTracker::Charge(uint64_t bytes) {
  const int64_t delta = static_cast<int64_t>(bytes);
  if (delta >= kFlushBytes) {
    FoldShared(delta);
    return;
  }
  Slot& slot = slots_[runtime_internal::GetThreadIndex() % kSlots];
  const int64_t pending =
      slot.pending.fetch_add(delta, std::memory_order_relaxed) + delta;
  if (pending >= kFlushBytes) {
    // Claim whatever is in the slot now (concurrent sharers of the slot
    // index may have added more; the exchange keeps the sum exact).
    FoldShared(slot.pending.exchange(0, std::memory_order_relaxed));
  }
}

void QueryMemoryTracker::Release(uint64_t bytes) {
  const int64_t delta = static_cast<int64_t>(bytes);
  if (delta >= kFlushBytes) {
    FoldShared(-delta);
    return;
  }
  Slot& slot = slots_[runtime_internal::GetThreadIndex() % kSlots];
  const int64_t pending =
      slot.pending.fetch_sub(delta, std::memory_order_relaxed) - delta;
  if (pending <= -kFlushBytes) {
    FoldShared(slot.pending.exchange(0, std::memory_order_relaxed));
  }
}

void QueryMemoryTracker::FoldResidues() {
  int64_t residue = 0;
  for (Slot& slot : slots_) {
    residue += slot.pending.exchange(0, std::memory_order_relaxed);
  }
  if (residue != 0) FoldShared(residue);
}

uint64_t QueryMemoryTracker::current_bytes() const {
  int64_t total = shared_.load(std::memory_order_relaxed);
  for (const Slot& slot : slots_) {
    total += slot.pending.load(std::memory_order_relaxed);
  }
  return total > 0 ? static_cast<uint64_t>(total) : 0;
}

uint64_t QueryMemoryTracker::peak_bytes() const {
  return peak_.load(std::memory_order_relaxed);
}

}  // namespace aqe
