#include "obs/memory_tracker.h"

#include <cstdio>

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

void QueryMemoryTracker::Charge(uint64_t bytes) {
  const int64_t delta = static_cast<int64_t>(bytes);
  const int64_t now =
      current_.fetch_add(delta, std::memory_order_relaxed) + delta;
  if (now <= 0) return;
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

void QueryMemoryTracker::Release(uint64_t bytes) {
  current_.fetch_sub(static_cast<int64_t>(bytes), std::memory_order_relaxed);
}

}  // namespace aqe
