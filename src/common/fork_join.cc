#include "common/fork_join.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace aqe {

size_t ForkJoinWidth() {
  // hardware_concurrency() counts the machine's CPUs, also those the
  // affinity mask excludes.
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max<size_t>(1, static_cast<size_t>(CPU_COUNT(&set)));
  }
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

void ForkJoin(size_t n, const std::function<void(size_t)>& task) {
  if (n == 0) return;
  std::atomic<size_t> next{1};
  std::mutex error_mu;
  std::exception_ptr error;  // the first failure, guarded by error_mu
  auto drain = [&](size_t i) {
    for (; i < n; i = next.fetch_add(1, std::memory_order_relaxed)) {
      try {
        task(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!error) error = std::current_exception();
      }
    }
  };
  {
    std::vector<std::thread> helpers;
    // Joins on every exit from this scope, so no helper outlives the
    // locals it references.
    struct JoinAll {
      std::vector<std::thread>* threads;
      ~JoinAll() {
        for (std::thread& t : *threads) t.join();
      }
    } join_all{&helpers};
    const size_t width = std::min(n, ForkJoinWidth());
    helpers.reserve(width - 1);
    for (size_t h = 1; h < width; ++h) {
      helpers.emplace_back(
          [&] { drain(next.fetch_add(1, std::memory_order_relaxed)); });
    }
    drain(0);
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace aqe
