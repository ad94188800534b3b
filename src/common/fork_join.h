#ifndef AQE_COMMON_FORK_JOIN_H_
#define AQE_COMMON_FORK_JOIN_H_

#include <cstddef>
#include <functional>

namespace aqe {

/// Threads ForkJoin runs on, the caller included: the CPUs the calling
/// thread's affinity mask lets it run on (hardware_concurrency() if the
/// mask cannot be read), at least 1.
size_t ForkJoinWidth();

/// Runs task(0) .. task(n - 1), each exactly once, on up to ForkJoinWidth()
/// threads and returns when all have finished. The calling thread runs
/// task(0) itself, then claims further indexes alongside freshly started
/// helper threads, so work that must stay on the caller (malloc'd buffers
/// that outlive the call, see src/obs/DESIGN.md) goes at index 0. An
/// exception from any task is rethrown here once every task has finished.
void ForkJoin(size_t n, const std::function<void(size_t)>& task);

}  // namespace aqe

#endif  // AQE_COMMON_FORK_JOIN_H_
