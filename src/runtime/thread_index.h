#ifndef AQE_RUNTIME_THREAD_INDEX_H_
#define AQE_RUNTIME_THREAD_INDEX_H_

#include "common/status.h"

namespace aqe {

/// Threads the runtime's per-thread structures have room for: join-table
/// arenas, aggregation tables, output buffers and memory-tracker slots.
constexpr int kMaxThreads = 64;

namespace runtime_internal {
/// The calling thread's index into them: set by the scheduler for each of
/// its workers, 0 on any other thread.
inline thread_local int t_thread_index = 0;
inline void SetThreadIndex(int index) {
  AQE_CHECK(index >= 0 && index < kMaxThreads);
  t_thread_index = index;
}
inline int GetThreadIndex() { return t_thread_index; }
}  // namespace runtime_internal

}  // namespace aqe

#endif  // AQE_RUNTIME_THREAD_INDEX_H_
