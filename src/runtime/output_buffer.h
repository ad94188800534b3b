#ifndef AQE_RUNTIME_OUTPUT_BUFFER_H_
#define AQE_RUNTIME_OUTPUT_BUFFER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "runtime/thread_index.h"

namespace aqe {

class QueryMemoryTracker;

/// Collects result rows produced by generated code. Each row is a fixed
/// number of 8-byte slots (integers/decimals raw, doubles bit-cast). Worker
/// threads append into thread-local sub-buffers; Rows() concatenates them
/// (row order across threads is unspecified — ORDER BY happens engine-side).
class OutputBuffer {
 public:
  /// `tracker` (may be null, else it must outlive the buffer) is charged
  /// for every chunk.
  explicit OutputBuffer(uint32_t row_slots,
                        QueryMemoryTracker* tracker = nullptr,
                        int max_threads = kMaxThreads);
  ~OutputBuffer();

  /// Reserves one row in the calling thread's sub-buffer and returns the
  /// pointer to its first slot (valid until the next AllocRow on the same
  /// thread... the sub-buffer is deque-like chunked, pointers stay valid).
  int64_t* AllocRow();

  uint32_t row_slots() const { return row_slots_; }
  uint64_t num_rows() const;

  /// All rows, concatenated. Each inner vector is one row.
  std::vector<std::vector<int64_t>> Rows() const;

 private:
  struct ThreadBuffer {
    static constexpr uint64_t kRowsPerChunk = 1024;
    std::vector<std::unique_ptr<int64_t[]>> chunks;
    uint64_t rows = 0;
  };

  uint32_t row_slots_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  QueryMemoryTracker* tracker_;
  /// What tracker_ was charged, released by the destructor. Atomic:
  /// AllocRow charges from many threads.
  std::atomic<uint64_t> charged_bytes_{0};
  mutable std::mutex create_mutex_;
};

}  // namespace aqe

#endif  // AQE_RUNTIME_OUTPUT_BUFFER_H_
