#include "runtime/output_buffer.h"

#include "common/status.h"
#include "obs/memory_tracker.h"
#include "runtime/thread_index.h"

namespace aqe {

OutputBuffer::OutputBuffer(uint32_t row_slots, QueryMemoryTracker* tracker,
                           int max_threads)
    : row_slots_(row_slots), tracker_(tracker) {
  AQE_CHECK(row_slots_ > 0);
  buffers_.resize(static_cast<size_t>(max_threads));
}

OutputBuffer::~OutputBuffer() {
  const uint64_t bytes = charged_bytes_.load(std::memory_order_relaxed);
  if (tracker_ != nullptr && bytes > 0) tracker_->Release(bytes);
}

int64_t* OutputBuffer::AllocRow() {
  int index = runtime_internal::GetThreadIndex();
  AQE_CHECK(static_cast<size_t>(index) < buffers_.size());
  auto& buffer = buffers_[static_cast<size_t>(index)];
  if (buffer == nullptr) {
    // Lazily created; creation races are impossible (one thread per index)
    // but Rows() may run concurrently with other threads' creation, hence
    // the lock.
    std::lock_guard<std::mutex> lock(create_mutex_);
    buffer = std::make_unique<ThreadBuffer>();
  }
  uint64_t row_in_chunk = buffer->rows % ThreadBuffer::kRowsPerChunk;
  if (row_in_chunk == 0) {
    buffer->chunks.push_back(std::make_unique<int64_t[]>(
        ThreadBuffer::kRowsPerChunk * row_slots_));
    if (tracker_ != nullptr) {
      const uint64_t chunk_bytes =
          ThreadBuffer::kRowsPerChunk * row_slots_ * sizeof(int64_t);
      tracker_->Charge(chunk_bytes);
      charged_bytes_.fetch_add(chunk_bytes, std::memory_order_relaxed);
    }
  }
  ++buffer->rows;
  return buffer->chunks.back().get() + row_in_chunk * row_slots_;
}

uint64_t OutputBuffer::num_rows() const {
  uint64_t total = 0;
  for (const auto& buffer : buffers_) {
    if (buffer != nullptr) total += buffer->rows;
  }
  return total;
}

std::vector<std::vector<int64_t>> OutputBuffer::Rows() const {
  std::vector<std::vector<int64_t>> rows;
  rows.reserve(num_rows());
  for (const auto& buffer : buffers_) {
    if (buffer == nullptr) continue;
    for (uint64_t r = 0; r < buffer->rows; ++r) {
      const int64_t* src =
          buffer->chunks[r / ThreadBuffer::kRowsPerChunk].get() +
          (r % ThreadBuffer::kRowsPerChunk) * row_slots_;
      rows.emplace_back(src, src + row_slots_);
    }
  }
  return rows;
}

}  // namespace aqe
