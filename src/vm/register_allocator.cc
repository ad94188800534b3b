#include "vm/register_allocator.h"

#include "common/status.h"

namespace aqe {

RegisterAllocator::RegisterAllocator(RegAllocStrategy strategy,
                                     int window_size)
    : strategy_(strategy), window_size_(window_size) {
  AQE_CHECK(window_size_ > 0);
}

uint32_t RegisterAllocator::Alloc(int start_block, int end_block) {
  (void)start_block;
  (void)end_block;
  if (!free_list_.empty()) {
    uint32_t slot = free_list_.back();
    free_list_.pop_back();
    return slot;
  }
  return next_slot_++;
}

uint32_t RegisterAllocator::AllocPermanent() { return next_slot_++; }

void RegisterAllocator::Release(uint32_t slot, int start_block,
                                int end_block) {
  switch (strategy_) {
    case RegAllocStrategy::kNoReuse:
      return;
    case RegAllocStrategy::kWindow:
      // Reuse only when the whole live range sits inside one window of
      // `window_size_` consecutive blocks; ranges that cross a window
      // boundary keep their slot forever (conservatively correct, larger
      // register file).
      if (start_block / window_size_ != end_block / window_size_) return;
      break;
    case RegAllocStrategy::kLoopAware:
      break;
  }
  free_list_.push_back(slot);
}

}  // namespace aqe
