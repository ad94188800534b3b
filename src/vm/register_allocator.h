#ifndef AQE_VM_REGISTER_ALLOCATOR_H_
#define AQE_VM_REGISTER_ALLOCATOR_H_

#include <cstdint>
#include <vector>

namespace aqe {

/// Register-allocation strategies compared in §IV-C (the TPC-DS q55
/// anecdote: no-reuse 36 KB, windowed 21 KB, loop-aware 6 KB).
enum class RegAllocStrategy {
  /// Every value gets a fresh slot; nothing is ever reused.
  kNoReuse,
  /// A slot is reused only if the value's whole live range falls inside one
  /// fixed window of basic blocks — the "consider only a fixed number of
  /// neighboring basic blocks" approach of some JIT compilers.
  kWindow,
  /// Full reuse driven by the paper's loop-aware linear-time live ranges.
  kLoopAware,
};

/// Hands out 8-byte register-file slots (as slot *indices* — the compact
/// 16-byte instruction encoding stores them in 16-bit fields) and tracks the
/// high-water mark. Slots 0 and 1 are pre-reserved for the constants 0 and 1
/// (§IV-A), so allocation starts at slot 2.
class RegisterAllocator {
 public:
  explicit RegisterAllocator(RegAllocStrategy strategy, int window_size = 16);

  /// Allocates a slot for a value live in blocks [start_block, end_block].
  uint32_t Alloc(int start_block, int end_block);

  /// Allocates a slot that is never released (constants, scratch).
  uint32_t AllocPermanent();

  /// Returns a slot to the free list if the strategy permits reuse.
  void Release(uint32_t slot, int start_block, int end_block);

  /// Register file size in bytes (high-water mark, 8-byte slots).
  uint32_t file_size() const { return next_slot_ * 8; }

 private:
  RegAllocStrategy strategy_;
  int window_size_;
  uint32_t next_slot_ = 2;
  std::vector<uint32_t> free_list_;
};

}  // namespace aqe

#endif  // AQE_VM_REGISTER_ALLOCATOR_H_
