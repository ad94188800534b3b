#include "common/page_allocator.h"

#include <sys/mman.h>

#include <cstdint>

namespace aqe {
namespace internal {

namespace {
/// Requests of at least this many bytes are mmap'ed and munmap'ed on free.
/// AddressSanitizer builds send every size through operator new, so ASan
/// still checks accesses to the buffers.
#ifdef __SANITIZE_ADDRESS__
constexpr size_t kPageMapBytes = SIZE_MAX;
#else
constexpr size_t kPageMapBytes = size_t{64} << 10;
#endif
/// Mapped requests of at least this many bytes are also madvise'd
/// MADV_HUGEPAGE: every query faults its tables in afresh, and 4 KiB faults
/// on multi-MiB tables cost throughput.
constexpr size_t kHugePageBytes = size_t{2} << 20;
}  // namespace

void* AllocatePageBytes(size_t bytes) {
  if (bytes < kPageMapBytes) return ::operator new(bytes);
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  // Best effort: without THP the mapping simply stays on 4 KiB pages.
  if (bytes >= kHugePageBytes) madvise(p, bytes, MADV_HUGEPAGE);
  return p;
}

void FreePageBytes(void* p, size_t bytes) noexcept {
  if (bytes < kPageMapBytes) {
    ::operator delete(p);
    return;
  }
  munmap(p, bytes);
}

}  // namespace internal
}  // namespace aqe
