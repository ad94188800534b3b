#ifndef AQE_COMMON_PAGE_ALLOCATOR_H_
#define AQE_COMMON_PAGE_ALLOCATOR_H_

#include <cstddef>
#include <new>
#include <vector>

namespace aqe {

namespace internal {
void* AllocatePageBytes(size_t bytes);
void FreePageBytes(void* p, size_t bytes) noexcept;
}  // namespace internal

/// Allocator for data-sized buffers that must not stay in a malloc arena
/// once freed: the runtime's hash table arrays and entry arena chunks, and
/// the catalog buffers built off the main thread (dictionaries, their sort
/// buffers, secondary indexes). Requests of 64 KiB and more bypass malloc
/// and map their own pages (from 2 MiB on, advised as huge pages), so a
/// buffer's memory returns to the OS the moment its owner frees it; glibc
/// would keep it resident in a per-thread arena once its adaptive mmap
/// threshold has ratcheted up (see src/obs/DESIGN.md, "Resource
/// accounting"). Smaller requests use operator new. AddressSanitizer builds
/// route every size through operator new so the buffers stay checked.
///
/// Elements are default-initialized, not value-initialized: a
/// std::vector<uint8_t, PageAllocator<uint8_t>>(n) is not zero-filled, so
/// mapped pages become resident only when written. Owners that need zeros
/// write them.
template <typename T>
class PageAllocator {
 public:
  using value_type = T;

  PageAllocator() = default;
  template <typename U>
  PageAllocator(const PageAllocator<U>&) noexcept {}

  T* allocate(size_t n) {
    return static_cast<T*>(internal::AllocatePageBytes(n * sizeof(T)));
  }
  void deallocate(T* p, size_t n) noexcept {
    internal::FreePageBytes(p, n * sizeof(T));
  }

  /// Default-initializes; construction with arguments falls back to
  /// std::allocator_traits' placement new.
  template <typename U>
  void construct(U* p) {
    ::new (static_cast<void*>(p)) U;
  }

  template <typename U>
  bool operator==(const PageAllocator<U>&) const noexcept {
    return true;
  }
  template <typename U>
  bool operator!=(const PageAllocator<U>&) const noexcept {
    return false;
  }
};

/// A vector whose buffer comes from PageAllocator.
template <typename T>
using PageVector = std::vector<T, PageAllocator<T>>;

}  // namespace aqe

#endif  // AQE_COMMON_PAGE_ALLOCATOR_H_
