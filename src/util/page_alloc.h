// PageAllocator: a standard allocator that maps large arrays straight from
// the kernel and unmaps them when they are freed.
//
// glibc keeps memory a thread frees in that thread's malloc arena, lifts
// its mmap threshold to the largest array freed so far (up to 32 MiB), and
// never trims the top of a thread arena's first heap below twice that.
// Hash tables grown on the analysis pool's workers therefore stayed
// resident after they were freed — tens of MB per worker arena that a
// long-lived process carried into its next job. Arrays of at least
// kMapBytes bypass the arenas, so freeing them returns their pages at once
// on whatever thread they were grown; smaller ones use std::allocator.
#pragma once

#include <sys/mman.h>

#include <cstddef>
#include <limits>
#include <memory>

namespace atlas::util {

template <typename T>
class PageAllocator {
 public:
  using value_type = T;
  // glibc's own default mmap threshold, before it adapts.
  static constexpr std::size_t kMapBytes = std::size_t{128} << 10;

  PageAllocator() = default;
  template <typename U>
  PageAllocator(const PageAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    // std::allocator also rejects a count whose byte size overflows.
    if (!Mapped(n) || n > std::numeric_limits<std::size_t>::max() / sizeof(T)) {
      return std::allocator<T>().allocate(n);
    }
    void* p = mmap(nullptr, n * sizeof(T), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    return static_cast<T*>(p);
  }

  void deallocate(T* p, std::size_t n) noexcept {
    if (Mapped(n)) {
      munmap(p, n * sizeof(T));
    } else {
      std::allocator<T>().deallocate(p, n);
    }
  }

  friend bool operator==(const PageAllocator&, const PageAllocator&) {
    return true;
  }

 private:
  static bool Mapped(std::size_t n) { return n >= kMapBytes / sizeof(T); }
};

}  // namespace atlas::util
