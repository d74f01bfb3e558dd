// Counting replacement of the global allocation functions.
//
// The scalar forms are replaced: libstdc++ routes the array and nothrow
// forms through them, so every operator new in the process is counted
// exactly once.
#include <cstddef>
#include <cstdlib>
#include <new>

#include "alloc.hpp"

namespace {

thread_local perfbench::AllocTally t_tally;

void* counted_alloc(std::size_t size, std::size_t align) {
  t_tally.calls += 1;
  t_tally.bytes += size;
  if (size == 0) size = 1;
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(size);
  } else {
    // aligned_alloc wants a size that is a multiple of the alignment.
    p = std::aligned_alloc(align, (size + align - 1) / align * align);
  }
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

namespace perfbench {

AllocTally alloc_tally() noexcept { return t_tally; }
bool alloc_counting() noexcept { return true; }

}  // namespace perfbench

void* operator new(std::size_t size) { return counted_alloc(size, 0); }

void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { std::free(p); }

void operator delete(void* p, std::size_t) noexcept { std::free(p); }

void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }

void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
