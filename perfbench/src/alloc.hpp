// Real allocation counts for the traced run.
//
// perfbench_traced links alloc_count.cpp, which replaces the global
// operator new/delete with malloc/free plus a per-thread tally; the timed
// perfbench binary links alloc_off.cpp instead and keeps the default
// allocator, so timed runs never carry the counter. Tallies are per thread:
// the benchmark reads them around serial runs only, where every allocation
// of a world happens on the calling thread.
#pragma once

#include <cstdint>

namespace perfbench {

struct AllocTally {
  std::uint64_t calls = 0;  ///< operator new calls
  std::uint64_t bytes = 0;  ///< bytes requested from them
};

/// Allocations made by the calling thread so far (all zero when the
/// binary does not count).
AllocTally alloc_tally() noexcept;

/// True in the binary whose operator new counts.
bool alloc_counting() noexcept;

}  // namespace perfbench
