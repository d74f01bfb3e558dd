#include "alloc.hpp"

namespace perfbench {

AllocTally alloc_tally() noexcept { return {}; }
bool alloc_counting() noexcept { return false; }

}  // namespace perfbench
