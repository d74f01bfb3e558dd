// Fixture (never compiled): the sim/random exemptions. The one audited
// randomness module may use stdlib engines and hold mutable state, so
// banned-random, mutable-global and static-local all pass over it.
#include <random>

namespace fixture {

std::mt19937_64 engine_state;  // near miss: banned-random, mutable-global

unsigned draw() {
  static std::random_device seed_source;  // near miss: static-local, banned-random
  return seed_source() + static_cast<unsigned>(rand());  // near miss: banned-random
}

}  // namespace fixture
