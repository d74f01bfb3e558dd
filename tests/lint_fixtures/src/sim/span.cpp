// Fixture (never compiled): the span module carries simulated time only.
#include <chrono>  // span-wall-clock: line checks see directive lines

namespace fixture {

double stamp(const Simulator& sim) {
  const double wall = wall_now_seconds();  // span-wall-clock, and not exec-wall-clock too
  const auto ticks = sim.clock();          // span-wall-clock
  const auto skew = sim.tick_clock_ns();   // near miss: not the token clock
  return sim.now_seconds() + wall + ticks + skew;
}

}  // namespace fixture
