// Fixture (never compiled): time-series ticks are simulated time only.
namespace fixture {

void sample(Recorder& r) {
  const auto now = std::chrono::steady_clock::now();  // timeseries-wall-clock, banned-random
  r.tick(sim_clock_ns(), now);                        // near miss: not the token clock
}

}  // namespace fixture
