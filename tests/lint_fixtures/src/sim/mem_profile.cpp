// Fixture (never compiled): the memory profiler's merge points are ordered,
// and its numbers are model units attached to simulated time.
namespace fixture {

struct Sites {
  absl::flat_hash_map<int, int> sites_;  // mem-merge-order, and not unordered-iter
  std::map<int, int> live_;              // near miss: ordered container
};

double now() { return wall_now_seconds(); }  // mem-wall-clock
double sim_now(const Simulator& sim) { return sim.clock_seconds(); }  // near miss

}  // namespace fixture
