// Fixture (never compiled): the scale profiler's merge points are ordered,
// and its numbers derive from simulated time.
#include <map>

namespace fixture {

struct Cells {
  std::unordered_map<int, double> loads_;  // scale-merge-order, unordered-iter
  std::map<int, double> ordered_;          // near miss: ordered container
};

double predict(const Cells& c) {
  double sum = std::clock();                  // scale-wall-clock
  for (const auto& [shard, load] : c.loads_) {  // unordered-merge
    sum += load;
  }
  for (const auto& [shard, load] : c.ordered_) {  // near miss: ordered range
    sum += load;
  }
  sum += c.wall_clock_budget_;  // near miss: not the token clock
  return sum;
}

}  // namespace fixture
