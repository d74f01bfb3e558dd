// Runtime twin of the detlint rule set: the determinism *contract* under test.
//
// detlint statically rejects constructs that break bit-exact replay; these
// tests assert the positive property — the same seed produces the same event
// ordering and the same stats, twice. They are also the workload that makes
// sanitizer runs meaningful for the event engine: the schedule/cancel stress
// loop exercises the heap compaction and tombstone paths under ASan/UBSan.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "apps/congestion.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace tussle {
namespace {

using sim::Duration;
using sim::EventId;
using sim::EventQueue;
using sim::Rng;
using sim::SimTime;
using sim::Simulator;

// One (time, tag) pair per fired event; two runs must produce equal journals.
using Journal = std::vector<std::pair<std::int64_t, int>>;

// ------------------------------------------------- EventQueue stress -----

/// Schedules `n` events at random times (with deliberate collisions),
/// cancels a random subset, then drains, journaling what fired.
Journal run_event_queue_stress(std::uint64_t seed, int n) {
  Rng rng(seed);
  EventQueue q;
  Journal fired;
  std::vector<EventId> ids;
  ids.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    // Coarse buckets force plenty of same-instant ties, so tie-breaking by
    // insertion order is exercised, not just time ordering.
    const auto at = SimTime::millis(rng.uniform_int(0, 50));
    ids.push_back(q.push(at, [&fired, at, i] { fired.emplace_back(at.as_nanos(), i); }));
  }
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) q.cancel(ids[static_cast<std::size_t>(rng.uniform_int(0, n - 1))]);
  }
  // Interleave more scheduling after cancellation, as protocols do.
  for (int i = 0; i < n / 4; ++i) {
    const auto at = SimTime::millis(rng.uniform_int(0, 50));
    q.push(at, [&fired, at, i] { fired.emplace_back(at.as_nanos(), 100000 + i); });
  }
  while (!q.empty()) {
    auto popped = q.pop();
    popped.action();
  }
  return fired;
}

TEST(DeterminismContract, EventQueueStressReplaysBitIdentically) {
  for (std::uint64_t seed : {1ull, 42ull, 0xdeadbeefull}) {
    const Journal a = run_event_queue_stress(seed, 2000);
    const Journal b = run_event_queue_stress(seed, 2000);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b) << "seed " << seed;
  }
}

TEST(DeterminismContract, EventQueueBreaksTiesInScheduleOrder) {
  const Journal j = run_event_queue_stress(7, 500);
  // Within one instant, tags scheduled earlier fire earlier (tags from the
  // second scheduling wave carry a +100000 offset and came later).
  for (std::size_t i = 1; i < j.size(); ++i) {
    ASSERT_LE(j[i - 1].first, j[i].first) << "time went backwards at " << i;
    if (j[i - 1].first == j[i].first) {
      const bool prev_late_wave = j[i - 1].second >= 100000;
      const bool cur_late_wave = j[i].second >= 100000;
      if (prev_late_wave == cur_late_wave) {
        EXPECT_LT(j[i - 1].second, j[i].second) << "FIFO tie-break violated at " << i;
      } else {
        EXPECT_TRUE(cur_late_wave) << "second-wave event fired before first-wave at " << i;
      }
    }
  }
}

// ------------------------------------------------- Simulator replay ------

/// A small self-scheduling workload: every event draws randomness, journals
/// it, and schedules 0–2 successors. Replay must be bit-identical.
Journal run_simulator_scenario(std::uint64_t seed) {
  Simulator s(seed);
  Journal journal;
  int spawned = 0;
  std::function<void()> tick = [&] {
    const double draw = s.rng().uniform();
    journal.emplace_back(s.now().as_nanos(), static_cast<int>(draw * 1'000'000));
    if (spawned >= 3000) return;
    // Supercritical branching (1–2 children, ~10% cancelled) so the run is
    // ended by the spawn cap, not by early extinction.
    const int children = static_cast<int>(s.rng().uniform_int(1, 2));
    for (int c = 0; c < children; ++c) {
      ++spawned;
      EventId id = s.schedule(Duration::micros(s.rng().uniform_int(1, 500)), tick);
      // Occasionally cancel a freshly scheduled event, as protocols cancel
      // retransmit timers.
      if (s.rng().bernoulli(0.1)) s.cancel(id);
    }
  };
  for (int i = 0; i < 10; ++i) {
    ++spawned;
    s.schedule(Duration::micros(i + 1), tick);
  }
  s.run();
  return journal;
}

TEST(DeterminismContract, SimulatorScenarioReplaysBitIdentically) {
  const Journal a = run_simulator_scenario(12345);
  const Journal b = run_simulator_scenario(12345);
  ASSERT_GT(a.size(), 100u);
  EXPECT_EQ(a, b);
}

TEST(DeterminismContract, DifferentSeedsDiverge) {
  // Not a correctness requirement per se, but if two seeds coincide the
  // replay tests above lose their teeth.
  EXPECT_NE(run_simulator_scenario(1), run_simulator_scenario(2));
}

// ------------------------------------------------- Scenario stats --------

TEST(DeterminismContract, CongestionScenarioStatsAreBitIdentical) {
  apps::CongestionConfig cfg;
  cfg.aggressive_fraction = 0.3;
  cfg.fair_queueing = true;
  const auto r1 = apps::run_congestion(cfg);
  const auto r2 = apps::run_congestion(cfg);
  // EXPECT_EQ (not NEAR): the contract is bit-identity, not closeness.
  EXPECT_EQ(r1.compliant_goodput_mean, r2.compliant_goodput_mean);
  EXPECT_EQ(r1.aggressive_goodput_mean, r2.aggressive_goodput_mean);
  EXPECT_EQ(r1.utilization, r2.utilization);
  EXPECT_EQ(r1.loss_rate, r2.loss_rate);
  EXPECT_EQ(r1.jains_fairness, r2.jains_fairness);
}

}  // namespace
}  // namespace tussle
