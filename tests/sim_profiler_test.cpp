#include "sim/profiler.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/simulator.hpp"

namespace tussle::sim {
namespace {

TEST(LoopProfiler, AggregatesByTagCell) {
  LoopProfiler prof;
  TaskTag net{"net", "forward"};
  TaskTag econ{"econ", "step"};
  prof.record(net, 0.010);
  prof.record(net, 0.020);
  prof.record(econ, 0.005);
  prof.record(TaskTag{}, 0.001);

  EXPECT_EQ(prof.total_events(), 4u);
  EXPECT_NEAR(prof.total_wall_seconds(), 0.036, 1e-12);

  auto spots = prof.hotspots();
  ASSERT_EQ(spots.size(), 3u);
  EXPECT_EQ(spots[0].component, "net");
  EXPECT_EQ(spots[0].kind, "forward");
  EXPECT_EQ(spots[0].events, 2u);
  EXPECT_NEAR(spots[0].wall_seconds, 0.030, 1e-12);
  EXPECT_NEAR(spots[0].share, 0.030 / 0.036, 1e-9);
  EXPECT_EQ(spots[1].component, "econ");
  EXPECT_EQ(spots[2].component, "(untagged)");
}

TEST(LoopProfiler, TopKLimitsOutput) {
  LoopProfiler prof;
  prof.record(TaskTag{"a", "x"}, 3.0);
  prof.record(TaskTag{"b", "x"}, 2.0);
  prof.record(TaskTag{"c", "x"}, 1.0);
  auto top2 = prof.hotspots(2);
  ASSERT_EQ(top2.size(), 2u);
  EXPECT_EQ(top2[0].component, "a");
  EXPECT_EQ(top2[1].component, "b");
}

TEST(LoopProfiler, ResetClears) {
  LoopProfiler prof;
  prof.record(TaskTag{"a", "x"}, 1.0);
  prof.reset();
  EXPECT_EQ(prof.total_events(), 0u);
  EXPECT_EQ(prof.total_wall_seconds(), 0.0);
  EXPECT_TRUE(prof.hotspots().empty());
}

TEST(LoopProfiler, JsonIsAnArrayOfCells) {
  LoopProfiler prof;
  EXPECT_EQ(prof.hotspots_json(), "[]");
  prof.record(TaskTag{"net", "forward"}, 0.5);
  const std::string js = prof.hotspots_json();
  EXPECT_NE(js.find("\"component\":\"net\""), std::string::npos);
  EXPECT_NE(js.find("\"kind\":\"forward\""), std::string::npos);
  EXPECT_NE(js.find("\"events\":1"), std::string::npos);
}

// Scripted scenario: the per-component event counts attributed by the
// simulator must match exactly what was scheduled under each tag.
TEST(SimulatorProfiling, CountsMatchScriptedScenario) {
  Simulator sim(7);
  LoopProfiler prof;
  sim.attach(&prof);

  TaskTag alpha{"comp.alpha", "tick"};
  TaskTag beta{"comp.beta", "tock"};
  for (int i = 0; i < 10; ++i) {
    sim.schedule(Duration::millis(i + 1), alpha, [] {});
  }
  for (int i = 0; i < 4; ++i) {
    sim.schedule(Duration::millis(100 + i), beta, [] {});
  }
  sim.schedule(Duration::millis(200), [] {});  // untagged

  EXPECT_EQ(sim.run(), 15u);
  EXPECT_EQ(prof.total_events(), 15u);

  std::uint64_t alpha_events = 0, beta_events = 0, untagged = 0;
  for (const auto& spot : prof.hotspots()) {
    if (spot.component == "comp.alpha") alpha_events = spot.events;
    if (spot.component == "comp.beta") beta_events = spot.events;
    if (spot.component == "(untagged)") untagged = spot.events;
  }
  EXPECT_EQ(alpha_events, 10u);
  EXPECT_EQ(beta_events, 4u);
  EXPECT_EQ(untagged, 1u);
}

// Attaching observability must not change the event sequence: same seed,
// same schedule, with and without a profiler and heartbeat, executes the
// actions in the same order.
TEST(SimulatorProfiling, InstrumentationPreservesExecutionOrder) {
  auto trace_run = [](bool instrument) {
    Simulator sim(42);
    LoopProfiler prof;
    std::vector<int> order;
    if (instrument) {
      sim.attach(&prof);
      sim.set_heartbeat(Duration::millis(1), [](const Simulator::Heartbeat&) {});
    }
    for (int i = 0; i < 50; ++i) {
      const auto jitter = Duration::micros(sim.rng().uniform_int(0, 1000));
      sim.schedule(jitter, TaskTag{"t", "e"}, [&order, i] { order.push_back(i); });
    }
    sim.run();
    return order;
  };
  EXPECT_EQ(trace_run(false), trace_run(true));
}

TEST(SimulatorHeartbeat, FiresAtSimTimePeriod) {
  Simulator sim(1);
  std::vector<Simulator::Heartbeat> beats;
  sim.set_heartbeat(Duration::seconds(1),
                    [&beats](const Simulator::Heartbeat& hb) { beats.push_back(hb); });
  for (int i = 1; i <= 35; ++i) {
    sim.schedule(Duration::millis(100 * i), [] {});
  }
  sim.run();  // last event at t=3.5s → beats at 1s, 2s, 3s
  ASSERT_EQ(beats.size(), 3u);
  EXPECT_GE(beats[0].sim_now, SimTime::seconds(1));
  EXPECT_LT(beats[0].sim_now, SimTime::seconds(2));
  EXPECT_GT(beats[1].events_executed, beats[0].events_executed);
  EXPECT_EQ(beats[2].events_executed, 30u);  // events up to and incl. t=3s
}

TEST(WallClock, IsMonotonic) {
  const double a = wall_now_seconds();
  const double b = wall_now_seconds();
  EXPECT_GE(b, a);
}

}  // namespace
}  // namespace tussle::sim
