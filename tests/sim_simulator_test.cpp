#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace tussle::sim {
namespace {

TEST(Simulator, ClockAdvancesToEventTime) {
  Simulator sim;
  SimTime seen;
  sim.schedule(SimTime::millis(25), [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, SimTime::millis(25));
}

TEST(Simulator, RelativeSchedulingChains) {
  Simulator sim;
  std::vector<double> times;
  sim.schedule(SimTime::seconds(1), [&] {
    times.push_back(sim.now().as_seconds());
    sim.schedule(SimTime::seconds(1), [&] { times.push_back(sim.now().as_seconds()); });
  });
  sim.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 2.0);
}

TEST(Simulator, HorizonStopsExecution) {
  Simulator sim;
  int fired = 0;
  sim.schedule(SimTime::seconds(1), [&] { ++fired; });
  sim.schedule(SimTime::seconds(3), [&] { ++fired; });
  sim.run(SimTime::seconds(2));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), SimTime::seconds(2));  // clock advanced to horizon
  sim.run();                                  // resume to completion
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, EventAtExactHorizonFires) {
  Simulator sim;
  bool fired = false;
  sim.schedule(SimTime::seconds(2), [&] { fired = true; });
  sim.run(SimTime::seconds(2));
  EXPECT_TRUE(fired);
}

TEST(Simulator, ScheduleAtRejectsPast) {
  Simulator sim;
  sim.schedule(SimTime::seconds(5), [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(SimTime::seconds(1), [] {}), std::invalid_argument);
}

TEST(Simulator, RelativeScheduleRejectsNegativeDelay) {
  // A negative delay would land before now() and run the clock backwards.
  Simulator sim;
  sim.schedule(SimTime::seconds(5), [] {});
  sim.run();
  const auto past = Duration::nanos(-1);
  EXPECT_THROW(sim.schedule(past, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule(past, TaskTag{"test", "past"}, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule_for(1, past, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule_for(1, past, TaskTag{"test", "past"}, [] {}),
               std::invalid_argument);
  EXPECT_EQ(sim.events_pending(), 0u);
  // A zero delay is now itself, which is allowed.
  bool fired = false;
  sim.schedule(Duration::zero(), [&] { fired = true; });
  sim.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.now(), SimTime::seconds(5));
}

TEST(Simulator, StopHaltsRun) {
  Simulator sim;
  int fired = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.schedule(SimTime::seconds(i), [&] {
      ++fired;
      if (fired == 3) sim.stop();
    });
  }
  sim.run();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.events_pending(), 7u);
}

TEST(Simulator, ScheduleEveryRepeatsUntilFalse) {
  Simulator sim;
  int ticks = 0;
  sim.schedule_every(SimTime::seconds(1), [&] {
    ++ticks;
    return ticks < 5;
  });
  sim.run();
  EXPECT_EQ(ticks, 5);
  EXPECT_EQ(sim.now(), SimTime::seconds(5));
}

TEST(Simulator, CancelScheduledEvent) {
  Simulator sim;
  bool fired = false;
  EventId id = sim.schedule(SimTime::seconds(1), [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, StepExecutesOneEvent) {
  Simulator sim;
  int fired = 0;
  sim.schedule(SimTime::seconds(1), [&] { ++fired; });
  sim.schedule(SimTime::seconds(2), [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, DeterministicAcrossRunsWithSameSeed) {
  auto run_once = [](std::uint64_t seed) {
    Simulator sim(seed);
    std::vector<double> draws;
    sim.schedule_every(SimTime::millis(10), [&] {
      draws.push_back(sim.rng().uniform());
      return draws.size() < 100;
    });
    sim.run();
    return draws;
  };
  EXPECT_EQ(run_once(42), run_once(42));
  EXPECT_NE(run_once(42), run_once(43));
}

TEST(Simulator, EventsExecutedCounts) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule(SimTime::millis(i), [] {});
  sim.run();
  EXPECT_EQ(sim.events_executed(), 7u);
}

}  // namespace
}  // namespace tussle::sim
