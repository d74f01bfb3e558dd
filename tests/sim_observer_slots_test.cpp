// Reusing a queue slot never changes a profiler's report.
//
// The scale and memory profilers keep each pending event's record in a
// table indexed by the event's queue slot, matched on its id's value
// (sim/observer.hpp). A queue reuses a slot as soon as its event
// leaves, so these tests drive random mixes of schedules, cancels and
// zero-delay events through bare Simulators with the auditor and both
// profilers attached, journal every hook the profilers saw, and replay the
// journal into fresh profilers with every event on a slot of its own. The
// reports must be byte-equal. The mixes cover cancel-heavy runs (tombstones
// hold slots, then free them), events scheduled before the profilers
// attach, profilers detached and re-attached between runs (events fire
// unseen and their slots are reused unseen), and one set of profilers
// watching two simulators in turn, the first stopped at a horizon with
// events still pending.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "sim/mem_profile.hpp"
#include "sim/observer.hpp"
#include "sim/scale_profile.hpp"
#include "sim/shard_audit.hpp"
#include "sim/simulator.hpp"

namespace tussle::sim {
namespace {

/// One hook call as the profilers saw it; `world` tells the simulators
/// apart, since each one's ids restart.
struct Hook {
  enum Kind { kSchedule, kCancel, kBegin, kEnd } kind = kSchedule;
  int world = 0;
  EventId id;
  SimTime now;
  SimTime at;
  TaskTag tag;
  ShardId shard = kNoShard;  ///< origin (schedule) or claim (end)
  std::size_t depth = 0;
};

class Journal final : public Observer {
 public:
  void on_schedule(EventId id, SimTime now, SimTime at, const TaskTag& tag,
                   ShardId origin) override {
    hooks.push_back(Hook{Hook::kSchedule, world, id, now, at, tag, origin, 0});
  }
  void on_cancel(EventId id, SimTime now) override {
    hooks.push_back(Hook{Hook::kCancel, world, id, now, SimTime{}, TaskTag{}, kNoShard, 0});
  }
  void begin_event(EventId id, SimTime now, std::size_t queue_depth,
                   const TaskTag& tag) override {
    hooks.push_back(Hook{Hook::kBegin, world, id, now, SimTime{}, tag, kNoShard, queue_depth});
  }
  void end_event(ShardId claimed) override {
    hooks.push_back(Hook{Hook::kEnd, world, EventId{}, SimTime{}, SimTime{}, TaskTag{}, claimed,
                         0});
  }

  int world = 0;
  std::vector<Hook> hooks;
};

/// The auditor, both profilers and the journal, attached and detached
/// together so the journal sees exactly the profilers' hook stream.
struct Observed {
  ShardAuditor audit;
  ScaleProfiler scale;
  MemProfiler mem;
  Journal journal;

  Observed() { audit.set_fail_fast(false); }

  void attach(Simulator& sim) {
    sim.set_auditor(&audit);
    sim.set_scale_profiler(&scale);
    sim.set_mem_profiler(&mem);
    sim.attach(&journal);
  }
  void detach(Simulator& sim) {
    sim.set_auditor(nullptr);
    sim.set_scale_profiler(nullptr);
    sim.set_mem_profiler(nullptr);
    sim.detach(&journal);
  }
};

// Component names on both sides of std::string's 15-character inline
// buffer, so "sim.event/<component>" sites are short and long.
const TaskTag kTags[] = {
    {"toy", "tick"},
    {"toy.link", "hop"},
    {"toy.long_component", "burst"},
    {"toy.very_long_component_name", "timer"},
};

/// A random event mix over one simulator. Each handler claims a shard on
/// the auditor, then schedules children (some at zero delay), enough to
/// keep about kPopulation events pending until the mix's budget runs out,
/// and cancels events it remembers, fired ones included, so cancels both
/// succeed and fail. `cancel_share` tilts the mix toward cancels.
class Mix {
 public:
  Mix(Simulator& sim, std::uint64_t seed, double cancel_share)
      : sim_(sim), rng_(seed), cancel_share_(cancel_share) {}

  /// Schedules `n` root events at random times within `span_us`.
  void seed_events(int n, std::int64_t span_us) {
    for (int i = 0; i < n; ++i) spawn(Duration::micros(uniform(0, span_us)));
  }

 private:
  std::int64_t uniform(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng_);
  }
  bool chance(double p) { return std::uniform_real_distribution<double>(0, 1)(rng_) < p; }

  void spawn(Duration delay) {
    if (budget_ == 0) return;
    --budget_;
    const TaskTag tag = kTags[uniform(0, 3)];
    const auto shard = static_cast<ShardId>(uniform(1, 5));
    ids_.push_back(sim_.schedule(delay, tag, [this, shard] { fire(shard); }));
  }

  void fire(ShardId shard) {
    if (ShardAuditor* a = sim_.auditor()) a->claim("toy", shard, shard);
    const auto children = sim_.events_pending() < kPopulation ? uniform(1, 3) : uniform(0, 1);
    for (std::int64_t i = 0; i < children; ++i) {
      spawn(chance(0.4) ? Duration::zero() : Duration::micros(uniform(1, 400)));
    }
    while (!ids_.empty() && chance(cancel_share_)) {
      const auto last = static_cast<std::int64_t>(ids_.size()) - 1;
      const auto pick = static_cast<std::size_t>(uniform(0, last));
      sim_.cancel(ids_[pick]);
      ids_[pick] = ids_.back();
      ids_.pop_back();
    }
    // Remember recent ids only, so cancels keep hitting pending events.
    if (ids_.size() > 4 * kPopulation) ids_.erase(ids_.begin(), ids_.begin() + kPopulation);
  }

  static constexpr std::size_t kPopulation = 64;
  Simulator& sim_;
  std::mt19937_64 rng_;
  double cancel_share_;
  std::size_t budget_ = 3000;  ///< events this mix may still schedule
  std::vector<EventId> ids_;
};

/// Replays the journal into fresh profilers, giving every event a slot of
/// its own: no slot is ever reused, so no record can be mistaken for
/// another. Hooks for an event the profilers never saw scheduled get a
/// fresh slot too, as a first sight does.
std::pair<std::string, std::string> replay(const std::vector<Hook>& hooks) {
  ScaleProfiler scale;
  MemProfiler mem;
  std::map<std::pair<int, std::uint64_t>, std::uint32_t> slot_of;
  std::uint32_t next_slot = 0;
  auto own = [&](const Hook& h) {
    const auto key = std::make_pair(h.world, h.id.value);
    if (h.kind == Hook::kSchedule) slot_of[key] = next_slot++;
    const auto it = slot_of.find(key);
    return EventId{h.id.value, it != slot_of.end() ? it->second : next_slot++};
  };
  for (const Hook& h : hooks) {
    if (h.kind == Hook::kEnd) {
      mem.end_event(h.shard);
      scale.end_event(h.shard);
      continue;
    }
    const EventId id = own(h);
    switch (h.kind) {
      case Hook::kSchedule:
        scale.on_schedule(id, h.now, h.at, h.tag, h.shard);
        mem.on_schedule(id, h.now, h.at, h.tag, h.shard);
        break;
      case Hook::kCancel:
        scale.on_cancel(id, h.now);
        mem.on_cancel(id, h.now);
        break;
      case Hook::kBegin:
        scale.begin_event(id, h.now, h.depth, h.tag);
        mem.begin_event(id, h.now, h.depth, h.tag);
        break;
      case Hook::kEnd:
        break;
    }
  }
  return {scale.report_json(), mem.report_json()};
}

void expect_replay_matches(const Observed& o) {
  ASSERT_GT(o.scale.work(), 100u);
  ASSERT_GT(o.scale.events_cancelled(), 0u);
  const auto [scale, mem] = replay(o.journal.hooks);
  EXPECT_EQ(o.scale.report_json(), scale);
  EXPECT_EQ(o.mem.report_json(), mem);
}

class ObserverSlots : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ObserverSlots, CancelHeavyMixesReuseSlotsWithoutChangingReports) {
  Observed o;
  Simulator sim(GetParam());
  o.attach(sim);
  Mix mix(sim, GetParam(), /*cancel_share=*/0.6);
  mix.seed_events(200, 2000);
  sim.run();
  expect_replay_matches(o);
}

TEST_P(ObserverSlots, EventsScheduledBeforeAttachingAreCausalRoots) {
  Observed o;
  Simulator sim(GetParam());
  Mix mix(sim, GetParam(), /*cancel_share=*/0.3);
  mix.seed_events(150, 2000);  // unseen: no records, no control blocks
  o.attach(sim);
  mix.seed_events(50, 2000);
  sim.run();
  expect_replay_matches(o);
}

TEST_P(ObserverSlots, DetachingAndReattachingMidRunLeavesNoStaleMatch) {
  // Events scheduled while attached fire while detached, and the events
  // that reuse their slots are scheduled unseen: their records must stay
  // unmatched when those later events fire after re-attaching.
  Observed o;
  Simulator sim(GetParam());
  o.attach(sim);
  Mix mix(sim, GetParam(), /*cancel_share=*/0.3);
  mix.seed_events(200, 6000);
  sim.run(SimTime::micros(1500));
  o.detach(sim);
  sim.run(SimTime::micros(3000));
  o.attach(sim);
  sim.run(SimTime::micros(4500));
  o.detach(sim);
  sim.run(SimTime::micros(5000));
  o.attach(sim);
  sim.run();
  expect_replay_matches(o);
}

TEST_P(ObserverSlots, OneSetOfProfilersWatchesTwoSimulatorsInTurn) {
  // The first world stops at a horizon with events pending, so its records
  // stay behind; the second world's queue hands out the same slots and
  // values again, and its sim time restarts at 0.
  Observed o;
  {
    Simulator first(GetParam());
    o.attach(first);
    Mix mix(first, GetParam(), /*cancel_share=*/0.3);
    mix.seed_events(200, 4000);
    first.run(SimTime::micros(1000));
    ASSERT_GT(first.events_pending(), 0u);
    o.detach(first);
  }
  o.journal.world = 1;
  Simulator second(GetParam() + 1);
  o.attach(second);
  Mix mix(second, GetParam() + 1, /*cancel_share=*/0.3);
  mix.seed_events(200, 4000);
  second.run();
  expect_replay_matches(o);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ObserverSlots, ::testing::Values(1u, 7u, 23u));

}  // namespace
}  // namespace tussle::sim
