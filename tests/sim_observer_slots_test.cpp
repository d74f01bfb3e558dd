// The simulator's schedule records under queue-slot reuse.
//
// The serial backend keeps each pending event's ScheduleRecord (schedule
// time, origin shard, causal depth) in a table indexed by the event's queue
// slot, and hands it to the cancel and begin hooks (sim/observer.hpp). A
// queue reuses a slot as soon as its event leaves. These tests drive random
// mixes of schedules, cancels and zero-delay events through bare Simulators
// with the auditor, both profilers and a journal attached. The journal
// keeps every hook and the record each cancel and begin hook was handed; an
// oracle recomputes every record from the journalled schedules alone, keyed
// by event id, so no slot is ever shared. The records must match, and
// profilers fed the oracle's records must write byte-equal reports. The
// mixes cover cancel-heavy runs (tombstones hold slots, then free them),
// events scheduled before the observers attach, observers detached and
// re-attached between runs (events fire unseen and their slots are reused
// unseen), and one set of observers watching two simulators in turn, the
// first stopped at a horizon with events still pending.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <random>
#include <set>
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

/// One hook call as the observers saw it; `world` tells the simulators
/// apart, since each one's ids restart.
struct Hook {
  enum Kind { kSchedule, kCancel, kBegin, kEnd, kDetach } kind = kSchedule;
  int world = 0;
  EventId id;
  SimTime now;
  SimTime at;
  TaskTag tag;
  ShardId shard = kNoShard;  ///< origin (schedule) or claim (end)
  std::size_t depth = 0;
  std::optional<ScheduleRecord> rec;  ///< the record a cancel or begin was handed
};

std::optional<ScheduleRecord> copy(const ScheduleRecord* rec) {
  return rec != nullptr ? std::optional<ScheduleRecord>(*rec) : std::nullopt;
}

class Journal final : public Observer {
 public:
  void on_schedule(EventId id, SimTime now, SimTime at, const TaskTag& tag,
                   ShardId origin) override {
    hooks.push_back(Hook{Hook::kSchedule, world, id, now, at, tag, origin, 0, std::nullopt});
  }
  void on_cancel(EventId id, SimTime now, const TaskTag& tag,
                 const ScheduleRecord* rec) override {
    hooks.push_back(Hook{Hook::kCancel, world, id, now, SimTime{}, tag, kNoShard, 0, copy(rec)});
  }
  void begin_event(EventId id, SimTime now, std::size_t queue_depth, const TaskTag& tag,
                   const ScheduleRecord* rec) override {
    hooks.push_back(
        Hook{Hook::kBegin, world, id, now, SimTime{}, tag, kNoShard, queue_depth, copy(rec)});
  }
  void end_event(ShardId claimed) override {
    hooks.push_back(Hook{Hook::kEnd, world, EventId{}, SimTime{}, SimTime{}, TaskTag{}, claimed,
                         0, std::nullopt});
  }
  bool reads_schedule_records() const override { return true; }

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
    journal.hooks.push_back(Hook{Hook::kDetach, journal.world, EventId{}, SimTime{},
                                 SimTime{}, TaskTag{}, kNoShard, 0, std::nullopt});
  }
};

// Component names on both sides of std::string's 15-character inline
// buffer.
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

/// Replays the journal into fresh profilers with the oracle's records. The
/// oracle keys each record by (world, id value): an event has one when its
/// schedule was journalled since the observers last attached, its depth is
/// 1 + the depth of the event dispatching when it was scheduled (1 outside
/// a dispatch), and an event without one runs at depth 1. Every record the
/// simulator handed out must equal the oracle's.
std::pair<std::string, std::string> replay(const std::vector<Hook>& hooks) {
  ScaleProfiler scale;
  MemProfiler mem;
  std::map<std::pair<int, std::uint64_t>, ScheduleRecord> records;
  std::uint64_t cur_depth = 0;  ///< the dispatching event's depth; 0 outside one
  auto oracle = [&](const Hook& h) -> const ScheduleRecord* {
    const auto it = records.find({h.world, h.id.value});
    const ScheduleRecord* rec = it != records.end() ? &it->second : nullptr;
    EXPECT_EQ(h.rec, copy(rec)) << "world " << h.world << ", event " << h.id.value
                                << " on slot " << h.id.slot;
    return rec;
  };
  for (const Hook& h : hooks) {
    switch (h.kind) {
      case Hook::kDetach:
        records.clear();
        break;
      case Hook::kSchedule:
        records[{h.world, h.id.value}] = ScheduleRecord{h.now.as_nanos(), cur_depth + 1, h.shard};
        scale.on_schedule(h.id, h.now, h.at, h.tag, h.shard);
        mem.on_schedule(h.id, h.now, h.at, h.tag, h.shard);
        break;
      case Hook::kCancel: {
        const ScheduleRecord* rec = oracle(h);
        scale.on_cancel(h.id, h.now, h.tag, rec);
        mem.on_cancel(h.id, h.now, h.tag, rec);
        records.erase({h.world, h.id.value});
        break;
      }
      case Hook::kBegin: {
        const ScheduleRecord* rec = oracle(h);
        cur_depth = rec != nullptr ? rec->depth : 1;
        scale.begin_event(h.id, h.now, h.depth, h.tag, rec);
        mem.begin_event(h.id, h.now, h.depth, h.tag, rec);
        records.erase({h.world, h.id.value});
        break;
      }
      case Hook::kEnd:
        cur_depth = 0;
        mem.end_event(h.shard);
        scale.end_event(h.shard);
        break;
    }
  }
  return {scale.report_json(), mem.report_json()};
}

/// Slots that held more than one journalled event of one world.
std::size_t reused_slots(const std::vector<Hook>& hooks) {
  std::map<std::pair<int, std::uint32_t>, std::set<std::uint64_t>> values;
  for (const Hook& h : hooks) {
    if (h.kind == Hook::kSchedule) values[{h.world, h.id.slot}].insert(h.id.value);
  }
  std::size_t n = 0;
  for (const auto& [slot, v] : values) n += v.size() > 1 ? 1 : 0;
  return n;
}

void expect_replay_matches(const Observed& o) {
  ASSERT_GT(o.scale.work(), 100u);
  ASSERT_GT(o.scale.events_cancelled(), 0u);
  ASSERT_GT(reused_slots(o.journal.hooks), 0u);
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
  mix.seed_events(150, 2000);  // unseen: no records, so causal roots
  o.attach(sim);
  mix.seed_events(50, 2000);
  sim.run();
  expect_replay_matches(o);
}

TEST_P(ObserverSlots, DetachingAndReattachingMidRunLeavesNoStaleMatch) {
  // Events scheduled while attached fire while detached, and the events
  // that reuse their slots are scheduled unseen: their stale records must
  // not answer when those later events fire after re-attaching, and an
  // event scheduled before a detach looks unseen after the re-attach.
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
  // The first world stops at a horizon with events pending; the second
  // world's queue hands out the same slots and values again, and its sim
  // time restarts at 0.
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
