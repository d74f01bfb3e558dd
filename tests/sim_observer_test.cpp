// The sim::Observer contract: hook order, the auditor's claim, and lanes.
//
// A toy recording observer, defined entirely here, shows what every sink
// relies on: begin hooks run in attach order and end hooks in reverse;
// schedule/cancel hooks fire once per scripted schedule/cancel; each end
// hook sees the claim a component made on the auditor, even when the
// auditor's own end hook (which resets the claim) runs first. Under the
// sharded backend each attached observer gets one lane per owner per run,
// and the lanes fold in ascending owner order back to the serial totals.
// The real sinks (auditor, scale and loop profilers) then produce the same
// reports at k = 1 and k = 4.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/network.hpp"
#include "sim/observer.hpp"
#include "sim/profiler.hpp"
#include "sim/scale_profile.hpp"
#include "sim/shard_audit.hpp"
#include "sim/sharded_backend.hpp"
#include "sim/simulator.hpp"

namespace tussle::sim {
namespace {

/// Tallies every hook; optionally journals begin/end into a shared log.
class Recorder final : public Observer {
 public:
  explicit Recorder(std::string name = "", std::vector<std::string>* journal = nullptr)
      : name_(std::move(name)), journal_(journal) {}

  void on_schedule(std::uint64_t, SimTime, SimTime, const TaskTag&, ShardId) override {
    ++scheduled;
  }
  void on_cancel(std::uint64_t, SimTime) override { ++cancelled; }
  void begin_event(std::uint64_t, SimTime, std::size_t, const TaskTag&) override {
    if (journal_ != nullptr) journal_->push_back("begin " + name_);
  }
  void end_event(ShardId claimed) override {
    ++claims[claimed];
    if (journal_ != nullptr) journal_->push_back("end " + name_);
  }
  std::unique_ptr<Observer> make_lane() const override {
    ++lanes_made;
    return std::make_unique<Recorder>(name_);
  }
  void fold(const Observer& lane) override {
    const auto& r = static_cast<const Recorder&>(lane);
    scheduled += r.scheduled;
    cancelled += r.cancelled;
    for (const auto& [shard, n] : r.claims) claims[shard] += n;
    // A lane sees only its own owner's events, so its claim names it.
    fold_order.push_back(r.claims.empty() ? kNoShard : r.claims.begin()->first);
  }

  std::uint64_t scheduled = 0;
  std::uint64_t cancelled = 0;
  std::map<ShardId, std::uint64_t> claims;  ///< end_event claims
  std::vector<ShardId> fold_order;          ///< claimed owner of each folded lane
  mutable int lanes_made = 0;

 private:
  std::string name_;
  std::vector<std::string>* journal_;
};

// --- a scripted multi-owner world ------------------------------------------
//
// Owners 1..6 with a 1 ms lookahead. Each owner ticks five times, 1 ms
// apart; every tick arms a timer and cancels it, and ticks 0, 2 and 4 send
// a hop to the next owner one lookahead ahead. Handlers claim their owner.
// Setup arms and cancels one more timer per owner.

constexpr ShardId kOwners = 6;
const TaskTag kTick{"toy", "tick"};
const TaskTag kHop{"toy", "hop"};

void claim(Simulator& sim, ShardId owner) {
  if (ShardAuditor* a = sim.auditor()) a->claim("toy", owner, owner);
}

void tick(Simulator& sim, ShardId owner, int n) {
  claim(sim, owner);
  sim.cancel(sim.schedule_for(owner, Duration::millis(10), kTick, [] {}));
  const ShardId next = owner % kOwners + 1;
  if (n % 2 == 0) {
    sim.schedule_for(next, Duration::millis(1), kHop, [&sim, next] { claim(sim, next); });
  }
  if (n < 4) {
    sim.schedule_for(owner, Duration::millis(1), kTick,
                     [&sim, owner, n] { tick(sim, owner, n + 1); });
  }
}

void build_world(Simulator& sim) {
  for (ShardId o = 1; o <= kOwners; ++o) sim.register_owner(o);
  for (ShardId o = 1; o <= kOwners; ++o) {
    sim.register_lookahead(o, o % kOwners + 1, Duration::millis(1));
  }
  for (ShardId o = 1; o <= kOwners; ++o) {
    sim.schedule_for(o, Duration::millis(1), kTick, [&sim, o] { tick(sim, o, 0); });
    sim.cancel(sim.schedule_for(o, Duration::millis(50), kTick, [] {}));
  }
}

// Per owner: 2 setup schedules + 5 timers + 3 hops + 4 follow-up ticks, 1 + 5
// cancels, 5 ticks + 3 hops dispatched (each claiming the owner).
constexpr std::uint64_t kScheduled = kOwners * 14;
constexpr std::uint64_t kCancelled = kOwners * 6;
constexpr std::uint64_t kEventsPerOwner = 8;

void install(Simulator& sim, std::size_t shards) {
  if (shards > 0) sim.set_backend(std::make_unique<ShardedBackend>(sim, shards));
}

TEST(Observer, HooksNestInAttachOrder) {
  Simulator sim;
  std::vector<std::string> journal;
  Recorder a("a", &journal), b("b", &journal), c("c", &journal);
  sim.attach(&a);
  sim.attach(&b);
  sim.attach(&c);
  sim.attach(&b);  // already attached: no-op
  sim.schedule(Duration::millis(1), [&journal] { journal.push_back("handler"); });
  sim.run();
  EXPECT_EQ(journal, (std::vector<std::string>{"begin a", "begin b", "begin c", "handler",
                                               "end c", "end b", "end a"}));
}

TEST(Observer, ScheduleAndCancelCountsMatchTheScript) {
  Simulator sim;
  Recorder r;
  sim.attach(&r);
  build_world(sim);
  EXPECT_EQ(sim.run(), kOwners * kEventsPerOwner);
  EXPECT_EQ(r.scheduled, kScheduled);
  EXPECT_EQ(r.cancelled, kCancelled);
  // A failed cancel (the event already ran) is not reported.
  const EventId done = sim.schedule(Duration::millis(1), [] {});
  sim.run();
  EXPECT_FALSE(sim.cancel(done));
  EXPECT_EQ(r.cancelled, kCancelled);
}

TEST(Observer, EndHooksReceiveTheAuditorsClaim) {
  // The auditor attaches *after* the recorder, so its end hook — which
  // resets the claim — runs first; the recorder must still see the claim.
  Simulator sim;
  Recorder r;
  ShardAuditor audit;
  sim.attach(&r);
  sim.set_auditor(&audit);
  sim.schedule(Duration::millis(1), [&sim] { sim.auditor()->claim("toy", 1, 7); });
  sim.schedule(Duration::millis(2), [] {});  // unclaimed
  sim.run();
  EXPECT_EQ(r.claims, (std::map<ShardId, std::uint64_t>{{7, 1}, {kNoShard, 1}}));
  EXPECT_EQ(audit.current(), kNoShard);  // reset between events
}

TEST(Observer, TypedSettersReplaceInPlaceAndDetach) {
  Simulator sim;
  Recorder first;
  ShardAuditor a1, a2;
  ScaleProfiler scale;
  sim.set_auditor(&a1);
  sim.attach(&first);
  sim.set_scale_profiler(&scale);
  sim.set_auditor(&a2);  // replaces a1 at the front
  ASSERT_EQ(sim.observers().size(), 3u);
  EXPECT_EQ(sim.observers()[0], &a2);
  EXPECT_EQ(sim.auditor(), &a2);
  sim.set_auditor(nullptr);
  sim.detach(&scale);
  EXPECT_EQ(sim.observers(), (std::vector<Observer*>{&first}));
  EXPECT_EQ(sim.auditor(), nullptr);
  EXPECT_EQ(sim.scale_profiler(), nullptr);
}

// Serial totals, the reference every sharded run must fold back to.
Recorder serial_totals() {
  Simulator sim;
  Recorder r;
  ShardAuditor audit;
  sim.attach(&r);
  sim.set_auditor(&audit);
  build_world(sim);
  sim.run();
  return r;
}

TEST(ObserverLanes, OnePerOwnerPerRunOnlyWhileAttachedAndFoldToSerialTotals) {
  const Recorder serial = serial_totals();
  EXPECT_EQ(serial.scheduled, kScheduled);
  for (ShardId o = 1; o <= kOwners; ++o) EXPECT_EQ(serial.claims.at(o), kEventsPerOwner);

  for (std::size_t k : {1u, 4u}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    Simulator sim;
    install(sim, k);
    Recorder r;
    Recorder idle;  // never attached
    ShardAuditor audit;
    sim.attach(&r);
    sim.set_auditor(&audit);  // after the recorder: its end hook runs first
    build_world(sim);
    // Two run() calls: lanes are rebuilt and folded per run.
    sim.run(SimTime::millis(3));
    EXPECT_EQ(r.lanes_made, static_cast<int>(kOwners));
    sim.run();
    EXPECT_EQ(r.lanes_made, static_cast<int>(2 * kOwners));
    EXPECT_EQ(idle.lanes_made, 0);

    EXPECT_EQ(r.scheduled, serial.scheduled);
    EXPECT_EQ(r.cancelled, serial.cancelled);
    EXPECT_EQ(r.claims, serial.claims);
    // Lanes fold in ascending owner order, never in worker order.
    std::vector<ShardId> ascending;
    for (int run = 0; run < 2; ++run) {
      for (ShardId o = 1; o <= kOwners; ++o) ascending.push_back(o);
    }
    EXPECT_EQ(r.fold_order, ascending);

    // Detached: the next run builds no lane for it.
    sim.detach(&r);
    sim.schedule_for(1, Duration::millis(1), kTick, [] {});
    sim.run();
    EXPECT_EQ(r.lanes_made, static_cast<int>(2 * kOwners));
  }
}

TEST(ObserverLanes, ProcessRecordHoldsNoEmbeddedSink) {
  EXPECT_LE(sizeof(ShardedBackend::Lp), 400u);
}

// --- the real sinks at k = 1 vs k = 4 --------------------------------------
//
// A six-AS chain; probes from AS 1 and AS 3 cross every boundary to AS 6.

struct SinkReports {
  std::string audit;
  std::string scale;
  std::map<std::string, std::uint64_t> loop_cells;  ///< "component/kind" -> events
};

SinkReports chain_reports(std::size_t shards) {
  Simulator sim(11);
  install(sim, shards);
  ShardAuditor audit;
  ScaleProfiler scale;
  LoopProfiler loop;
  sim.set_auditor(&audit);
  sim.set_scale_profiler(&scale);
  sim.attach(&loop);
  net::Network net(sim);
  std::vector<net::NodeId> nodes;
  for (net::AsId as = 1; as <= 6; ++as) nodes.push_back(net.add_node(as));
  for (std::size_t i = 0; i + 1 < nodes.size(); ++i) {
    net.connect(nodes[i], nodes[i + 1], 1e8, Duration::millis(1));
  }
  // Interface 0 faces left (AS 1 has only its right-hand link), so every
  // default route points right, toward AS 6.
  for (std::size_t i = 0; i + 1 < nodes.size(); ++i) {
    net.node(nodes[i]).forwarding().set_default_route(i == 0 ? 0 : 1);
  }
  const net::Address dst{6, 1, 1, false};
  net.node(nodes.back()).add_address(dst);
  net.node(nodes.back()).set_local_handler([](const net::Packet&) {});
  for (const std::size_t src : {0u, 2u}) {
    for (int i = 0; i < 6; ++i) {
      const net::AsId as = static_cast<net::AsId>(src + 1);
      sim.schedule_for(as, Duration::micros(300 * (i + 1)), TaskTag{"test", "probe"},
                       [&net, node = nodes[src], as, dst] {
                         net::Packet p;
                         p.src = net::Address{as, 1, 1, false};
                         p.dst = dst;
                         net.node(node).originate(p);
                       });
    }
  }
  sim.run();
  EXPECT_EQ(net.counters().delivered.value(), 12);
  SinkReports r;
  r.audit = audit.report_json();
  r.scale = scale.report_json();
  for (const auto& h : loop.hotspots(64)) r.loop_cells[h.component + "/" + h.kind] = h.events;
  return r;
}

TEST(ObserverLanes, AuditScaleAndLoopReportsAreShardCountIndependent) {
  const SinkReports one = chain_reports(1);
  const SinkReports four = chain_reports(4);
  EXPECT_EQ(one.audit, four.audit);
  EXPECT_EQ(one.scale, four.scale);
  EXPECT_EQ(one.loop_cells, four.loop_cells);
  EXPECT_GT(one.loop_cells.at("test/probe"), 0u);
}

}  // namespace
}  // namespace tussle::sim
