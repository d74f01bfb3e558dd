// ShardedBackend: the conservative barrier-synchronized PDES engine.
//
// The determinism contract under test: per-owner event order (and
// therefore every per-owner observable) is a pure function of the
// simulation, not of the shard count — byte-identical at k = 1, 2, 3, 8.
// Plus the edge cases the window machinery must survive: zero-latency
// lookahead (1 ns lockstep, not deadlock), lookahead undercuts (detected
// at the drain, at any k), control-only rounds, horizon/stop semantics,
// and the restricted cancellation surface.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "net/network.hpp"
#include "sim/sharded_backend.hpp"
#include "sim/simulator.hpp"

namespace tussle::sim {
namespace {

ShardedBackend& install_sharded(Simulator& sim, std::size_t shards) {
  sim.set_backend(std::make_unique<ShardedBackend>(sim, shards));
  return dynamic_cast<ShardedBackend&>(sim.backend());
}

// One owner's execution log: (time ns, label). Each owner's log is only
// written by the worker that owns it, so logs need no locking.
using Log = std::vector<std::pair<std::int64_t, std::string>>;

TEST(ShardedBackend, SingleOwnerMatchesSerialOrder) {
  // With one owner and owner-directed scheduling only, the sharded engine
  // must reproduce the serial backend's (time, sequence) order exactly.
  auto drive = [](Simulator& sim) {
    Log log;
    for (int i = 0; i < 6; ++i) {
      sim.schedule_for(7, Duration::millis(3 - i % 3), TaskTag{"test", "seed"},
                       [&log, i, &sim] {
                         log.emplace_back(sim.now().as_nanos(), "a" + std::to_string(i));
                         // Follow-on from inside a worker event stays on the
                         // owner's queue.
                         sim.schedule(Duration::millis(1), TaskTag{"test", "child"},
                                      [&log, i, &sim] {
                                        log.emplace_back(sim.now().as_nanos(),
                                                         "b" + std::to_string(i));
                                      });
                       });
    }
    sim.run();
    return log;
  };

  Simulator serial(11);
  const Log expect = drive(serial);
  ASSERT_EQ(expect.size(), 12u);
  for (std::size_t k : {1u, 2u, 8u}) {
    Simulator sim(11);
    install_sharded(sim, k);
    EXPECT_EQ(drive(sim), expect) << "k=" << k;
  }
}

// A three-owner ring: every event draws from the owner's RNG stream and
// forwards work to the next owner one lookahead later. Exercises the
// outbox path, per-owner RNG lanes, and equal-latency links.
Log ring_scenario(std::size_t shards) {
  Simulator sim(42);
  ShardedBackend& sb = install_sharded(sim, shards);
  const ShardId owners[] = {3, 5, 9};
  for (ShardId o : owners) sim.register_owner(o);
  // Equal latencies on every edge: the window width is exactly 2 ms.
  for (int i = 0; i < 3; ++i) {
    sim.register_lookahead(owners[i], owners[(i + 1) % 3], Duration::millis(2));
  }
  EXPECT_EQ(sb.lookahead(), Duration::millis(2));

  Log logs[3];
  std::function<void(int, int)> hop = [&](int at_idx, int remaining) {
    logs[at_idx].emplace_back(
        sim.now().as_nanos(),
        "o" + std::to_string(owners[at_idx]) + ":" + std::to_string(sim.rng().next_u64() % 1000));
    if (remaining == 0) return;
    const int next = (at_idx + 1) % 3;
    sim.schedule_for(owners[next], Duration::millis(2), TaskTag{"test", "hop"},
                     [&hop, next, remaining] { hop(next, remaining - 1); });
  };
  for (int i = 0; i < 3; ++i) {
    sim.schedule_for(owners[i], Duration::millis(1 + i), TaskTag{"test", "start"},
                     [&hop, i] { hop(i, 7); });
  }
  EXPECT_EQ(sim.run(), 3u * 8u);

  Log merged;
  for (const Log& l : logs) merged.insert(merged.end(), l.begin(), l.end());
  return merged;
}

TEST(ShardedBackend, MultiOwnerDeterministicAcrossShardCounts) {
  const Log base = ring_scenario(1);
  ASSERT_EQ(base.size(), 24u);
  for (std::size_t k : {2u, 3u, 8u}) {
    EXPECT_EQ(ring_scenario(k), base) << "k=" << k;
  }
}

TEST(ShardedBackend, ZeroLatencyDegradesToLockstep) {
  // A zero-latency link clamps the lookahead to 1 ns: same-time cross-owner
  // hops each take one barrier round instead of deadlocking.
  Simulator sim(1);
  ShardedBackend& sb = install_sharded(sim, 2);
  sim.register_owner(1);
  sim.register_owner(2);
  sim.register_lookahead(1, 2, Duration::nanos(0));
  EXPECT_EQ(sb.lookahead(), Duration::nanos(1));

  int hops = 0;
  std::function<void(ShardId, int)> bounce = [&](ShardId at, int remaining) {
    ++hops;
    if (remaining == 0) return;
    const ShardId other = at == 1 ? 2 : 1;
    sim.schedule_for(other, Duration::nanos(0), TaskTag{"test", "bounce"},
                     [&bounce, other, remaining] { bounce(other, remaining - 1); });
  };
  sim.schedule_for(1, Duration::nanos(0), TaskTag{"test", "kick"},
                   [&bounce] { bounce(1, 5); });
  EXPECT_EQ(sim.run(), 6u);
  EXPECT_EQ(hops, 6);
  // Every same-time hop crossed a barrier: at least one window per hop.
  EXPECT_GE(sb.windows_run(), 5u);
  EXPECT_EQ(sim.now(), SimTime::nanos(0));
}

TEST(ShardedBackend, LookaheadUndercutThrowsAtAnyShardCount) {
  // Sending below the declared lookahead can land behind the destination's
  // clock. The drain detects it — deterministically, even at k = 1 where
  // no actual race exists.
  for (std::size_t k : {1u, 4u}) {
    Simulator sim(1);
    install_sharded(sim, k);
    sim.register_owner(1);
    sim.register_owner(2);
    sim.register_lookahead(1, 2, Duration::millis(1));
    // Destination executes its 600 us event inside the window [0, 1 ms);
    // the undercut arrival at 500 us is then in its past.
    sim.schedule_for(2, Duration::micros(600), TaskTag{"test", "dst"}, [] {});
    sim.schedule_for(1, Duration::nanos(0), TaskTag{"test", "src"}, [&sim] {
      sim.schedule_for(2, Duration::micros(500), TaskTag{"test", "undercut"}, [] {});
    });
    EXPECT_THROW(sim.run(), std::logic_error) << "k=" << k;
  }
}

TEST(ShardedBackend, ControlOnlyRoundRunsOnCoordinator) {
  // Setup-context schedule() lands on the control queue; the control event
  // runs between windows and may inject owner work via schedule_for.
  Simulator sim(1);
  install_sharded(sim, 2);
  sim.register_owner(4);
  sim.register_owner(6);
  sim.register_lookahead(4, 6, Duration::millis(1));

  std::vector<std::string> order;
  bool control_ctx_flagged = false;
  sim.schedule(Duration::millis(5), TaskTag{"test", "control"}, [&] {
    const ExecCtx* c = current_exec_ctx();
    control_ctx_flagged = c != nullptr && c->control;
    order.push_back("control@" + std::to_string(sim.now().as_nanos()));
    sim.schedule_for(6, Duration::millis(2), TaskTag{"test", "injected"},
                     [&order, &sim] {
                       order.push_back("owner@" + std::to_string(sim.now().as_nanos()));
                     });
  });
  EXPECT_EQ(sim.run(), 2u);
  EXPECT_TRUE(control_ctx_flagged);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "control@5000000");
  EXPECT_EQ(order[1], "owner@7000000");
}

TEST(ShardedBackend, ControlRunsBeforeSameTimeOwnerEvents) {
  Simulator sim(1);
  install_sharded(sim, 2);
  sim.register_owner(1);
  std::vector<std::string> order;
  sim.schedule_for(1, Duration::millis(3), TaskTag{"test", "owner"},
                   [&order] { order.push_back("owner"); });
  sim.schedule(Duration::millis(3), TaskTag{"test", "control"},
               [&order] { order.push_back("control"); });
  EXPECT_EQ(sim.run(), 2u);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "control");
  EXPECT_EQ(order[1], "owner");
}

TEST(ShardedBackend, HorizonAdvancesClockLikeSerial) {
  Simulator sim(1);
  install_sharded(sim, 2);
  sim.register_owner(1);
  sim.schedule_for(1, Duration::millis(2), TaskTag{"test", "only"}, [] {});
  EXPECT_EQ(sim.run(SimTime::millis(10)), 1u);
  EXPECT_EQ(sim.now(), SimTime::millis(10));  // horizon fill, as on serial

  // Events beyond the horizon stay pending.
  sim.schedule_for(1, Duration::millis(100), TaskTag{"test", "late"}, [] {});
  EXPECT_EQ(sim.run(SimTime::millis(20)), 0u);
  EXPECT_EQ(sim.now(), SimTime::millis(20));
  EXPECT_EQ(sim.events_pending(), 1u);
}

TEST(ShardedBackend, StopEndsRunAtWindowBoundary) {
  Simulator sim(1);
  install_sharded(sim, 2);
  sim.register_owner(1);
  sim.register_owner(2);
  sim.register_lookahead(1, 2, Duration::millis(1));
  std::size_t fired = 0;
  for (int i = 1; i <= 20; ++i) {
    const ShardId o = i % 2 ? 1 : 2;
    sim.schedule_for(o, Duration::millis(i), TaskTag{"test", "tick"}, [&] {
      ++fired;
      if (fired == 3) sim.stop();
    });
  }
  const std::size_t ran = sim.run();
  EXPECT_GE(ran, 3u);
  EXPECT_LT(ran, 20u);
  EXPECT_GT(sim.events_pending(), 0u);
}

TEST(ShardedBackend, CancellationIsOwnerLocal) {
  Simulator sim(1);
  install_sharded(sim, 2);
  sim.register_owner(1);
  sim.register_owner(2);
  sim.register_lookahead(1, 2, Duration::millis(1));

  // Setup context may cancel anything still queued.
  bool fired = false;
  const EventId direct =
      sim.schedule_for(1, Duration::millis(1), TaskTag{"test", "x"}, [&fired] { fired = true; });
  EXPECT_TRUE(sim.cancel(direct));
  EXPECT_FALSE(sim.cancel(direct));  // already gone

  bool own_cancel_ok = false;
  bool cross_cancel_refused = false;
  bool remote_id_flagged = false;
  sim.schedule_for(1, Duration::millis(2), TaskTag{"test", "worker"}, [&] {
    // Same-owner: schedule then cancel succeeds.
    const EventId mine =
        sim.schedule(Duration::millis(1), TaskTag{"test", "never"}, [] {});
    own_cancel_ok = sim.cancel(mine);
    // Cross-owner: the id is a synthetic remote handle; not cancellable.
    const EventId theirs = sim.schedule_for(2, Duration::millis(2),
                                            TaskTag{"test", "remote"}, [] {});
    remote_id_flagged = (theirs.value & ShardedBackend::kRemoteId) != 0;
    cross_cancel_refused = !sim.cancel(theirs);
  });
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_TRUE(own_cancel_ok);
  EXPECT_TRUE(remote_id_flagged);
  EXPECT_TRUE(cross_cancel_refused);
}

TEST(ShardedBackend, StepThrows) {
  Simulator sim(1);
  install_sharded(sim, 2);
  EXPECT_THROW(sim.step(), std::logic_error);
}

TEST(ShardedBackend, SetBackendAfterSchedulingThrows) {
  Simulator sim(1);
  sim.schedule(Duration::millis(1), [] {});
  EXPECT_THROW(sim.set_backend(std::make_unique<ShardedBackend>(sim, 2)),
               std::logic_error);
}

TEST(ShardedBackend, RegisterOwnerMidRunThrows) {
  Simulator sim(1);
  install_sharded(sim, 1);
  sim.register_owner(1);
  sim.schedule_for(1, Duration::millis(1), TaskTag{"test", "x"},
                   [&sim] { sim.register_owner(99); });
  EXPECT_THROW(sim.run(), std::logic_error);
}

// End-to-end through the Network layer: packet delivery counts and latency
// stats must be identical at every shard count (counters accumulate in
// per-owner lanes and merge owner-ascending).
struct NetResult {
  std::int64_t originated = 0;
  std::int64_t delivered = 0;
  std::size_t events = 0;
  std::size_t received = 0;
};

NetResult net_scenario(std::size_t shards) {
  Simulator sim(7);
  if (shards > 0) install_sharded(sim, shards);
  net::Network net(sim);
  const net::NodeId a = net.add_node(1);
  const net::NodeId b = net.add_node(2);
  net.connect(a, b, 1e9, Duration::millis(1));
  const net::Address dst{2, 1, 1, false};
  net.node(b).add_address(dst);
  std::size_t received = 0;
  net.node(b).set_local_handler([&received](const net::Packet&) { ++received; });
  net.node(a).forwarding().set_prefix_route(net::prefix_of(dst),
                                            net.neighbors(a).at(0).second);
  for (int i = 0; i < 8; ++i) {
    sim.schedule_for(1, Duration::micros(100 * (i + 1)), TaskTag{"test", "probe"},
                     [&net, a, dst] {
                       net::Packet p;
                       p.src = net::Address{1, 1, 1, false};
                       p.dst = dst;
                       net.node(a).originate(p);
                     });
  }
  NetResult r;
  r.events = sim.run();
  r.originated = net.counters().originated.value();
  r.delivered = net.counters().delivered.value();
  r.received = received;
  return r;
}

TEST(ShardedBackend, NetworkDeliveryMatchesAcrossShardCounts) {
  const NetResult serial = net_scenario(0);
  EXPECT_EQ(serial.originated, 8);
  EXPECT_EQ(serial.delivered, 8);
  EXPECT_EQ(serial.received, 8u);
  for (std::size_t k : {1u, 2u, 4u}) {
    const NetResult r = net_scenario(k);
    EXPECT_EQ(r.originated, serial.originated) << "k=" << k;
    EXPECT_EQ(r.delivered, serial.delivered) << "k=" << k;
    EXPECT_EQ(r.received, serial.received) << "k=" << k;
  }
}

TEST(ShardedBackend, RunsHereOnlyInsideTheOwnersOwnWorkerEvent) {
  // The query that decides whether a link's propagate event may keep its
  // wire slot: the serial backend has one domain, the sharded backend one
  // per owner plus the coordinator's.
  Simulator serial(1);
  EXPECT_TRUE(serial.backend().runs_here(1));

  Simulator sim(1);
  install_sharded(sim, 2);
  sim.register_owner(1);
  sim.register_owner(2);
  sim.register_lookahead(1, 2, Duration::millis(1));
  EXPECT_FALSE(sim.backend().runs_here(1));  // setup
  bool control_here = true;
  std::array<bool, 2> worker_here{};
  sim.schedule(Duration::millis(1), TaskTag{"test", "control"},
               [&] { control_here = sim.backend().runs_here(1); });
  sim.schedule_for(1, Duration::millis(2), TaskTag{"test", "worker"}, [&] {
    worker_here = {sim.backend().runs_here(1), sim.backend().runs_here(2)};
  });
  sim.run();
  EXPECT_FALSE(control_here);
  EXPECT_TRUE(worker_here[0]);
  EXPECT_FALSE(worker_here[1]);
}

// Wire-pool confinement and packet conservation. Same-AS links keep a
// packet's wire slot from serialize to arrival; cross-AS links, and hops
// serialized by setup or control code, carry the packet in the event.
// Packets start three ways (setup, a control event, worker events), the run
// stops mid-flight and then completes.
struct WireRun {
  /// At the mid-flight stop: originated, delivered, dropped, queued, on the wire.
  std::array<std::int64_t, 5> mid{};
  /// After completion: originated, delivered, queue drops, forwarded, on the wire.
  std::array<std::int64_t, 5> end{};
  double latency_total_s = 0;
  /// Per destination, in arrival order: the test's tag (carried in `flow`),
  /// and the uid. Sharded owners draw uids from their own namespaces, so
  /// uids match across shard counts but not serial; tags match everywhere.
  std::map<net::NodeId, std::vector<net::FlowId>> tags;
  std::map<net::NodeId, std::vector<std::uint64_t>> uids;
};

WireRun wire_scenario(std::size_t shards) {
  Simulator sim(11);
  if (shards > 0) install_sharded(sim, shards);
  net::Network net(sim);
  // AS 1 holds a - b, AS 2 holds c - e (same-AS links); b - c and c - d
  // cross into AS 2 and AS 3. b - c is the bottleneck, with a short queue.
  const net::NodeId a = net.add_node(1);
  const net::NodeId b = net.add_node(1);
  const net::NodeId c = net.add_node(2);
  const net::NodeId e = net.add_node(2);
  const net::NodeId d = net.add_node(3);
  net.connect(a, b, 1e8, Duration::micros(50));
  net.connect(b, c, 2e6, Duration::millis(1), net::QueueKind::kDropTail, 8);
  net.connect(c, e, 1e8, Duration::micros(70));
  net.connect(c, d, 1e7, Duration::millis(2));
  const net::Address at_b{1, 2, 1, false};
  const net::Address at_e{2, 5, 1, false};
  const net::Address at_d{3, 4, 1, false};
  net.node(b).add_address(at_b);
  net.node(e).add_address(at_e);
  net.node(d).add_address(at_d);
  net.node(a).forwarding().set_default_route(0);
  net.node(b).forwarding().set_default_route(1);
  net.node(c).forwarding().set_default_route(0);
  net.node(c).forwarding().set_prefix_route(net::prefix_of(at_e), 1);
  net.node(c).forwarding().set_prefix_route(net::prefix_of(at_d), 2);
  net.node(e).forwarding().set_default_route(0);
  net.node(d).forwarding().set_default_route(0);

  WireRun r;
  for (const net::NodeId n : {b, e, d}) {
    // Each handler runs as its node's owner, so each log has one writer;
    // the maps are filled here, before any worker runs.
    std::vector<net::FlowId>& tags = r.tags[n];
    std::vector<std::uint64_t>& uids = r.uids[n];
    net.node(n).set_local_handler([&tags, &uids](const net::Packet& p) {
      tags.push_back(p.flow);
      uids.push_back(p.uid);
    });
  }
  net::FlowId next_tag = 1;
  auto packet = [&next_tag](net::Address to) {
    net::Packet p;
    p.dst = to;
    p.flow = next_tag++;
    return p;
  };

  // Setup: originated before run(), so the first hop is serialized by the
  // coordinator's control queue on the sharded backend.
  for (int i = 0; i < 6; ++i) net.node(a).originate(packet(i % 2 ? at_d : at_e));
  // A control event.
  std::vector<net::Packet> from_control;
  for (int i = 0; i < 6; ++i) from_control.push_back(packet(at_b));
  sim.schedule(Duration::micros(1503), TaskTag{"test", "control"}, [&net, d, &from_control] {
    for (const net::Packet& p : from_control) net.node(d).originate(p);
  });
  // Worker events, at every owner.
  for (int i = 0; i < 12; ++i) {
    const net::Packet p = packet(i % 3 ? at_e : at_d);
    sim.schedule_for(1, Duration::micros(301 * (i + 1)), TaskTag{"test", "probe"},
                     [&net, a, p] { net.node(a).originate(p); });
  }
  for (int i = 0; i < 6; ++i) {
    const net::Packet to_b = packet(at_b);
    sim.schedule_for(3, Duration::micros(457 * (i + 1)), TaskTag{"test", "probe"},
                     [&net, d, to_b] { net.node(d).originate(to_b); });
    const net::Packet e_to_b = packet(at_b);
    sim.schedule_for(2, Duration::micros(613 * (i + 1)), TaskTag{"test", "probe"},
                     [&net, e, e_to_b] { net.node(e).originate(e_to_b); });
  }

  auto queued = [&net] {
    std::int64_t n = 0;
    for (net::LinkId l = 0; l < net.link_count(); ++l) {
      n += static_cast<std::int64_t>(net.link(l).backlog_packets());
    }
    return n;
  };
  auto dropped = [&net] {
    const net::NetCounters& k = net.counters();
    return k.dropped_filter.value() + k.dropped_ttl.value() + k.dropped_no_route.value() +
           k.dropped_queue.value() + k.dropped_link_down.value();
  };

  sim.run(SimTime::nanos(9'000'000));
  const net::NetCounters& k = std::as_const(net).counters();
  r.mid = {k.originated.value(), k.delivered.value(), dropped(), queued(),
           net.packets_on_wire()};
  sim.run();
  r.end = {k.originated.value(), k.delivered.value(), k.dropped_queue.value(),
           k.forwarded.value(), net.packets_on_wire() + queued()};
  r.latency_total_s = k.delivery_latency_s.total();
  return r;
}

TEST(ShardedBackend, WirePoolConservesPacketsAndMatchesSerial) {
  const WireRun serial = wire_scenario(0);
  // The stop really is mid-flight, with packets both queued and on the wire.
  EXPECT_GT(serial.mid[3], 0);
  EXPECT_GT(serial.mid[4], 0);
  EXPECT_GT(serial.end[2], 0);  // the bottleneck dropped some
  EXPECT_EQ(serial.end[0], 36);
  EXPECT_EQ(serial.end[4], 0);
  std::vector<WireRun> sharded;
  for (std::size_t k : {1u, 2u, 4u}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    const WireRun r = wire_scenario(k);
    for (const WireRun* run : {&serial, &r}) {
      const auto& m = run->mid;
      EXPECT_EQ(m[0], m[1] + m[2] + m[3] + m[4])
          << "originated = delivered + dropped + queued + on the wire";
    }
    EXPECT_EQ(r.mid, serial.mid);
    EXPECT_EQ(r.end, serial.end);
    EXPECT_DOUBLE_EQ(r.latency_total_s, serial.latency_total_s);
    EXPECT_EQ(r.tags, serial.tags);
    if (!sharded.empty()) {
      EXPECT_EQ(r.uids, sharded.front().uids);
    }
    sharded.push_back(r);
  }
}

TEST(ShardedBackend, HeartbeatTicksBetweenWindows) {
  // Heartbeats work under sharding: the coordinator checks between barrier
  // windows (workers parked at barrier A), so beats land on window
  // boundaries, monotonically, with event counts that end at the true
  // total. Progress lines at window granularity beat no progress at all on
  // long sharded runs.
  Simulator sim(5);
  install_sharded(sim, 2);
  sim.register_owner(1);
  sim.register_owner(2);
  sim.register_lookahead(1, 2, Duration::millis(1));

  std::vector<Simulator::Heartbeat> beats;
  sim.set_heartbeat(Duration::millis(2),
                    [&beats](const Simulator::Heartbeat& h) { beats.push_back(h); });

  // 20 ms of alternating-owner work: ~10 beats at a 2 ms period.
  for (int i = 1; i <= 20; ++i) {
    const ShardId o = i % 2 ? 1 : 2;
    sim.schedule_for(o, Duration::millis(i), TaskTag{"test", "tick"}, [] {});
  }
  EXPECT_EQ(sim.run(), 20u);

  ASSERT_GE(beats.size(), 3u);
  for (std::size_t i = 0; i < beats.size(); ++i) {
    // Window-boundary semantics: each beat's sim-time is a whole window
    // edge (a multiple of the 1 ms lookahead), never mid-window.
    EXPECT_EQ(beats[i].sim_now.as_nanos() % 1'000'000, 0) << "beat " << i;
    if (i > 0) {
      EXPECT_GT(beats[i].sim_now.as_nanos(), beats[i - 1].sim_now.as_nanos());
      EXPECT_GE(beats[i].events_executed, beats[i - 1].events_executed);
    }
  }
  // The last beat fires at or one period before the final window, so its
  // running count sits within a beat period of the true total.
  EXPECT_GE(beats.back().events_executed, 18u);
  EXPECT_LE(beats.back().events_executed, 20u);
}

}  // namespace
}  // namespace tussle::sim
