// The link's idle pass-through: a link that is not transmitting, whose
// empty queue would hand a packet straight back, puts it on the wire
// without the round trip through the queue, and nothing anyone can observe
// changes. DRR queues, whose dequeue spends deficit, keep the round trip.
// The suite name puts these tests in the ThreadSanitizer job's filter: under
// the sharded backend the pass-through fills each owner's wire pool lane.
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "net/network.hpp"
#include "sim/sharded_backend.hpp"

namespace tussle::net {
namespace {

Address addr(AsId as, std::uint32_t sub, std::uint32_t host) {
  return Address{.provider = as, .subscriber = sub, .host = host};
}

/// a -- b over one 10 Mb/s link with 1 ms of propagation: a 1000-B packet
/// serializes in 0.8 ms and arrives 1.8 ms after it was sent. A debug-level
/// trace records every enqueue.
struct Pair {
  sim::Simulator sim;
  std::ostringstream jsonl;
  Network net{sim};
  NodeId a = net.add_node(1);
  NodeId b = net.add_node(1);
  Address addr_b = addr(1, 2, 1);
  std::vector<std::uint64_t> arrivals;  ///< uids, in the order b received them

  explicit Pair(QueueKind kind) {
    sim.tracer().enable(true);
    sim.tracer().set_level(sim::TraceLevel::kDebug);
    sim.tracer().set_sink(sim::make_jsonl_sink(jsonl));
    net.connect(a, b, 10e6, sim::Duration::millis(1), kind, 64);
    net.node(b).add_address(addr_b);
    net.node(a).forwarding().set_default_route(0);
    net.node(b).set_local_handler([this](const Packet& p) { arrivals.push_back(p.uid); });
  }

  Packet make(ServiceClass tos = ServiceClass::kBestEffort,
              std::uint32_t size_bytes = 1000) const {
    Packet p;
    p.dst = addr_b;
    p.tos = tos;
    p.size_bytes = size_bytes;
    p.flow = 7;
    return p;
  }
};

TEST(NetHopLink, IdleDropTailLinkPutsThePacketStraightOnTheWire) {
  Pair w(QueueKind::kDropTail);
  w.net.node(w.a).originate(w.make());
  EXPECT_EQ(
      w.jsonl.str(),
      R"({"t_ns":0,"level":"DEBUG","component":"net.link","event":"enqueue","uid":1,"flow":7,"link":0,"node":0,"queued":1})"
      "\n");
  // Mid-serialization: the packet is on the wire, and no queue holds it.
  w.sim.run(sim::SimTime::micros(400));
  EXPECT_EQ(w.net.link(0).backlog_packets(), 0u);
  EXPECT_EQ(w.net.packets_on_wire(), 1);
  w.sim.run();
  EXPECT_EQ(w.net.packets_on_wire(), 0);
  EXPECT_EQ(w.net.counters().delivered.value(), 1);
  EXPECT_EQ(w.net.link(0).tx_packets(w.a), 1u);
  EXPECT_EQ(w.net.link(0).tx_bytes(w.a), 1000u);
}

TEST(NetHopLink, BurstOfThreePassesTheFirstAndQueuesTheRest) {
  Pair w(QueueKind::kDropTail);
  for (int i = 0; i < 3; ++i) w.net.node(w.a).originate(w.make());
  w.sim.run(sim::SimTime::micros(400));
  EXPECT_EQ(w.net.link(0).backlog_packets(), 2u);
  EXPECT_EQ(w.net.packets_on_wire(), 1);
  w.sim.run();
  EXPECT_EQ(w.net.packets_on_wire(), 0);
  EXPECT_EQ(w.arrivals, (std::vector<std::uint64_t>{1, 2, 3}));
  // Byte for byte the trace of the round trip through the queue.
  EXPECT_EQ(
      w.jsonl.str(),
      R"({"t_ns":0,"level":"DEBUG","component":"net.link","event":"enqueue","uid":1,"flow":7,"link":0,"node":0,"queued":1}
{"t_ns":0,"level":"DEBUG","component":"net.link","event":"enqueue","uid":2,"flow":7,"link":0,"node":0,"queued":1}
{"t_ns":0,"level":"DEBUG","component":"net.link","event":"enqueue","uid":3,"flow":7,"link":0,"node":0,"queued":2}
{"t_ns":1800000,"level":"INFO","component":"net.node","event":"deliver","uid":1,"flow":7,"node":1,"latency_s":0.0018000000000000002}
{"t_ns":2600000,"level":"INFO","component":"net.node","event":"deliver","uid":2,"flow":7,"node":1,"latency_s":0.0026000000000000003}
{"t_ns":3400000,"level":"INFO","component":"net.node","event":"deliver","uid":3,"flow":7,"node":1,"latency_s":0.0034000000000000002}
)");
}

/// Feeds `burst` to a standalone DRR queue the way an idle link does when
/// the whole burst arrives at one instant: the first packet is dequeued at
/// once (if `first_dequeued`), the rest queue behind it, and the link then
/// drains the queue. Returns the departure order as the uids the link's
/// source gives them: 1 + the index into `burst`.
std::vector<std::uint64_t> standalone_drr_order(const std::vector<Packet>& burst,
                                                bool first_dequeued) {
  DrrQueue q(64, {1.0, 2.0, 4.0});
  std::vector<std::uint64_t> order;
  for (std::size_t i = 0; i < burst.size(); ++i) {
    Packet p = burst[i];
    p.uid = i + 1;
    q.enqueue(std::move(p));
    if (i == 0 && first_dequeued) order.push_back(q.dequeue()->uid);
  }
  while (auto p = q.dequeue()) order.push_back(p->uid);
  return order;
}

TEST(NetHopLink, DrrLinkKeepsTheRoundTripThroughItsQueue) {
  Pair w(QueueKind::kDrr);
  // A premium packet first: its dequeue leaves the round at the premium
  // class with deficit to spare, which decides the order of the rest.
  std::vector<Packet> burst;
  const ServiceClass classes[] = {ServiceClass::kPremium, ServiceClass::kBestEffort,
                                  ServiceClass::kBestEffort, ServiceClass::kPremium,
                                  ServiceClass::kAssured, ServiceClass::kPremium,
                                  ServiceClass::kBestEffort, ServiceClass::kAssured};
  for (const ServiceClass c : classes) burst.push_back(w.make(c, 1500));
  for (const Packet& p : burst) w.net.node(w.a).originate(p);
  w.sim.run();
  ASSERT_EQ(w.arrivals.size(), burst.size());
  EXPECT_EQ(w.arrivals, standalone_drr_order(burst, true));
  // The burst tells the two apart: skipping the first dequeue, as a
  // pass-through would, changes the order.
  EXPECT_NE(standalone_drr_order(burst, true), standalone_drr_order(burst, false));
}

TEST(NetHopLink, ZeroCapacityQueueStillDrops) {
  sim::Simulator sim;
  Network net(sim);
  const NodeId a = net.add_node(1);
  const NodeId b = net.add_node(1);
  net.connect(a, b, 10e6, sim::Duration::millis(1), QueueKind::kDropTail, 0);
  net.connect(a, b, 10e6, sim::Duration::millis(1), QueueKind::kPriority, 0);
  Packet p;
  p.dst = addr(1, 2, 1);
  EXPECT_FALSE(net.link(0).transmit_from(a, Packet(p)));
  EXPECT_FALSE(net.link(1).transmit_from(a, Packet(p)));
  sim.run();
  EXPECT_EQ(net.counters().dropped_queue.value(), 2);
  EXPECT_EQ(net.link(0).queue_drops() + net.link(1).queue_drops(), 2u);
  EXPECT_EQ(net.packets_on_wire(), 0);
}

struct ShardRun {
  std::int64_t delivered = 0;
  std::int64_t on_wire = 0;
  double latency_total_s = 0;
};

/// Probes from worker events across two ASes, each link idle when a probe
/// reaches it: every hop passes through, and each owner's wire pool lane
/// takes the packets its own links put on the wire. `shards` = 0 runs the
/// serial backend.
ShardRun sharded_probes(std::size_t shards) {
  sim::Simulator sim(3);
  if (shards > 0) sim.set_backend(std::make_unique<sim::ShardedBackend>(sim, shards));
  Network net(sim);
  const NodeId a = net.add_node(1);
  const NodeId r = net.add_node(1);
  const NodeId b = net.add_node(2);
  net.connect(a, r, 1e8, sim::Duration::micros(50));
  net.connect(r, b, 1e8, sim::Duration::micros(500));
  const Address at_a = addr(1, 1, 1);
  const Address at_b = addr(2, 2, 1);
  net.node(a).add_address(at_a);
  net.node(b).add_address(at_b);
  net.node(a).forwarding().set_default_route(0);
  net.node(r).forwarding().set_prefix_route(prefix_of(at_a), 0);
  net.node(r).forwarding().set_prefix_route(prefix_of(at_b), 1);
  net.node(b).forwarding().set_default_route(0);
  for (int i = 0; i < 40; ++i) {
    Packet to_b;
    to_b.dst = at_b;
    sim.schedule_for(1, sim::Duration::micros(200 * (i + 1)), sim::TaskTag{"test", "probe"},
                     [&net, a, to_b] { net.node(a).originate(to_b); });
    Packet to_a;
    to_a.dst = at_a;
    sim.schedule_for(2, sim::Duration::micros(200 * (i + 1) + 70),
                     sim::TaskTag{"test", "probe"},
                     [&net, b, to_a] { net.node(b).originate(to_a); });
  }
  sim.run();
  const NetCounters& k = std::as_const(net).counters();
  return {k.delivered.value(), net.packets_on_wire(), k.delivery_latency_s.total()};
}

TEST(NetHopLink, ShardedPassThroughMatchesSerial) {
  const ShardRun serial = sharded_probes(0);
  EXPECT_EQ(serial.delivered, 80);
  EXPECT_EQ(serial.on_wire, 0);
  for (std::size_t k : {1u, 2u}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    const ShardRun r = sharded_probes(k);
    EXPECT_EQ(r.delivered, serial.delivered);
    EXPECT_EQ(r.on_wire, 0);
    EXPECT_DOUBLE_EQ(r.latency_total_s, serial.latency_total_s);
  }
}

}  // namespace
}  // namespace tussle::net
