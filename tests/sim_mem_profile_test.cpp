#include "sim/mem_profile.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/sweep.hpp"
#include "net/network.hpp"

namespace tussle {
namespace {

net::Address addr(net::AsId as, std::uint32_t sub, std::uint32_t host) {
  return net::Address{.provider = as, .subscriber = sub, .host = host};
}

/// Same chain the scale-profile golden test uses:
///   A(AS1) --1ms-- B(AS2) --2ms-- C(AS3)
struct ThreeAsChain {
  sim::Simulator sim;
  sim::ShardAuditor audit;
  sim::MemProfiler mem;
  net::Network net{sim};
  net::NodeId a, b, c;
  net::Address addr_a = addr(1, 1, 1);
  net::Address addr_b = addr(2, 1, 1);
  net::Address addr_c = addr(3, 1, 1);
  int delivered = 0;

  explicit ThreeAsChain(bool profiled = true, bool audited = true) {
    audit.set_fail_fast(false);  // attribution only, never policing
    if (audited) sim.set_auditor(&audit);
    if (profiled) sim.set_mem_profiler(&mem);
    a = net.add_node(1);
    b = net.add_node(2);
    c = net.add_node(3);
    net.connect(a, b, 10e6, sim::Duration::millis(1));
    net.connect(b, c, 10e6, sim::Duration::millis(2));
    net.node(a).add_address(addr_a);
    net.node(b).add_address(addr_b);
    net.node(c).add_address(addr_c);
    net.node(a).forwarding().set_default_route(0);
    net.node(b).forwarding().set_default_route(1);
    net.node(c).forwarding().set_default_route(0);
    net.node(c).set_local_handler([this](const net::Packet&) { ++delivered; });
  }

  net::Packet make() {
    net::Packet p;
    p.src = addr_a;
    p.dst = addr_c;
    p.proto = net::AppProto::kWeb;
    p.size_bytes = 1000;
    return p;
  }

  void send_one() {
    sim.schedule(sim::Duration::millis(1), sim::TaskTag{"test", "inject"},
                 [this] { net.node(a).originate(make()); });
    sim.run();
  }
};

std::uint64_t hist_total(const std::map<std::uint32_t, std::uint64_t>& hist) {
  std::uint64_t n = 0;
  for (const auto& [bucket, count] : hist) {
    (void)bucket;
    n += count;
  }
  return n;
}

TEST(MemProfile, GoldenThreeAsChain) {
  ThreeAsChain t;
  t.send_one();
  ASSERT_EQ(t.delivered, 1);

  EXPECT_GE(t.mem.work(), 3u);
  EXPECT_GE(t.mem.events_scheduled(), t.mem.work());
  EXPECT_EQ(t.mem.events_cancelled(), 0u);
  EXPECT_EQ(t.mem.runs(), 1u);
  EXPECT_EQ(t.mem.packets_born(), 1u);
  EXPECT_EQ(t.mem.alloc_count(), t.mem.events_scheduled() + 1);

  // The actor census: every node and link the world registered, at its
  // sizeof.
  const auto& actors = t.mem.actors();
  ASSERT_EQ(actors.count("net.node"), 1u);
  EXPECT_EQ(actors.at("net.node").count, 3u);
  EXPECT_EQ(actors.at("net.node").bytes, 3 * sizeof(net::Node));
  ASSERT_EQ(actors.count("net.link"), 1u);
  EXPECT_EQ(actors.at("net.link").count, 2u);
  EXPECT_EQ(t.mem.actor_count(), 5u);
  EXPECT_EQ(t.mem.actor_bytes(), 3 * sizeof(net::Node) + 2 * sizeof(net::Link));

  // Exactly one packet lifetime closed, by delivery, after >= 3 ms of
  // propagation (bucket b covers [2^(b-1), 2^b - 1] ns; 3 ms needs b >= 22).
  ASSERT_EQ(hist_total(t.mem.packet_delivered_hist()), 1u);
  EXPECT_EQ(hist_total(t.mem.packet_dropped_hist()), 0u);
  EXPECT_GE(t.mem.packet_delivered_hist().begin()->first, 22u);
  EXPECT_EQ(hist_total(t.mem.event_dispatched_hist()), t.mem.work());

  // Occupancy: the forwarding path sampled the FIB and the link queues.
  // Queue depth is the scale profiler's, not sampled here.
  const auto& occ = t.mem.occupancy();
  EXPECT_EQ(occ.count("net.fib"), 1u);
  EXPECT_GE(occ.at("net.fib").samples, 2u);  // a originates, b forwards
  EXPECT_EQ(occ.at("net.fib").max, 0u);      // default routes are a field, not an entry
  EXPECT_EQ(occ.count("net.link_queue"), 1u);
  EXPECT_EQ(occ.count("sim.event_queue"), 0u);

  const std::string json = t.mem.report_json();
  for (const char* key : {"\"work\"", "\"events_scheduled\"", "\"events_cancelled\"",
                          "\"packets_born\"", "\"runs\"", "\"actors\"", "\"lifetimes\"",
                          "\"containers\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
  for (const char* key : {"\"sites\"", "\"live_bytes\"", "\"locality\"", "\"shards\"",
                          "\"timeline\""}) {
    EXPECT_EQ(json.find(key), std::string::npos) << "unexpected " << key;
  }
}

TEST(MemProfile, ReportIgnoresTheAuditor) {
  // The report holds no per-shard section, so the shards the auditor sees
  // claim the events change nothing in it.
  ThreeAsChain audited(/*profiled=*/true, /*audited=*/true);
  ThreeAsChain alone(/*profiled=*/true, /*audited=*/false);
  audited.send_one();
  alone.send_one();
  ASSERT_EQ(alone.delivered, 1);
  EXPECT_EQ(alone.sim.auditor(), nullptr);
  EXPECT_EQ(audited.mem.report_json(), alone.mem.report_json());
}

TEST(MemProfile, DetachedProfilerStaysInert) {
  ThreeAsChain with(/*profiled=*/true);
  ThreeAsChain without(/*profiled=*/false);
  with.send_one();
  without.send_one();
  EXPECT_EQ(with.delivered, without.delivered);
  EXPECT_EQ(without.sim.mem_profiler(), nullptr);
  EXPECT_EQ(without.mem.work(), 0u);
  EXPECT_EQ(without.mem.runs(), 0u);
  EXPECT_EQ(without.mem.events_scheduled(), 0u);
  EXPECT_EQ(without.mem.packets_born(), 0u);
  EXPECT_TRUE(without.mem.actors().empty());
  EXPECT_TRUE(without.mem.occupancy().empty());
  // A never-attached profiler still renders a valid (empty) report.
  EXPECT_EQ(without.mem.report_json(), sim::MemProfiler{}.report_json());
}

TEST(MemProfile, CancelledEventClosesLifetimeAndFreesControlBlock) {
  sim::Simulator sim;
  sim::MemProfiler mem;
  sim.set_mem_profiler(&mem);
  bool fired = false;
  const sim::EventId id = sim.schedule_at(sim::SimTime::millis(5),
                                          sim::TaskTag{"test", "doomed"},
                                          [&fired] { fired = true; });
  sim.schedule_at(sim::SimTime::millis(2), sim::TaskTag{"test", "cancel"},
                  [&] { sim.cancel(id); });
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(mem.events_cancelled(), 1u);
  ASSERT_EQ(hist_total(mem.event_cancelled_hist()), 1u);
  // Pending 2 ms before the cancel: 2'000'000 ns lands in bucket 21.
  EXPECT_EQ(mem.event_cancelled_hist().begin()->first, 21u);
  // The other event's lifetime closed at its dispatch: every scheduled
  // event ended one way or the other.
  EXPECT_EQ(mem.work(), 1u);
  EXPECT_EQ(hist_total(mem.event_dispatched_hist()), 1u);
  EXPECT_EQ(mem.events_scheduled(), 2u);
}

TEST(MemProfile, TunneledPacketKeepsOneIdentity) {
  ThreeAsChain t;
  // a originates an encapsulated packet: outer dst = b (the tunnel
  // gateway), inner dst = c. b decapsulates and forwards the inner packet,
  // which keeps the wire uid — one identity, one lifetime, end to end.
  t.sim.schedule(sim::Duration::millis(1), sim::TaskTag{"test", "inject"}, [&t] {
    net::Packet inner = t.make();
    net::Packet outer = inner.encapsulate(t.addr_a, t.addr_b);
    t.net.node(t.a).originate(std::move(outer));
  });
  t.sim.run();
  ASSERT_EQ(t.delivered, 1);

  // One birth, one delivery close, no dangling pending identity.
  EXPECT_EQ(t.mem.packets_born(), 1u);
  EXPECT_EQ(hist_total(t.mem.packet_delivered_hist()), 1u);
  EXPECT_EQ(hist_total(t.mem.packet_dropped_hist()), 0u);
}

TEST(MemProfile, DroppedPacketClosesLifetime) {
  ThreeAsChain t;
  t.net.node(t.b).add_filter(net::PacketFilter{
      .name = "wall",
      .disclosed = true,
      .fn = [](const net::Packet&) { return net::FilterDecision::drop("policy"); }});
  t.send_one();
  ASSERT_EQ(t.delivered, 0);
  EXPECT_EQ(hist_total(t.mem.packet_delivered_hist()), 0u);
  EXPECT_EQ(hist_total(t.mem.packet_dropped_hist()), 1u);
  EXPECT_EQ(t.mem.packets_born(), 1u);
}

TEST(MemProfile, PacketRecordsNeverAnswerForTheNextWorld) {
  // Packet uids restart with each Network. One profiler watches two worlds
  // in turn: the first stops at a horizon with its packet in flight, and
  // the second's first packet has the same uid. Its lifetime must run from
  // its own birth, not from the stranded packet's.
  sim::MemProfiler mem;
  auto world = [&mem](sim::SimTime send, sim::SimTime horizon) {
    sim::Simulator sim;
    sim.set_mem_profiler(&mem);
    net::Network net(sim);
    const auto a = net.add_node(1);
    const auto b = net.add_node(2);
    // A 1000-byte packet: 8 µs on the wire, then 10 ms of propagation.
    net.connect(a, b, 1e9, sim::Duration::millis(10));
    net.node(b).add_address(addr(2, 1, 1));
    net.node(a).forwarding().set_default_route(0);
    sim.schedule_at(send, sim::TaskTag{"test", "inject"}, [&net, a] {
      net::Packet p;
      p.src = addr(1, 1, 1);
      p.dst = addr(2, 1, 1);
      p.proto = net::AppProto::kWeb;
      p.size_bytes = 1000;
      net.node(a).originate(std::move(p));
    });
    sim.run(horizon);
    return net.counters().delivered.value();
  };
  ASSERT_EQ(world(sim::SimTime::millis(5), sim::SimTime::millis(6)), 0);
  ASSERT_EQ(world(sim::SimTime::zero(), sim::SimTime::max()), 1);
  // 10.008 ms lies in bucket 24, [2^23, 2^24) ns; measured from the first
  // world's birth at 5 ms it would be 5.008 ms, bucket 23.
  ASSERT_EQ(hist_total(mem.packet_delivered_hist()), 1u);
  EXPECT_EQ(mem.packet_delivered_hist().begin()->first, 24u);
  // Both worlds' packets were born; only the second one's lifetime closed.
  EXPECT_EQ(mem.packets_born(), 2u);
}

TEST(MemProfile, MergeIsAssociative) {
  auto record = [](sim::MemProfiler& m, std::uint64_t base, std::uint64_t n) {
    const sim::TaskTag tag{"test", "ev"};
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t id = base + i;
      const auto at = sim::SimTime::millis(static_cast<std::int64_t>(i + 1));
      m.on_schedule(sim::EventId{id, 0}, sim::SimTime::zero(), at, tag, sim::kNoShard);
      const sim::ScheduleRecord rec{0, 1, sim::kNoShard};
      m.begin_event(sim::EventId{id, 0}, at, static_cast<std::size_t>(n - i), tag, &rec);
      m.register_actor("test.actor", 128);
      m.note_occupancy("test.queue", n - i);
      m.packet_birth(1, id, at);
      if (i % 2 == 0) {
        m.packet_delivered(1, id, at + sim::Duration::micros(static_cast<std::int64_t>(id)));
      }
      m.end_event(static_cast<sim::ShardId>(1 + i % 3));
    }
  };
  sim::MemProfiler a1, b1, c1, a2, b2, c2;
  record(a1, 0, 3);
  record(b1, 100, 5);
  record(c1, 200, 2);
  record(a2, 0, 3);
  record(b2, 100, 5);
  record(c2, 200, 2);

  a1.merge(b1);  // (a + b) + c
  a1.merge(c1);
  b2.merge(c2);  // a + (b + c)
  a2.merge(b2);

  EXPECT_EQ(a1.runs(), 3u);
  EXPECT_EQ(a1.report_json(), a2.report_json());
}

core::ScenarioSpec chain_spec(std::size_t replicas) {
  core::ScenarioSpec spec;
  spec.name = "mem-chain";
  spec.replicas = replicas;
  spec.body = [](core::RunContext& ctx) {
    sim::Simulator sim;
    ctx.instrument(sim);
    net::Network net(sim);
    const auto a = net.add_node(1);
    const auto b = net.add_node(2);
    const auto c = net.add_node(3);
    net.connect(a, b, 10e6, sim::Duration::millis(1));
    net.connect(b, c, 10e6, sim::Duration::millis(2));
    net.node(a).add_address(addr(1, 1, 1));
    net.node(c).add_address(addr(3, 1, 1));
    net.node(a).forwarding().set_default_route(0);
    net.node(b).forwarding().set_default_route(1);
    net.node(c).forwarding().set_default_route(0);
    int delivered = 0;
    net.node(c).set_local_handler([&delivered](const net::Packet&) { ++delivered; });
    // Replica-dependent load so runs differ and a mis-ordered merge could
    // not accidentally agree.
    const std::size_t sends = 1 + ctx.run_index() % 3;
    for (std::size_t s = 0; s < sends; ++s) {
      sim.schedule(sim::Duration::millis(static_cast<std::int64_t>(1 + s)),
                   sim::TaskTag{"test", "inject"}, [&net, a] {
                     net::Packet p;
                     p.src = addr(1, 1, 1);
                     p.dst = addr(3, 1, 1);
                     p.proto = net::AppProto::kWeb;
                     p.size_bytes = 1000;
                     net.node(a).originate(std::move(p));
                   });
    }
    ctx.add_events(sim.run());
    ctx.put("delivered", delivered);
  };
  return spec;
}

std::string merged_mem_report(std::size_t jobs) {
  core::SweepOptions opts;
  opts.base_seed = 7;
  opts.jobs = jobs;
  opts.mem = true;
  const core::SweepResult result = core::run_sweep(chain_spec(8), opts);
  sim::MemProfiler merged;
  for (const auto& r : result.runs) {
    EXPECT_NE(r.mem, nullptr);
    EXPECT_EQ(r.audit, nullptr);  // the memory profiler reads no auditor
    if (r.mem) merged.merge(*r.mem);
  }
  // A recording instance counts as one run: one per sweep run.
  EXPECT_EQ(merged.runs(), 8u);
  return merged.report_json();
}

TEST(MemProfile, MergedReportByteIdenticalAcrossJobs) {
  EXPECT_EQ(merged_mem_report(/*jobs=*/1), merged_mem_report(/*jobs=*/8));
}

/// What a sharded sweep of the chain throws, or "" when it runs.
std::string sharded_sweep_error(bool mem, bool scale) {
  core::SweepOptions opts;
  opts.jobs = 1;
  opts.shards = 2;
  opts.mem = mem;
  opts.scale = scale;
  try {
    core::run_sweep(chain_spec(2), opts);
  } catch (const std::logic_error& e) {
    return e.what();
  }
  return "";
}

TEST(MemProfile, ShardedSweepRefusesTheMemoryAndScaleProfilers) {
  // Both profilers model one global event stream (a packet born on one
  // owner dies on another; causal depth crosses owners), which per-owner
  // lanes cannot hold, so a sharded run refuses them instead of reporting
  // one run per owner lane.
  EXPECT_NE(sharded_sweep_error(/*mem=*/true, /*scale=*/false).find("serial backend only"),
            std::string::npos);
  EXPECT_NE(sharded_sweep_error(/*mem=*/false, /*scale=*/true).find("serial backend only"),
            std::string::npos);
  EXPECT_EQ(sharded_sweep_error(/*mem=*/false, /*scale=*/false), "");
}

TEST(MemProfile, SweepRegistersTimeseriesGauges) {
  core::SweepOptions opts;
  opts.mem = true;
  opts.jobs = 1;
  opts.timeseries_seconds = 0.001;
  core::ScenarioSpec spec;
  spec.name = "mem-gauges";
  spec.replicas = 1;
  spec.body = [](core::RunContext& ctx) {
    ThreeAsChain t(/*profiled=*/false);
    ctx.instrument(t.sim);  // attaches the run's MemProfiler + gauges
    ASSERT_NE(ctx.mem(), nullptr);
    ASSERT_NE(ctx.timeseries(), nullptr);
    ctx.timeseries()->attach(t.sim, sim::SimTime::millis(10));
    t.send_one();
    ctx.add_events(1);
  };
  const core::SweepResult result = core::run_sweep(spec, opts);
  ASSERT_EQ(result.runs.size(), 1u);
  ASSERT_NE(result.runs[0].mem, nullptr);
  EXPECT_GT(result.runs[0].mem->work(), 0u);
  ASSERT_NE(result.runs[0].timeseries, nullptr);
  const auto& store = result.runs[0].timeseries->store();
  EXPECT_EQ(store.find("mem.live_bytes"), nullptr);
  const sim::TimeSeries* depth = store.find("sim.queue_depth");
  ASSERT_NE(depth, nullptr);
  // Samples during the run saw the packet's events pending.
  double max_depth = 0;
  for (const double v : depth->values()) max_depth = std::max(max_depth, v);
  EXPECT_GT(max_depth, 0.0);
}

TEST(MemProfile, DashboardIsSelfContainedAndStable) {
  ThreeAsChain t;
  t.send_one();
  const std::string html = sim::mem_dashboard(t.mem, "unit & test");
  EXPECT_EQ(html, sim::mem_dashboard(t.mem, "unit & test"));  // pure function
  EXPECT_NE(html.find("<!DOCTYPE html>"), std::string::npos);
  EXPECT_NE(html.find("unit &amp; test"), std::string::npos);  // title escaped
  for (const char* section : {"packets born", "actors", "Packet lifetimes", "Event lifetimes"}) {
    EXPECT_NE(html.find(section), std::string::npos) << "missing " << section;
  }
  for (const char* section : {"Live-bytes timeline", "Allocation sites", "Locality scores",
                              "Per-shard footprint"}) {
    EXPECT_EQ(html.find(section), std::string::npos) << "unexpected " << section;
  }
  EXPECT_NE(html.find("<svg"), std::string::npos);
  EXPECT_EQ(html.find("<script"), std::string::npos);  // zero JS
}

}  // namespace
}  // namespace tussle
