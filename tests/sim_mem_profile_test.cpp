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

  explicit ThreeAsChain(bool profiled = true) {
    audit.set_fail_fast(false);  // attribution only, never policing
    sim.set_auditor(&audit);
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

  // Actor registration is the live-bytes floor: nodes and links allocate
  // once and stay resident.
  const auto& actors = t.mem.actors();
  ASSERT_EQ(actors.count("net.node"), 1u);
  EXPECT_EQ(actors.at("net.node").count, 3u);
  EXPECT_EQ(actors.at("net.node").bytes, 3 * sizeof(net::Node));
  ASSERT_EQ(actors.count("net.link"), 1u);
  EXPECT_EQ(actors.at("net.link").count, 2u);
  EXPECT_EQ(t.mem.actor_count(), 5u);
  EXPECT_EQ(t.mem.actor_bytes(), 3 * sizeof(net::Node) + 2 * sizeof(net::Link));

  // Allocation sites: the injected packet was born and freed at delivery
  // (live 0), default routes install no FIB entries, and every scheduled
  // event control block was allocated and every dispatched one freed.
  const auto& sites = t.mem.sites();
  ASSERT_EQ(sites.count("net.packet"), 1u);
  EXPECT_EQ(sites.at("net.packet").allocs, 1u);
  EXPECT_EQ(sites.at("net.packet").frees, 1u);
  EXPECT_EQ(sites.at("net.packet").live(), 0);
  EXPECT_EQ(sites.count("net.fib_entry"), 0u);  // default routes are a field, not an entry
  std::uint64_t event_allocs = 0, event_frees = 0;
  for (const auto& [site, stats] : sites) {
    if (site.rfind("sim.event/", 0) == 0) {
      event_allocs += stats.allocs;
      event_frees += stats.frees;
    }
  }
  EXPECT_EQ(event_allocs, t.mem.events_scheduled());
  EXPECT_EQ(event_frees, t.mem.work());

  // With every transient freed, steady live == the actor floor; the peak
  // saw the in-flight packet and event control blocks on top of it.
  EXPECT_EQ(t.mem.live_bytes(), static_cast<std::int64_t>(t.mem.actor_bytes()));
  EXPECT_GT(t.mem.peak_live_bytes(), t.mem.live_bytes());
  EXPECT_GT(t.mem.live_bytes_per_actor(), 0.0);
  EXPECT_GT(t.mem.allocs_per_event(), 0.0);

  // Exactly one packet lifetime closed, by delivery, after >= 3 ms of
  // propagation (bucket b covers [2^(b-1), 2^b - 1] ns; 3 ms needs b >= 22).
  ASSERT_EQ(hist_total(t.mem.packet_delivered_hist()), 1u);
  EXPECT_EQ(hist_total(t.mem.packet_dropped_hist()), 0u);
  EXPECT_GE(t.mem.packet_delivered_hist().begin()->first, 22u);
  EXPECT_EQ(hist_total(t.mem.event_dispatched_hist()), t.mem.work());

  // Locality: every dispatch chased the base queue indirections, and the
  // forwarding path reported FIB hops and container occupancies.
  const auto& chases = t.mem.chases();
  ASSERT_EQ(chases.count("sim.dispatch"), 1u);
  EXPECT_EQ(chases.at("sim.dispatch").calls, t.mem.work());
  EXPECT_EQ(chases.at("sim.dispatch").hops, t.mem.work() * sim::kDispatchChaseHops);
  ASSERT_EQ(chases.count("net.forward"), 1u);
  EXPECT_GE(chases.at("net.forward").calls, 2u);  // a originates, b forwards
  const auto& occ = t.mem.occupancy();
  ASSERT_EQ(occ.count("sim.event_queue"), 1u);
  EXPECT_EQ(occ.at("sim.event_queue").samples, t.mem.work());
  EXPECT_EQ(occ.count("net.fib"), 1u);
  EXPECT_EQ(occ.count("net.link_queue"), 1u);
  const auto scores = t.mem.locality_scores();
  ASSERT_FALSE(scores.empty());
  bool saw_net_forward = false;
  for (const auto& s : scores) {
    EXPECT_GE(s.score, 0.0);
    if (s.component == "net.forward") saw_net_forward = true;
  }
  EXPECT_TRUE(saw_net_forward);
  EXPECT_EQ(hist_total(t.mem.hops_per_dispatch_hist()), t.mem.work());

  // All three owner shards dispatched, so the footprint attribution
  // covers them.
  const auto& shards = t.mem.shard_mem();
  EXPECT_EQ(shards.count(1), 1u);
  EXPECT_EQ(shards.count(2), 1u);
  EXPECT_EQ(shards.count(3), 1u);

  EXPECT_FALSE(t.mem.timeline().empty());

  const std::string json = t.mem.report_json();
  for (const char* key : {"\"work\"", "\"live_bytes\"", "\"sites\"", "\"actors\"",
                          "\"lifetimes\"", "\"locality\"", "\"chase-churn-v1\"",
                          "\"shards\"", "\"timeline\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
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
  EXPECT_EQ(without.mem.live_bytes(), 0);
  EXPECT_TRUE(without.mem.sites().empty());
  EXPECT_TRUE(without.mem.actors().empty());
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
  // Both the cancelled and the dispatched control blocks were freed.
  for (const auto& [site, stats] : mem.sites()) {
    if (site.rfind("sim.event/", 0) == 0) {
      EXPECT_EQ(stats.live(), 0) << site;
    }
  }
  EXPECT_EQ(mem.live_bytes(), 0);
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
  const auto& sites = t.mem.sites();
  ASSERT_EQ(sites.count("net.packet"), 1u);
  EXPECT_EQ(sites.at("net.packet").allocs, 1u);
  EXPECT_EQ(sites.at("net.packet").frees, 1u);
  EXPECT_EQ(hist_total(t.mem.packet_delivered_hist()), 1u);
  EXPECT_EQ(hist_total(t.mem.packet_dropped_hist()), 0u);
  // The decapsulation itself is transient churn, freed within the event.
  ASSERT_EQ(sites.count("net.packet.decap"), 1u);
  EXPECT_EQ(sites.at("net.packet.decap").allocs, 1u);
  EXPECT_EQ(sites.at("net.packet.decap").live(), 0);
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
  ASSERT_EQ(t.mem.sites().count("net.packet"), 1u);
  EXPECT_EQ(t.mem.sites().at("net.packet").live(), 0);
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
  EXPECT_EQ(mem.sites().at("net.packet").frees, 1u);
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
      m.count_alloc("test.obj", 128);
      m.note_hops("test.chase", 2);
      if (i % 2 == 0) m.count_free("test.obj", 128);
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
    EXPECT_NE(r.audit, nullptr);  // fail-soft auditor auto-attached
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
  const sim::TimeSeries* live = store.find("mem.live_bytes");
  const sim::TimeSeries* depth = store.find("sim.queue_depth");
  ASSERT_NE(live, nullptr);
  ASSERT_NE(depth, nullptr);
  // Samples during the run saw the modeled footprint above zero.
  double max_live = 0;
  for (const double v : live->values()) max_live = std::max(max_live, v);
  EXPECT_GT(max_live, 0.0);
}

TEST(MemProfile, DashboardIsSelfContainedAndStable) {
  ThreeAsChain t;
  t.send_one();
  const std::string html = sim::mem_dashboard(t.mem, "unit & test");
  EXPECT_EQ(html, sim::mem_dashboard(t.mem, "unit & test"));  // pure function
  EXPECT_NE(html.find("<!DOCTYPE html>"), std::string::npos);
  EXPECT_NE(html.find("unit &amp; test"), std::string::npos);  // title escaped
  for (const char* section : {"Live-bytes timeline", "Allocation sites",
                              "Packet lifetimes", "Event lifetimes",
                              "Locality scores (chase-churn-v1)", "Per-shard footprint"}) {
    EXPECT_NE(html.find(section), std::string::npos) << "missing " << section;
  }
  EXPECT_NE(html.find("<svg"), std::string::npos);
  EXPECT_EQ(html.find("<script"), std::string::npos);  // zero JS
}

}  // namespace
}  // namespace tussle
