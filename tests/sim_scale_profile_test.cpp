#include "sim/scale_profile.hpp"

#include <gtest/gtest.h>

#include "core/sweep.hpp"
#include "net/network.hpp"

namespace tussle {
namespace {

net::Address addr(net::AsId as, std::uint32_t sub, std::uint32_t host) {
  return net::Address{.provider = as, .subscriber = sub, .host = host};
}

/// Three nodes in three ASes on a chain with distinct link latencies — the
/// smallest topology whose lookahead distribution has more than one entry:
///   A(AS1) --1ms-- B(AS2) --2ms-- C(AS3)
struct ThreeAsChain {
  sim::Simulator sim;
  sim::ShardAuditor audit;
  sim::ScaleProfiler scale;
  net::Network net{sim};
  net::NodeId a, b, c;
  net::Address addr_a = addr(1, 1, 1);
  net::Address addr_c = addr(3, 1, 1);
  int delivered = 0;

  explicit ThreeAsChain(bool profiled = true) {
    audit.set_fail_fast(false);  // attribution only, never policing
    sim.set_auditor(&audit);
    if (profiled) sim.set_scale_profiler(&scale);
    a = net.add_node(1);
    b = net.add_node(2);
    c = net.add_node(3);
    net.connect(a, b, 10e6, sim::Duration::millis(1));
    net.connect(b, c, 10e6, sim::Duration::millis(2));
    net.node(a).add_address(addr_a);
    net.node(c).add_address(addr_c);
    // a -> b on its only interface; b -> c on the b--c interface (index 1).
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

TEST(ScaleProfile, GoldenThreeAsChain) {
  ThreeAsChain t;
  t.send_one();
  ASSERT_EQ(t.delivered, 1);

  // Work and causality: the inject event plus at least one hop event per
  // link, chained — so the critical path spans at least three events and
  // the DAG is deeper than it is wide.
  EXPECT_GE(t.scale.work(), 3u);
  EXPECT_GE(t.scale.events_scheduled(), t.scale.work());
  EXPECT_EQ(t.scale.events_cancelled(), 0u);
  EXPECT_GE(t.scale.critical_path_length(), 3u);
  EXPECT_EQ(t.scale.span_total(), t.scale.critical_path_length());  // one run
  EXPECT_EQ(t.scale.runs(), 1u);

  // All three shards dispatched something, and the packet crossed both
  // shard boundaries.
  const auto& shards = t.scale.shard_events();
  EXPECT_TRUE(shards.count(1) == 1 && shards.at(1) > 0);
  EXPECT_TRUE(shards.count(2) == 1 && shards.at(2) > 0);
  EXPECT_TRUE(shards.count(3) == 1 && shards.at(3) > 0);
  EXPECT_GE(t.scale.cross_shard_events(), 2u);

  // Static lookahead registry: exactly the two cross-AS links, min latency
  // each, and the barrier window is the global minimum (1 ms).
  const auto& links = t.scale.lookahead_links();
  ASSERT_EQ(links.size(), 2u);
  EXPECT_EQ(links.at({1u, 2u}), 1'000'000);
  EXPECT_EQ(links.at({2u, 3u}), 2'000'000);
  EXPECT_EQ(t.scale.window_ns(), 1'000'000);

  // The traffic matrix records the boundary crossings with a scheduling
  // delay at least the link's propagation latency.
  const auto& tm = t.scale.traffic();
  ASSERT_EQ(tm.count({1u, 2u}), 1u);
  ASSERT_EQ(tm.count({2u, 3u}), 1u);
  EXPECT_GE(tm.at({1u, 2u}).min_delay_ns, 1'000'000);
  EXPECT_GE(tm.at({2u, 3u}).min_delay_ns, 2'000'000);

  // Queue stats sampled once per dispatch.
  const auto q = t.scale.queue_stats();
  EXPECT_EQ(q.samples, t.scale.work());

  // The JSON report carries every top-level section.
  const std::string json = t.scale.report_json();
  for (const char* key :
       {"\"work\"", "\"critical_path\"", "\"depth_profile\"", "\"shards\"",
        "\"imbalance\"", "\"shard_load\"", "\"traffic_matrix\"", "\"cross_shard_events\"",
        "\"lookahead\"", "\"queue\"", "\"speedup\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
  EXPECT_NE(json.find("\"model\":\"barrier-window-lpt\""), std::string::npos);
}

TEST(ScaleProfile, SpeedupCurveHitsExactBounds) {
  // Eight independent events, one per shard, all in one barrier window:
  // work = 8, span = 1, so k = 1 must predict exactly 1.0, k = 2 exactly
  // 2.0 (LPT packs 4 + 4), and k >= 8 (and the infinity entry) exactly the
  // work/span bound of 8.
  sim::ScaleProfiler sp;
  const sim::TaskTag tag{"test", "unit"};
  for (std::uint64_t i = 1; i <= 8; ++i) {
    sp.on_schedule(i, sim::SimTime::zero(), sim::SimTime::zero(), tag, sim::kNoShard);
  }
  for (std::uint64_t i = 1; i <= 8; ++i) {
    sp.begin_event(i, sim::SimTime::zero(), 8 - i, tag);
    sp.end_event(static_cast<sim::ShardId>(i));
  }
  EXPECT_EQ(sp.work(), 8u);
  EXPECT_EQ(sp.critical_path_length(), 1u);
  EXPECT_DOUBLE_EQ(sp.work_span_ratio(), 8.0);
  EXPECT_DOUBLE_EQ(sp.speedup_at(1), 1.0);
  EXPECT_DOUBLE_EQ(sp.speedup_at(2), 2.0);
  EXPECT_DOUBLE_EQ(sp.speedup_at(8), 8.0);
  EXPECT_DOUBLE_EQ(sp.speedup_at(0), 8.0);  // k = 0 stands for infinity

  const auto curve = sp.speedup_curve();
  ASSERT_FALSE(curve.empty());
  EXPECT_EQ(curve.front().first, 1u);
  EXPECT_DOUBLE_EQ(curve.front().second, 1.0);
  EXPECT_EQ(curve.back().first, 0u);
  EXPECT_DOUBLE_EQ(curve.back().second, 8.0);
  for (const auto& [k, s] : curve) {
    (void)k;
    EXPECT_LE(s, 8.0 + 1e-9);
    EXPECT_GE(s, 1.0 - 1e-9);
  }
  EXPECT_DOUBLE_EQ(sp.imbalance_ratio(), 1.0);  // perfectly balanced
}

TEST(ScaleProfile, SerialChainCapsSpeedupAtOne) {
  // A pure causal chain on one shard: work = span = 4, so every k predicts
  // exactly 1.0 — no amount of hardware parallelizes a chain.
  sim::ScaleProfiler sp;
  const sim::TaskTag tag{"test", "chain"};
  sp.on_schedule(1, sim::SimTime::zero(), sim::SimTime::zero(), tag, sim::kNoShard);
  for (std::uint64_t i = 1; i <= 4; ++i) {
    const auto now = sim::SimTime::nanos(static_cast<std::int64_t>(i));
    sp.begin_event(i, now, 1, tag);
    if (i < 4) sp.on_schedule(i + 1, now, now, tag, 1u);  // child of the running event
    sp.end_event(1u);
  }
  EXPECT_EQ(sp.work(), 4u);
  EXPECT_EQ(sp.critical_path_length(), 4u);
  EXPECT_DOUBLE_EQ(sp.work_span_ratio(), 1.0);
  for (const auto& [k, s] : sp.speedup_curve()) {
    (void)k;
    EXPECT_DOUBLE_EQ(s, 1.0);
  }
}

TEST(ScaleProfile, QueueDepthHistogramBucketsPowersOfTwo) {
  sim::ScaleProfiler sp;
  const sim::TaskTag tag{"test", "queue"};
  const std::size_t depths[] = {0, 1, 2, 4, 8};
  std::uint64_t id = 0;
  for (const std::size_t d : depths) {
    ++id;
    sp.on_schedule(id, sim::SimTime::zero(), sim::SimTime::zero(), tag, sim::kNoShard);
    sp.begin_event(id, sim::SimTime::zero(), d, tag);
    sp.end_event(sim::kNoShard);
  }
  const auto q = sp.queue_stats();
  EXPECT_EQ(q.samples, 5u);
  EXPECT_EQ(q.max_depth, 8u);
  EXPECT_DOUBLE_EQ(q.mean_depth, 3.0);
  // bucket = bit_width(depth): 0->0, 1->1, 2->2, 4->3, 8->4.
  ASSERT_EQ(q.histogram.size(), 5u);
  for (const std::uint32_t b : {0u, 1u, 2u, 3u, 4u}) {
    ASSERT_EQ(q.histogram.count(b), 1u) << "bucket " << b;
    EXPECT_EQ(q.histogram.at(b), 1u) << "bucket " << b;
  }
}

TEST(ScaleProfile, CancelledEventsNeverReachTheCriticalPath) {
  sim::Simulator sim;
  sim::ScaleProfiler sp;
  sim.set_scale_profiler(&sp);
  int fired = 0;
  sim.schedule(sim::Duration::millis(1), sim::TaskTag{"test", "keep"}, [&] { ++fired; });
  const sim::EventId doomed =
      sim.schedule(sim::Duration::millis(2), sim::TaskTag{"test", "doomed"}, [&] { ++fired; });
  EXPECT_TRUE(sim.cancel(doomed));
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sp.events_scheduled(), 2u);
  EXPECT_EQ(sp.events_cancelled(), 1u);
  EXPECT_EQ(sp.work(), 1u);
  EXPECT_EQ(sp.critical_path_length(), 1u);
}

TEST(ScaleProfile, DetachedProfilerChangesNothing) {
  // The same scenario with and without the profiler delivers the same
  // packet count — attaching the pass is observationally inert.
  ThreeAsChain with(/*profiled=*/true);
  ThreeAsChain without(/*profiled=*/false);
  with.send_one();
  without.send_one();
  EXPECT_EQ(with.delivered, without.delivered);
  EXPECT_EQ(without.sim.scale_profiler(), nullptr);
  EXPECT_EQ(without.scale.work(), 0u);
  EXPECT_EQ(without.scale.runs(), 0u);
  EXPECT_TRUE(without.scale.speedup_curve().empty());
}

TEST(ScaleProfile, MergePoolsRunsAssociatively) {
  // Three single-run profiles with different spans and loads: merging
  // ((A+B)+C) and (A+(B+C)) must produce byte-identical reports, and the
  // pooled quantities are sums/maxima over the finalized runs.
  auto record = [](std::uint64_t events, sim::ShardId shard, std::int64_t t0_ns) {
    sim::ScaleProfiler sp;
    const sim::TaskTag tag{"test", "merge"};
    sp.on_schedule(1, sim::SimTime::nanos(t0_ns), sim::SimTime::nanos(t0_ns), tag,
                   sim::kNoShard);
    for (std::uint64_t i = 1; i <= events; ++i) {
      const auto now = sim::SimTime::nanos(t0_ns + static_cast<std::int64_t>(i));
      sp.begin_event(i, now, events - i, tag);
      if (i < events) sp.on_schedule(i + 1, now, now, tag, shard);  // causal child
      sp.end_event(shard);
    }
    return sp;
  };
  const sim::ScaleProfiler a = record(2, 1u, 0);
  const sim::ScaleProfiler b = record(3, 2u, 1000);
  const sim::ScaleProfiler c = record(5, 3u, 2000);

  sim::ScaleProfiler left = a;   // (A+B)+C
  left.merge(b);
  left.merge(c);
  sim::ScaleProfiler bc = b;     // A+(B+C)
  bc.merge(c);
  sim::ScaleProfiler right = a;
  right.merge(bc);

  EXPECT_EQ(left.report_json(), right.report_json());
  EXPECT_EQ(left.runs(), 3u);
  EXPECT_EQ(left.work(), 10u);
  EXPECT_EQ(left.critical_path_length(), 5u);   // max over runs
  EXPECT_EQ(left.span_total(), 10u);            // sum over runs
  // Chains cannot speed up, and pooling respects that: Σwork / Σcost = 1.
  EXPECT_DOUBLE_EQ(left.speedup_at(8), 1.0);
}

TEST(ScaleProfile, SweepReportsAreByteIdenticalAcrossJobs) {
  // The harness contract end to end: a replicated sweep profiled at
  // --jobs 1 and --jobs 8 merges to byte-identical scale reports, because
  // per-run profilers fold in run-index order whatever the schedule was.
  auto sweep_report = [](std::size_t jobs) {
    core::ScenarioSpec spec;
    spec.name = "scale-determinism";
    spec.replicas = 6;
    spec.body = [](core::RunContext& ctx) {
      ThreeAsChain t(/*profiled=*/false);
      ctx.instrument(t.sim);
      // Vary per-run content so a mis-ordered merge cannot accidentally agree.
      const auto packets = 1 + ctx.run_index() % 3;
      for (std::size_t p = 0; p < packets; ++p) {
        t.sim.schedule(sim::Duration::millis(1 + p), sim::TaskTag{"test", "inject"},
                       [&t] { t.net.node(t.a).originate(t.make()); });
      }
      ctx.add_events(t.sim.run());
      ctx.put("delivered", static_cast<double>(t.delivered));
    };
    core::SweepOptions opts;
    opts.base_seed = 7;
    opts.jobs = jobs;
    opts.scale = true;
    const core::SweepResult res = core::run_sweep(spec, opts);
    sim::ScaleProfiler merged;
    for (const auto& r : res.runs) {
      EXPECT_NE(r.scale, nullptr);
      EXPECT_NE(r.audit, nullptr);  // fail-soft auditor auto-attached
      if (r.scale) merged.merge(*r.scale);
    }
    EXPECT_EQ(merged.runs(), 6u);
    return merged.report_json();
  };
  const std::string serial = sweep_report(1);
  const std::string parallel = sweep_report(8);
  EXPECT_EQ(serial, parallel);
}

TEST(ScaleProfile, DashboardIsSelfContainedAndStable) {
  ThreeAsChain t;
  t.send_one();
  const std::string html = sim::scale_dashboard(t.scale, "unit & test");
  EXPECT_EQ(html, sim::scale_dashboard(t.scale, "unit & test"));  // pure function
  EXPECT_NE(html.find("<!DOCTYPE html>"), std::string::npos);
  EXPECT_NE(html.find("unit &amp; test"), std::string::npos);  // title escaped
  for (const char* section : {"Shard load heatmap", "Cross-shard traffic matrix",
                              "Predicted PDES speedup", "Event-queue depth"}) {
    EXPECT_NE(html.find(section), std::string::npos) << "missing " << section;
  }
  EXPECT_NE(html.find("<svg"), std::string::npos);
  EXPECT_EQ(html.find("<script"), std::string::npos);  // zero JS
}

}  // namespace
}  // namespace tussle
