// The sweep engine's determinism contract: bit-identical output at any
// --jobs, run-index RNG streams, grid enumeration, replica edge cases, and
// the scenario registry.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <optional>
#include <set>
#include <stdexcept>

#include "core/sweep.hpp"
#include "sim/metric_registry.hpp"
#include "sim/random.hpp"

namespace tussle::core {
namespace {

TEST(ParamPoint, SetGetLabel) {
  ParamPoint p;
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.label(), "");
  p.set("rate", 0.25);
  p.set("mode", 2);
  EXPECT_DOUBLE_EQ(p.get("rate"), 0.25);
  EXPECT_DOUBLE_EQ(p.get("absent", 7.0), 7.0);
  EXPECT_TRUE(p.has("mode"));
  EXPECT_FALSE(p.has("absent"));
  EXPECT_THROW(p.get("absent"), std::out_of_range);
  EXPECT_EQ(p.label(), "rate=0.25,mode=2");
}

TEST(ParamGrid, EnumeratesCartesianProductFirstAxisSlowest) {
  ParamGrid g;
  g.axis("a", {1, 2}).axis("b", {10, 20, 30});
  EXPECT_EQ(g.axis_count(), 2u);
  EXPECT_EQ(g.point_count(), 6u);
  auto pts = g.points();
  ASSERT_EQ(pts.size(), 6u);
  EXPECT_DOUBLE_EQ(pts[0].get("a"), 1);
  EXPECT_DOUBLE_EQ(pts[0].get("b"), 10);
  EXPECT_DOUBLE_EQ(pts[1].get("b"), 20);
  EXPECT_DOUBLE_EQ(pts[2].get("b"), 30);
  EXPECT_DOUBLE_EQ(pts[3].get("a"), 2);
  EXPECT_DOUBLE_EQ(pts[3].get("b"), 10);
  EXPECT_DOUBLE_EQ(pts[5].get("a"), 2);
  EXPECT_DOUBLE_EQ(pts[5].get("b"), 30);
}

TEST(ParamGrid, EmptyGridYieldsOneEmptyPoint) {
  ParamGrid g;
  EXPECT_EQ(g.point_count(), 1u);
  auto pts = g.points();
  ASSERT_EQ(pts.size(), 1u);
  EXPECT_TRUE(pts[0].empty());
}

TEST(ParamGrid, RejectsDuplicateAndEmptyAxes) {
  ParamGrid g;
  g.axis("a", {1});
  EXPECT_THROW(g.axis("a", {2}), std::invalid_argument);
  EXPECT_THROW(g.axis("b", {}), std::invalid_argument);
}

TEST(RngStream, DeterministicAndIndexSensitive) {
  sim::Rng a = sim::Rng::stream(42, 7);
  sim::Rng b = sim::Rng::stream(42, 7);
  EXPECT_EQ(a.next_u64(), b.next_u64());
  EXPECT_EQ(a.next_u64(), b.next_u64());
  sim::Rng c = sim::Rng::stream(42, 8);
  sim::Rng d = sim::Rng::stream(43, 7);
  sim::Rng e = sim::Rng::stream(42, 7);
  const auto first = e.next_u64();
  EXPECT_NE(c.next_u64(), first);
  EXPECT_NE(d.next_u64(), first);
}

TEST(RngStream, AdjacentStreamsAreUncorrelated) {
  // Crude independence check: correlation of uniform draws from adjacent
  // stream indices should be near zero.
  const int n = 4096;
  sim::Rng a = sim::Rng::stream(1, 0);
  sim::Rng b = sim::Rng::stream(1, 1);
  double sa = 0, sb = 0, sab = 0, saa = 0, sbb = 0;
  for (int i = 0; i < n; ++i) {
    const double x = a.uniform();
    const double y = b.uniform();
    sa += x;
    sb += y;
    sab += x * y;
    saa += x * x;
    sbb += y * y;
  }
  const double cov = sab / n - (sa / n) * (sb / n);
  const double var_a = saa / n - (sa / n) * (sa / n);
  const double var_b = sbb / n - (sb / n) * (sb / n);
  const double corr = cov / std::sqrt(var_a * var_b);
  EXPECT_LT(std::fabs(corr), 0.05);
}

ScenarioSpec noisy_spec() {
  ScenarioSpec spec;
  spec.name = "noisy";
  spec.grid.axis("scale", {1, 2, 3});
  spec.replicas = 5;
  spec.body = [](RunContext& ctx) {
    double acc = 0;
    for (int i = 0; i < 1000; ++i) acc += ctx.rng().uniform();
    ctx.put("sum", acc * ctx.param("scale"));
    ctx.put("replica", static_cast<double>(ctx.replica()));
    ctx.note("run " + std::to_string(ctx.run_index()));
    ctx.add_events(3);
  };
  return spec;
}

/// Publishes a sweep's per-point aggregates the way the bench harness does
/// and renders the snapshot to JSON.
std::string metrics_json(const SweepResult& res) {
  sim::MetricRegistry reg;
  for (std::size_t p = 0; p < res.points.size(); ++p) {
    std::string prefix = res.name;
    const std::string label = res.points[p].label();
    if (!label.empty()) prefix += "." + label;
    const sim::MetricSet agg = res.aggregate(p);
    for (const auto& [key, value] : agg.items()) {
      reg.gauge(prefix + "." + key, value);
    }
  }
  return reg.snapshot().to_json();
}

TEST(RunSweep, BitIdenticalAcrossJobCounts) {
  const ScenarioSpec spec = noisy_spec();
  SweepOptions serial;
  serial.base_seed = 17;
  serial.jobs = 1;
  SweepOptions wide = serial;
  wide.jobs = 8;

  const SweepResult r1 = run_sweep(spec, serial);
  const SweepResult r8 = run_sweep(spec, wide);
  ASSERT_EQ(r1.runs.size(), 15u);
  ASSERT_EQ(r8.runs.size(), 15u);
  // Byte-for-byte identical metric reports, not just numerically close.
  EXPECT_EQ(metrics_json(r1), metrics_json(r8));
  for (std::size_t i = 0; i < r1.runs.size(); ++i) {
    EXPECT_EQ(r1.runs[i].run_index, i);
    EXPECT_EQ(r1.runs[i].run_index, r8.runs[i].run_index);
    EXPECT_DOUBLE_EQ(r1.runs[i].metrics.get("sum"), r8.runs[i].metrics.get("sum"));
    EXPECT_EQ(r1.runs[i].notes, r8.runs[i].notes);
  }
  EXPECT_EQ(r1.total_events(), 45u);
  EXPECT_EQ(r8.total_events(), 45u);
}

TEST(RunSweep, MoreJobsThanRunsIsFine) {
  ScenarioSpec spec = noisy_spec();
  spec.replicas = 1;
  SweepOptions opts;
  opts.jobs = 32;
  auto res = run_sweep(spec, opts);
  EXPECT_EQ(res.runs.size(), 3u);
  EXPECT_EQ(res.replicas, 1u);
}

TEST(RunSweep, ZeroReplicasYieldsNoRuns) {
  ScenarioSpec spec = noisy_spec();
  spec.replicas = 0;
  auto res = run_sweep(spec);
  EXPECT_TRUE(res.runs.empty());
  EXPECT_EQ(res.total_events(), 0u);
  EXPECT_TRUE(res.aggregate().items().empty());
}

TEST(RunSweep, SingleReplicaKeysPassThrough) {
  ScenarioSpec spec;
  spec.name = "single";
  spec.body = [](RunContext& ctx) { ctx.put("v", 2.5); };
  auto res = run_sweep(spec);
  ASSERT_EQ(res.runs.size(), 1u);
  const auto agg = res.aggregate(0);
  EXPECT_DOUBLE_EQ(agg.get("v"), 2.5);
  EXPECT_FALSE(agg.contains("v.mean"));
}

TEST(RunSweep, ReplicasExceedingJobsAggregateAllStats) {
  ScenarioSpec spec;
  spec.name = "agg";
  spec.replicas = 7;
  spec.body = [](RunContext& ctx) {
    ctx.put("x", static_cast<double>(ctx.replica()));
  };
  SweepOptions opts;
  opts.jobs = 4;
  auto res = run_sweep(spec, opts);
  ASSERT_EQ(res.runs.size(), 7u);
  const auto agg = res.aggregate(0);
  EXPECT_DOUBLE_EQ(agg.get("x.mean"), 3.0);
  EXPECT_DOUBLE_EQ(agg.get("x.min"), 0.0);
  EXPECT_DOUBLE_EQ(agg.get("x.max"), 6.0);
  EXPECT_DOUBLE_EQ(agg.get("x.p50"), 3.0);
  EXPECT_GT(agg.get("x.stddev"), 0.0);
}

TEST(RunSweep, ReplicasOptionOverridesSpec) {
  ScenarioSpec spec = noisy_spec();
  SweepOptions opts;
  opts.replicas = 2;
  opts.jobs = 2;
  auto res = run_sweep(spec, opts);
  EXPECT_EQ(res.replicas, 2u);
  EXPECT_EQ(res.runs.size(), 6u);
}

TEST(RunSweep, BaseSeedChangesOutput) {
  const ScenarioSpec spec = noisy_spec();
  SweepOptions a;
  a.base_seed = 1;
  SweepOptions b;
  b.base_seed = 2;
  EXPECT_NE(run_sweep(spec, a).mean(0, "sum"), run_sweep(spec, b).mean(0, "sum"));
}

TEST(RunSweep, BodyExceptionsPropagate) {
  ScenarioSpec spec;
  spec.name = "boom";
  spec.replicas = 4;
  spec.body = [](RunContext& ctx) {
    if (ctx.replica() == 2) throw std::runtime_error("body failed");
    ctx.put("ok", 1);
  };
  SweepOptions opts;
  opts.jobs = 4;
  EXPECT_THROW(run_sweep(spec, opts), std::runtime_error);
  opts.jobs = 1;
  EXPECT_THROW(run_sweep(spec, opts), std::runtime_error);
}

TEST(RunSweep, MissingBodyThrows) {
  ScenarioSpec spec;
  spec.name = "nobody";
  EXPECT_THROW(run_sweep(spec), std::invalid_argument);
}

TEST(RunSweep, MeanFallsBackForAbsentKeys) {
  ScenarioSpec spec;
  spec.name = "fallback";
  spec.body = [](RunContext& ctx) { ctx.put("present", 1.0); };
  auto res = run_sweep(spec);
  EXPECT_DOUBLE_EQ(res.mean(0, "present"), 1.0);
  EXPECT_DOUBLE_EQ(res.mean(0, "absent", -3.0), -3.0);
}

TEST(ResolveJobs, HonorsEnvAndFloor) {
  ::unsetenv("TUSSLE_JOBS");
  EXPECT_EQ(resolve_jobs(5), 5u);
  EXPECT_GE(resolve_jobs(0), 1u);
  ::setenv("TUSSLE_JOBS", "3", 1);
  EXPECT_EQ(resolve_jobs(0), 3u);
  EXPECT_EQ(resolve_jobs(2), 2u);  // explicit request beats the env
  ::unsetenv("TUSSLE_JOBS");
}

TEST(ResolveJobs, NegativeOrSuffixedEnvIsNotConfigured) {
  ::unsetenv("TUSSLE_JOBS");
  const std::size_t automatic = resolve_jobs(0);
  for (const char* bad : {"-1", "2x", " 2", "+2", "", "0"}) {
    ::setenv("TUSSLE_JOBS", bad, 1);
    EXPECT_FALSE(env_count("TUSSLE_JOBS").has_value()) << "'" << bad << "'";
    EXPECT_EQ(resolve_jobs(0), automatic) << "'" << bad << "'";
  }
  ::setenv("TUSSLE_JOBS", "18446744073709551616", 1);  // 2^64: out of range
  EXPECT_FALSE(env_count("TUSSLE_JOBS").has_value());
  ::setenv("TUSSLE_JOBS", "7", 1);
  EXPECT_EQ(env_count("TUSSLE_JOBS"), std::optional<std::uint64_t>(7));
  ::unsetenv("TUSSLE_JOBS");
}

TEST(ScenarioRegistry, AddFindAndDuplicates) {
  ScenarioRegistry reg;
  ScenarioSpec a;
  a.name = "alpha";
  a.body = [](RunContext&) {};
  reg.add(a);
  ScenarioSpec b;
  b.name = "beta";
  b.body = [](RunContext&) {};
  reg.add(b);
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_NE(reg.find("alpha"), nullptr);
  EXPECT_EQ(reg.find("gamma"), nullptr);
  EXPECT_EQ(reg.names(), (std::vector<std::string>{"alpha", "beta"}));
  EXPECT_THROW(reg.add(a), std::invalid_argument);
  ScenarioSpec unnamed;
  unnamed.body = [](RunContext&) {};
  EXPECT_THROW(reg.add(unnamed), std::invalid_argument);
}

}  // namespace
}  // namespace tussle::core
