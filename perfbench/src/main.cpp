// perfbench: the measuring program behind perfbench/run.py.
//
//   perfbench        --workload W --seed N --seconds S
//   perfbench_traced --workload W --seed N --seconds S --trace
//   perfbench_traced --self-test
//
// The untraced run repeats identical rounds of the workload for S seconds
// and prints the end-to-end metrics over those rounds. The traced run
// prints the per-layer metrics. Either prints one JSON object as its last
// line of standard output; run.py turns it into the benchmark's result.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "alloc.hpp"
#include "sim/exec_profile.hpp"
#include "sim/mem_profile.hpp"
#include "sim/profiler.hpp"
#include "sim/scale_profile.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The seed the expected digests below were recorded at.
constexpr std::uint64_t kDefaultSeed = 1;

/// Replicas per round, and the digest of a round's simulated outcomes at
/// kDefaultSeed. A change that only speeds the engine up must leave these
/// digests as they are. capture-observed simulates the first two capture
/// replicas, so its digest is that of a two-replica capture round.
struct Plan {
  std::size_t replicas;
  std::uint64_t expected_digest;
};

Plan plan_for(Workload w) {
  switch (w) {
    case Workload::kCapture: return {8, 0x109934f860727c5bULL};
    case Workload::kAimdMiddlebox: return {4, 0x5eb886250e123496ULL};
    case Workload::kCaptureObserved: return {2, 0x5c730073a64fe5f9ULL};
  }
  return {1, 0};
}

/// Capture replicas behind the observe.* and sharded.* passes of a traced run.
constexpr std::size_t kSideReplicas = 4;
/// Sharded passes per traced run.
constexpr int kShardedPasses = 5;

// --- statistics -------------------------------------------------------------

/// The p-quantile of `v`, interpolating linearly between order statistics.
double quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double k = p * static_cast<double>(v.size() - 1);
  const auto i = static_cast<std::size_t>(k);
  const std::size_t j = std::min(i + 1, v.size() - 1);
  return v[i] + (v[j] - v[i]) * (k - static_cast<double>(i));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// (Q3 - Q1) / median, with quartiles as Python's
/// statistics.quantiles(v, n=4) computes them (the "exclusive" method).
double quartile_spread(std::vector<double> v) {
  if (v.size() < 2) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() + 1;
  auto q = [&](std::size_t i) {
    const std::size_t j = std::clamp<std::size_t>(i * m / 4, 1, v.size() - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (v[j - 1] * (4 - delta) + v[j] * delta) / 4;
  };
  const double mid = median(v);
  return mid != 0 ? (q(3) - q(1)) / mid : 0;
}

// --- results ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct Outcome {
  std::uint64_t attempted = 0;  ///< worlds run
  std::uint64_t failed = 0;     ///< worlds that threw or failed a check
  std::uint64_t digest = 0;     ///< of the workload's first round
  std::size_t rounds = 0;
  std::vector<Metric> metrics;
};

void print_result(const Outcome& o) {
  std::printf("{\"digest\": \"%016" PRIx64 "\", \"rounds\": %zu, \"correct\": %s, "
              "\"attempted\": %" PRIu64 ", \"failed\": %" PRIu64 ", \"metrics\": {",
              o.digest, o.rounds, o.failed == 0 ? "true" : "false", o.attempted, o.failed);
  for (std::size_t i = 0; i < o.metrics.size(); ++i) {
    const Metric& m = o.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m.name.c_str(), m.value, m.unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// Median of each metric over rounds, in first-round order.
std::vector<Metric> medians(const std::vector<std::vector<Metric>>& per_round) {
  std::vector<Metric> out;
  if (per_round.empty()) return out;
  for (std::size_t i = 0; i < per_round[0].size(); ++i) {
    std::vector<double> v;
    for (const auto& round : per_round) v.push_back(round[i].value);
    out.push_back({per_round[0][i].name, median(v), per_round[0][i].unit});
  }
  return out;
}

/// Checks a finished round and tallies it into `o`. A world fails on its
/// own checks, when its outcome differs from the reference world at the
/// same index, and — all worlds of the round at once — when the round's
/// digest differs from the expected one.
void tally_round(const RoundResult& rr, const std::vector<WorldResult>* reference,
                 std::optional<std::uint64_t> expected, Outcome& o) {
  const std::uint64_t d = digest(rr.worlds);
  const bool digest_ok = !expected || *expected == d;
  for (std::size_t i = 0; i < rr.worlds.size(); ++i) {
    const WorldResult& w = rr.worlds[i];
    bool ok = w.error.empty() && digest_ok;
    if (reference != nullptr && (i >= reference->size() || !same_outcome(w, (*reference)[i]))) {
      ok = false;
    }
    if (!w.error.empty()) std::fprintf(stderr, "perfbench: world %zu failed: %s\n", i, w.error.c_str());
    o.attempted += 1;
    o.failed += ok ? 0 : 1;
  }
  if (!digest_ok) {
    std::fprintf(stderr, "perfbench: digest %016" PRIx64 " differs from expected %016" PRIx64 "\n",
                 d, *expected);
  }
}

struct Totals {
  std::uint64_t originated = 0, events = 0, pending = 0, drops = 0;
  std::uint64_t segments = 0, retransmissions = 0;
  double setup_s = 0, run_s = 0, teardown_s = 0;
};

Totals totals(const std::vector<WorldResult>& worlds) {
  Totals t;
  for (const WorldResult& w : worlds) {
    t.originated += w.originated;
    t.events += w.events;
    t.pending += w.initial_pending;
    t.drops += w.dropped_queue + w.dropped_filter;
    t.segments += w.segments;
    t.retransmissions += w.retransmissions;
    t.setup_s += w.setup_s;
    t.run_s += w.run_s;
    t.teardown_s += w.teardown_s;
  }
  return t;
}

double ratio(double a, double b) { return b != 0 ? a / b : 0; }

/// Peak resident set of this process image, in KiB. VmHWM, unlike
/// getrusage's ru_maxrss, does not carry over the peak of the process that
/// forked this one before exec.
double peak_rss_kb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kb = std::strtod(line + 6, nullptr);
  }
  std::fclose(f);
  return kb;
}

core::SweepOptions base_options(Workload w) {
  return w == Workload::kCaptureObserved ? observed_options() : core::SweepOptions{};
}

/// The reference outcome capture-observed is checked against: the bare
/// capture worlds of the same seed.
std::vector<WorldResult> capture_reference(std::uint64_t seed, std::size_t replicas,
                                           Outcome& o, std::optional<std::uint64_t> expected) {
  RoundResult ref = run_round(Workload::kCapture, seed, replicas);
  tally_round(ref, nullptr, expected, o);
  return std::move(ref.worlds);
}

// --- untraced run: the end-to-end metrics ----------------------------------

Outcome run_untraced(Workload w, std::uint64_t seed, double seconds) {
  const Plan plan = plan_for(w);
  const std::optional<std::uint64_t> expected =
      seed == kDefaultSeed ? std::optional<std::uint64_t>(plan.expected_digest) : std::nullopt;
  Outcome o;
  std::vector<WorldResult> reference;
  if (w == Workload::kCaptureObserved) reference = capture_reference(seed, plan.replicas, o, expected);
  const core::SweepOptions opts = base_options(w);

  // One untimed warm-up round fills caches and the allocator's free lists;
  // every later round must reproduce its outcome exactly.
  RoundResult warm = run_round(w, seed, plan.replicas, opts);
  tally_round(warm, reference.empty() ? nullptr : &reference, expected, o);
  if (reference.empty()) reference = warm.worlds;
  o.digest = digest(warm.worlds);

  // Throughput and round time are the slow-side 90th percentile over rounds:
  // the rate nine rounds in ten reach, the time nine rounds in ten stay
  // under. The shared machines this runs on change speed in regimes lasting
  // tens of seconds; over ten runs this statistic varied about half as much
  // as the median or the mean round did (see README.md). Set-up time is the
  // median round's.
  std::vector<double> rate, wall, setup;
  const auto start = Clock::now();
  while (wall.size() < 3 || seconds_since(start) < seconds) {
    const auto t0 = Clock::now();
    RoundResult rr = run_round(w, seed, plan.replicas, opts);
    tally_round(rr, &reference, expected, o);
    wall.push_back(seconds_since(t0));
    const Totals t = totals(rr.worlds);
    rate.push_back(ratio(static_cast<double>(t.originated), t.run_s));
    setup.push_back(t.setup_s);
  }
  o.rounds = wall.size();
  o.metrics = {
      {"packets_per_s", quantile(rate, 0.1), "1/s"},
      {"wall_s", quantile(wall, 0.9), "s"},
      {"setup_s", median(setup), "s"},
      {"peak_rss_mb", peak_rss_kb() / 1024, "MB"},
      // The traced run's overhead is measured against the median round.
      {"round_wall_median_s", median(wall), "s"},
  };
  return o;
}

// --- traced run: the per-layer metrics -------------------------------------

/// (events, wall seconds) of one LoopProfiler cell.
std::pair<double, double> cell(const sim::LoopProfiler& prof, const char* component,
                               const char* kind) {
  for (const auto& h : prof.hotspots(1000)) {
    if (h.component == component && h.kind == kind) {
      return {static_cast<double>(h.events), h.wall_seconds};
    }
  }
  return {0, 0};
}

double ns_per(std::pair<double, double> c) { return c.first > 0 ? c.second / c.first * 1e9 : 0; }

sim::LoopProfiler merged_profile(const RoundResult& rr) {
  sim::LoopProfiler p;
  for (const auto& run : rr.sweep.runs) {
    if (run.profiler) p.merge(*run.profiler);
  }
  return p;
}

/// One traced round of `w`: every layer timer on, the LoopProfiler attached.
struct TracedRound {
  RoundResult rr;
  LayerTrace layers;
  sim::LoopProfiler prof;
  double wall_s = 0;
};

TracedRound traced_round(Workload w, std::uint64_t seed, std::size_t replicas) {
  TracedRound t;
  core::SweepOptions opts = base_options(w);
  opts.profile = true;
  const auto t0 = Clock::now();
  t.rr = run_round(w, seed, replicas, opts, &t.layers);
  t.wall_s = seconds_since(t0);
  t.prof = merged_profile(t.rr);
  return t;
}

/// Per-layer metrics of one traced round of the run's own workload.
std::vector<Metric> layer_metrics(const TracedRound& t) {
  const Totals s = totals(t.rr.worlds);
  const LayerTrace& l = t.layers;
  const double worlds = static_cast<double>(t.rr.worlds.size());
  const double packets = static_cast<double>(s.originated);
  const double events = static_cast<double>(s.events);
  const double attributed = t.prof.total_wall_seconds();
  return {
      {"routing.compute_s", l.compute_s, "s"},
      {"routing.rounds", static_cast<double>(l.routing_rounds), "count"},
      {"net.build_s", l.build_s, "s"},
      {"sim.schedule_s", l.schedule_s, "s"},
      {"sim.initial_pending", ratio(static_cast<double>(s.pending), worlds), "events"},
      {"sim.run_s", s.run_s, "s"},
      {"sim.events", events, "count"},
      {"sim.events_per_packet", ratio(events, packets), "ratio"},
      {"sim.ns_per_event", ratio(s.run_s, events) * 1e9, "ns"},
      {"sim.loop_ns_per_event", ratio(s.run_s - attributed, events) * 1e9, "ns"},
      {"trace.unattributed_share", ratio(s.run_s - attributed, s.run_s), "ratio"},
      {"net.originate_ns", ns_per(cell(t.prof, "perfbench.capture", "probe")), "ns"},
      {"net.serialize_ns", ns_per(cell(t.prof, "net.link", "serialize")), "ns"},
      {"net.propagate_ns", ns_per(cell(t.prof, "net.link", "propagate")), "ns"},
      {"net.filter_ns", ratio(l.filter_s, static_cast<double>(l.filter_calls)) * 1e9, "ns"},
      {"net.filter_calls", static_cast<double>(l.filter_calls), "count"},
      {"net.drop_share", ratio(static_cast<double>(s.drops), packets), "ratio"},
      {"apps.dispatch_ns", ratio(l.dispatch_s, static_cast<double>(l.dispatch_calls)) * 1e9,
       "ns"},
      {"apps.timer_events", cell(t.prof, "(untagged)", "(untagged)").first, "count"},
      {"apps.retransmit_share",
       ratio(static_cast<double>(s.retransmissions),
             static_cast<double>(s.segments + s.retransmissions)),
       "ratio"},
      {"alloc.setup_per_world", ratio(static_cast<double>(l.setup_allocs), worlds), "count"},
      {"alloc.run_per_packet", ratio(static_cast<double>(l.run_allocs), packets), "count"},
      {"alloc.run_bytes_per_packet", ratio(static_cast<double>(l.run_alloc_bytes), packets), "B"},
      {"alloc.run_per_event", ratio(static_cast<double>(l.run_allocs), events), "count"},
      {"sweep.overhead_s", t.rr.sweep_s - t.rr.body_s, "s"},
      {"sweep.teardown_s", s.teardown_s, "s"},
      {"trace.wall_s", t.wall_s, "s"},
  };
}

/// Probe events run only in capture worlds, filters and the app mux only in
/// aimd-middlebox worlds. So that every traced run reports each per-call
/// time as measured, the ones the run's own worlds skip are taken from one
/// traced replica of the other family.
void fill_skipped_layers(Workload w, std::uint64_t seed, std::vector<Metric>& metrics,
                         Outcome& o) {
  const bool aimd = w == Workload::kAimdMiddlebox;
  const TracedRound t = traced_round(aimd ? Workload::kCapture : Workload::kAimdMiddlebox, seed, 1);
  tally_round(t.rr, nullptr, std::nullopt, o);
  const std::vector<Metric> other = layer_metrics(t);
  for (Metric& m : metrics) {
    const bool skipped = aimd ? m.name == "net.originate_ns"
                              : m.name == "net.filter_ns" || m.name == "apps.dispatch_ns";
    if (!skipped) continue;
    for (const Metric& x : other) {
      if (x.name == m.name) m.value = x.value;
    }
  }
}

/// observe.* and sharded.*: side passes over kSideReplicas capture
/// replicas. observe.* divides sim.run_s with each observer attached by
/// sim.run_s of the same worlds bare. The sharded passes run the worlds on
/// ShardedBackend with two workers and the ExecProfiler; their delivered
/// and captured totals must equal the serial ones world by world. The
/// predicted speedup comes from the serial ScaleProfiler pass: attached
/// under the sharded backend, the profiler folds one lane per owner and
/// predicts 1.0 at every k.
std::vector<Metric> side_metrics(std::uint64_t seed, Outcome& o) {
  const RoundResult bare = run_round(Workload::kCapture, seed, kSideReplicas);
  tally_round(bare, nullptr, std::nullopt, o);
  const double bare_run_s = totals(bare.worlds).run_s;
  auto observed = [&](const core::SweepOptions& opts) {
    RoundResult rr = run_round(Workload::kCapture, seed, kSideReplicas, opts);
    tally_round(rr, &bare.worlds, std::nullopt, o);
    return rr;
  };
  core::SweepOptions audit, scale, mem;
  audit.audit = true;
  scale.scale = true;
  mem.mem = true;
  const RoundResult all = observed(observed_options());
  const RoundResult a = observed(audit);
  const RoundResult s = observed(scale);
  const RoundResult m = observed(mem);
  sim::ScaleProfiler model;
  for (const auto& run : s.sweep.runs) {
    if (run.scale) model.merge(*run.scale);
  }
  std::uint64_t model_allocs = 0, model_events = 0;
  for (const auto& run : m.sweep.runs) {
    if (run.mem) {
      model_allocs += run.mem->alloc_count();
      model_events += run.mem->work();
    }
  }

  std::vector<double> sharded_run_s;
  double windows = 0, events = 0;
  sim::ExecProfiler exec;
  for (int pass = 0; pass < kShardedPasses; ++pass) {
    core::SweepOptions opts;
    opts.shards = 2;
    opts.exec = true;
    RoundResult rr = run_round(Workload::kCapture, seed, kSideReplicas, opts);
    for (std::size_t i = 0; i < rr.worlds.size(); ++i) {
      WorldResult& w = rr.worlds[i];
      const WorldResult& ref = bare.worlds[i];
      if (w.error.empty() && (w.delivered != ref.delivered || w.to_victim != ref.to_victim ||
                              w.to_attacker != ref.to_attacker)) {
        w.error = "sharded outcome differs from serial";
      }
      windows += static_cast<double>(w.windows);
    }
    tally_round(rr, nullptr, std::nullopt, o);
    const Totals t = totals(rr.worlds);
    sharded_run_s.push_back(t.run_s);
    events += static_cast<double>(t.events);
    for (const auto& run : rr.sweep.runs) {
      if (run.exec) exec.merge(*run.exec);
    }
  }
  return {
      {"observe.overhead_x", ratio(totals(all.worlds).run_s, bare_run_s), "x"},
      {"observe.audit_x", ratio(totals(a.worlds).run_s, bare_run_s), "x"},
      {"observe.scale_x", ratio(totals(s.worlds).run_s, bare_run_s), "x"},
      {"observe.mem_x", ratio(totals(m.worlds).run_s, bare_run_s), "x"},
      {"observe.mem_model_allocs_per_event",
       ratio(static_cast<double>(model_allocs), static_cast<double>(model_events)), "count"},
      {"sharded.windows", windows / kShardedPasses, "count"},
      {"sharded.events_per_window", ratio(events, windows), "count"},
      {"sharded.barrier_share", exec.validate().barrier_overhead_fraction, "ratio"},
      {"sharded.speedup", ratio(bare_run_s, median(sharded_run_s)), "x"},
      {"sharded.predicted_speedup", model.speedup_at(2), "x"},
      {"sharded.run_s_spread", quartile_spread(sharded_run_s), "ratio"},
  };
}

Outcome run_traced(Workload w, std::uint64_t seed, double seconds) {
  const Plan plan = plan_for(w);
  const std::optional<std::uint64_t> expected =
      seed == kDefaultSeed ? std::optional<std::uint64_t>(plan.expected_digest) : std::nullopt;
  Outcome o;
  std::vector<WorldResult> reference;
  if (w == Workload::kCaptureObserved) reference = capture_reference(seed, plan.replicas, o, expected);

  // Traced rounds of the workload itself for about half the budget; the
  // side passes below have a fixed size.
  const auto start = Clock::now();
  std::vector<std::vector<Metric>> per_round;
  while (per_round.empty() || seconds_since(start) < seconds / 2) {
    const TracedRound t = traced_round(w, seed, plan.replicas);
    tally_round(t.rr, reference.empty() ? nullptr : &reference, expected, o);
    if (reference.empty()) reference = t.rr.worlds;
    if (per_round.empty()) o.digest = digest(t.rr.worlds);
    per_round.push_back(layer_metrics(t));
  }
  o.rounds = per_round.size();
  o.metrics = medians(per_round);
  fill_skipped_layers(w, seed, o.metrics, o);
  for (Metric& m : side_metrics(seed, o)) o.metrics.push_back(std::move(m));
  o.metrics.push_back(
      {"failed_share", ratio(static_cast<double>(o.failed), static_cast<double>(o.attempted)),
       "ratio"});
  return o;
}

// --- self-test ---------------------------------------------------------------

int self_test() {
  int failures = 0;
  auto expect = [&failures](bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++failures;
  };
  auto clean = [](const RoundResult& rr) {
    return std::all_of(rr.worlds.begin(), rr.worlds.end(),
                       [](const WorldResult& w) { return w.error.empty(); });
  };
  auto counts = [](const RoundResult& rr) {
    std::vector<std::uint64_t> v;
    for (const WorldResult& w : rr.worlds) {
      v.push_back(w.events);
      v.push_back(w.initial_pending);
    }
    return v;
  };
  constexpr std::uint64_t kSeed = 7;
  const RoundResult capture = run_round(Workload::kCapture, kSeed, 1);
  for (const Workload w :
       {Workload::kCapture, Workload::kAimdMiddlebox, Workload::kCaptureObserved}) {
    const std::string n = workload_name(w);
    const core::SweepOptions opts = base_options(w);
    const RoundResult a = run_round(w, kSeed, 1, opts);
    const RoundResult b = run_round(w, kSeed, 1, opts);
    const RoundResult c = run_round(w, kSeed + 1, 1, opts);
    const TracedRound t = traced_round(w, kSeed, 1);
    expect(clean(a) && clean(b) && clean(c) && clean(t.rr), n + ": every output check passes");
    expect(digest(a.worlds) == digest(b.worlds) && counts(a) == counts(b),
           n + ": one seed gives one digest and the same exact counts");
    expect(digest(a.worlds) != digest(c.worlds), n + ": another seed changes the digest");
    expect(digest(t.rr.worlds) == digest(a.worlds) && counts(t.rr) == counts(a),
           n + ": the traced digest equals the untraced one");
    if (w == Workload::kCaptureObserved) {
      expect(digest(a.worlds) == digest(capture.worlds),
             n + ": outcomes equal capture's for the same seed");
    }
  }
  core::SweepOptions sharded;
  sharded.shards = 2;
  const RoundResult s = run_round(Workload::kCapture, kSeed, 1, sharded);
  expect(clean(s) && digest(s.worlds) == digest(capture.worlds),
         "capture: the sharded backend reproduces the serial outcome");
  std::printf("%s\n", failures == 0 ? "self-test passed" : "self-test FAILED");
  return failures == 0 ? 0 : 1;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload capture|aimd-middlebox|capture-observed"
               " [--seed N] [--seconds S] [--trace]\n       perfbench --self-test\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::optional<Workload> workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--self-test") {
      return self_test();
    } else if (a == "--trace") {
      trace = true;
    } else if (a == "--workload" && has_value) {
      workload = parse_workload(argv[++i]);
      if (!workload) return usage("unknown workload");
    } else if (a == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
      if (!(seconds > 0)) return usage("--seconds must be positive");
    } else {
      return usage(("bad argument " + a).c_str());
    }
  }
  if (!workload) return usage("--workload is required");
  if (trace && !alloc_counting()) return usage("--trace needs the perfbench_traced binary");
  const Outcome o = trace ? run_traced(*workload, seed, seconds)
                          : run_untraced(*workload, seed, seconds);
  print_result(o);
  return 0;
}
