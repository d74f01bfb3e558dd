// Shared experiment-binary harness.
//
// A bench declares its cases once, as core::ScenarioSpec values, and the
// harness supplies the entire command-line surface every experiment binary
// shares:
//
//   --list              print the declared cases and exit
//   --case <name>       run only the named case
//   --replicas <n>      override every case's replica count
//   --seed <s>          base seed for the run-index RNG streams (default 1)
//   --jobs <n>          worker threads for the sweep engine
//                       (default: $TUSSLE_JOBS, else hardware_concurrency)
//   --shards <k>        in-run parallel execution: run each simulator on a
//                       k-worker sharded PDES backend (sim/
//                       sharded_backend.hpp; default $TUSSLE_SHARDS, else 0
//                       = serial). Auto --jobs drops to 1 under --shards so
//                       the two parallelism axes do not multiply; --trace
//                       and the span flags force the serial backend.
//                       --heartbeat works under --shards: the coordinator
//                       reports per-window progress between barriers.
//   --json <path>       write metrics + wall time + event totals + hotspots
//                       as one JSON object (the BENCH_*.json trajectory)
//   --trace <path>      stream flow/decision trace events as JSONL
//   --trace-level <lvl> debug|info|warn|error (default info)
//   --profile           print the top-k event-loop hotspot table to stderr
//   --heartbeat <sec>   periodic progress line on instrumented simulators
//   --chrome-trace <p>  write causal spans as Chrome trace-event JSON
//                       (loadable in Perfetto / chrome://tracing)
//   --span-tree <path>  write the causal span forest as an indented text
//                       report ("-" = stdout)
//   --explain <flow>    narrate one flow's causal tree to stdout: path
//                       taken, decisions made, who was compensated
//   --timeseries <sec>  sample instrumented time series every <sec> of
//                       simulated time (default 0.02 when an export flag
//                       below is given without --timeseries)
//   --ts-csv <path>     write the merged time series as long-format CSV
//   --ts-json <path>    write the merged time series + per-series
//                       convergence/oscillation analysis as JSON
//   --dashboard <path>  write a self-contained HTML dashboard (inline SVG,
//                       no external assets or scripts)
//   --audit             run every simulator under the cross-shard access
//                       auditor (sim/shard_audit.hpp); a handler mutating
//                       another shard's state fails the bench with a
//                       causal report. TUSSLE_AUDIT=1 does the same.
//   --audit-json <p>    also write the merged shard-audit report as JSON
//                       (implies --audit)
//   --scale-profile     run every simulator under the PDES-readiness scale
//                       profiler (sim/scale_profile.hpp): per-shard load,
//                       cross-shard traffic, critical path, event-queue
//                       depth, predicted barrier-round speedup. Attaches a
//                       fail-soft auditor for shard attribution when
//                       --audit was not also given.
//   --scale-json <p>    write the merged scale report as JSON (implies
//                       --scale-profile); byte-identical at any --jobs
//   --scale-dashboard <p>  write the scale report as a self-contained HTML
//                       dashboard (implies --scale-profile)
//   --exec-profile      run every simulator under the execution profiler
//                       (sim/exec_profile.hpp): wall-clock barrier-window
//                       and per-worker dispatch/drain/barrier timings,
//                       outbox volumes, measured-vs-predicted speedup.
//                       Wall-clock data — NOT byte-identical across runs.
//   --exec-json <p>     write the exec report (with its validation block)
//                       as JSON (implies --exec-profile)
//   --exec-trace <p>    write worker wall-time tracks as Chrome trace-event
//                       JSON, loadable in Perfetto (implies --exec-profile)
//   --exec-dashboard <p>  write the exec report as a self-contained HTML
//                       dashboard (implies --exec-profile)
//   --mem-profile       run every simulator under the memory profiler
//                       (sim/mem_profile.hpp): per-component allocation
//                       sites and live bytes, object lifetimes in sim
//                       time, pointer-chase/locality scores, per-shard
//                       footprint. Sim-deterministic units only, so the
//                       report is byte-identical at any --jobs/--shards.
//                       Attaches a fail-soft auditor for footprint
//                       attribution when --audit was not also given.
//   --mem-json <p>      write the merged memory report as JSON (implies
//                       --mem-profile); byte-identical at any --jobs
//   --mem-dashboard <p> write the memory report as a self-contained HTML
//                       dashboard (implies --mem-profile)
//
// Determinism contract: metric output is bit-identical for a given
// (--seed, --replicas) at any --jobs, because each run draws from
// sim::Rng::stream(seed, run_index) and results merge in run-index order
// (see core/sweep.hpp). Likewise at any --shards k >= 1: all per-owner
// state (queues, RNG streams, counter lanes) is keyed by owner and merged
// in owner order, never by worker. Sharded (k >= 1) and serial (k = 0)
// runs use different event interleavings and id namespaces, so their
// outputs are each internally stable but not comparable to each other. --trace and --heartbeat force --jobs 1: both write
// to shared sinks mid-run. --profile, the span flags, and the time-series
// flags do not — each run profiles/records into its own
// LoopProfiler/SpanTracer/TimeSeriesRecorder and the harness merges them
// in run order, so those exports too are --jobs-independent.
#pragma once

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/sweep.hpp"
#include "parallel_options.hpp"
#include "sim/metric_registry.hpp"
#include "sim/profiler.hpp"
#include "sim/shard_audit.hpp"
#include "sim/trace.hpp"

namespace tussle::bench {

/// The experiment banner, unchanged from core::print_experiment_header.
struct Experiment {
  std::string id;
  std::string section;
  std::string claim;
};

class Harness {
 public:
  using Render = std::function<void(const core::SweepResult&)>;

  /// Declares one case and — unless --list is active or --case selects a
  /// different one — runs it through the sweep engine with the harness's
  /// seed/replicas/jobs, publishes per-point aggregates into metrics() as
  /// gauges named "<case>[.<params>].<key>[.<stat>]", then hands the full
  /// result to `render` for table/prose output. Returns the result (empty
  /// when the case was skipped).
  core::SweepResult scenario(const core::ScenarioSpec& spec, const Render& render = nullptr);

  /// Scenario metrics destined for the JSON report. scenario() fills this
  /// automatically; benches may add extra gauges of their own.
  sim::MetricRegistry& metrics() noexcept { return metrics_; }

  /// The merged event-loop profile across every profiled run.
  sim::LoopProfiler& profiler() noexcept { return profiler_; }

  /// The merged causal-span archive (runs folded in run-index order);
  /// empty unless a span flag was given. Scenario bodies opt in by wiring
  /// ctx.spans() into the components they build.
  sim::SpanTracer& spans() noexcept { return spans_; }
  /// True when --chrome-trace/--span-tree/--explain asked for spans.
  bool spans_requested() const noexcept { return spans_requested_; }

  /// The merged time-series store: every run's recorder folded in
  /// run-index order under "<case>[.<params>][.r<replica>]." prefixes;
  /// empty unless a time-series flag was given. Scenario bodies opt in via
  /// ctx.timeseries().
  sim::TimeSeriesStore& timeseries() noexcept { return timeseries_; }
  /// True when --timeseries/--ts-csv/--ts-json/--dashboard was given.
  bool timeseries_requested() const noexcept { return timeseries_seconds_ > 0; }

  /// The merged shard-audit across every audited run (run-index order);
  /// empty unless --audit / TUSSLE_AUDIT was given. Scenario bodies opt in
  /// by calling ctx.instrument(sim) — the same call that wires the
  /// profiler — and by handing ctx.audit() to shared components.
  sim::ShardAuditor& audit() noexcept { return audit_; }
  /// True when --audit/--audit-json or TUSSLE_AUDIT=1 asked for auditing.
  bool audit_requested() const noexcept { return audit_requested_; }

  /// The merged scale profile across every profiled run (run-index order);
  /// empty unless a --scale flag was given. Like the auditor, scenario
  /// bodies opt in via ctx.instrument(sim).
  sim::ScaleProfiler& scale() noexcept { return scale_; }
  /// True when --scale-profile/--scale-json/--scale-dashboard was given.
  bool scale_requested() const noexcept { return scale_requested_; }

  /// The merged execution (wall-clock) profile across every profiled run
  /// (run-index order); empty unless an --exec flag was given. Scenario
  /// bodies opt in via ctx.instrument(sim). Exec reports are exempt from
  /// the byte-identity contract — the harness writes them to their own
  /// files, never into the .metrics object.
  sim::ExecProfiler& exec() noexcept { return exec_; }
  /// True when --exec-profile/--exec-json/--exec-trace/--exec-dashboard
  /// was given.
  bool exec_requested() const noexcept { return exec_requested_; }

  /// The merged memory profile across every profiled run (run-index
  /// order); empty unless a --mem flag was given. Scenario bodies opt in
  /// via ctx.instrument(sim). Sim-deterministic throughout, so the merged
  /// report is byte-identical at any --jobs and --shards.
  sim::MemProfiler& mem() noexcept { return mem_; }
  /// True when --mem-profile/--mem-json/--mem-dashboard was given.
  bool mem_requested() const noexcept { return mem_requested_; }

  /// Adds to the run's total simulated-event count for engines that run
  /// outside the sweep bodies (sweep runs report via ctx.add_events()).
  void add_events(std::size_t n) noexcept { extra_events_ += n; }

  bool json_requested() const noexcept { return !json_path_.empty(); }
  bool list_requested() const noexcept { return list_; }

  std::uint64_t seed() const noexcept { return parallel_.seed; }
  std::size_t jobs() const noexcept { return parallel_.jobs; }
  /// Requested in-run shard count (0 = serial backend). Serial-only sinks
  /// (--trace/span flags) override it per scenario; --heartbeat does not.
  std::size_t shards() const noexcept { return parallel_.shards; }

 private:
  friend int run(int argc, char** argv, const Experiment& exp,
                 const std::function<void(Harness&)>& body);

  struct Case {
    std::string name;
    std::string description;
  };

  sim::MetricRegistry metrics_;
  sim::LoopProfiler profiler_;
  sim::SpanTracer spans_;
  sim::TimeSeriesStore timeseries_;
  sim::ShardAuditor audit_;
  sim::ScaleProfiler scale_;
  sim::ExecProfiler exec_;
  sim::MemProfiler mem_;
  double timeseries_seconds_ = 0;  ///< 0 = no recorders
  bool spans_requested_ = false;
  bool audit_requested_ = false;
  bool scale_requested_ = false;
  bool exec_requested_ = false;
  bool mem_requested_ = false;
  std::vector<Case> cases_;
  std::size_t extra_events_ = 0;
  std::size_t sweep_events_ = 0;
  bool profile_to_stderr_ = false;
  bool serial_required_ = false;  ///< --trace/--heartbeat share global sinks (forces --jobs 1)
  bool shards_blocked_ = false;   ///< --trace/span flags need the serial backend
  double heartbeat_seconds_ = 0;
  std::string json_path_;
  bool list_ = false;
  std::string case_filter_;
  bool case_matched_ = false;
  /// Resolved seed/jobs/replicas/shards (flag > env > default); see
  /// bench/parallel_options.hpp for the ladder and the jobs-x-shards rule.
  ParallelOptions parallel_;
};

/// Parses flags, prints the banner, runs `body` (which declares cases via
/// Harness::scenario), then emits whatever machine-readable output was
/// requested. Returns the process exit code: 0 on success, 1 when the
/// shard audit found a violation, 2 on bad flags or an output file that
/// cannot be written.
int run(int argc, char** argv, const Experiment& exp,
        const std::function<void(Harness&)>& body);

}  // namespace tussle::bench
