// Shared experiment-binary harness. A bench declares its cases once, as
// core::ScenarioSpec values, and bench::run supplies the command-line
// surface every experiment binary shares. Each option is one row of
// kOptions in harness.cpp, which parses argv and prints the usage text;
// EXPERIMENTS.md ("Running experiments: the sweep flags") documents every
// option, the environment variables and the exit codes.
//
// Determinism contract: metric output is bit-identical for a given
// (--seed, --replicas) at any --jobs, because each run draws from
// sim::Rng::stream(seed, run_index) and results merge in run-index order
// (see core/sweep.hpp); likewise at any --shards k >= 1, whose per-owner
// state merges in owner order. Sharded and serial runs interleave events
// differently, so their outputs are each stable but not comparable.
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

/// The parsed command line (harness.cpp).
struct Flags;

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

 private:
  friend int run(int argc, char** argv, const Experiment& exp,
                 const std::function<void(Harness&)>& body);

  struct Case {
    std::string name;
    std::string description;
  };

  Harness(const Flags& flags, const ParallelOptions& parallel)
      : flags_(flags), parallel_(parallel) {}

  const Flags& flags_;
  /// Resolved seed/jobs/replicas/shards (flag > env > default); see
  /// bench/parallel_options.hpp for the ladder and the jobs-x-shards rule.
  ParallelOptions parallel_;
  sim::MetricRegistry metrics_;
  sim::LoopProfiler profiler_;
  sim::SpanTracer spans_;
  sim::TimeSeriesStore timeseries_;
  sim::ShardAuditor audit_;
  sim::ScaleProfiler scale_;
  sim::ExecProfiler exec_;
  sim::MemProfiler mem_;
  std::vector<Case> cases_;
  std::size_t sweep_events_ = 0;
  bool case_matched_ = false;
};

/// Parses flags, prints the banner, runs `body` (which declares cases via
/// Harness::scenario), then emits whatever machine-readable output was
/// requested. Returns the process exit code: 0 on success, 1 when the
/// shard audit found a violation, 2 on bad flags or an output file that
/// cannot be written.
int run(int argc, char** argv, const Experiment& exp,
        const std::function<void(Harness&)>& body);

}  // namespace tussle::bench
