// The parallel deterministic sweep engine.
//
// Experiments here are embarrassingly parallel — a scenario body evaluated
// over a parameter grid × replica count — but they must stay bit-exact:
// the same spec and seed must produce the same numbers whether the sweep
// runs on 1 thread or 64. The engine guarantees that by construction:
//
//   * every run's randomness comes from sim::Rng::stream(base_seed,
//     run_index) — a pure function of the run's position in the sweep,
//     never of which worker executes it;
//   * every run writes into its own sim::MetricSet (and note list), so
//     workers share nothing;
//   * results are merged in run-index order after all workers join, so
//     aggregation sees a schedule-independent sequence.
//
// Benches declare a ScenarioSpec once (name, grid, replicas, body taking a
// RunContext) and the shared bench harness gives every experiment binary
// --list/--case/--replicas/--seed/--jobs for free.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/exec_profile.hpp"
#include "sim/mem_profile.hpp"
#include "sim/profiler.hpp"
#include "sim/random.hpp"
#include "sim/scale_profile.hpp"
#include "sim/shard_audit.hpp"
#include "sim/span.hpp"
#include "sim/stats.hpp"
#include "sim/timeseries.hpp"

namespace tussle::sim {
class Simulator;
}  // namespace tussle::sim

namespace tussle::core {

/// One assignment of values to the grid's axes: an ordered list of
/// (axis-name, value) pairs. Axis order matches declaration order.
class ParamPoint {
 public:
  void set(std::string name, double value);
  double get(const std::string& name) const;  ///< throws std::out_of_range
  double get(const std::string& name, double fallback) const noexcept;
  bool has(const std::string& name) const noexcept;
  bool empty() const noexcept { return values_.empty(); }
  const std::vector<std::pair<std::string, double>>& items() const noexcept { return values_; }

  /// "rate=0.25,mode=2" (axes in declaration order); "" for the empty point.
  /// Values use the tooling's round-trip number format, so labels are
  /// stable across platforms.
  std::string label() const;

 private:
  std::vector<std::pair<std::string, double>> values_;
};

/// A cartesian product of named axes. The first-declared axis varies
/// slowest in points(); a grid with no axes yields exactly one empty point,
/// so "no parameters" and "one parameter set" need no special casing.
class ParamGrid {
 public:
  /// Declares an axis; returns *this so axes chain. Throws
  /// std::invalid_argument on a duplicate name or an empty value list.
  ParamGrid& axis(std::string name, std::vector<double> values);

  std::size_t axis_count() const noexcept { return axes_.size(); }
  std::size_t point_count() const noexcept;
  std::vector<ParamPoint> points() const;

 private:
  std::vector<std::pair<std::string, std::vector<double>>> axes_;
};

struct ScenarioSpec;
struct SweepOptions;
struct SweepResult;
SweepResult run_sweep(const ScenarioSpec& spec, const SweepOptions& opts);

/// One completed run, in its final resting place inside a SweepResult.
struct RunResult {
  std::size_t run_index = 0;
  std::size_t point_index = 0;
  std::size_t replica = 0;
  sim::MetricSet metrics;
  std::vector<std::string> notes;
  std::size_t events = 0;
  /// Per-run profile; empty unless SweepOptions::profile was set and the
  /// body called ctx.instrument(). unique_ptr keeps RunResult movable.
  std::unique_ptr<sim::LoopProfiler> profiler;
  /// Per-run causal spans; null unless SweepOptions::spans was set.
  std::unique_ptr<sim::SpanTracer> spans;
  /// Per-run time series; null unless SweepOptions::timeseries_seconds > 0.
  std::unique_ptr<sim::TimeSeriesRecorder> timeseries;
  /// Per-run shard audit; null unless SweepOptions::audit or ::scale was
  /// set (scale auto-creates a fail-soft one for shard attribution).
  std::unique_ptr<sim::ShardAuditor> audit;
  /// Per-run scale profile; null unless SweepOptions::scale was set.
  std::unique_ptr<sim::ScaleProfiler> scale;
  /// Per-run execution (wall-clock) profile; null unless
  /// SweepOptions::exec was set.
  std::unique_ptr<sim::ExecProfiler> exec;
  /// Per-run memory profile; null unless SweepOptions::mem was set.
  std::unique_ptr<sim::MemProfiler> mem;
};

/// Everything a scenario body may touch during one run: a view of the
/// run's RunResult slot, which it reads and fills in place. The engine owns
/// the referenced objects; the body must not stash the references beyond
/// its own invocation.
class RunContext {
 public:
  RunContext(sim::Rng& rng, RunResult& run, const ParamPoint& params) noexcept
      : rng_(rng), run_(run), params_(params) {}

  sim::Rng& rng() noexcept { return rng_; }
  sim::MetricSet& metrics() noexcept { return run_.metrics; }
  const ParamPoint& params() const noexcept { return params_; }
  double param(const std::string& name) const { return params_.get(name); }
  double param(const std::string& name, double fallback) const noexcept {
    return params_.get(name, fallback);
  }

  std::size_t point_index() const noexcept { return run_.point_index; }
  std::size_t replica() const noexcept { return run_.replica; }
  std::size_t run_index() const noexcept { return run_.run_index; }

  void put(const std::string& key, double value) { run_.metrics.put(key, value); }

  /// Records a human-readable line attributed to this run. Notes are kept
  /// per run and replayed in run-index order, so narrative output stays
  /// deterministic under any --jobs.
  void note(std::string line) { run_.notes.push_back(std::move(line)); }

  /// Adds to this run's simulated-event total (e.g. the return value of
  /// sim::Simulator::run()).
  void add_events(std::size_t n) noexcept { run_.events += n; }

  /// Attaches this run's observability hooks (per-run profiler, heartbeat)
  /// to a simulator the body built, and — when the sweep asked for
  /// --shards — installs a sim::ShardedBackend before any of them, so call
  /// this before scheduling any event. A no-op unless the sweep asked for
  /// instrumentation; each run profiles into its own sinks, so parallel
  /// runs never contend.
  void instrument(sim::Simulator& sim);

  /// This run's span tracer, or nullptr unless SweepOptions::spans was set.
  /// Bodies hand it to the components they build (Network::set_spans,
  /// Ledger::set_span_tracer, ...); each run records into its own tracer,
  /// so parallel runs never contend and merged output is deterministic.
  sim::SpanTracer* spans() noexcept { return run_.spans.get(); }

  /// This run's time-series recorder, or nullptr unless
  /// SweepOptions::timeseries_seconds was set. Bodies register probes and
  /// attach() it / call maybe_sample() on the round loop; each run records
  /// into its own store, so merged exports are --jobs-independent.
  sim::TimeSeriesRecorder* timeseries() noexcept { return run_.timeseries.get(); }

  /// This run's cross-shard access auditor, or nullptr unless
  /// SweepOptions::audit was set. instrument() attaches it to the
  /// simulator; bodies hand it to shared components they build
  /// (Ledger::set_auditor) and may declare control events on it. Each run
  /// audits into its own instance, merged in run-index order.
  sim::ShardAuditor* audit() noexcept { return run_.audit.get(); }

  /// This run's memory profiler, or nullptr unless SweepOptions::mem was
  /// set. instrument() attaches it to the simulator (plus a fail-soft
  /// auditor when --audit did not create one, so per-shard footprint
  /// attribution always works) and registers live-bytes / queue-depth
  /// gauges on the run's TimeSeriesRecorder when one exists. Each run
  /// profiles into its own instance, merged in run-index order — so merged
  /// exports are byte-identical at any --jobs.
  sim::MemProfiler* mem() noexcept { return run_.mem.get(); }

 private:
  friend SweepResult run_sweep(const ScenarioSpec& spec, const SweepOptions& opts);

  sim::Rng& rng_;
  RunResult& run_;
  const ParamPoint& params_;
  double heartbeat_seconds_ = 0;
  std::size_t shards_ = 0;
};

/// A declarative experiment case: what to run, over which parameter points,
/// how many replicas of each. The body must be a pure function of its
/// RunContext (draw randomness only from ctx.rng()) for the engine's
/// determinism guarantee to hold.
struct ScenarioSpec {
  std::string name;
  std::string description;
  ParamGrid grid;
  std::size_t replicas = 1;
  std::function<void(RunContext&)> body;
};

struct SweepOptions {
  std::uint64_t base_seed = 1;
  /// Worker threads. 0 = auto: $TUSSLE_JOBS if set and positive, else
  /// hardware_concurrency. Whatever the value, output is bit-identical.
  std::size_t jobs = 0;
  /// Overrides spec.replicas when nonzero.
  std::size_t replicas = 0;
  /// Give each run its own LoopProfiler (merged afterwards in run order).
  bool profile = false;
  /// Give each run its own SpanTracer via RunContext::spans() (merged
  /// afterwards in run-index order, so exports are --jobs-independent).
  bool spans = false;
  /// Heartbeat period for instrument()ed simulators (0 = off). Only honored
  /// when the sweep runs on one thread — progress lines from concurrent
  /// workers would interleave.
  double heartbeat_seconds = 0;
  /// Sampling interval (simulated seconds) for each run's
  /// TimeSeriesRecorder via RunContext::timeseries(); 0 = no recorder.
  double timeseries_seconds = 0;
  /// Give each run its own ShardAuditor via RunContext::audit() (merged
  /// afterwards in run-index order). Fail-fast: a cross-shard mutation
  /// throws out of the offending run with a causal report.
  bool audit = false;
  /// Give each run its own ScaleProfiler, attached by instrument() (merged
  /// afterwards in run-index order). Implies a fail-soft ShardAuditor when
  /// audit is off, since shard attribution rides the auditor's registry.
  /// Serial backend only: with `shards` > 0 the run throws
  /// std::logic_error.
  bool scale = false;
  /// Give each run its own ExecProfiler, attached by instrument() (merged
  /// afterwards in run-index order). Wall-clock runtime observability —
  /// the merged aggregates are exempt from the byte-identity contract.
  bool exec = false;
  /// Give each run its own MemProfiler via RunContext::mem() (merged
  /// afterwards in run-index order; sim-deterministic, so merged exports
  /// are byte-identical at any --jobs). Implies a fail-soft ShardAuditor
  /// when audit is off. Serial backend only, like `scale`.
  bool mem = false;
  /// In-run parallelism: when > 0, RunContext::instrument() installs a
  /// sim::ShardedBackend with this many worker threads on the run's
  /// simulator (1 exercises the full barrier machinery on one worker —
  /// sharded output is byte-identical at any shard count). 0 keeps the
  /// serial backend. Orthogonal to `jobs` (across-run parallelism); the
  /// harness resolves the two together (bench::ParallelOptions).
  std::size_t shards = 0;
};

struct SweepResult {
  std::string name;
  std::vector<ParamPoint> points;
  std::size_t replicas = 0;  ///< replicas per point actually run
  std::vector<RunResult> runs;  ///< run-index order: point-major, replica-minor

  const RunResult& run(std::size_t point_index, std::size_t replica) const;
  std::size_t total_events() const noexcept;

  /// Mean of `key` across a point's replicas (the value itself when
  /// replicas == 1). Keys absent from every replica yield `fallback`.
  double mean(std::size_t point_index, const std::string& key, double fallback = 0.0) const;

  /// Per-point aggregate. With one replica the keys pass through as-is;
  /// with more, each key K expands to K.mean/.stddev/.min/.max/.p50
  /// (moments via sim::Summary, the quantile via sim::Histogram). Key
  /// order is first appearance across the point's runs.
  sim::MetricSet aggregate(std::size_t point_index) const;

  /// Aggregate over every run of the sweep, same expansion rules.
  sim::MetricSet aggregate() const;
};

/// Executes the spec's grid × replicas on a fixed pool of workers and
/// returns all runs merged in run-index order. The run with global index
/// i = point_index * replicas + replica draws from
/// sim::Rng::stream(opts.base_seed, i). Throws whatever the body throws
/// (first failing run by scheduling order; the pool drains first).
SweepResult run_sweep(const ScenarioSpec& spec, const SweepOptions& opts);
inline SweepResult run_sweep(const ScenarioSpec& spec) { return run_sweep(spec, SweepOptions{}); }

/// A positive count from environment variable `name`: all digits (no
/// sign, space or suffix, as the experiment binaries' count options read
/// them), nonzero, and within 64 bits. nullopt otherwise: unset, empty,
/// malformed, zero and negative all mean "not configured". The one reader
/// of the TUSSLE_* knobs.
std::optional<std::uint64_t> env_count(const char* name) noexcept;

/// Resolves a jobs request (0 = auto) against $TUSSLE_JOBS (env_count)
/// and hardware_concurrency; always at least 1.
std::size_t resolve_jobs(std::size_t requested) noexcept;

/// Named collection of scenario specs, so tools can enumerate and run
/// cases declared by independent modules ("one declarative surface").
class ScenarioRegistry {
 public:
  /// Throws std::invalid_argument on a duplicate or empty name.
  void add(ScenarioSpec spec);

  const ScenarioSpec* find(const std::string& name) const noexcept;
  std::vector<std::string> names() const;  ///< registration order
  std::size_t size() const noexcept { return specs_.size(); }
  const std::vector<ScenarioSpec>& specs() const noexcept { return specs_; }

 private:
  std::vector<ScenarioSpec> specs_;
};

}  // namespace tussle::core
