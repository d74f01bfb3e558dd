#include "core/sweep.hpp"

#include <atomic>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <mutex>
#include <thread>

#include "sim/json.hpp"
#include "sim/sharded_backend.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace tussle::core {

// ---------------------------------------------------------------- ParamPoint

void ParamPoint::set(std::string name, double value) {
  for (auto& [k, v] : values_) {
    if (k == name) {
      v = value;
      return;
    }
  }
  values_.emplace_back(std::move(name), value);
}

double ParamPoint::get(const std::string& name) const {
  for (const auto& [k, v] : values_) {
    if (k == name) return v;
  }
  throw std::out_of_range("ParamPoint: no axis named '" + name + "'");
}

double ParamPoint::get(const std::string& name, double fallback) const noexcept {
  for (const auto& [k, v] : values_) {
    if (k == name) return v;
  }
  return fallback;
}

bool ParamPoint::has(const std::string& name) const noexcept {
  for (const auto& [k, v] : values_) {
    (void)v;
    if (k == name) return true;
  }
  return false;
}

std::string ParamPoint::label() const {
  std::string out;
  for (const auto& [k, v] : values_) {
    if (!out.empty()) out += ",";
    out += k + "=" + sim::json_number(v);
  }
  return out;
}

// ----------------------------------------------------------------- ParamGrid

ParamGrid& ParamGrid::axis(std::string name, std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("ParamGrid: axis '" + name + "' is empty");
  for (const auto& [k, vs] : axes_) {
    (void)vs;
    if (k == name) throw std::invalid_argument("ParamGrid: duplicate axis '" + name + "'");
  }
  axes_.emplace_back(std::move(name), std::move(values));
  return *this;
}

std::size_t ParamGrid::point_count() const noexcept {
  std::size_t n = 1;
  for (const auto& [k, vs] : axes_) {
    (void)k;
    n *= vs.size();
  }
  return n;
}

std::vector<ParamPoint> ParamGrid::points() const {
  std::vector<ParamPoint> out;
  out.reserve(point_count());
  // Mixed-radix counter over the axes; first axis is the most significant
  // digit, so it varies slowest.
  std::vector<std::size_t> idx(axes_.size(), 0);
  for (;;) {
    ParamPoint p;
    for (std::size_t a = 0; a < axes_.size(); ++a) p.set(axes_[a].first, axes_[a].second[idx[a]]);
    out.push_back(std::move(p));
    std::size_t a = axes_.size();
    for (;;) {
      if (a == 0) return out;
      --a;
      if (++idx[a] < axes_[a].second.size()) break;
      idx[a] = 0;
    }
  }
}

// ---------------------------------------------------------------- RunContext

void RunContext::instrument(sim::Simulator& sim) {
  // The backend must go in before the scenario schedules anything.
  // Observers nest in attach order: the auditor first (every end hook reads
  // its claim), the loop profiler last, so it times only the handler.
  if (shards_ > 0) {
    sim.set_backend(std::make_unique<sim::ShardedBackend>(sim, shards_));
  }
  if (run_.audit) {
    run_.audit->set_span_tracer(run_.spans.get());  // violation reports carry the span, if any
    sim.set_auditor(run_.audit.get());
  }
  if (run_.scale) sim.set_scale_profiler(run_.scale.get());
  if (run_.exec) sim.set_exec_profiler(run_.exec.get());
  if (run_.mem) {
    sim.set_mem_profiler(run_.mem.get());
    if (run_.timeseries) {
      // Queue depth over sim time rides the same dashboard as every other
      // series. Probes fire only while the body samples, so the captured
      // simulator reference cannot outlive its run.
      sim::Simulator* s = &sim;
      run_.timeseries->probe("sim.queue_depth",
                             [s] { return static_cast<double>(s->events_pending()); });
    }
  }
  if (run_.profiler) sim.attach(run_.profiler.get());
  // --trace installs its JSONL sink on the process-global tracer, but
  // components built on this simulator log to its own per-run tracer;
  // mirror the global configuration so their records land in the same
  // file. Trace mode forces one worker, so the shared sink is safe.
  auto& global = sim::Tracer::global();
  if (global.enabled() && global.sink()) {
    sim.tracer().enable(true);
    sim.tracer().set_level(global.level());
    sim.tracer().set_sink(global.sink());
  }
  if (heartbeat_seconds_ > 0) sim.set_heartbeat(sim::Duration::seconds(heartbeat_seconds_));
}

// --------------------------------------------------------------- SweepResult

const RunResult& SweepResult::run(std::size_t point_index, std::size_t replica) const {
  const std::size_t i = point_index * replicas + replica;
  if (point_index >= points.size() || replica >= replicas || i >= runs.size()) {
    throw std::out_of_range("SweepResult::run: no such run");
  }
  return runs[i];
}

std::size_t SweepResult::total_events() const noexcept {
  std::size_t n = 0;
  for (const auto& r : runs) n += r.events;
  return n;
}

double SweepResult::mean(std::size_t point_index, const std::string& key,
                         double fallback) const {
  sim::Summary s;
  for (std::size_t r = 0; r < replicas; ++r) {
    const auto& m = run(point_index, r).metrics;
    if (m.contains(key)) s.observe(m.get(key));
  }
  return s.count() ? s.mean() : fallback;
}

namespace {

/// Folds a range of runs into one MetricSet: plain keys for a single run,
/// K.mean/.stddev/.min/.max/.p50 for several. Key order is first
/// appearance in run-index order, so the output is schedule-independent.
sim::MetricSet aggregate_range(const std::vector<RunResult>& runs, std::size_t begin,
                               std::size_t end) {
  std::vector<std::string> order;
  std::map<std::string, std::pair<sim::Summary, sim::Histogram>> agg;
  for (std::size_t i = begin; i < end && i < runs.size(); ++i) {
    for (const auto& [k, v] : runs[i].metrics.items()) {
      auto [it, inserted] = agg.try_emplace(k);
      if (inserted) order.push_back(k);
      it->second.first.observe(v);
      it->second.second.observe(v);
    }
  }
  sim::MetricSet out;
  const std::size_t n = end > begin ? end - begin : 0;
  for (const auto& k : order) {
    const auto& [summary, hist] = agg.at(k);
    if (n <= 1) {
      out.put(k, summary.mean());
    } else {
      out.put(k + ".mean", summary.mean());
      out.put(k + ".stddev", summary.stddev());
      out.put(k + ".min", summary.min());
      out.put(k + ".max", summary.max());
      out.put(k + ".p50", hist.quantile(0.5));
    }
  }
  return out;
}

}  // namespace

sim::MetricSet SweepResult::aggregate(std::size_t point_index) const {
  if (point_index >= points.size()) throw std::out_of_range("SweepResult::aggregate");
  return aggregate_range(runs, point_index * replicas, (point_index + 1) * replicas);
}

sim::MetricSet SweepResult::aggregate() const { return aggregate_range(runs, 0, runs.size()); }

// ----------------------------------------------------------------- run_sweep

std::optional<std::uint64_t> env_count(const char* name) noexcept {
  const char* v = std::getenv(name);
  if (v == nullptr) return std::nullopt;
  const char* end = v + std::strlen(v);
  std::uint64_t n = 0;
  const auto [p, ec] = std::from_chars(v, end, n);
  if (ec != std::errc() || p != end || n == 0) return std::nullopt;
  return n;
}

std::size_t resolve_jobs(std::size_t requested) noexcept {
  if (requested > 0) return requested;
  if (const auto n = env_count("TUSSLE_JOBS")) return static_cast<std::size_t>(*n);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

SweepResult run_sweep(const ScenarioSpec& spec, const SweepOptions& opts) {
  if (!spec.body) throw std::invalid_argument("run_sweep: spec '" + spec.name + "' has no body");

  SweepResult out;
  out.name = spec.name;
  out.points = spec.grid.points();
  out.replicas = opts.replicas > 0 ? opts.replicas : spec.replicas;

  const std::size_t total = out.points.size() * out.replicas;
  out.runs.resize(total);
  if (total == 0) return out;

  // Work is claimed from a shared counter, but a run's identity — and
  // therefore its RNG stream, metrics, notes, and slot in the results —
  // depends only on its index, so the claim order cannot leak into output.
  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mu;
  const bool serial = resolve_jobs(opts.jobs) <= 1 || total == 1;

  auto worker = [&]() {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= total) return;
      RunResult& slot = out.runs[i];
      slot.run_index = i;
      slot.point_index = i / out.replicas;
      slot.replica = i % out.replicas;
      try {
        sim::Rng rng = sim::Rng::stream(opts.base_seed, i);
        if (opts.profile) slot.profiler = std::make_unique<sim::LoopProfiler>();
        if (opts.spans) slot.spans = std::make_unique<sim::SpanTracer>();
        if (opts.timeseries_seconds > 0) {
          slot.timeseries = std::make_unique<sim::TimeSeriesRecorder>(
              sim::Duration::seconds(opts.timeseries_seconds));
        }
        if (opts.audit || opts.scale) {
          // The scale profiler's shard attribution rides the auditor's
          // claims; without --audit it is fail-soft, so profiling never
          // turns into policing.
          slot.audit = std::make_unique<sim::ShardAuditor>();
          slot.audit->set_fail_fast(opts.audit);
        }
        if (opts.scale) slot.scale = std::make_unique<sim::ScaleProfiler>();
        if (opts.exec) slot.exec = std::make_unique<sim::ExecProfiler>();
        if (opts.mem) slot.mem = std::make_unique<sim::MemProfiler>();
        RunContext ctx(rng, slot, out.points[slot.point_index]);
        if (serial) ctx.heartbeat_seconds_ = opts.heartbeat_seconds;
        ctx.shards_ = opts.shards;
        spec.body(ctx);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
        return;
      }
    }
  };

  if (serial) {
    worker();
  } else {
    const std::size_t jobs = std::min(resolve_jobs(opts.jobs), total);
    std::vector<std::jthread> pool;
    pool.reserve(jobs);
    for (std::size_t t = 0; t < jobs; ++t) pool.emplace_back(worker);
  }

  if (first_error) std::rethrow_exception(first_error);
  return out;
}

// ---------------------------------------------------------- ScenarioRegistry

void ScenarioRegistry::add(ScenarioSpec spec) {
  if (spec.name.empty()) throw std::invalid_argument("ScenarioRegistry: empty name");
  if (find(spec.name) != nullptr) {
    throw std::invalid_argument("ScenarioRegistry: duplicate scenario '" + spec.name + "'");
  }
  specs_.push_back(std::move(spec));
}

const ScenarioSpec* ScenarioRegistry::find(const std::string& name) const noexcept {
  for (const auto& s : specs_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::vector<std::string> ScenarioRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(specs_.size());
  for (const auto& s : specs_) out.push_back(s.name);
  return out;
}

}  // namespace tussle::core
