#include "harness.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <vector>

#include "core/report.hpp"
#include "sim/json.hpp"
#include "sim/timeseries.hpp"

namespace tussle::bench {

namespace {

struct Flags {
  std::string json_path;
  std::string trace_path;
  std::string chrome_trace_path;
  std::string span_tree_path;
  std::optional<std::uint64_t> explain_flow;
  sim::TraceLevel trace_level = sim::TraceLevel::kInfo;
  bool profile = false;
  double heartbeat_seconds = 0;
  double timeseries_seconds = 0;
  std::string ts_csv_path;
  std::string ts_json_path;
  std::string dashboard_path;
  bool audit = false;
  std::string audit_json_path;
  bool scale = false;
  std::string scale_json_path;
  std::string scale_dashboard_path;
  bool exec = false;
  std::string exec_json_path;
  std::string exec_trace_path;
  std::string exec_dashboard_path;
  bool mem = false;
  std::string mem_json_path;
  std::string mem_dashboard_path;
  bool list = false;
  std::string case_filter;
  // Parallelism/reproducibility knobs stay unset here; ParallelOptions
  // applies the flag > environment > default ladder in one place.
  std::optional<std::uint64_t> seed;
  std::optional<std::size_t> jobs;
  std::optional<std::size_t> replicas;
  std::optional<std::size_t> shards;
};

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--list] [--case <name>] [--replicas <n>] [--seed <s>]\n"
               "          [--jobs <n>] [--shards <k>] [--json <path>] [--trace <path>]\n"
               "          [--trace-level debug|info|warn|error] [--profile]\n"
               "          [--heartbeat <seconds>] [--chrome-trace <path>]\n"
               "          [--span-tree <path>|-] [--explain <flow-id>]\n"
               "          [--timeseries <seconds>] [--ts-csv <path>]\n"
               "          [--ts-json <path>] [--dashboard <path>]\n"
               "          [--audit] [--audit-json <path>] [--scale-profile]\n"
               "          [--scale-json <path>] [--scale-dashboard <path>]\n"
               "          [--exec-profile] [--exec-json <path>]\n"
               "          [--exec-trace <path>] [--exec-dashboard <path>]\n"
               "          [--mem-profile] [--mem-json <path>]\n"
               "          [--mem-dashboard <path>]\n",
               argv0);
}

std::optional<sim::TraceLevel> parse_level(const std::string& s) {
  if (s == "debug") return sim::TraceLevel::kDebug;
  if (s == "info") return sim::TraceLevel::kInfo;
  if (s == "warn") return sim::TraceLevel::kWarn;
  if (s == "error") return sim::TraceLevel::kError;
  return std::nullopt;
}

std::optional<Flags> parse_flags(int argc, char** argv) {
  Flags f;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--json") {
      const char* v = next();
      if (!v) return std::nullopt;
      f.json_path = v;
    } else if (arg == "--trace") {
      const char* v = next();
      if (!v) return std::nullopt;
      f.trace_path = v;
    } else if (arg == "--trace-level") {
      const char* v = next();
      if (!v) return std::nullopt;
      auto lvl = parse_level(v);
      if (!lvl) return std::nullopt;
      f.trace_level = *lvl;
    } else if (arg == "--chrome-trace") {
      const char* v = next();
      if (!v) return std::nullopt;
      f.chrome_trace_path = v;
    } else if (arg == "--span-tree") {
      const char* v = next();
      if (!v) return std::nullopt;
      f.span_tree_path = v;
    } else if (arg == "--explain") {
      const char* v = next();
      if (!v) return std::nullopt;
      f.explain_flow = std::strtoull(v, nullptr, 10);
    } else if (arg == "--timeseries") {
      const char* v = next();
      if (!v) return std::nullopt;
      f.timeseries_seconds = std::atof(v);
      if (f.timeseries_seconds <= 0) return std::nullopt;
    } else if (arg == "--ts-csv") {
      const char* v = next();
      if (!v) return std::nullopt;
      f.ts_csv_path = v;
    } else if (arg == "--ts-json") {
      const char* v = next();
      if (!v) return std::nullopt;
      f.ts_json_path = v;
    } else if (arg == "--dashboard") {
      const char* v = next();
      if (!v) return std::nullopt;
      f.dashboard_path = v;
    } else if (arg == "--audit") {
      f.audit = true;
    } else if (arg == "--audit-json") {
      const char* v = next();
      if (!v) return std::nullopt;
      f.audit_json_path = v;
      f.audit = true;
    } else if (arg == "--scale-profile") {
      f.scale = true;
    } else if (arg == "--scale-json") {
      const char* v = next();
      if (!v) return std::nullopt;
      f.scale_json_path = v;
      f.scale = true;
    } else if (arg == "--scale-dashboard") {
      const char* v = next();
      if (!v) return std::nullopt;
      f.scale_dashboard_path = v;
      f.scale = true;
    } else if (arg == "--exec-profile") {
      f.exec = true;
    } else if (arg == "--exec-json") {
      const char* v = next();
      if (!v) return std::nullopt;
      f.exec_json_path = v;
      f.exec = true;
    } else if (arg == "--exec-trace") {
      const char* v = next();
      if (!v) return std::nullopt;
      f.exec_trace_path = v;
      f.exec = true;
    } else if (arg == "--exec-dashboard") {
      const char* v = next();
      if (!v) return std::nullopt;
      f.exec_dashboard_path = v;
      f.exec = true;
    } else if (arg == "--mem-profile") {
      f.mem = true;
    } else if (arg == "--mem-json") {
      const char* v = next();
      if (!v) return std::nullopt;
      f.mem_json_path = v;
      f.mem = true;
    } else if (arg == "--mem-dashboard") {
      const char* v = next();
      if (!v) return std::nullopt;
      f.mem_dashboard_path = v;
      f.mem = true;
    } else if (arg == "--profile") {
      f.profile = true;
    } else if (arg == "--heartbeat") {
      const char* v = next();
      if (!v) return std::nullopt;
      f.heartbeat_seconds = std::atof(v);
      if (f.heartbeat_seconds <= 0) return std::nullopt;
    } else if (arg == "--list") {
      f.list = true;
    } else if (arg == "--case") {
      const char* v = next();
      if (!v) return std::nullopt;
      f.case_filter = v;
    } else if (arg == "--seed") {
      const char* v = next();
      if (!v) return std::nullopt;
      f.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--jobs") {
      const char* v = next();
      if (!v) return std::nullopt;
      const long n = std::atol(v);
      if (n <= 0) return std::nullopt;
      f.jobs = static_cast<std::size_t>(n);
    } else if (arg == "--replicas") {
      const char* v = next();
      if (!v) return std::nullopt;
      const long n = std::atol(v);
      if (n < 0) return std::nullopt;
      f.replicas = static_cast<std::size_t>(n);
    } else if (arg == "--shards") {
      const char* v = next();
      if (!v) return std::nullopt;
      const long n = std::atol(v);
      if (n < 0) return std::nullopt;
      f.shards = static_cast<std::size_t>(n);
    } else {
      return std::nullopt;
    }
  }
  return f;
}

/// Writes `content` to `path`; reports a failure on stderr and returns false
/// (the caller exits 2).
bool write_file(const std::string& path, const std::string& content) {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "harness: cannot write %s\n", path.c_str());
    return false;
  }
  os << content;
  return true;
}

/// Opens a report object with its {"experiment": {id, section}} header.
void begin_report(sim::JsonWriter& w, const Experiment& exp) {
  w.begin_object();
  w.key("experiment").begin_object();
  w.key("id").value(exp.id);
  w.key("section").value(exp.section);
  w.end_object();
}

/// {"experiment": ..., "<key>": report}: the scale, exec and mem exports.
std::string keyed_report(const Experiment& exp, const char* key, const std::string& report) {
  sim::JsonWriter w;
  begin_report(w, exp);
  w.key(key).raw(report);
  w.end_object();
  return w.str() + "\n";
}

/// The --json report: metrics, wall time, event totals and hotspots.
std::string json_report(const Experiment& exp, const sim::MetricSnapshot& snap,
                        std::uint64_t total_events, double wall_seconds,
                        const std::string& hotspots_json) {
  sim::JsonWriter w;
  begin_report(w, exp);
  w.key("wall_seconds").value(wall_seconds);
  w.key("total_events").value(total_events);
  // Sim-less model benches legitimately dispatch zero events; null marks
  // them explicitly so tooling never mistakes "no simulator" for "zero
  // throughput" (bench_compare skips throughput gating on null).
  if (total_events > 0) {
    w.key("sim_events").value(total_events);
    w.key("events_per_sec")
        .value(wall_seconds > 0 ? static_cast<double>(total_events) / wall_seconds : 0.0);
  } else {
    w.key("sim_events").null();
    w.key("events_per_sec").null();
  }
  w.key("metrics").raw(snap.to_json());
  w.key("hotspots").raw(hotspots_json);
  w.end_object();
  return w.str() + "\n";
}

}  // namespace

core::SweepResult Harness::scenario(const core::ScenarioSpec& spec, const Render& render) {
  cases_.push_back({spec.name, spec.description});
  if (list_) return {};
  if (!case_filter_.empty() && case_filter_ != spec.name) return {};
  case_matched_ = true;

  core::SweepOptions opts;
  opts.base_seed = parallel_.seed;
  opts.jobs = parallel_.sweep_jobs(serial_required_);
  opts.replicas = parallel_.replicas;
  opts.profile = profile_to_stderr_ || !json_path_.empty();
  opts.spans = spans_requested_;
  opts.heartbeat_seconds = heartbeat_seconds_;
  opts.timeseries_seconds = timeseries_seconds_;
  opts.audit = audit_requested_;
  opts.scale = scale_requested_;
  opts.exec = exec_requested_;
  opts.mem = mem_requested_;
  // Trace/span collection and the scale and memory profilers assume the
  // serial backend's single event stream and force the sharded backend
  // off; --heartbeat does not (the sharded coordinator ticks it between
  // barrier windows).
  opts.shards = parallel_.run_shards(shards_blocked_);

  core::SweepResult result = core::run_sweep(spec, opts);

  sweep_events_ += result.total_events();
  for (const auto& r : result.runs) {
    if (r.profiler) profiler_.merge(*r.profiler);
    // runs are in run-index order whatever --jobs was, so the merged span
    // archive (and every export derived from it) is schedule-independent.
    if (r.spans) spans_.merge(*r.spans);
    if (r.audit) audit_.merge(*r.audit);
    if (r.scale) scale_.merge(*r.scale);
    if (r.exec) exec_.merge(*r.exec);
    if (r.mem) mem_.merge(*r.mem);
    if (r.timeseries && !r.timeseries->store().empty()) {
      std::string prefix = spec.name;
      const std::string label = result.points[r.point_index].label();
      if (!label.empty()) prefix += "." + label;
      if (result.replicas > 1) prefix += ".r" + std::to_string(r.replica);
      timeseries_.merge_prefixed(prefix + ".", r.timeseries->store());
    }
  }
  for (std::size_t p = 0; p < result.points.size(); ++p) {
    std::string prefix = spec.name;
    const std::string label = result.points[p].label();
    if (!label.empty()) prefix += "." + label;
    const sim::MetricSet agg = result.aggregate(p);
    for (const auto& [key, value] : agg.items()) {
      metrics_.gauge(prefix + "." + key, value);
    }
  }
  if (render) render(result);
  return result;
}

int run(int argc, char** argv, const Experiment& exp,
        const std::function<void(Harness&)>& body) {
  auto flags = parse_flags(argc, argv);
  if (!flags) {
    usage(argv[0]);
    return 2;
  }

  Harness h;
  h.json_path_ = flags->json_path;
  h.profile_to_stderr_ = flags->profile;
  h.heartbeat_seconds_ = flags->heartbeat_seconds;
  h.list_ = flags->list;
  h.case_filter_ = flags->case_filter;
  h.parallel_ =
      ParallelOptions::resolve(flags->seed, flags->jobs, flags->replicas, flags->shards);
  h.audit_requested_ = flags->audit;
  if (const char* env = std::getenv("TUSSLE_AUDIT")) {
    if (*env != '\0' && std::string(env) != "0") h.audit_requested_ = true;
  }
  h.scale_requested_ = flags->scale;
  h.exec_requested_ = flags->exec;
  h.mem_requested_ = flags->mem;
  h.spans_requested_ = !flags->chrome_trace_path.empty() || !flags->span_tree_path.empty() ||
                       flags->explain_flow.has_value();
  // An export flag without an explicit interval still needs samples.
  h.timeseries_seconds_ = flags->timeseries_seconds;
  if (h.timeseries_seconds_ <= 0 &&
      (!flags->ts_csv_path.empty() || !flags->ts_json_path.empty() ||
       !flags->dashboard_path.empty())) {
    h.timeseries_seconds_ = 0.02;
  }
  // The global tracer and the heartbeat's stderr stream are shared sinks;
  // concurrent runs would interleave their writes, so either forces
  // --jobs 1. Trace/span collection and the scale and memory profilers
  // (one global event stream each) additionally force the serial
  // *backend* — the sharded coordinator ticks the heartbeat itself.
  h.serial_required_ = !flags->trace_path.empty() || flags->heartbeat_seconds > 0;
  h.shards_blocked_ = !flags->trace_path.empty() || h.spans_requested_ ||
                      h.scale_requested_ || h.mem_requested_;
  if (h.parallel_.shards > 0 && h.shards_blocked_) {
    std::fprintf(stderr,
                 "harness: --shards ignored: --trace, span, --scale-* and --mem-* flags "
                 "need the serial backend\n");
  }

  if (h.list_) {
    // Declaration pass only: scenario() records names without running.
    body(h);
    for (const auto& c : h.cases_) {
      std::printf("%-28s %s\n", c.name.c_str(), c.description.c_str());
    }
    return 0;
  }

  // JSONL trace sink on the global tracer: every subsystem that emits to
  // the default tracer lands in the file, whatever Network or module the
  // bench wires up.
  std::ofstream trace_os;
  if (!flags->trace_path.empty()) {
    trace_os.open(flags->trace_path);
    if (!trace_os) {
      std::fprintf(stderr, "harness: cannot write %s\n", flags->trace_path.c_str());
      return 2;
    }
    auto& tracer = sim::Tracer::global();
    tracer.enable(true);
    tracer.set_level(flags->trace_level);
    tracer.set_sink(sim::make_jsonl_sink(trace_os));
  }

  core::print_experiment_header(std::cout, exp.id, exp.section, exp.claim);

  const double wall_start = sim::wall_now_seconds();
  try {
    body(h);
  } catch (const sim::ShardViolation& v) {
    // Fail fast with the causal report: which component, owned by which
    // shard, was mutated from which shard, inside which event. The audit
    // report is still written so CI can collect it; tallies from sweep
    // slots that had not merged when the violation fired are absent, but
    // the violation itself is guaranteed present.
    std::fprintf(stderr, "%s\n", v.what());
    if (!flags->audit_json_path.empty()) {
      h.audit_.record_violation(v.access());
      write_file(flags->audit_json_path, h.audit_.report_json() + "\n");  // exit 1 either way
    }
    return 1;
  }
  const double wall_seconds = sim::wall_now_seconds() - wall_start;

  if (!flags->trace_path.empty()) {
    auto& tracer = sim::Tracer::global();
    tracer.set_sink(nullptr);
    tracer.enable(false);
  }

  if (!h.case_filter_.empty() && !h.case_matched_) {
    std::fprintf(stderr, "%s: no case named '%s'; available:\n", argv[0],
                 h.case_filter_.c_str());
    for (const auto& c : h.cases_) std::fprintf(stderr, "  %s\n", c.name.c_str());
    return 2;
  }

  const std::string dashboard_title = exp.id + " \xc2\xb7 " + exp.section;

  if (!flags->chrome_trace_path.empty()) {
    if (!write_file(flags->chrome_trace_path, sim::to_chrome_trace(h.spans_.spans()) + "\n")) {
      return 2;
    }
    std::printf("chrome trace: %zu spans -> %s\n", h.spans_.size(),
                flags->chrome_trace_path.c_str());
  }

  if (!flags->span_tree_path.empty()) {
    const std::string report = sim::span_tree_report(h.spans_.spans());
    if (flags->span_tree_path == "-") {
      std::fputs(report.c_str(), stdout);
    } else if (!write_file(flags->span_tree_path, report)) {
      return 2;
    }
  }

  if (flags->explain_flow) {
    std::fputs(sim::explain_flow(h.spans_.spans(), *flags->explain_flow).c_str(), stdout);
  }

  if (h.timeseries_seconds_ > 0) {
    std::size_t samples = 0;
    for (const auto& [name, ts] : h.timeseries_.items()) samples += ts.size();
    if (!flags->ts_csv_path.empty() &&
        !write_file(flags->ts_csv_path, h.timeseries_.to_csv())) {
      return 2;
    }
    if (!flags->ts_json_path.empty() &&
        !write_file(flags->ts_json_path, h.timeseries_.to_json() + "\n")) {
      return 2;
    }
    if (!flags->dashboard_path.empty() &&
        !write_file(flags->dashboard_path,
                    sim::timeseries_dashboard(h.timeseries_, dashboard_title))) {
      return 2;
    }
    std::printf("time series: %zu series, %zu samples\n", h.timeseries_.size(), samples);
  }

  if (h.audit_requested_) {
    std::printf("shard audit: %zu events, %zu mutations checked, %zu components, "
                "%zu shards, %zu violations\n",
                h.audit_.events_audited(), h.audit_.mutations_checked(),
                h.audit_.component_count(), h.audit_.shard_count(),
                h.audit_.violations().size());
    if (!flags->audit_json_path.empty() &&
        !write_file(flags->audit_json_path, h.audit_.report_json() + "\n")) {
      return 2;
    }
    if (!h.audit_.violations().empty()) {
      std::fprintf(stderr, "%s\n", h.audit_.describe(h.audit_.violations().front()).c_str());
      return 1;
    }
  }

  if (h.scale_requested_) {
    std::size_t real_shards = 0;
    for (const auto& [shard, n] : h.scale_.shard_events()) {
      (void)n;
      if (shard != sim::kNoShard && shard != sim::kSharedShard) ++real_shards;
    }
    std::printf("scale profile: %llu events over %llu runs, critical path %llu "
                "(work/span %.1f), %zu shards, imbalance %.2f, cross-shard %llu, "
                "speedup(k=8) %.2f\n",
                static_cast<unsigned long long>(h.scale_.work()),
                static_cast<unsigned long long>(h.scale_.runs()),
                static_cast<unsigned long long>(h.scale_.critical_path_length()),
                h.scale_.work_span_ratio(), real_shards, h.scale_.imbalance_ratio(),
                static_cast<unsigned long long>(h.scale_.cross_shard_events()),
                h.scale_.speedup_at(8));
    if (!flags->scale_json_path.empty() &&
        !write_file(flags->scale_json_path,
                    keyed_report(exp, "scale", h.scale_.report_json()))) {
      return 2;
    }
    if (!flags->scale_dashboard_path.empty() &&
        !write_file(flags->scale_dashboard_path,
                    sim::scale_dashboard(h.scale_, dashboard_title))) {
      return 2;
    }
  }

  if (h.exec_requested_) {
    // Wall-clock observability: these numbers (and the files below) are
    // expected to differ run to run — they are exempt from the
    // byte-identity contract and never fold into the .metrics object.
    const sim::ExecProfiler::Validation val = h.exec_.validate();
    std::printf("exec profile: %zu runs, %zu windows, %zu workers, wall %.3fs, "
                "speedup %.2f measured / %.2f predicted, barrier overhead %.1f%%, "
                "dominant loss %s\n",
                h.exec_.runs(), h.exec_.windows(), val.workers,
                h.exec_.elapsed_seconds(), val.measured_speedup, val.predicted_speedup,
                val.barrier_overhead_fraction * 100, val.dominant_loss);
    if (!flags->exec_json_path.empty() &&
        !write_file(flags->exec_json_path, keyed_report(exp, "exec", h.exec_.report_json()))) {
      return 2;
    }
    if (!flags->exec_trace_path.empty()) {
      if (!write_file(flags->exec_trace_path, sim::exec_chrome_trace(h.exec_) + "\n")) {
        return 2;
      }
      std::printf("exec trace: %zu runs -> %s\n", h.exec_.runs(),
                  flags->exec_trace_path.c_str());
    }
    if (!flags->exec_dashboard_path.empty() &&
        !write_file(flags->exec_dashboard_path,
                    sim::exec_dashboard(h.exec_, dashboard_title))) {
      return 2;
    }
  }

  if (h.mem_requested_) {
    std::printf("mem profile: %llu events over %llu runs, peak %lld bytes "
                "(%.1f/actor over %llu actors), %llu allocs (%.2f/event), "
                "%zu sites\n",
                static_cast<unsigned long long>(h.mem_.work()),
                static_cast<unsigned long long>(h.mem_.runs()),
                static_cast<long long>(h.mem_.peak_live_bytes()),
                h.mem_.live_bytes_per_actor(),
                static_cast<unsigned long long>(h.mem_.actor_count()),
                static_cast<unsigned long long>(h.mem_.alloc_count()),
                h.mem_.allocs_per_event(), h.mem_.sites().size());
    if (!flags->mem_json_path.empty() &&
        !write_file(flags->mem_json_path, keyed_report(exp, "mem", h.mem_.report_json()))) {
      return 2;
    }
    if (!flags->mem_dashboard_path.empty() &&
        !write_file(flags->mem_dashboard_path, sim::mem_dashboard(h.mem_, dashboard_title))) {
      return 2;
    }
  }

  if (flags->profile) {
    std::fprintf(stderr, "\nEvent-loop hotspots (%llu events, %.3f ms profiled)\n%s",
                 static_cast<unsigned long long>(h.profiler_.total_events()),
                 h.profiler_.total_wall_seconds() * 1e3, h.profiler_.report().c_str());
  }

  if (!flags->json_path.empty() &&
      !write_file(flags->json_path, json_report(exp, h.metrics_.snapshot(), h.sweep_events_,
                                                wall_seconds, h.profiler_.hotspots_json()))) {
    return 2;
  }
  return 0;
}

}  // namespace tussle::bench
