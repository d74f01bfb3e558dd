#include "harness.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string_view>
#include <variant>

#include "core/report.hpp"
#include "sim/json.hpp"
#include "sim/timeseries.hpp"

namespace tussle::bench {

/// One field per option, set by its row in kOptions; seed, jobs, replicas
/// and shards stay unset unless given, for ParallelOptions to resolve.
struct Flags {
  bool list = false, profile = false, audit = false, scale = false, exec = false, mem = false;
  std::string case_filter, json, trace, chrome_trace, span_tree, ts_csv, ts_json, dashboard;
  std::string audit_json, scale_json, scale_dashboard, exec_json, exec_trace, exec_dashboard;
  std::string mem_json, mem_dashboard;
  std::optional<std::uint64_t> replicas, seed, jobs, shards, explain_flow;
  sim::TraceLevel trace_level = sim::TraceLevel::kInfo;
  double heartbeat = 0, timeseries = 0;

  bool wants_spans() const { return !chrome_trace.empty() || !span_tree.empty() || explain_flow; }
  bool wants_audit() const {
    const char* env = std::getenv("TUSSLE_AUDIT");
    return audit || (env != nullptr && *env != '\0' && std::string(env) != "0");
  }
  /// A time-series export without --timeseries samples every 20 ms.
  double sample_seconds() const {
    const bool exports = !ts_csv.empty() || !ts_json.empty() || !dashboard.empty();
    return timeseries == 0 && exports ? 0.02 : timeseries;
  }
  /// The global tracer and the heartbeat's stderr stream are shared sinks:
  /// concurrent runs would interleave their writes, so either forces --jobs 1.
  bool serial_sinks() const { return !trace.empty() || heartbeat > 0; }
  /// Trace and span collection and the scale and memory profilers model one
  /// global event stream, so they force the serial backend. The heartbeat
  /// does not: the sharded coordinator ticks it between barrier windows.
  bool serial_backend() const { return !trace.empty() || wants_spans() || scale || mem; }
};

namespace {

/// The field an option sets; its type says what the argument must be (see
/// the read() overloads).
using Field = std::variant<bool Flags::*, std::string Flags::*, sim::TraceLevel Flags::*,
                           std::optional<std::uint64_t> Flags::*, double Flags::*>;

struct Option {
  const char* name;
  const char* arg;  ///< the usage text's placeholder; nullptr for a switch
  Field field;
  bool Flags::*implies = nullptr;  ///< the switch an export path turns on
  std::uint64_t min = 0;           ///< the least count accepted
};

const Option kOptions[] = {
    {"--list", nullptr, &Flags::list},
    {"--case", "<name>", &Flags::case_filter},
    {"--replicas", "<n>", &Flags::replicas},
    {"--seed", "<s>", &Flags::seed},
    {"--jobs", "<n>", &Flags::jobs, nullptr, 1},
    {"--shards", "<k>", &Flags::shards},
    {"--json", "<path>", &Flags::json},
    {"--trace", "<path>", &Flags::trace},
    {"--trace-level", "debug|info|warn|error", &Flags::trace_level},
    {"--profile", nullptr, &Flags::profile},
    {"--heartbeat", "<seconds>", &Flags::heartbeat},
    {"--chrome-trace", "<path>", &Flags::chrome_trace},
    {"--span-tree", "<path>|-", &Flags::span_tree},
    {"--explain", "<flow-id>", &Flags::explain_flow},
    {"--timeseries", "<seconds>", &Flags::timeseries},
    {"--ts-csv", "<path>", &Flags::ts_csv},
    {"--ts-json", "<path>", &Flags::ts_json},
    {"--dashboard", "<path>", &Flags::dashboard},
    {"--audit", nullptr, &Flags::audit},
    {"--audit-json", "<path>", &Flags::audit_json, &Flags::audit},
    {"--scale-profile", nullptr, &Flags::scale},
    {"--scale-json", "<path>", &Flags::scale_json, &Flags::scale},
    {"--scale-dashboard", "<path>", &Flags::scale_dashboard, &Flags::scale},
    {"--exec-profile", nullptr, &Flags::exec},
    {"--exec-json", "<path>", &Flags::exec_json, &Flags::exec},
    {"--exec-trace", "<path>", &Flags::exec_trace, &Flags::exec},
    {"--exec-dashboard", "<path>", &Flags::exec_dashboard, &Flags::exec},
    {"--mem-profile", nullptr, &Flags::mem},
    {"--mem-json", "<path>", &Flags::mem_json, &Flags::mem},
    {"--mem-dashboard", "<path>", &Flags::mem_dashboard, &Flags::mem},
};

constexpr std::string_view kLevels[] = {"debug", "info", "warn", "error"};  // TraceLevel order

void usage(const char* argv0) {
  std::fprintf(stderr, "usage: %s [option]...\n", argv0);
  for (const Option& o : kOptions) {
    std::fprintf(stderr, "  %s%s%s\n", o.name, o.arg ? " " : "", o.arg ? o.arg : "");
  }
}

/// Reads all of `v` as a number: digits only for a count (no sign, space or
/// suffix), a plain or exponent decimal for seconds.
template <class T>
bool whole_number(const char* v, T& out) {
  const char* end = v + std::strlen(v);
  const auto [p, ec] = std::from_chars(v, end, out);
  return ec == std::errc() && p == end;
}

// One reader per field type; each fails unless `v` is a valid argument.
bool read(const char*, bool& out, std::uint64_t) { return out = true; }
bool read(const char* v, std::string& out, std::uint64_t) { out = v; return true; }
bool read(const char* v, sim::TraceLevel& out, std::uint64_t) {
  const auto* l = std::find(std::begin(kLevels), std::end(kLevels), v);
  if (l == std::end(kLevels)) return false;
  out = static_cast<sim::TraceLevel>(l - std::begin(kLevels));
  return true;
}
bool read(const char* v, std::optional<std::uint64_t>& out, std::uint64_t min) {
  std::uint64_t n = 0;
  if (!whole_number(v, n) || n < min) return false;
  out = n;
  return true;
}
bool read(const char* v, double& out, std::uint64_t) {
  return whole_number(v, out) && out > 0 && !std::isinf(out);
}

std::optional<Flags> parse_flags(int argc, char** argv) {
  Flags f;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const Option* o = std::find_if(std::begin(kOptions), std::end(kOptions),
                                   [&](const Option& x) { return arg == x.name; });
    if (o == std::end(kOptions) || (o->arg && ++i == argc)) return std::nullopt;
    const char* v = o->arg ? argv[i] : nullptr;
    if (!std::visit([&](auto m) { return read(v, f.*m, o->min); }, o->field)) return std::nullopt;
    if (o->implies) f.*o->implies = true;
  }
  return f;
}

/// printf into a std::string.
[[gnu::format(printf, 1, 2)]] std::string strprintf(const char* fmt, ...) {
  std::va_list args, again;
  va_start(args, fmt);
  va_copy(again, args);
  std::string out(static_cast<std::size_t>(std::vsnprintf(nullptr, 0, fmt, args)), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, again);
  va_end(again);
  va_end(args);
  return out;
}

/// One piece of the run's output: a report file, skipped when its path is
/// empty ("-" means stdout where `dash_is_stdout`), or a stdout line.
struct Output {
  Output(const std::string& path, std::function<std::string()> text, bool dash_is_stdout = false)
      : on(!path.empty()), path(dash_is_stdout && path == "-" ? nullptr : &path),
        text(std::move(text)) {}
  Output(bool on, std::function<std::string()> text) : on(on), text(std::move(text)) {}

  bool on;
  const std::string* path = nullptr;  ///< nullptr: stdout
  std::function<std::string()> text;
};

/// Emits each output in order; returns 2 at the first file it cannot write.
int emit(std::initializer_list<Output> outputs) {
  for (const Output& o : outputs) {
    if (!o.on) continue;
    if (o.path == nullptr) {
      std::fputs(o.text().c_str(), stdout);
      continue;
    }
    std::ofstream os(*o.path);
    if (!os) {
      std::fprintf(stderr, "harness: cannot write %s\n", o.path->c_str());
      return 2;
    }
    os << o.text();
  }
  return 0;
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

// The one-line stdout summaries of the merged observers.
std::string timeseries_summary(const sim::TimeSeriesStore& store) {
  std::size_t samples = 0;
  for (const auto& [name, ts] : store.items()) samples += ts.size();
  return strprintf("time series: %zu series, %zu samples\n", store.size(), samples);
}

std::string audit_summary(const sim::ShardAuditor& a) {
  return strprintf("shard audit: %zu events, %zu mutations checked, %zu components, "
                   "%zu shards, %zu violations\n",
                   a.events_audited(), a.mutations_checked(), a.component_count(),
                   a.shard_count(), a.violations().size());
}

std::string scale_summary(const sim::ScaleProfiler& s) {
  std::size_t real_shards = 0;
  for (const auto& [shard, n] : s.shard_events()) {
    (void)n;
    if (shard != sim::kNoShard && shard != sim::kSharedShard) ++real_shards;
  }
  return strprintf("scale profile: %llu events over %llu runs, critical path %llu "
                   "(work/span %.1f), %zu shards, imbalance %.2f, cross-shard %llu, "
                   "speedup(k=8) %.2f\n",
                   static_cast<unsigned long long>(s.work()),
                   static_cast<unsigned long long>(s.runs()),
                   static_cast<unsigned long long>(s.critical_path_length()),
                   s.work_span_ratio(), real_shards, s.imbalance_ratio(),
                   static_cast<unsigned long long>(s.cross_shard_events()), s.speedup_at(8));
}

/// Wall-clock observability: these numbers (and the exec files) differ run
/// to run, so they are exempt from the byte-identity contract and never
/// fold into the .metrics object.
std::string exec_summary(const sim::ExecProfiler& e) {
  const sim::ExecProfiler::Validation val = e.validate();
  return strprintf("exec profile: %zu runs, %zu windows, %zu workers, wall %.3fs, "
                   "speedup %.2f measured / %.2f predicted, barrier overhead %.1f%%, "
                   "dominant loss %s\n",
                   e.runs(), e.windows(), val.workers, e.elapsed_seconds(),
                   val.measured_speedup, val.predicted_speedup,
                   val.barrier_overhead_fraction * 100, val.dominant_loss);
}

std::string mem_summary(const sim::MemProfiler& m) {
  return strprintf("mem profile: %llu events over %llu runs, %llu packets born, %llu actors\n",
                   static_cast<unsigned long long>(m.work()),
                   static_cast<unsigned long long>(m.runs()),
                   static_cast<unsigned long long>(m.packets_born()),
                   static_cast<unsigned long long>(m.actor_count()));
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
  if (flags_.list) return {};
  if (!flags_.case_filter.empty() && flags_.case_filter != spec.name) return {};
  case_matched_ = true;

  core::SweepOptions opts;
  opts.base_seed = parallel_.seed;
  opts.jobs = parallel_.sweep_jobs(flags_.serial_sinks());
  opts.replicas = parallel_.replicas;
  opts.profile = flags_.profile || !flags_.json.empty();
  opts.spans = flags_.wants_spans();
  opts.heartbeat_seconds = flags_.heartbeat;
  opts.timeseries_seconds = flags_.sample_seconds();
  opts.audit = flags_.wants_audit();
  opts.scale = flags_.scale;
  opts.exec = flags_.exec;
  opts.mem = flags_.mem;
  opts.shards = parallel_.run_shards(flags_.serial_backend());

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
  const std::optional<Flags> flags = parse_flags(argc, argv);
  if (!flags) {
    usage(argv[0]);
    return 2;
  }
  const Flags& f = *flags;
  Harness h(f, ParallelOptions::resolve(f.seed, f.jobs, f.replicas, f.shards));
  if (h.parallel_.shards > 0 && f.serial_backend()) {
    std::fprintf(stderr,
                 "harness: --shards ignored: --trace, span, --scale-* and --mem-* flags "
                 "need the serial backend\n");
  }

  if (f.list) {
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
  if (!f.trace.empty()) {
    trace_os.open(f.trace);
    if (!trace_os) {
      std::fprintf(stderr, "harness: cannot write %s\n", f.trace.c_str());
      return 2;
    }
    auto& tracer = sim::Tracer::global();
    tracer.enable(true);
    tracer.set_level(f.trace_level);
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
    h.audit_.record_violation(v.access());
    emit({{f.audit_json, [&] { return h.audit_.report_json() + "\n"; }}});  // exit 1 either way
    return 1;
  }
  const double wall_seconds = sim::wall_now_seconds() - wall_start;

  if (!f.trace.empty()) {
    auto& tracer = sim::Tracer::global();
    tracer.set_sink(nullptr);
    tracer.enable(false);
  }

  if (!f.case_filter.empty() && !h.case_matched_) {
    std::fprintf(stderr, "%s: no case named '%s'; available:\n", argv[0],
                 f.case_filter.c_str());
    for (const auto& c : h.cases_) std::fprintf(stderr, "  %s\n", c.name.c_str());
    return 2;
  }

  const std::string title = exp.id + " \xc2\xb7 " + exp.section;
  const auto& spans = h.spans_.spans();
  const bool audit = f.wants_audit();
  if (int rc = emit({
          {f.chrome_trace, [&] { return sim::to_chrome_trace(spans) + "\n"; }},
          {!f.chrome_trace.empty(),
           [&] {
             return strprintf("chrome trace: %zu spans -> %s\n", h.spans_.size(),
                              f.chrome_trace.c_str());
           }},
          {f.span_tree, [&] { return sim::span_tree_report(spans); }, true},
          {f.explain_flow.has_value(), [&] { return sim::explain_flow(spans, *f.explain_flow); }},
          {f.ts_csv, [&] { return h.timeseries_.to_csv(); }},
          {f.ts_json, [&] { return h.timeseries_.to_json() + "\n"; }},
          {f.dashboard, [&] { return sim::timeseries_dashboard(h.timeseries_, title); }},
          {f.sample_seconds() > 0, [&] { return timeseries_summary(h.timeseries_); }},
          {audit, [&] { return audit_summary(h.audit_); }},
          {f.audit_json, [&] { return h.audit_.report_json() + "\n"; }},
      })) {
    return rc;
  }
  if (audit && !h.audit_.violations().empty()) {
    std::fprintf(stderr, "%s\n", h.audit_.describe(h.audit_.violations().front()).c_str());
    return 1;
  }

  if (int rc = emit({
          {f.scale, [&] { return scale_summary(h.scale_); }},
          {f.scale_json, [&] { return keyed_report(exp, "scale", h.scale_.report_json()); }},
          {f.scale_dashboard, [&] { return sim::scale_dashboard(h.scale_, title); }},
          {f.exec, [&] { return exec_summary(h.exec_); }},
          {f.exec_json, [&] { return keyed_report(exp, "exec", h.exec_.report_json()); }},
          {f.exec_trace, [&] { return sim::exec_chrome_trace(h.exec_) + "\n"; }},
          {!f.exec_trace.empty(),
           [&] {
             return strprintf("exec trace: %zu runs -> %s\n", h.exec_.runs(),
                              f.exec_trace.c_str());
           }},
          {f.exec_dashboard, [&] { return sim::exec_dashboard(h.exec_, title); }},
          {f.mem, [&] { return mem_summary(h.mem_); }},
          {f.mem_json, [&] { return keyed_report(exp, "mem", h.mem_.report_json()); }},
          {f.mem_dashboard, [&] { return sim::mem_dashboard(h.mem_, title); }},
      })) {
    return rc;
  }

  if (f.profile) {
    std::fprintf(stderr, "\nEvent-loop hotspots (%llu events, %.3f ms profiled)\n%s",
                 static_cast<unsigned long long>(h.profiler_.total_events()),
                 h.profiler_.total_wall_seconds() * 1e3, h.profiler_.report().c_str());
  }
  return emit({{f.json, [&] {
                  return json_report(exp, h.metrics_.snapshot(), h.sweep_events_, wall_seconds,
                                     h.profiler_.hotspots_json());
                }}});
}

}  // namespace tussle::bench
