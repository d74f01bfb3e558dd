#include "sim/exec_profile.hpp"

#include <algorithm>

#include "sim/html.hpp"
#include "sim/json.hpp"
#include "sim/profiler.hpp"

namespace tussle::sim {

namespace {

/// The ScaleProfiler's virtual-barrier window cost, replayed over measured
/// per-owner loads: owners ordered by (events desc, id asc) are greedily
/// packed onto k virtual shards (LPT); the window costs the slowest shard,
/// plus any events not attributed to an owner, which run serially.
std::uint64_t lpt_window_cost(const std::map<ShardId, std::uint64_t>& owner_events,
                              std::uint64_t window_events, std::size_t k) {
  std::uint64_t owned = 0;
  std::vector<std::pair<std::uint64_t, ShardId>> loads;
  loads.reserve(owner_events.size());
  for (const auto& [owner, n] : owner_events) {
    if (n == 0) continue;
    owned += n;
    loads.emplace_back(n, owner);
  }
  const std::uint64_t serial = window_events > owned ? window_events - owned : 0;
  if (loads.empty()) return serial;
  std::sort(loads.begin(), loads.end(),
            [](const std::pair<std::uint64_t, ShardId>& a,
               const std::pair<std::uint64_t, ShardId>& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  std::vector<std::uint64_t> bins(std::max<std::size_t>(1, std::min(k, loads.size())), 0);
  for (const auto& [n, owner] : loads) {
    (void)owner;
    *std::min_element(bins.begin(), bins.end()) += n;
  }
  return *std::max_element(bins.begin(), bins.end()) + serial;
}

}  // namespace

// -------------------------------------------------------------- WorkerLane --

void ExecProfiler::WorkerLane::window(double barrier_s, double dispatch_s,
                                      double drain_s, double dispatch_start,
                                      double drain_start, std::uint64_t events) {
  WinRec r;
  r.window = windows_done_++;
  r.barrier_s = static_cast<float>(barrier_s);
  r.dispatch_s = static_cast<float>(dispatch_s);
  r.drain_s = static_cast<float>(drain_s);
  if (r.window < kMaxSliceWindows) {
    r.dispatch_start = dispatch_start;
    r.drain_start = drain_start;
  }
  r.events = static_cast<std::uint32_t>(events);
  windows_.push_back(r);
}

void ExecProfiler::WorkerLane::owner_events(ShardId owner, std::uint64_t events) {
  if (events == 0) return;
  OwnRec r;
  r.window = windows_done_;  // the window currently being dispatched
  r.owner = owner;
  r.events = static_cast<std::uint32_t>(events);
  owners_.push_back(r);
}

void ExecProfiler::WorkerLane::drained(ShardId src, ShardId dst, std::uint64_t events) {
  if (events == 0) return;
  volumes_[{src, dst}] += events;
}

// --------------------------------------------------------------- recording --

double ExecProfiler::begin_run(const char* backend, std::size_t workers,
                               std::int64_t lookahead_ns) {
  // A previous run that errored out never reached end_run(); its partial
  // state is discarded here rather than polluting the record.
  cur_ = Run{};
  cur_.backend = backend;
  cur_.workers = workers;
  cur_.lookahead_ns = lookahead_ns;
  lanes_.assign(workers, WorkerLane{});
  run_start_ = wall_now_seconds();
  in_run_ = true;
  return run_start_;
}

void ExecProfiler::begin_window(std::int64_t start_ns, std::int64_t end_ns) {
  Window w;
  w.start_ns = start_ns;
  w.end_ns = end_ns;
  window_open_ = wall_now_seconds();
  if (cur_.windows.size() < kMaxSliceWindows) w.wall_start = window_open_ - run_start_;
  w.workers.resize(cur_.workers);
  cur_.windows.push_back(std::move(w));
}

void ExecProfiler::end_window() {
  cur_.windows.back().elapsed = wall_now_seconds() - window_open_;
}

void ExecProfiler::record_control(double wall_start, double fold_s, double control_s,
                                  std::uint64_t events) {
  cur_.fold_seconds += fold_s;
  cur_.control_seconds += control_s;
  cur_.control_events += events;
  ControlBatch b;
  if (cur_.control_batches.size() < kMaxSliceWindows) b.wall_start = wall_start - run_start_;
  b.fold_s = fold_s;
  b.control_s = control_s;
  b.events = events;
  cur_.control_batches.push_back(b);
}

void ExecProfiler::record_fold(double seconds) { cur_.fold_seconds += seconds; }

void ExecProfiler::record_drained(ShardId src, ShardId dst, std::uint64_t events) {
  if (events == 0) return;
  cur_.volumes[{src, dst}] += events;
}

void ExecProfiler::end_run() {
  if (!in_run_) return;
  cur_.elapsed = wall_now_seconds() - run_start_;
  for (std::size_t w = 0; w < lanes_.size(); ++w) {
    const WorkerLane& lane = lanes_[w];
    for (const auto& r : lane.windows_) {
      if (r.window >= cur_.windows.size()) continue;  // worker saw a window the run abandoned
      Window& win = cur_.windows[r.window];
      WorkerSlice& s = win.workers[w];
      s.barrier_s = r.barrier_s;
      s.dispatch_s = r.dispatch_s;
      s.drain_s = r.drain_s;
      s.dispatch_start = r.dispatch_start;
      s.drain_start = r.drain_start;
      s.events = r.events;
      win.events += r.events;
    }
    for (const auto& r : lane.owners_) {
      if (r.window >= cur_.windows.size()) continue;
      cur_.windows[r.window].owner_events[r.owner] += r.events;
    }
    for (const auto& [key, n] : lane.volumes_) cur_.volumes[key] += n;
  }
  lanes_.clear();
  runs_.push_back(std::move(cur_));
  cur_ = Run{};
  in_run_ = false;
}

void ExecProfiler::record_serial_run(std::int64_t start_ns, std::int64_t end_ns,
                                     std::uint64_t events, double elapsed_s) {
  Run r;
  r.backend = "serial";
  r.workers = 1;
  r.elapsed = elapsed_s;
  Window w;
  w.start_ns = start_ns;
  w.end_ns = end_ns;
  w.wall_start = 0;
  w.elapsed = elapsed_s;
  w.events = events;
  WorkerSlice s;
  s.dispatch_s = elapsed_s;
  s.dispatch_start = 0;
  s.events = events;
  w.workers.push_back(s);
  r.windows.push_back(std::move(w));
  runs_.push_back(std::move(r));
}

// ----------------------------------------------------------------- results --

std::size_t ExecProfiler::windows() const noexcept {
  std::size_t n = 0;
  for (const auto& r : runs_) n += r.windows.size();
  return n;
}

std::size_t ExecProfiler::max_workers() const noexcept {
  std::size_t n = 0;
  for (const auto& r : runs_) n = std::max(n, r.workers);
  return n;
}

double ExecProfiler::elapsed_seconds() const noexcept {
  double s = 0;
  for (const auto& r : runs_) s += r.elapsed;
  return s;
}

ExecProfiler::PhaseTotals ExecProfiler::phases() const noexcept {
  PhaseTotals t;
  for (const auto& r : runs_) {
    t.control += r.control_seconds;
    t.fold += r.fold_seconds;
    for (const auto& w : r.windows) {
      for (const auto& s : w.workers) {
        t.dispatch += s.dispatch_s;
        t.drain += s.drain_s;
        t.barrier += s.barrier_s;
      }
    }
  }
  return t;
}

std::vector<ExecProfiler::WorkerShare> ExecProfiler::worker_shares() const {
  std::vector<WorkerShare> out(max_workers());
  for (const auto& r : runs_) {
    for (const auto& w : r.windows) {
      for (std::size_t i = 0; i < w.workers.size() && i < out.size(); ++i) {
        out[i].busy_s += w.workers[i].dispatch_s + w.workers[i].drain_s;
        out[i].idle_s += w.workers[i].barrier_s;
      }
    }
  }
  return out;
}

ExecProfiler::Volumes ExecProfiler::volumes() const {
  Volumes out;
  for (const auto& r : runs_) {
    for (const auto& [key, n] : r.volumes) out[key] += n;
  }
  return out;
}

std::map<std::uint32_t, std::uint64_t> ExecProfiler::occupancy_histogram() const {
  std::map<std::uint32_t, std::uint64_t> out;
  for (const auto& r : runs_) {
    for (const auto& w : r.windows) ++out[log2_bucket(w.events)];
  }
  return out;
}

ExecProfiler::Validation ExecProfiler::validate() const {
  Validation v;
  v.workers = max_workers();
  const double elapsed = elapsed_seconds();
  double busy = 0;           // useful serial work: dispatch + control batches
  std::uint64_t work = 0;    // events the model's numerator counts
  std::uint64_t cost = 0;    // virtual-barrier cost in event units
  double err_sum = 0;
  for (const auto& r : runs_) {
    busy += r.control_seconds;
    v.serial_events += r.control_events;
    work += r.control_events;
    cost += r.control_events;
    for (const auto& w : r.windows) {
      v.window_events += w.events;
      work += w.events;
      const std::uint64_t wcost = lpt_window_cost(w.owner_events, w.events, r.workers);
      cost += wcost;
      double max_d = 0, sum_d = 0, max_dr = 0;
      for (const auto& s : w.workers) {
        busy += s.dispatch_s;
        sum_d += s.dispatch_s;
        max_d = std::max(max_d, s.dispatch_s);
        max_dr = std::max(max_dr, s.drain_s);
      }
      const double nw = r.workers > 0 ? static_cast<double>(r.workers) : 1.0;
      v.imbalance_seconds += max_d - sum_d / nw;
      v.drain_seconds += max_dr;
      v.barrier_seconds += std::max(0.0, w.elapsed - max_d - max_dr);
      if (w.elapsed > 0 && w.events > 0 && wcost > 0) {
        const double measured_w = sum_d / w.elapsed;
        const double predicted_w =
            static_cast<double>(w.events) / static_cast<double>(wcost);
        err_sum += predicted_w > 0
                       ? (measured_w > predicted_w ? measured_w - predicted_w
                                                   : predicted_w - measured_w) /
                             predicted_w
                       : 0;
        ++v.windows_compared;
      }
    }
  }
  v.measured_speedup = elapsed > 0 ? busy / elapsed : 0;
  v.predicted_speedup =
      cost > 0 ? static_cast<double>(work) / static_cast<double>(cost) : 0;
  v.mean_window_error =
      v.windows_compared > 0 ? err_sum / static_cast<double>(v.windows_compared) : 0;
  v.barrier_overhead_fraction = elapsed > 0 ? v.barrier_seconds / elapsed : 0;
  if (v.imbalance_seconds > 0 || v.barrier_seconds > 0 || v.drain_seconds > 0) {
    if (v.imbalance_seconds >= v.barrier_seconds &&
        v.imbalance_seconds >= v.drain_seconds) {
      v.dominant_loss = "imbalance";
    } else if (v.barrier_seconds >= v.drain_seconds) {
      v.dominant_loss = "barrier";
    } else {
      v.dominant_loss = "drain";
    }
  }
  return v;
}

std::string ExecProfiler::report_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("runs").value(static_cast<std::uint64_t>(runs()));
  w.key("windows").value(static_cast<std::uint64_t>(windows()));
  w.key("workers").value(static_cast<std::uint64_t>(max_workers()));
  w.key("elapsed_seconds").value(elapsed_seconds());

  std::map<std::string, std::uint64_t> backends;
  for (const auto& r : runs_) ++backends[r.backend];
  w.key("backends").begin_object();
  for (const auto& [name, n] : backends) w.key(name).value(n);
  w.end_object();

  const PhaseTotals p = phases();
  w.key("phases").begin_object();
  w.key("dispatch_seconds").value(p.dispatch);
  w.key("drain_seconds").value(p.drain);
  w.key("barrier_seconds").value(p.barrier);
  w.key("control_seconds").value(p.control);
  w.key("fold_seconds").value(p.fold);
  w.end_object();

  const auto shares = worker_shares();
  w.key("workers_detail").begin_array();
  for (std::size_t i = 0; i < shares.size(); ++i) {
    const double total = shares[i].busy_s + shares[i].idle_s;
    w.begin_object();
    w.key("worker").value(static_cast<std::uint64_t>(i));
    w.key("busy_seconds").value(shares[i].busy_s);
    w.key("idle_seconds").value(shares[i].idle_s);
    w.key("busy_share").value(total > 0 ? shares[i].busy_s / total : 0);
    w.end_object();
  }
  w.end_array();

  std::uint64_t occ_max = 0, occ_sum = 0;
  std::size_t occ_n = 0;
  for (const auto& r : runs_) {
    for (const auto& win : r.windows) {
      occ_max = std::max(occ_max, win.events);
      occ_sum += win.events;
      ++occ_n;
    }
  }
  w.key("occupancy").begin_object();
  w.key("windows").value(static_cast<std::uint64_t>(occ_n));
  w.key("mean_events")
      .value(occ_n > 0 ? static_cast<double>(occ_sum) / static_cast<double>(occ_n) : 0);
  w.key("max_events").value(occ_max);
  w.key("histogram").begin_array();
  for (const auto& [bucket, n] : occupancy_histogram()) {
    w.begin_object();
    w.key("bucket").value(static_cast<std::uint64_t>(bucket));
    w.key("windows").value(n);
    w.end_object();
  }
  w.end_array();
  w.end_object();

  w.key("outbox").begin_array();
  for (const auto& [key, n] : volumes()) {
    w.begin_object();
    w.key("src").value(shard_label(key.first));
    w.key("dst").value(shard_label(key.second));
    w.key("events").value(n);
    w.end_object();
  }
  w.end_array();

  const Validation val = validate();
  w.key("validation").begin_object();
  w.key("model").value("barrier-window-lpt");
  w.key("workers").value(static_cast<std::uint64_t>(val.workers));
  w.key("window_events").value(val.window_events);
  w.key("serial_events").value(val.serial_events);
  w.key("measured_speedup").value(val.measured_speedup);
  w.key("predicted_speedup").value(val.predicted_speedup);
  w.key("windows_compared").value(static_cast<std::uint64_t>(val.windows_compared));
  w.key("mean_window_error").value(val.mean_window_error);
  w.key("loss").begin_object();
  w.key("imbalance_seconds").value(val.imbalance_seconds);
  w.key("barrier_seconds").value(val.barrier_seconds);
  w.key("drain_seconds").value(val.drain_seconds);
  w.key("dominant").value(val.dominant_loss);
  w.end_object();
  w.key("barrier_overhead_fraction").value(val.barrier_overhead_fraction);
  w.end_object();

  w.end_object();
  return w.str();
}

void ExecProfiler::merge(const ExecProfiler& other) {
  runs_.insert(runs_.end(), other.runs_.begin(), other.runs_.end());
}

// ------------------------------------------------------------ chrome trace --

namespace {

void slice(JsonWriter& w, std::int64_t pid, std::int64_t tid, double start_s,
           double dur_s, const char* name) {
  w.begin_object();
  w.key("ph").value("X");
  w.key("pid").value(pid);
  w.key("tid").value(tid);
  w.key("ts").value(start_s * 1e6);  // Chrome trace timestamps are microseconds
  w.key("dur").value(dur_s * 1e6);
  w.key("name").value(name);
  w.key("cat").value("exec");
}

void name_meta(JsonWriter& w, std::int64_t pid, std::int64_t tid, const char* key,
               const std::string& label) {
  w.begin_object();
  w.key("ph").value("M");
  w.key("pid").value(pid);
  w.key("tid").value(tid);
  w.key("name").value(key);
  w.key("args").begin_object();
  w.key("name").value(label);
  w.end_object();
  w.end_object();
}

}  // namespace

std::string exec_chrome_trace(const ExecProfiler& ep) {
  JsonWriter w;
  w.begin_object();
  w.key("displayTimeUnit").value("ms");
  w.key("traceEvents").begin_array();

  std::int64_t pid = 0;
  for (const auto& r : ep.run_records()) {
    ++pid;
    name_meta(w, pid, 0, "process_name",
              "run " + std::to_string(pid) + " (" + r.backend + ")");
    name_meta(w, pid, 0, "thread_name", "coordinator");
    for (std::size_t i = 0; i < r.workers; ++i) {
      name_meta(w, pid, static_cast<std::int64_t>(i) + 1, "thread_name",
                "worker " + std::to_string(i));
    }

    std::size_t window_idx = 0;
    for (const auto& win : r.windows) {
      ++window_idx;
      if (win.wall_start >= 0) {
        slice(w, pid, 0, win.wall_start, win.elapsed, "window");
        w.key("args").begin_object();
        w.key("window").value(static_cast<std::uint64_t>(window_idx));
        w.key("start_ns").value(win.start_ns);
        w.key("end_ns").value(win.end_ns);
        w.key("events").value(win.events);
        w.end_object();
        w.end_object();
      }
      for (std::size_t i = 0; i < win.workers.size(); ++i) {
        const auto& s = win.workers[i];
        const std::int64_t tid = static_cast<std::int64_t>(i) + 1;
        if (s.dispatch_start >= 0 && s.dispatch_s > 0) {
          slice(w, pid, tid, s.dispatch_start, s.dispatch_s, "dispatch");
          w.key("args").begin_object();
          w.key("window").value(static_cast<std::uint64_t>(window_idx));
          w.key("events").value(s.events);
          w.end_object();
          w.end_object();
        }
        if (s.drain_start >= 0 && s.drain_s > 0) {
          slice(w, pid, tid, s.drain_start, s.drain_s, "drain");
          w.key("args").begin_object();
          w.key("window").value(static_cast<std::uint64_t>(window_idx));
          w.end_object();
          w.end_object();
        }
      }
    }
    for (const auto& b : r.control_batches) {
      if (b.wall_start < 0) continue;
      if (b.fold_s > 0) {
        slice(w, pid, 0, b.wall_start, b.fold_s, "fold");
        w.key("args").begin_object();
        w.end_object();
        w.end_object();
      }
      slice(w, pid, 0, b.wall_start + b.fold_s, b.control_s, "control");
      w.key("args").begin_object();
      w.key("events").value(b.events);
      w.end_object();
      w.end_object();
    }
  }

  w.end_array();
  w.end_object();
  return w.str();
}

// --------------------------------------------------------------- dashboard --

std::string exec_dashboard(const ExecProfiler& ep, const std::string& title) {
  std::string out = page_head(title);
  out += "<p class=\"sub\">Execution profile &#183; wall-clock runtime observability "
         "&#183; nondeterministic export (exempt from byte identity)</p>\n";

  const ExecProfiler::Validation val = ep.validate();
  out += "<div class=\"tiles\">\n";
  const std::pair<const char*, std::string> tiles[] = {
      {"runs", fmt_compact(static_cast<double>(ep.runs()))},
      {"windows", fmt_compact(static_cast<double>(ep.windows()))},
      {"workers", fmt_compact(static_cast<double>(ep.max_workers()))},
      {"elapsed (s)", fmt2(ep.elapsed_seconds())},
      {"measured speedup", fmt2(val.measured_speedup)},
      {"predicted speedup", fmt2(val.predicted_speedup)},
      {"barrier overhead", fmt2(val.barrier_overhead_fraction * 100) + "%"},
      {"dominant loss", val.dominant_loss},
  };
  for (const auto& [k, v] : tiles) {
    out += "<div class=\"tile\"><div class=\"v\">" + html_escape(v) +
           "</div><div class=\"k\">" + k + "</div></div>\n";
  }
  out += "</div>\n";

  // --- worker timeline gantt ----------------------------------------------
  {
    // The run with the most workers has the most interesting timeline;
    // ties go to the first (run-index order).
    const ExecProfiler::Run* best = nullptr;
    for (const auto& r : ep.run_records()) {
      if (best == nullptr || r.workers > best->workers) best = &r;
    }
    open_card(out, "Worker timeline",
              best != nullptr
                  ? "one row per worker &#183; <b>dispatch</b> solid, <b>drain</b> "
                    "faded; gaps are barrier waits (first " +
                        std::to_string(ExecProfiler::kMaxSliceWindows) + " windows)"
                  : "");
    if (best != nullptr && !best->windows.empty()) {
      double span = 0;
      for (const auto& win : best->windows) {
        for (const auto& s : win.workers) {
          if (s.dispatch_start >= 0) span = std::max(span, s.dispatch_start + s.dispatch_s);
          if (s.drain_start >= 0) span = std::max(span, s.drain_start + s.drain_s);
        }
      }
      if (span <= 0) span = best->elapsed > 0 ? best->elapsed : 1;
      const double lw = 64, pw = 740, rh = 16;
      const double hpx = rh * static_cast<double>(best->workers) + 24;
      out += "<svg viewBox=\"0 0 " + fmt2(lw + pw + 8) + " " + fmt2(hpx) +
             "\" role=\"img\">\n";
      for (std::size_t i = 0; i < best->workers; ++i) {
        out += "<text class=\"tick\" x=\"" + fmt2(lw - 6) + "\" y=\"" +
               fmt2(rh * static_cast<double>(i) + rh * 0.7) +
               "\" text-anchor=\"end\">w" + std::to_string(i) + "</text>\n";
      }
      for (const auto& win : best->windows) {
        for (std::size_t i = 0; i < win.workers.size(); ++i) {
          const auto& s = win.workers[i];
          const double y = rh * static_cast<double>(i) + 2;
          if (s.dispatch_start >= 0 && s.dispatch_s > 0) {
            out += "<rect class=\"cell\" x=\"" + fmt2(lw + pw * s.dispatch_start / span) +
                   "\" y=\"" + fmt2(y) + "\" width=\"" +
                   fmt2(std::max(0.5, pw * s.dispatch_s / span)) + "\" height=\"" +
                   fmt2(rh - 4) + "\" fill=\"rgba(var(--heat),0.9)\"/>\n";
          }
          if (s.drain_start >= 0 && s.drain_s > 0) {
            out += "<rect class=\"cell\" x=\"" + fmt2(lw + pw * s.drain_start / span) +
                   "\" y=\"" + fmt2(y) + "\" width=\"" +
                   fmt2(std::max(0.5, pw * s.drain_s / span)) + "\" height=\"" +
                   fmt2(rh - 4) + "\" fill=\"rgba(var(--heat),0.35)\"/>\n";
          }
        }
      }
      out += "<text class=\"tick\" x=\"" + fmt2(lw) + "\" y=\"" + fmt2(hpx - 8) +
             "\">0 ms</text>\n";
      out += "<text class=\"tick\" x=\"" + fmt2(lw + pw) + "\" y=\"" + fmt2(hpx - 8) +
             "\" text-anchor=\"end\">" + html_escape(fmt2(span * 1e3)) + " ms</text>\n";
      out += "</svg>\n";
    }
    out += "</div>\n";
  }

  // --- window-occupancy histogram -----------------------------------------
  {
    const auto hist = ep.occupancy_histogram();
    std::uint64_t mx = 0;
    for (const auto& [b, n] : hist) {
      (void)b;
      mx = std::max(mx, n);
    }
    open_card(out, "Window occupancy",
              "events dispatched per barrier window, power-of-two buckets "
              "(occupancy drives barrier amortization)");
    if (!hist.empty() && mx > 0) {
      const double lw = 64, bw = 28, bh = 120;
      const double wpx = lw + bw * static_cast<double>(hist.size()) + 8;
      out += "<svg viewBox=\"0 0 " + fmt2(wpx) + " " + fmt2(bh + 28) + "\" role=\"img\">\n";
      std::size_t i = 0;
      for (const auto& [bucket, n] : hist) {
        const double h = bh * static_cast<double>(n) / static_cast<double>(mx);
        const double x = lw + bw * static_cast<double>(i);
        out += "<rect class=\"bar\" x=\"" + fmt2(x + 2) + "\" y=\"" + fmt2(bh - h) +
               "\" width=\"" + fmt2(bw - 4) + "\" height=\"" + fmt2(h) +
               "\"><title>" + std::to_string(n) + " windows</title></rect>\n";
        const std::uint64_t lo = bucket == 0 ? 0 : (1ull << (bucket - 1));
        out += "<text class=\"tick\" x=\"" + fmt2(x + bw / 2) + "\" y=\"" +
               fmt2(bh + 12) + "\" text-anchor=\"middle\">" +
               html_escape(fmt_compact(static_cast<double>(lo))) + "</text>\n";
        ++i;
      }
      out += "<line class=\"axis\" x1=\"" + fmt2(lw) + "\" y1=\"" + fmt2(bh) +
             "\" x2=\"" + fmt2(wpx - 8) + "\" y2=\"" + fmt2(bh) + "\"/>\n";
      out += "</svg>\n";
    }
    out += "</div>\n";
  }

  // --- stall breakdown ------------------------------------------------------
  {
    const auto shares = ep.worker_shares();
    open_card(out, "Stall breakdown",
              "per-worker wall time: <b>dispatch+drain</b> (solid) vs <b>barrier "
              "wait</b> (faded)");
    if (!shares.empty()) {
      double mx = 0;
      for (const auto& s : shares) mx = std::max(mx, s.busy_s + s.idle_s);
      if (mx <= 0) mx = 1;
      const double lw = 64, pw = 700, rh = 18;
      const double hpx = rh * static_cast<double>(shares.size()) + 8;
      out += "<svg viewBox=\"0 0 " + fmt2(lw + pw + 56) + " " + fmt2(hpx) +
             "\" role=\"img\">\n";
      for (std::size_t i = 0; i < shares.size(); ++i) {
        const double y = rh * static_cast<double>(i) + 2;
        const double busy_w = pw * shares[i].busy_s / mx;
        const double idle_w = pw * shares[i].idle_s / mx;
        out += "<text class=\"tick\" x=\"" + fmt2(lw - 6) + "\" y=\"" +
               fmt2(y + rh * 0.6) + "\" text-anchor=\"end\">w" + std::to_string(i) +
               "</text>\n";
        out += "<rect class=\"cell\" x=\"" + fmt2(lw) + "\" y=\"" + fmt2(y) +
               "\" width=\"" + fmt2(busy_w) + "\" height=\"" + fmt2(rh - 4) +
               "\" fill=\"rgba(var(--heat),0.9)\"/>\n";
        out += "<rect class=\"cell\" x=\"" + fmt2(lw + busy_w) + "\" y=\"" + fmt2(y) +
               "\" width=\"" + fmt2(idle_w) + "\" height=\"" + fmt2(rh - 4) +
               "\" fill=\"rgba(var(--heat),0.25)\"/>\n";
        const double total = shares[i].busy_s + shares[i].idle_s;
        out += "<text class=\"tick\" x=\"" + fmt2(lw + busy_w + idle_w + 6) + "\" y=\"" +
               fmt2(y + rh * 0.6) + "\">" +
               html_escape(fmt2(total > 0 ? 100 * shares[i].busy_s / total : 0)) +
               "% busy</text>\n";
      }
      out += "</svg>\n";
    }
    out += "</div>\n";
  }

  out += page_tail();
  return out;
}

}  // namespace tussle::sim
