#include "sim/scale_profile.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "sim/html.hpp"
#include "sim/json.hpp"

namespace tussle::sim {

namespace {

/// Power-of-two bucket: 0 -> 0, and bucket b covers [2^(b-1), 2^b - 1].
std::uint32_t log2_bucket(std::uint64_t v) noexcept {
  return static_cast<std::uint32_t>(std::bit_width(v));
}

std::string shard_label(ShardId s) {
  if (s == kNoShard) return "none";
  if (s == kSharedShard) return "shared";
  return std::to_string(s);
}

std::string tag_label(const TaskTag& tag) {
  std::string out = tag.component != nullptr ? tag.component : "(untagged)";
  out += '/';
  out += tag.kind != nullptr ? tag.kind : "(untagged)";
  return out;
}

/// The k values the virtual barrier executor is evaluated at. 0 stands for
/// ∞ (the pure work/span causality bound).
constexpr std::uint64_t kCurve[] = {1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64};

}  // namespace

void ScaleProfiler::set_tick(Duration tick) {
  if (tick.as_nanos() <= 0) {
    throw std::invalid_argument("ScaleProfiler: tick must be positive");
  }
  tick_ = tick;
}

void ScaleProfiler::on_schedule(std::uint64_t id, SimTime now, SimTime /*at*/,
                                const TaskTag& /*tag*/, ShardId origin) {
  ++scheduled_;
  Pending p;
  p.depth = in_event_ ? cur_.depth + 1 : 1;
  p.origin = origin;
  p.sched_ns = now.as_nanos();
  pending_[id] = p;
}

void ScaleProfiler::on_cancel(std::uint64_t id, SimTime /*now*/) {
  ++cancelled_;
  pending_.erase(id);
}

void ScaleProfiler::begin_event(std::uint64_t id, SimTime now, std::size_t queue_depth,
                                const TaskTag& tag) {
  // The barrier-window width freezes at the first dispatch: the world (and
  // with it every cross-shard link) is built by then.
  if (frozen_window_ns_ == 0) {
    std::int64_t w = 0;
    for (const auto& [pair, lat] : links_) {
      (void)pair;
      if (w == 0 || lat < w) w = lat;
    }
    if (w <= 0) w = tick_.as_nanos();
    frozen_window_ns_ = w;
  }
  in_event_ = true;
  cur_time_ns_ = now.as_nanos();
  if (auto it = pending_.find(id); it != pending_.end()) {
    cur_ = it->second;
    pending_.erase(it);
  } else {
    // Scheduled before the profiler attached: a causal root.
    cur_ = Pending{1, kNoShard, now.as_nanos()};
  }
  const auto depth = static_cast<std::uint64_t>(queue_depth);
  ++queue_samples_;
  queue_sum_ += depth;
  queue_max_ = std::max(queue_max_, depth);
  queue_hist_[log2_bucket(depth)] += 1;
  depth_hist_[log2_bucket(cur_.depth)] += 1;
  if (cur_.depth > own_span_) {
    own_span_ = cur_.depth;
    own_tail_ = tag_label(tag);
    own_tail_ns_ = cur_time_ns_;
  }
}

void ScaleProfiler::end_event(ShardId shard) {
  in_event_ = false;
  recorded_ = true;
  ++work_;
  shard_events_[shard] += 1;
  tick_load_[{cur_time_ns_ / tick_.as_nanos(), shard}] += 1;
  window_load_[{cur_time_ns_ / frozen_window_ns_, shard}] += 1;
  TrafficEdge& e = traffic_[{cur_.origin, shard}];
  const std::int64_t delay = cur_time_ns_ - cur_.sched_ns;
  if (e.events == 0 || delay < e.min_delay_ns) e.min_delay_ns = delay;
  e.events += 1;
  if (cur_.origin != shard && cur_.origin != kNoShard && shard != kNoShard) ++cross_;
}

void ScaleProfiler::register_link(ShardId a, ShardId b, Duration latency) {
  if (a == b) return;
  const auto key = std::make_pair(std::min(a, b), std::max(a, b));
  const std::int64_t lat = latency.as_nanos();
  auto [it, inserted] = links_.try_emplace(key, lat);
  if (!inserted && lat < it->second) it->second = lat;
}

// ----------------------------------------------------------------- results

std::uint64_t ScaleProfiler::work() const noexcept { return work_; }
std::uint64_t ScaleProfiler::events_scheduled() const noexcept { return scheduled_; }
std::uint64_t ScaleProfiler::events_cancelled() const noexcept { return cancelled_; }

std::uint64_t ScaleProfiler::critical_path_length() const noexcept {
  return std::max(merged_span_max_, own_span_);
}

std::uint64_t ScaleProfiler::span_total() const noexcept {
  return merged_span_total_ + own_span_;
}

double ScaleProfiler::work_span_ratio() const noexcept {
  const std::uint64_t span = span_total();
  if (span == 0) return 0;
  return static_cast<double>(work_) / static_cast<double>(span);
}

std::uint64_t ScaleProfiler::runs() const noexcept {
  return merged_runs_ + (recorded_ ? 1 : 0);
}

double ScaleProfiler::imbalance_ratio() const noexcept {
  std::uint64_t total = 0, mx = 0;
  std::size_t n = 0;
  for (const auto& [s, ev] : shard_events_) {
    if (s == kNoShard || s == kSharedShard) continue;
    total += ev;
    mx = std::max(mx, ev);
    ++n;
  }
  if (n == 0 || total == 0) return 0;
  const double mean = static_cast<double>(total) / static_cast<double>(n);
  return static_cast<double>(mx) / mean;
}

std::uint64_t ScaleProfiler::cross_shard_events() const noexcept { return cross_; }

std::int64_t ScaleProfiler::window_ns() const noexcept {
  return frozen_window_ns_ != 0 ? frozen_window_ns_ : merged_window_ns_;
}

ScaleProfiler::QueueStats ScaleProfiler::queue_stats() const {
  QueueStats q;
  q.samples = queue_samples_;
  q.max_depth = queue_max_;
  q.mean_depth = queue_samples_ > 0
                     ? static_cast<double>(queue_sum_) / static_cast<double>(queue_samples_)
                     : 0.0;
  q.histogram = queue_hist_;
  return q;
}

std::map<std::uint64_t, std::uint64_t> ScaleProfiler::own_costs() const {
  std::map<std::uint64_t, std::uint64_t> out;
  if (window_load_.empty()) return out;

  // Real shards ordered by (events desc, id asc): the LPT packing order.
  std::map<ShardId, std::uint64_t> totals;
  for (const auto& [key, n] : window_load_) {
    const ShardId s = key.second;
    if (s != kNoShard && s != kSharedShard) totals[s] += n;
  }
  std::vector<std::pair<std::uint64_t, ShardId>> order;
  order.reserve(totals.size());
  for (const auto& [s, n] : totals) order.emplace_back(n, s);
  std::sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });

  // One pass over the (window, shard) grid per k: each window costs the
  // slowest virtual shard (the barrier waits for it) plus the serial work
  // (unclaimed / shared-state events a conservative design runs with every
  // shard quiescent).
  auto replay = [&](const std::map<ShardId, std::size_t>& vshard_of,
                    std::size_t vshards) -> std::uint64_t {
    std::vector<std::uint64_t> wload(std::max<std::size_t>(vshards, 1), 0);
    std::uint64_t cost = 0, serial = 0;
    std::int64_t cur_w = window_load_.begin()->first.first;
    auto flush = [&] {
      std::uint64_t mx = 0;
      for (const std::uint64_t v : wload) mx = std::max(mx, v);
      cost += mx + serial;
      std::fill(wload.begin(), wload.end(), 0);
      serial = 0;
    };
    for (const auto& [key, n] : window_load_) {
      if (key.first != cur_w) {
        flush();
        cur_w = key.first;
      }
      const ShardId s = key.second;
      if (s == kNoShard || s == kSharedShard) {
        serial += n;
      } else {
        wload[vshard_of.at(s)] += n;
      }
    }
    flush();
    return cost;
  };

  for (const std::uint64_t k : kCurve) {
    const std::size_t vshards =
        std::max<std::size_t>(1, std::min<std::size_t>(k, std::max<std::size_t>(order.size(), 1)));
    std::map<ShardId, std::size_t> vshard_of;
    std::vector<std::uint64_t> vload(vshards, 0);
    for (const auto& [n, s] : order) {
      std::size_t best = 0;
      for (std::size_t v = 1; v < vload.size(); ++v) {
        if (vload[v] < vload[best]) best = v;
      }
      vload[best] += n;
      vshard_of[s] = best;
    }
    out[k] = replay(vshard_of, vshards);
  }

  // k = ∞: every real shard is its own worker.
  std::map<ShardId, std::size_t> identity;
  std::size_t slot = 0;
  for (const auto& [s, n] : totals) {
    (void)n;
    identity[s] = slot++;
  }
  out[0] = replay(identity, std::max<std::size_t>(identity.size(), 1));
  return out;
}

std::map<std::uint64_t, std::uint64_t> ScaleProfiler::total_costs() const {
  std::map<std::uint64_t, std::uint64_t> out = merged_costs_;
  for (const auto& [k, c] : own_costs()) out[k] += c;
  return out;
}

double ScaleProfiler::speedup_at(std::uint64_t k) const {
  if (work_ == 0) return 0;
  const double bound = work_span_ratio();
  if (k == 0) return bound;
  const auto costs = total_costs();
  const auto it = costs.find(k);
  if (it == costs.end() || it->second == 0) return 0;
  const double s = static_cast<double>(work_) / static_cast<double>(it->second);
  return std::min(s, bound);
}

std::vector<std::pair<std::uint64_t, double>> ScaleProfiler::speedup_curve() const {
  std::vector<std::pair<std::uint64_t, double>> out;
  if (work_ == 0) return out;
  for (const std::uint64_t k : kCurve) out.emplace_back(k, speedup_at(k));
  out.emplace_back(0, speedup_at(0));
  return out;
}

const std::string& ScaleProfiler::tail_label() const noexcept {
  return merged_span_max_ > own_span_ ? merged_tail_ : own_tail_;
}

std::int64_t ScaleProfiler::tail_time_ns() const noexcept {
  return merged_span_max_ > own_span_ ? merged_tail_ns_ : own_tail_ns_;
}

// ------------------------------------------------------------------- merge

std::unique_ptr<Observer> ScaleProfiler::make_lane() const {
  return std::make_unique<ScaleProfiler>();
}

void ScaleProfiler::fold(const Observer& lane) { merge(static_cast<const ScaleProfiler&>(lane)); }

void ScaleProfiler::merge(const ScaleProfiler& other) {
  // Finalize the other side's per-run quantities *before* summing raw
  // tallies: spans and barrier costs must pool as Σ over runs, never be
  // recomputed from a combined event stream that interleaves runs.
  if (other.critical_path_length() > critical_path_length()) {
    merged_span_max_ = other.critical_path_length();
    merged_tail_ = other.tail_label();
    merged_tail_ns_ = other.tail_time_ns();
  }
  merged_span_total_ += other.span_total();
  for (const auto& [k, c] : other.total_costs()) merged_costs_[k] += c;
  merged_runs_ += other.runs();
  if (merged_window_ns_ == 0) merged_window_ns_ = other.window_ns();

  scheduled_ += other.scheduled_;
  cancelled_ += other.cancelled_;
  work_ += other.work_;
  cross_ += other.cross_;
  for (const auto& [s, n] : other.shard_events_) shard_events_[s] += n;
  for (const auto& [key, n] : other.tick_load_) tick_load_[key] += n;
  for (const auto& [key, e] : other.traffic_) {
    TrafficEdge& mine = traffic_[key];
    if (mine.events == 0 || e.min_delay_ns < mine.min_delay_ns) {
      mine.min_delay_ns = e.min_delay_ns;
    }
    mine.events += e.events;
  }
  for (const auto& [key, lat] : other.links_) {
    auto [it, inserted] = links_.try_emplace(key, lat);
    if (!inserted && lat < it->second) it->second = lat;
  }
  for (const auto& [b, n] : other.depth_hist_) depth_hist_[b] += n;
  for (const auto& [b, n] : other.queue_hist_) queue_hist_[b] += n;
  queue_samples_ += other.queue_samples_;
  queue_sum_ += other.queue_sum_;
  queue_max_ = std::max(queue_max_, other.queue_max_);
}

// ------------------------------------------------------------------ report

std::string ScaleProfiler::report_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("work").value(work_);
  w.key("events_scheduled").value(scheduled_);
  w.key("events_cancelled").value(cancelled_);
  w.key("runs").value(runs());

  w.key("critical_path").begin_object();
  w.key("length").value(critical_path_length());
  w.key("span_total").value(span_total());
  w.key("work_span_ratio").value(work_span_ratio());
  w.key("tail").value(tail_label());
  w.key("tail_t_ns").value(static_cast<std::int64_t>(tail_time_ns()));
  w.end_object();

  w.key("depth_profile").begin_array();
  for (const auto& [b, n] : depth_hist_) {
    w.begin_object();
    w.key("bucket_pow2").value(static_cast<std::uint64_t>(b));
    w.key("events").value(n);
    w.end_object();
  }
  w.end_array();

  w.key("shards").begin_array();
  for (const auto& [s, n] : shard_events_) {
    w.begin_object();
    w.key("shard").value(shard_label(s));
    w.key("events").value(n);
    w.key("share").value(work_ > 0 ? static_cast<double>(n) / static_cast<double>(work_)
                                   : 0.0);
    w.end_object();
  }
  w.end_array();

  std::size_t real_shards = 0;
  for (const auto& [s, n] : shard_events_) {
    (void)n;
    if (s != kNoShard && s != kSharedShard) ++real_shards;
  }
  w.key("imbalance").begin_object();
  w.key("shards").value(static_cast<std::uint64_t>(real_shards));
  w.key("ratio").value(imbalance_ratio());
  w.end_object();

  w.key("shard_load").begin_object();
  w.key("tick_ns").value(static_cast<std::int64_t>(tick_.as_nanos()));
  w.key("cells").begin_array();
  for (const auto& [key, n] : tick_load_) {
    w.begin_object();
    w.key("tick").value(static_cast<std::int64_t>(key.first));
    w.key("shard").value(shard_label(key.second));
    w.key("events").value(n);
    w.end_object();
  }
  w.end_array();
  w.end_object();

  w.key("traffic_matrix").begin_array();
  for (const auto& [key, e] : traffic_) {
    w.begin_object();
    w.key("from").value(shard_label(key.first));
    w.key("to").value(shard_label(key.second));
    w.key("events").value(e.events);
    w.key("min_delay_ns").value(static_cast<std::int64_t>(e.min_delay_ns));
    w.end_object();
  }
  w.end_array();
  w.key("cross_shard_events").value(cross_);

  w.key("lookahead").begin_object();
  w.key("window_ns").value(static_cast<std::int64_t>(window_ns()));
  w.key("links").begin_array();
  for (const auto& [key, lat] : links_) {
    w.begin_object();
    w.key("a").value(shard_label(key.first));
    w.key("b").value(shard_label(key.second));
    w.key("min_latency_ns").value(static_cast<std::int64_t>(lat));
    w.end_object();
  }
  w.end_array();
  w.end_object();

  const QueueStats q = queue_stats();
  w.key("queue").begin_object();
  w.key("samples").value(q.samples);
  w.key("max_depth").value(q.max_depth);
  w.key("mean_depth").value(q.mean_depth);
  w.key("histogram").begin_array();
  for (const auto& [b, n] : q.histogram) {
    w.begin_object();
    w.key("bucket_pow2").value(static_cast<std::uint64_t>(b));
    w.key("events").value(n);
    w.end_object();
  }
  w.end_array();
  w.end_object();

  const auto costs = total_costs();
  w.key("speedup").begin_object();
  w.key("model").value("barrier-window-lpt");
  w.key("bound").value(work_span_ratio());
  w.key("curve").begin_array();
  for (const auto& [k, s] : speedup_curve()) {
    w.begin_object();
    if (k == 0) {
      w.key("k").value("inf");
    } else {
      w.key("k").value(k);
    }
    if (const auto it = costs.find(k); it != costs.end()) {
      w.key("cost").value(it->second);
    }
    w.key("speedup").value(s);
    w.end_object();
  }
  w.end_array();
  w.end_object();

  w.end_object();
  return w.str();
}

// --------------------------------------------------------------- dashboard

std::string scale_dashboard(const ScaleProfiler& sp, const std::string& title) {
  std::string out = page_head(title);
  out += "<p class=\"sub\">Scale profile &#183; PDES-readiness &#183; deterministic "
         "export</p>\n";

  // --- stat tiles ----------------------------------------------------------
  std::size_t real_shards = 0;
  for (const auto& [s, n] : sp.shard_events()) {
    (void)n;
    if (s != kNoShard && s != kSharedShard) ++real_shards;
  }
  out += "<div class=\"tiles\">\n";
  const std::pair<const char*, std::string> tiles[] = {
      {"events (work)", fmt_compact(static_cast<double>(sp.work()))},
      {"critical path", fmt_compact(static_cast<double>(sp.critical_path_length()))},
      {"work / span", fmt_compact(sp.work_span_ratio())},
      {"shards", fmt_compact(static_cast<double>(real_shards))},
      {"imbalance", fmt_compact(sp.imbalance_ratio())},
      {"cross-shard", fmt_compact(static_cast<double>(sp.cross_shard_events()))},
  };
  for (const auto& [k, v] : tiles) {
    out += "<div class=\"tile\"><div class=\"v\">" + html_escape(v) +
           "</div><div class=\"k\">" + k + "</div></div>\n";
  }
  out += "</div>\n";

  // --- shard-load heatmap --------------------------------------------------
  {
    const auto& load = sp.tick_load();
    std::vector<ShardId> shards;
    std::vector<std::int64_t> ticks;
    std::uint64_t mx = 0;
    for (const auto& [key, n] : load) {
      if (ticks.empty() || ticks.back() != key.first) ticks.push_back(key.first);
      shards.push_back(key.second);
      mx = std::max(mx, n);
    }
    std::sort(ticks.begin(), ticks.end());
    ticks.erase(std::unique(ticks.begin(), ticks.end()), ticks.end());
    std::sort(shards.begin(), shards.end());
    shards.erase(std::unique(shards.begin(), shards.end()), shards.end());
    open_card(out, "Shard load heatmap",
              "events per shard per " +
                  html_escape(fmt_compact(static_cast<double>(sp.tick().as_nanos()) * 1e-6)) +
                  " ms tick &#183; darker = busier (max <b>" +
                  html_escape(fmt_compact(static_cast<double>(mx))) + "</b>)");
    if (!load.empty() && mx > 0) {
      // Coarsen wide grids so each column stays visible.
      constexpr std::size_t kMaxCols = 120;
      const std::size_t group = (ticks.size() + kMaxCols - 1) / kMaxCols;
      std::map<std::int64_t, std::size_t> tick_col;
      for (std::size_t i = 0; i < ticks.size(); ++i) tick_col[ticks[i]] = i / group;
      const std::size_t cols = (ticks.size() + group - 1) / group;
      std::map<ShardId, std::size_t> shard_row;
      for (std::size_t i = 0; i < shards.size(); ++i) shard_row[shards[i]] = i;
      std::map<std::pair<std::size_t, std::size_t>, std::uint64_t> cells;
      std::uint64_t cell_max = 0;
      for (const auto& [key, n] : load) {
        auto& c = cells[{shard_row[key.second], tick_col[key.first]}];
        c += n;
        cell_max = std::max(cell_max, c);
      }
      const double lw = 64, cw = std::max(6.0, 740.0 / static_cast<double>(cols));
      const double ch = 16;
      const double wpx = lw + cw * static_cast<double>(cols) + 8;
      const double hpx = ch * static_cast<double>(shards.size()) + 24;
      out += "<svg viewBox=\"0 0 " + fmt2(wpx) + " " + fmt2(hpx) + "\" role=\"img\">\n";
      for (std::size_t r = 0; r < shards.size(); ++r) {
        out += "<text class=\"tick\" x=\"" + fmt2(lw - 6) + "\" y=\"" +
               fmt2(ch * static_cast<double>(r) + ch * 0.7) +
               "\" text-anchor=\"end\">" + html_escape(shard_label(shards[r])) +
               "</text>\n";
      }
      for (const auto& [rc, n] : cells) {
        const double op = 0.08 + 0.92 * static_cast<double>(n) / static_cast<double>(cell_max);
        out += "<rect class=\"cell\" x=\"" +
               fmt2(lw + cw * static_cast<double>(rc.second)) + "\" y=\"" +
               fmt2(ch * static_cast<double>(rc.first)) + "\" width=\"" + fmt2(cw) +
               "\" height=\"" + fmt2(ch) + "\" fill=\"rgba(var(--heat)," + fmt2(op) +
               ")\"><title>shard " + html_escape(shard_label(shards[rc.first])) + ", " +
               std::to_string(n) + " events</title></rect>\n";
      }
      out += "<text class=\"tick\" x=\"" + fmt2(lw) + "\" y=\"" + fmt2(hpx - 8) +
             "\">t = 0</text>\n";
      out += "<text class=\"tick\" x=\"" + fmt2(wpx - 8) + "\" y=\"" + fmt2(hpx - 8) +
             "\" text-anchor=\"end\">" + std::to_string(ticks.size()) + " ticks</text>\n";
      out += "</svg>\n";
    }
    out += "</div>\n";
  }

  // --- traffic matrix ------------------------------------------------------
  {
    const auto& tm = sp.traffic();
    std::vector<ShardId> axes;
    std::uint64_t mx = 0;
    for (const auto& [key, e] : tm) {
      axes.push_back(key.first);
      axes.push_back(key.second);
      mx = std::max(mx, e.events);
    }
    std::sort(axes.begin(), axes.end());
    axes.erase(std::unique(axes.begin(), axes.end()), axes.end());
    open_card(out, "Cross-shard traffic matrix",
              "row schedules into column &#183; <b>" +
                  html_escape(fmt_compact(static_cast<double>(sp.cross_shard_events()))) +
                  "</b> cross-shard events");
    if (!tm.empty() && mx > 0) {
      std::map<ShardId, std::size_t> pos;
      for (std::size_t i = 0; i < axes.size(); ++i) pos[axes[i]] = i;
      const double lw = 64, cs = std::max(
          14.0, std::min(36.0, 700.0 / static_cast<double>(axes.size())));
      const double wpx = lw + cs * static_cast<double>(axes.size()) + 8;
      const double hpx = 18 + cs * static_cast<double>(axes.size()) + 8;
      out += "<svg viewBox=\"0 0 " + fmt2(wpx) + " " + fmt2(hpx) + "\" role=\"img\">\n";
      for (std::size_t i = 0; i < axes.size(); ++i) {
        out += "<text class=\"tick\" x=\"" +
               fmt2(lw + cs * static_cast<double>(i) + cs / 2) +
               "\" y=\"12\" text-anchor=\"middle\">" + html_escape(shard_label(axes[i])) +
               "</text>\n";
        out += "<text class=\"tick\" x=\"" + fmt2(lw - 6) + "\" y=\"" +
               fmt2(18 + cs * static_cast<double>(i) + cs * 0.6) +
               "\" text-anchor=\"end\">" + html_escape(shard_label(axes[i])) + "</text>\n";
      }
      for (const auto& [key, e] : tm) {
        const double op =
            0.08 + 0.92 * static_cast<double>(e.events) / static_cast<double>(mx);
        out += "<rect class=\"cell\" x=\"" +
               fmt2(lw + cs * static_cast<double>(pos[key.second])) + "\" y=\"" +
               fmt2(18 + cs * static_cast<double>(pos[key.first])) + "\" width=\"" +
               fmt2(cs) + "\" height=\"" + fmt2(cs) + "\" fill=\"rgba(var(--heat)," +
               fmt2(op) + ")\"><title>" + html_escape(shard_label(key.first)) +
               " &#8594; " + html_escape(shard_label(key.second)) + ": " +
               std::to_string(e.events) + " events, min delay " +
               fmt_compact(static_cast<double>(e.min_delay_ns) * 1e-6) +
               " ms</title></rect>\n";
      }
      out += "</svg>\n";
    }
    out += "</div>\n";
  }

  // --- speedup-vs-k curve --------------------------------------------------
  {
    const auto curve = sp.speedup_curve();
    open_card(out, "Predicted PDES speedup vs worker shards",
              "virtual barrier-round executor, lookahead window " +
                  html_escape(fmt_compact(static_cast<double>(sp.window_ns()) * 1e-6)) +
                  " ms &#183; causal bound (work/span) <b>" +
                  html_escape(fmt_compact(sp.work_span_ratio())) + "</b>");
    if (!curve.empty()) {
      constexpr double kW = 760, kH = 200, kML = 46, kMR = 14, kMT = 10, kMB = 26;
      const double pw = kW - kML - kMR, ph = kH - kMT - kMB;
      double hi = 1.0;
      for (const auto& [k, s] : curve) {
        (void)k;
        hi = std::max(hi, s);
      }
      const std::size_t n = curve.size();
      auto sx = [&](std::size_t i) {
        return kML + pw * static_cast<double>(i) / static_cast<double>(n - 1);
      };
      auto sy = [&](double v) { return kMT + (hi - v) / hi * ph; };
      out += "<svg viewBox=\"0 0 " + fmt2(kW) + " " + fmt2(kH) + "\" role=\"img\">\n";
      for (int g = 0; g <= 3; ++g) {
        const double v = hi * static_cast<double>(g) / 3.0;
        out += "<line class=\"grid\" x1=\"" + fmt2(kML) + "\" y1=\"" + fmt2(sy(v)) +
               "\" x2=\"" + fmt2(kW - kMR) + "\" y2=\"" + fmt2(sy(v)) + "\"/>\n";
        out += "<text class=\"tick\" x=\"" + fmt2(kML - 6) + "\" y=\"" + fmt2(sy(v)) +
               "\" dy=\"0.32em\" text-anchor=\"end\">" +
               html_escape(fmt_compact(v)) + "</text>\n";
      }
      // Dashed causality bound.
      out += "<line class=\"ann\" x1=\"" + fmt2(kML) + "\" y1=\"" +
             fmt2(sy(sp.work_span_ratio())) + "\" x2=\"" + fmt2(kW - kMR) + "\" y2=\"" +
             fmt2(sy(sp.work_span_ratio())) + "\"/>\n";
      out += "<polyline class=\"line\" points=\"";
      for (std::size_t i = 0; i < n; ++i) {
        if (i) out += ' ';
        out += fmt2(sx(i)) + "," + fmt2(sy(curve[i].second));
      }
      out += "\"/>\n";
      for (std::size_t i = 0; i < n; ++i) {
        const std::string label =
            curve[i].first == 0 ? std::string("inf") : std::to_string(curve[i].first);
        out += "<text class=\"tick\" x=\"" + fmt2(sx(i)) + "\" y=\"" + fmt2(kH - 8) +
               "\" text-anchor=\"middle\">" + label + "</text>\n";
      }
      out += "</svg>\n";
    }
    out += "</div>\n";
  }

  // --- queue-depth histogram ----------------------------------------------
  {
    const auto q = sp.queue_stats();
    open_card(out, "Event-queue depth",
              "max <b>" + html_escape(fmt_compact(static_cast<double>(q.max_depth))) +
                  "</b> &#183; mean <b>" + html_escape(fmt_compact(q.mean_depth)) +
                  "</b> over " + html_escape(fmt_compact(static_cast<double>(q.samples))) +
                  " dispatches");
    if (!q.histogram.empty()) {
      std::uint64_t mx = 0;
      for (const auto& [b, n] : q.histogram) {
        (void)b;
        mx = std::max(mx, n);
      }
      const std::size_t n = q.histogram.size();
      constexpr double kW = 760, kH = 140, kML = 46, kMB = 24;
      const double bw = (kW - kML - 14) / static_cast<double>(n);
      out += "<svg viewBox=\"0 0 " + fmt2(kW) + " " + fmt2(kH) + "\" role=\"img\">\n";
      std::size_t i = 0;
      for (const auto& [b, cnt] : q.histogram) {
        const double h =
            (kH - kMB - 10) * static_cast<double>(cnt) / static_cast<double>(mx);
        const double x = kML + bw * static_cast<double>(i);
        out += "<rect class=\"bar\" x=\"" + fmt2(x + 2) + "\" y=\"" +
               fmt2(kH - kMB - h) + "\" width=\"" + fmt2(bw - 4) + "\" height=\"" +
               fmt2(h) + "\"><title>" + std::to_string(cnt) + " dispatches</title></rect>\n";
        const std::string label =
            b == 0 ? std::string("0")
                   : "&#8804;" + fmt_compact(static_cast<double>((1ull << b) - 1));
        out += "<text class=\"tick\" x=\"" + fmt2(x + bw / 2) + "\" y=\"" +
               fmt2(kH - 8) + "\" text-anchor=\"middle\">" + label + "</text>\n";
        ++i;
      }
      out += "</svg>\n";
    }
    out += "</div>\n";
  }

  out += page_tail();
  return out;
}

}  // namespace tussle::sim
