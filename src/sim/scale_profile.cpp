#include "sim/scale_profile.hpp"

#include <algorithm>

#include "sim/html.hpp"
#include "sim/json.hpp"

namespace tussle::sim {

namespace {

/// Writes "component/kind" into `out`, reusing its buffer.
void assign_tag_label(std::string& out, const TaskTag& tag) {
  out.assign(tag.component != nullptr ? tag.component : "(untagged)");
  out += '/';
  out += tag.kind != nullptr ? tag.kind : "(untagged)";
}

/// The k values the virtual barrier executor is evaluated at. 0 stands for
/// ∞ (the pure work/span causality bound).
constexpr std::uint64_t kCurve[] = {1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64};

/// Home slot of a (row, shard) cell in a load-grid index of `mask` + 1
/// slots.
std::size_t grid_home(std::int64_t row, ShardId shard, std::size_t mask) noexcept {
  const std::uint64_t h = static_cast<std::uint64_t>(row) * 0x9E3779B97F4A7C15ull ^
                          static_cast<std::uint64_t>(shard) * 0xC2B2AE3D27D4EB4Full;
  return static_cast<std::size_t>(h ^ (h >> 29)) & mask;
}

}  // namespace

void ScaleProfiler::on_schedule(EventId /*id*/, SimTime /*now*/, SimTime /*at*/,
                                const TaskTag& /*tag*/, ShardId /*origin*/) {
  ++scheduled_;
}

void ScaleProfiler::on_cancel(EventId /*id*/, SimTime /*now*/, const TaskTag& /*tag*/,
                              const ScheduleRecord* /*rec*/) {
  ++cancelled_;
}

void ScaleProfiler::begin_event(EventId /*id*/, SimTime now, std::size_t queue_depth,
                                const TaskTag& tag, const ScheduleRecord* rec) {
  // The barrier-window width freezes at the first dispatch: the world (and
  // with it every cross-shard link) is built by then.
  if (frozen_window_ns_ == 0) {
    std::int64_t w = 0;
    for (const auto& [pair, lat] : links_) {
      (void)pair;
      if (w == 0 || lat < w) w = lat;
    }
    if (w <= 0) w = kTick.as_nanos();
    frozen_window_ns_ = w;
  }
  cur_time_ns_ = now.as_nanos();
  // Scheduled before the profiler attached: a causal root.
  cur_ = rec != nullptr ? *rec : ScheduleRecord{cur_time_ns_, 1, kNoShard};
  const auto depth = static_cast<std::uint64_t>(queue_depth);
  ++queue_samples_;
  queue_sum_ += depth;
  queue_max_ = std::max(queue_max_, depth);
  queue_cells_->get(queue_hist_, log2_bucket(depth)) += 1;
  depth_cells_->get(depth_hist_, log2_bucket(cur_.depth)) += 1;
  if (cur_.depth > own_span_) {
    own_span_ = cur_.depth;
    assign_tag_label(own_tail_, tag);
    own_tail_ns_ = cur_time_ns_;
  }
}

void ScaleProfiler::end_event(ShardId shard) {
  recorded_ = true;
  ++work_;
  ShardCells& c = shard_cells(shard);
  *c.events += 1;
  // A row is re-resolved on any change, not only forward: sim time
  // restarts at 0 when the next simulator this profiler watches starts.
  const std::int64_t tick = cur_time_ns_ / kTick.as_nanos();
  if (c.tick_cell == LoadGrid::kNone || c.tick != tick) {
    c.tick = tick;
    c.tick_cell = tick_load_.cell(tick, shard);
  }
  tick_load_.events(c.tick_cell) += 1;
  const std::int64_t into_window = cur_time_ns_ - c.window_start_ns;
  if (c.window_cell == LoadGrid::kNone || into_window < 0 || into_window >= frozen_window_ns_) {
    const std::int64_t window = cur_time_ns_ / frozen_window_ns_;
    c.window_start_ns = window * frozen_window_ns_;
    c.window_cell = window_load_.cell(window, shard);
  }
  window_load_.events(c.window_cell) += 1;
  TrafficEdge& e = edge(cur_.origin, shard);
  const std::int64_t delay = cur_time_ns_ - cur_.sched_ns;
  if (e.events == 0 || delay < e.min_delay_ns) e.min_delay_ns = delay;
  e.events += 1;
  if (cur_.origin != shard && cur_.origin != kNoShard && shard != kNoShard) ++cross_;
}

// ------------------------------------------------------------ load grid

std::uint32_t ScaleProfiler::LoadGrid::cell(std::int64_t row, ShardId shard) {
  if (2 * (cells_.size() + 1) > index_.size()) grow_index();
  const std::size_t mask = index_.size() - 1;
  for (std::size_t i = grid_home(row, shard, mask);; i = (i + 1) & mask) {
    if (index_[i] == 0) {
      cells_.push_back(LoadCell{row, shard, 0});
      index_[i] = static_cast<std::uint32_t>(cells_.size());
      return index_[i] - 1;
    }
    const LoadCell& c = cells_[index_[i] - 1];
    if (c.row == row && c.shard == shard) return index_[i] - 1;
  }
}

void ScaleProfiler::LoadGrid::grow_index() {
  index_.assign(std::max<std::size_t>(64, 2 * index_.size()), 0);
  const std::size_t mask = index_.size() - 1;
  for (std::size_t pos = 0; pos < cells_.size(); ++pos) {
    std::size_t i = grid_home(cells_[pos].row, cells_[pos].shard, mask);
    while (index_[i] != 0) i = (i + 1) & mask;
    index_[i] = static_cast<std::uint32_t>(pos + 1);
  }
}

std::vector<ScaleProfiler::LoadCell> ScaleProfiler::LoadGrid::sorted() const {
  std::vector<LoadCell> out = cells_;
  std::sort(out.begin(), out.end(), [](const LoadCell& a, const LoadCell& b) {
    return a.row != b.row ? a.row < b.row : a.shard < b.shard;
  });
  return out;
}

void ScaleProfiler::LoadGrid::add(const LoadGrid& other) {
  for (const LoadCell& c : other.cells_) events(cell(c.row, c.shard)) += c.events;
}

ScaleProfiler::ShardCells& ScaleProfiler::shard_cells(ShardId shard) {
  ShardCells& c = (*shard_cells_)[shard % kShardWays];
  if (c.events == nullptr || c.shard != shard) {
    c = ShardCells{};
    c.shard = shard;
    c.events = &shard_events_[shard];
  }
  return c;
}

ScaleProfiler::TrafficEdge& ScaleProfiler::edge(ShardId origin, ShardId shard) {
  const std::uint32_t h = (origin * 0x9E3779B1u) ^ shard;
  EdgeCell& c = (*edge_cells_)[(h ^ (h >> 16)) % kEdgeWays];
  if (c.edge == nullptr || c.origin != origin || c.shard != shard) {
    c = EdgeCell{origin, shard, &traffic_[{origin, shard}]};
  }
  return *c.edge;
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
  const std::vector<LoadCell> cells = window_load_.sorted();

  // Real shards in ascending id order, and each cell's position among them
  // (kSerial for unclaimed / shared-state cells).
  constexpr std::size_t kSerial = ~std::size_t{0};
  std::map<ShardId, std::uint64_t> totals;
  for (const LoadCell& c : cells) {
    if (c.shard != kNoShard && c.shard != kSharedShard) totals[c.shard] += c.events;
  }
  std::vector<ShardId> shards;
  shards.reserve(totals.size());
  for (const auto& [s, n] : totals) {
    (void)n;
    shards.push_back(s);
  }
  std::vector<std::size_t> real(cells.size(), kSerial);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const ShardId s = cells[i].shard;
    if (s == kNoShard || s == kSharedShard) continue;
    real[i] = static_cast<std::size_t>(std::lower_bound(shards.begin(), shards.end(), s) -
                                       shards.begin());
  }

  // Real shards ordered by (events desc, id asc): the LPT packing order.
  std::vector<std::pair<std::uint64_t, std::size_t>> order;
  order.reserve(shards.size());
  for (std::size_t r = 0; r < shards.size(); ++r) order.emplace_back(totals.at(shards[r]), r);
  std::sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });

  // One pass over the (window, shard) grid per k: each window costs the
  // slowest virtual shard (the barrier waits for it) plus the serial work
  // (unclaimed / shared-state events a conservative design runs with every
  // shard quiescent).
  auto replay = [&](const std::vector<std::size_t>& vshard_of,
                    std::size_t vshards) -> std::uint64_t {
    std::vector<std::uint64_t> wload(std::max<std::size_t>(vshards, 1), 0);
    std::uint64_t cost = 0, serial = 0;
    std::int64_t cur_w = cells.front().row;
    auto flush = [&] {
      std::uint64_t mx = 0;
      for (const std::uint64_t v : wload) mx = std::max(mx, v);
      cost += mx + serial;
      std::fill(wload.begin(), wload.end(), 0);
      serial = 0;
    };
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (cells[i].row != cur_w) {
        flush();
        cur_w = cells[i].row;
      }
      if (real[i] == kSerial) {
        serial += cells[i].events;
      } else {
        wload[vshard_of[real[i]]] += cells[i].events;
      }
    }
    flush();
    return cost;
  };

  std::vector<std::size_t> vshard_of(shards.size());
  for (const std::uint64_t k : kCurve) {
    const std::size_t vshards =
        std::max<std::size_t>(1, std::min<std::size_t>(k, std::max<std::size_t>(order.size(), 1)));
    std::vector<std::uint64_t> vload(vshards, 0);
    for (const auto& [n, r] : order) {
      std::size_t best = 0;
      for (std::size_t v = 1; v < vload.size(); ++v) {
        if (vload[v] < vload[best]) best = v;
      }
      vload[best] += n;
      vshard_of[r] = best;
    }
    out[k] = replay(vshard_of, vshards);
  }

  // k = ∞: every real shard is its own worker.
  for (std::size_t r = 0; r < shards.size(); ++r) vshard_of[r] = r;
  out[0] = replay(vshard_of, std::max<std::size_t>(shards.size(), 1));
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
  tick_load_.add(other.tick_load_);
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
  w.key("tick_ns").value(kTick.as_nanos());
  w.key("cells").begin_array();
  for (const LoadCell& c : tick_load_.sorted()) {
    w.begin_object();
    w.key("tick").value(static_cast<std::int64_t>(c.row));
    w.key("shard").value(shard_label(c.shard));
    w.key("events").value(c.events);
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
    const std::vector<ScaleProfiler::LoadCell> load = sp.tick_load();
    std::vector<ShardId> shards;
    std::vector<std::int64_t> ticks;
    std::uint64_t mx = 0;
    for (const ScaleProfiler::LoadCell& c : load) {
      if (ticks.empty() || ticks.back() != c.row) ticks.push_back(c.row);
      shards.push_back(c.shard);
      mx = std::max(mx, c.events);
    }
    std::sort(ticks.begin(), ticks.end());
    ticks.erase(std::unique(ticks.begin(), ticks.end()), ticks.end());
    std::sort(shards.begin(), shards.end());
    shards.erase(std::unique(shards.begin(), shards.end()), shards.end());
    open_card(out, "Shard load heatmap",
              "events per shard per " +
                  html_escape(fmt_compact(ScaleProfiler::kTick.as_millis())) +
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
      for (const ScaleProfiler::LoadCell& l : load) {
        auto& c = cells[{shard_row[l.shard], tick_col[l.row]}];
        c += l.events;
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
    histogram_svg(out, q.histogram, "dispatches");
    out += "</div>\n";
  }

  out += page_tail();
  return out;
}

}  // namespace tussle::sim
