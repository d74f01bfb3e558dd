#include "sim/mem_profile.hpp"

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

/// Negative durations cannot happen (sim time is monotone within a run),
/// but a defensive clamp keeps the bucket math total.
std::uint32_t duration_bucket(std::int64_t ns) noexcept {
  return log2_bucket(ns > 0 ? static_cast<std::uint64_t>(ns) : 0u);
}

std::string shard_label(ShardId s) {
  if (s == kNoShard) return "none";
  if (s == kSharedShard) return "shared";
  return std::to_string(s);
}

std::string event_site(const TaskTag& tag) {
  return std::string("sim.event/") + (tag.component != nullptr ? tag.component : "(untagged)");
}

/// Component prefix of an allocation site: the text before the first '/'
/// ("sim.event/net.link" pools under "sim.event", "net.packet" under
/// itself), so every churner ranks as exactly one component.
std::string site_component(const std::string& site) {
  const auto slash = site.find('/');
  return slash == std::string::npos ? site : site.substr(0, slash);
}

void write_histogram(JsonWriter& w, const char* key,
                     const std::map<std::uint32_t, std::uint64_t>& hist) {
  w.key(key).begin_array();
  for (const auto& [b, n] : hist) {
    w.begin_object();
    w.key("bucket_pow2").value(static_cast<std::uint64_t>(b));
    w.key("count").value(n);
    w.end_object();
  }
  w.end_array();
}

}  // namespace

void MemProfiler::set_tick(Duration tick) {
  if (tick.as_nanos() <= 0) {
    throw std::invalid_argument("MemProfiler: tick must be positive");
  }
  tick_ = tick;
}

void MemProfiler::sample_timeline() {
  std::int64_t& cell = timeline_[cur_time_ns_ / tick_.as_nanos()];
  cell = std::max(cell, live_);
}

void MemProfiler::add_live(std::int64_t delta) {
  live_ += delta;
  own_peak_ = std::max(own_peak_, live_);
  if (in_event_) cur_delta_ += delta;
  sample_timeline();
}

void MemProfiler::on_schedule(std::uint64_t id, SimTime now, SimTime /*at*/,
                              const TaskTag& tag, ShardId /*origin*/) {
  ++scheduled_;
  cur_time_ns_ = std::max(cur_time_ns_, now.as_nanos());
  PendingEvent p;
  p.sched_ns = now.as_nanos();
  p.site = event_site(tag);
  count_alloc(p.site, kEventControlBlockBytes);
  pending_[id] = std::move(p);
}

void MemProfiler::on_cancel(std::uint64_t id, SimTime now) {
  ++cancelled_;
  const auto it = pending_.find(id);
  if (it == pending_.end()) return;  // scheduled before the profiler attached
  ev_cancelled_hist_[duration_bucket(now.as_nanos() - it->second.sched_ns)] += 1;
  count_free(it->second.site, kEventControlBlockBytes);
  pending_.erase(it);
}

void MemProfiler::begin_event(std::uint64_t id, SimTime now, std::size_t queue_depth,
                              const TaskTag& tag) {
  (void)tag;
  in_event_ = true;
  cur_time_ns_ = now.as_nanos();
  cur_delta_ = 0;
  cur_hops_ = 0;
  if (const auto it = pending_.find(id); it != pending_.end()) {
    ev_dispatched_hist_[duration_bucket(now.as_nanos() - it->second.sched_ns)] += 1;
    count_free(it->second.site, kEventControlBlockBytes);
    pending_.erase(it);
  }
  note_occupancy("sim.event_queue", static_cast<std::uint64_t>(queue_depth));
  note_hops("sim.dispatch", kDispatchChaseHops);
}

void MemProfiler::end_event(ShardId shard) {
  in_event_ = false;
  recorded_ = true;
  ++work_;
  hops_hist_[log2_bucket(cur_hops_)] += 1;
  ShardMem& sm = shard_mem_[shard];
  sm.events += 1;
  sm.live += cur_delta_;
  sm.peak_live = std::max(sm.peak_live, sm.live);
}

void MemProfiler::register_actor(const char* kind, std::uint64_t bytes) {
  Tally& t = actors_[kind];
  t.count += 1;
  t.bytes += bytes;
  // Actors enter the live-bytes account too — registration allocates a
  // long-lived object — so live-bytes-per-actor has one source of truth.
  count_alloc(kind, bytes);
}

void MemProfiler::count_alloc(const std::string& site, std::uint64_t bytes) {
  SiteStats& s = sites_[site];
  s.allocs += 1;
  s.alloc_bytes += bytes;
  s.peak_live = std::max(s.peak_live, s.live());
  ++alloc_count_;
  add_live(static_cast<std::int64_t>(bytes));
}

void MemProfiler::count_free(const std::string& site, std::uint64_t bytes) {
  SiteStats& s = sites_[site];
  s.frees += 1;
  s.freed_bytes += bytes;
  add_live(-static_cast<std::int64_t>(bytes));
}

void MemProfiler::packet_birth(std::uint64_t uid, SimTime now, std::uint64_t bytes) {
  cur_time_ns_ = std::max(cur_time_ns_, now.as_nanos());
  count_alloc("net.packet", bytes);
  // First birth wins, mirroring first-death-wins below: encapsulation and
  // mirrored copies reuse the wire uid and must not restart the lifetime.
  pending_packets_.try_emplace(uid, PendingPacket{now.as_nanos(), bytes});
}

void MemProfiler::packet_delivered(std::uint64_t uid, SimTime now) {
  const auto it = pending_packets_.find(uid);
  if (it == pending_packets_.end()) return;  // mirrored copy: first death won
  pkt_delivered_hist_[duration_bucket(now.as_nanos() - it->second.birth_ns)] += 1;
  count_free("net.packet", it->second.bytes);
  pending_packets_.erase(it);
}

void MemProfiler::packet_dropped(std::uint64_t uid, SimTime now) {
  const auto it = pending_packets_.find(uid);
  if (it == pending_packets_.end()) return;
  pkt_dropped_hist_[duration_bucket(now.as_nanos() - it->second.birth_ns)] += 1;
  count_free("net.packet", it->second.bytes);
  pending_packets_.erase(it);
}

void MemProfiler::note_hops(const char* component, std::uint64_t hops) {
  ChaseStats& c = chase_[component];
  c.calls += 1;
  c.hops += hops;
  if (in_event_) cur_hops_ += hops;
}

void MemProfiler::note_occupancy(const char* container, std::uint64_t size) {
  OccupancyStats& o = occ_[container];
  o.samples += 1;
  o.sum += size;
  o.max = std::max(o.max, size);
}

// ----------------------------------------------------------------- results

std::uint64_t MemProfiler::actor_count() const noexcept {
  std::uint64_t n = 0;
  for (const auto& [kind, t] : actors_) {
    (void)kind;
    n += t.count;
  }
  return n;
}

std::uint64_t MemProfiler::actor_bytes() const noexcept {
  std::uint64_t b = 0;
  for (const auto& [kind, t] : actors_) {
    (void)kind;
    b += t.bytes;
  }
  return b;
}

double MemProfiler::live_bytes_per_actor() const noexcept {
  const std::uint64_t n = actor_count();
  return n > 0 ? static_cast<double>(live_) / static_cast<double>(n) : 0.0;
}

double MemProfiler::allocs_per_event() const noexcept {
  return work_ > 0 ? static_cast<double>(alloc_count_) / static_cast<double>(work_) : 0.0;
}

std::vector<MemProfiler::LocalityScore> MemProfiler::locality_scores() const {
  // Ordered union of churners and chasers: the per-component roll-up the
  // arena/SoA refactor ranks its work by.
  std::map<std::string, LocalityScore> by_component;
  for (const auto& [site, s] : sites_) {
    LocalityScore& l = by_component[site_component(site)];
    l.allocs += s.allocs;
  }
  for (const auto& [component, c] : chase_) {
    LocalityScore& l = by_component[component];
    l.chase_calls += c.calls;
    l.chase_hops += c.hops;
  }
  std::vector<LocalityScore> out;
  out.reserve(by_component.size());
  for (auto& [component, l] : by_component) {
    l.component = component;
    if (work_ > 0) {
      l.arena_score = static_cast<double>(l.allocs) / static_cast<double>(work_);
      l.soa_score = static_cast<double>(l.chase_hops) / static_cast<double>(work_);
    }
    l.score = l.arena_score + l.soa_score;
    out.push_back(std::move(l));
  }
  return out;
}

// ------------------------------------------------------------------- merge

std::unique_ptr<Observer> MemProfiler::make_lane() const {
  return std::make_unique<MemProfiler>();
}

void MemProfiler::fold(const Observer& lane) { merge(static_cast<const MemProfiler&>(lane)); }

void MemProfiler::merge(const MemProfiler& other) {
  // Finalize the other side's per-run quantities *before* summing raw
  // tallies: peaks pool as the max over finalized runs (replicas reuse the
  // same footprint, they do not stack), never as a peak of summed streams.
  merged_peak_ = std::max(merged_peak_, other.peak_live_bytes());
  merged_runs_ += other.runs();

  scheduled_ += other.scheduled_;
  cancelled_ += other.cancelled_;
  work_ += other.work_;
  alloc_count_ += other.alloc_count_;
  live_ += other.live_;
  for (const auto& [site, s] : other.sites_) {
    SiteStats& mine = sites_[site];
    mine.allocs += s.allocs;
    mine.frees += s.frees;
    mine.alloc_bytes += s.alloc_bytes;
    mine.freed_bytes += s.freed_bytes;
    mine.peak_live = std::max(mine.peak_live, s.peak_live);
  }
  for (const auto& [kind, t] : other.actors_) {
    actors_[kind].count += t.count;
    actors_[kind].bytes += t.bytes;
  }
  for (const auto& [b, n] : other.pkt_delivered_hist_) pkt_delivered_hist_[b] += n;
  for (const auto& [b, n] : other.pkt_dropped_hist_) pkt_dropped_hist_[b] += n;
  for (const auto& [b, n] : other.ev_dispatched_hist_) ev_dispatched_hist_[b] += n;
  for (const auto& [b, n] : other.ev_cancelled_hist_) ev_cancelled_hist_[b] += n;
  for (const auto& [c, s] : other.chase_) {
    chase_[c].calls += s.calls;
    chase_[c].hops += s.hops;
  }
  for (const auto& [b, n] : other.hops_hist_) hops_hist_[b] += n;
  for (const auto& [c, o] : other.occ_) {
    OccupancyStats& mine = occ_[c];
    mine.samples += o.samples;
    mine.sum += o.sum;
    mine.max = std::max(mine.max, o.max);
  }
  for (const auto& [s, m] : other.shard_mem_) {
    ShardMem& mine = shard_mem_[s];
    mine.events += m.events;
    mine.live += m.live;
    mine.peak_live = std::max(mine.peak_live, m.peak_live);
  }
  for (const auto& [t, v] : other.timeline_) {
    std::int64_t& cell = timeline_[t];
    cell = std::max(cell, v);
  }
}

// ------------------------------------------------------------------ report

std::string MemProfiler::report_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("work").value(work_);
  w.key("events_scheduled").value(scheduled_);
  w.key("events_cancelled").value(cancelled_);
  w.key("runs").value(runs());

  w.key("live_bytes").begin_object();
  w.key("current").value(static_cast<std::int64_t>(live_));
  w.key("peak").value(static_cast<std::int64_t>(peak_live_bytes()));
  w.key("actor_count").value(actor_count());
  w.key("actor_bytes").value(actor_bytes());
  w.key("per_actor").value(live_bytes_per_actor());
  w.key("alloc_count").value(alloc_count_);
  w.key("allocs_per_event").value(allocs_per_event());
  w.end_object();

  w.key("sites").begin_array();
  for (const auto& [site, s] : sites_) {
    w.begin_object();
    w.key("site").value(site);
    w.key("allocs").value(s.allocs);
    w.key("frees").value(s.frees);
    w.key("alloc_bytes").value(s.alloc_bytes);
    w.key("freed_bytes").value(s.freed_bytes);
    w.key("live_bytes").value(static_cast<std::int64_t>(s.live()));
    w.key("peak_live_bytes").value(static_cast<std::int64_t>(s.peak_live));
    w.end_object();
  }
  w.end_array();

  w.key("actors").begin_array();
  for (const auto& [kind, t] : actors_) {
    w.begin_object();
    w.key("kind").value(kind);
    w.key("count").value(t.count);
    w.key("bytes").value(t.bytes);
    w.key("bytes_per_actor").value(
        t.count > 0 ? static_cast<double>(t.bytes) / static_cast<double>(t.count) : 0.0);
    w.end_object();
  }
  w.end_array();

  w.key("lifetimes").begin_object();
  w.key("unit").value("log2_ns");
  write_histogram(w, "packet_delivered", pkt_delivered_hist_);
  write_histogram(w, "packet_dropped", pkt_dropped_hist_);
  write_histogram(w, "event_dispatched", ev_dispatched_hist_);
  write_histogram(w, "event_cancelled", ev_cancelled_hist_);
  w.end_object();

  w.key("locality").begin_object();
  w.key("model").value("chase-churn-v1");
  write_histogram(w, "hops_per_dispatch", hops_hist_);
  w.key("components").begin_array();
  for (const auto& l : locality_scores()) {
    w.begin_object();
    w.key("component").value(l.component);
    w.key("allocs").value(l.allocs);
    w.key("chase_calls").value(l.chase_calls);
    w.key("chase_hops").value(l.chase_hops);
    w.key("arena_score").value(l.arena_score);
    w.key("soa_score").value(l.soa_score);
    w.key("score").value(l.score);
    w.end_object();
  }
  w.end_array();
  w.key("containers").begin_array();
  for (const auto& [container, o] : occ_) {
    w.begin_object();
    w.key("container").value(container);
    w.key("samples").value(o.samples);
    w.key("max").value(o.max);
    w.key("mean").value(o.mean());
    w.end_object();
  }
  w.end_array();
  w.end_object();

  w.key("shards").begin_array();
  for (const auto& [s, m] : shard_mem_) {
    w.begin_object();
    w.key("shard").value(shard_label(s));
    w.key("events").value(m.events);
    w.key("live_bytes").value(static_cast<std::int64_t>(m.live));
    w.key("peak_live_bytes").value(static_cast<std::int64_t>(m.peak_live));
    w.end_object();
  }
  w.end_array();

  w.key("timeline").begin_object();
  w.key("tick_ns").value(static_cast<std::int64_t>(tick_.as_nanos()));
  w.key("points").begin_array();
  for (const auto& [t, v] : timeline_) {
    w.begin_object();
    w.key("tick").value(static_cast<std::int64_t>(t));
    w.key("live_bytes").value(static_cast<std::int64_t>(v));
    w.end_object();
  }
  w.end_array();
  w.end_object();

  w.end_object();
  return w.str();
}

// --------------------------------------------------------------- dashboard

namespace {


/// One labelled power-of-two histogram card body (shared by the four
/// lifetime charts and the hops chart).
void histogram_svg(std::string& out, const std::map<std::uint32_t, std::uint64_t>& hist,
                   const char* unit) {
  if (hist.empty()) return;
  std::uint64_t mx = 0;
  for (const auto& [b, n] : hist) {
    (void)b;
    mx = std::max(mx, n);
  }
  if (mx == 0) return;
  const std::size_t n = hist.size();
  constexpr double kW = 760, kH = 140, kML = 46, kMB = 24;
  const double bw = (kW - kML - 14) / static_cast<double>(n);
  out += "<svg viewBox=\"0 0 " + fmt2(kW) + " " + fmt2(kH) + "\" role=\"img\">\n";
  std::size_t i = 0;
  for (const auto& [b, cnt] : hist) {
    const double h = (kH - kMB - 10) * static_cast<double>(cnt) / static_cast<double>(mx);
    const double x = kML + bw * static_cast<double>(i);
    out += "<rect class=\"bar\" x=\"" + fmt2(x + 2) + "\" y=\"" + fmt2(kH - kMB - h) +
           "\" width=\"" + fmt2(bw - 4) + "\" height=\"" + fmt2(h) + "\"><title>" +
           std::to_string(cnt) + " " + unit + "</title></rect>\n";
    const std::string label =
        b == 0 ? std::string("0")
               : "&#8804;" + fmt_compact(static_cast<double>((1ull << b) - 1));
    out += "<text class=\"tick\" x=\"" + fmt2(x + bw / 2) + "\" y=\"" + fmt2(kH - 8) +
           "\" text-anchor=\"middle\">" + label + "</text>\n";
    ++i;
  }
  out += "</svg>\n";
}

}  // namespace

std::string mem_dashboard(const MemProfiler& mp, const std::string& title) {
  std::string out = page_head(title);
  out += "<p class=\"sub\">Memory profile &#183; allocation sites, lifetimes, locality "
         "&#183; deterministic export</p>\n";

  // --- stat tiles ----------------------------------------------------------
  out += "<div class=\"tiles\">\n";
  const std::pair<const char*, std::string> tiles[] = {
      {"live bytes", fmt_compact(static_cast<double>(mp.live_bytes()))},
      {"peak bytes", fmt_compact(static_cast<double>(mp.peak_live_bytes()))},
      {"actors", fmt_compact(static_cast<double>(mp.actor_count()))},
      {"bytes / actor", fmt_compact(mp.live_bytes_per_actor())},
      {"allocs / event", fmt_compact(mp.allocs_per_event())},
      {"events (work)", fmt_compact(static_cast<double>(mp.work()))},
  };
  for (const auto& [k, v] : tiles) {
    out += "<div class=\"tile\"><div class=\"v\">" + html_escape(v) +
           "</div><div class=\"k\">" + k + "</div></div>\n";
  }
  out += "</div>\n";

  // --- live-bytes timeline -------------------------------------------------
  {
    const auto& tl = mp.timeline();
    open_card(out, "Live-bytes timeline",
              "max modeled live bytes per " +
                  html_escape(fmt_compact(static_cast<double>(mp.tick().as_nanos()) * 1e-6)) +
                  " ms tick &#183; peak <b>" +
                  html_escape(fmt_compact(static_cast<double>(mp.peak_live_bytes()))) +
                  "</b>");
    if (!tl.empty()) {
      constexpr double kW = 760, kH = 200, kML = 56, kMR = 14, kMT = 10, kMB = 26;
      const double pw = kW - kML - kMR, ph = kH - kMT - kMB;
      const std::int64_t t0 = tl.begin()->first;
      const std::int64_t t1 = tl.rbegin()->first;
      std::int64_t hi = 1;
      for (const auto& [t, v] : tl) {
        (void)t;
        hi = std::max(hi, v);
      }
      const double span = static_cast<double>(t1 - t0 + 1);
      auto sx = [&](std::int64_t t) {
        return kML + pw * (static_cast<double>(t - t0) + 0.5) / span;
      };
      auto sy = [&](std::int64_t v) {
        return kMT + (1.0 - static_cast<double>(v) / static_cast<double>(hi)) * ph;
      };
      out += "<svg viewBox=\"0 0 " + fmt2(kW) + " " + fmt2(kH) + "\" role=\"img\">\n";
      for (int g = 0; g <= 3; ++g) {
        const double v = static_cast<double>(hi) * static_cast<double>(g) / 3.0;
        const double y = kMT + (1.0 - v / static_cast<double>(hi)) * ph;
        out += "<line class=\"grid\" x1=\"" + fmt2(kML) + "\" y1=\"" + fmt2(y) +
               "\" x2=\"" + fmt2(kW - kMR) + "\" y2=\"" + fmt2(y) + "\"/>\n";
        out += "<text class=\"tick\" x=\"" + fmt2(kML - 6) + "\" y=\"" + fmt2(y) +
               "\" dy=\"0.32em\" text-anchor=\"end\">" + html_escape(fmt_compact(v)) +
               "</text>\n";
      }
      out += "<polyline class=\"line\" points=\"";
      bool first = true;
      for (const auto& [t, v] : tl) {
        if (!first) out += ' ';
        first = false;
        out += fmt2(sx(t)) + "," + fmt2(sy(v));
      }
      out += "\"/>\n";
      out += "<text class=\"tick\" x=\"" + fmt2(kML) + "\" y=\"" + fmt2(kH - 8) +
             "\">tick " + std::to_string(t0) + "</text>\n";
      out += "<text class=\"tick\" x=\"" + fmt2(kW - kMR) + "\" y=\"" + fmt2(kH - 8) +
             "\" text-anchor=\"end\">tick " + std::to_string(t1) + "</text>\n";
      out += "</svg>\n";
    }
    out += "</div>\n";
  }

  // --- allocation-site bars ------------------------------------------------
  {
    const auto& sites = mp.sites();
    open_card(out, "Allocation sites",
              "<b>" + html_escape(fmt_compact(static_cast<double>(mp.alloc_count()))) +
                  "</b> allocations across <b>" +
                  html_escape(fmt_compact(static_cast<double>(sites.size()))) +
                  "</b> sites &#183; bar = alloc bytes, darker = more live");
    if (!sites.empty()) {
      std::uint64_t mx = 0;
      for (const auto& [site, s] : sites) {
        (void)site;
        mx = std::max(mx, s.alloc_bytes);
      }
      const double rowh = 18;
      constexpr double kW = 760, kML = 210;
      const double hpx = rowh * static_cast<double>(sites.size()) + 8;
      out += "<svg viewBox=\"0 0 " + fmt2(kW) + " " + fmt2(hpx) + "\" role=\"img\">\n";
      std::size_t i = 0;
      for (const auto& [site, s] : sites) {
        const double y = rowh * static_cast<double>(i);
        const double bw =
            mx > 0 ? (kW - kML - 14) * static_cast<double>(s.alloc_bytes) /
                         static_cast<double>(mx)
                   : 0.0;
        const double op =
            s.alloc_bytes > 0
                ? 0.25 + 0.75 * static_cast<double>(s.live() > 0 ? s.live() : 0) /
                             static_cast<double>(s.alloc_bytes)
                : 0.25;
        out += "<text class=\"tick\" x=\"" + fmt2(kML - 6) + "\" y=\"" +
               fmt2(y + rowh * 0.7) + "\" text-anchor=\"end\">" + html_escape(site) +
               "</text>\n";
        out += "<rect class=\"cell\" x=\"" + fmt2(kML) + "\" y=\"" + fmt2(y + 3) +
               "\" width=\"" + fmt2(std::max(bw, 1.0)) + "\" height=\"" + fmt2(rowh - 6) +
               "\" fill=\"rgba(var(--heat)," + fmt2(op) + ")\"><title>" + html_escape(site) +
               ": " + std::to_string(s.allocs) + " allocs, " +
               fmt_compact(static_cast<double>(s.alloc_bytes)) + "B allocated, " +
               fmt_compact(static_cast<double>(s.live())) + "B live</title></rect>\n";
        ++i;
      }
      out += "</svg>\n";
    }
    out += "</div>\n";
  }

  // --- lifetime histograms -------------------------------------------------
  {
    open_card(out, "Packet lifetimes",
              "sim-time birth&#8594;death, power-of-two ns buckets &#183; delivered then "
              "dropped");
    histogram_svg(out, mp.packet_delivered_hist(), "delivered");
    histogram_svg(out, mp.packet_dropped_hist(), "dropped");
    out += "</div>\n";
    open_card(out, "Event lifetimes",
              "sim-time schedule&#8594;fire, power-of-two ns buckets &#183; dispatched "
              "then cancelled");
    histogram_svg(out, mp.event_dispatched_hist(), "dispatched");
    histogram_svg(out, mp.event_cancelled_hist(), "cancelled");
    out += "</div>\n";
  }

  // --- locality scores -----------------------------------------------------
  {
    const auto scores = mp.locality_scores();
    double mx = 0;
    for (const auto& l : scores) mx = std::max(mx, l.score);
    open_card(out, "Locality scores (chase-churn-v1)",
              "predicted arena/SoA benefit per component &#183; arena = allocs per "
              "event, SoA = chase hops per event");
    if (!scores.empty() && mx > 0) {
      const double rowh = 18;
      constexpr double kW = 760, kML = 210;
      const double hpx = rowh * static_cast<double>(scores.size()) + 8;
      out += "<svg viewBox=\"0 0 " + fmt2(kW) + " " + fmt2(hpx) + "\" role=\"img\">\n";
      std::size_t i = 0;
      for (const auto& l : scores) {
        const double y = rowh * static_cast<double>(i);
        const double bw = (kW - kML - 14) * l.score / mx;
        out += "<text class=\"tick\" x=\"" + fmt2(kML - 6) + "\" y=\"" +
               fmt2(y + rowh * 0.7) + "\" text-anchor=\"end\">" + html_escape(l.component) +
               "</text>\n";
        out += "<rect class=\"bar\" x=\"" + fmt2(kML) + "\" y=\"" + fmt2(y + 3) +
               "\" width=\"" + fmt2(std::max(bw, 1.0)) + "\" height=\"" + fmt2(rowh - 6) +
               "\"><title>" + html_escape(l.component) + ": score " + fmt_compact(l.score) +
               " (arena " + fmt_compact(l.arena_score) + ", SoA " +
               fmt_compact(l.soa_score) + ")</title></rect>\n";
        ++i;
      }
      out += "</svg>\n";
    }
    out += "</div>\n";
  }

  // --- per-shard footprint -------------------------------------------------
  {
    const auto& shards = mp.shard_mem();
    open_card(out, "Per-shard footprint",
              "live-bytes delta attributed per dispatching shard &#183; peak = max of "
              "the running per-shard delta");
    if (!shards.empty()) {
      std::int64_t mx = 1;
      for (const auto& [s, m] : shards) {
        (void)s;
        mx = std::max(mx, m.peak_live);
      }
      const double rowh = 18;
      constexpr double kW = 760, kML = 80;
      const double hpx = rowh * static_cast<double>(shards.size()) + 8;
      out += "<svg viewBox=\"0 0 " + fmt2(kW) + " " + fmt2(hpx) + "\" role=\"img\">\n";
      std::size_t i = 0;
      for (const auto& [s, m] : shards) {
        const double y = rowh * static_cast<double>(i);
        const double bw =
            (kW - kML - 14) *
            static_cast<double>(m.peak_live > 0 ? m.peak_live : 0) / static_cast<double>(mx);
        out += "<text class=\"tick\" x=\"" + fmt2(kML - 6) + "\" y=\"" +
               fmt2(y + rowh * 0.7) + "\" text-anchor=\"end\">" +
               html_escape(shard_label(s)) + "</text>\n";
        out += "<rect class=\"bar\" x=\"" + fmt2(kML) + "\" y=\"" + fmt2(y + 3) +
               "\" width=\"" + fmt2(std::max(bw, 1.0)) + "\" height=\"" + fmt2(rowh - 6) +
               "\"><title>shard " + html_escape(shard_label(s)) + ": " +
               std::to_string(m.events) + " events, peak " +
               fmt_compact(static_cast<double>(m.peak_live)) + "B</title></rect>\n";
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
