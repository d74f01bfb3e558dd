#include "sim/mem_profile.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "sim/html.hpp"
#include "sim/json.hpp"

namespace tussle::sim {

namespace {

/// Negative durations cannot happen (sim time is monotone within a run),
/// but a defensive clamp keeps the bucket math total.
std::uint32_t duration_bucket(std::int64_t ns) noexcept {
  return log2_bucket(ns > 0 ? static_cast<std::uint64_t>(ns) : 0u);
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

void MemProfiler::on_schedule(EventId /*id*/, SimTime /*now*/, SimTime /*at*/,
                              const TaskTag& /*tag*/, ShardId /*origin*/) {
  ++scheduled_;
}

void MemProfiler::on_cancel(EventId /*id*/, SimTime now, const TaskTag& /*tag*/,
                            const ScheduleRecord* rec) {
  ++cancelled_;
  if (rec == nullptr) return;  // scheduled before the profiler attached
  const std::uint32_t b = duration_bucket(now.as_nanos() - rec->sched_ns);
  ev_cancelled_cells_->get(ev_cancelled_hist_, b) += 1;
}

void MemProfiler::begin_event(EventId /*id*/, SimTime now, std::size_t /*queue_depth*/,
                              const TaskTag& /*tag*/, const ScheduleRecord* rec) {
  if (rec == nullptr) return;  // scheduled before the profiler attached
  const std::uint32_t b = duration_bucket(now.as_nanos() - rec->sched_ns);
  ev_dispatched_cells_->get(ev_dispatched_hist_, b) += 1;
}

void MemProfiler::end_event(ShardId /*shard*/) {
  recorded_ = true;
  ++work_;
}

void MemProfiler::register_actor(const char* kind, std::uint64_t bytes) {
  Tally& t = actors_[kind];
  t.count += 1;
  t.bytes += bytes;
}

void MemProfiler::note_occupancy(const char* container, std::uint64_t size) {
  OccupancyStats& o = occ_cells_->get(occ_, container);
  o.samples += 1;
  o.sum += size;
  o.max = std::max(o.max, size);
}

void MemProfiler::packet_birth(std::uint32_t space, std::uint64_t uid, SimTime now) {
  // First birth wins, mirroring first-death-wins below: encapsulation and
  // mirrored copies reuse the wire uid and must not restart the lifetime.
  if (packets_.open(PacketLives::Life{uid, space, now.as_nanos()})) ++born_;
}

void MemProfiler::packet_delivered(std::uint32_t space, std::uint64_t uid, SimTime now) {
  packet_death(space, uid, now, pkt_delivered_hist_, *pkt_delivered_cells_);
}

void MemProfiler::packet_dropped(std::uint32_t space, std::uint64_t uid, SimTime now) {
  packet_death(space, uid, now, pkt_dropped_hist_, *pkt_dropped_cells_);
}

void MemProfiler::packet_death(std::uint32_t space, std::uint64_t uid, SimTime now,
                               std::map<std::uint32_t, std::uint64_t>& hist,
                               BucketCells& cells) {
  PacketLives::Life life;
  if (!packets_.close(space, uid, life)) return;  // mirrored copy: first death won
  cells.get(hist, duration_bucket(now.as_nanos() - life.birth_ns)) += 1;
}

// ------------------------------------------------------------ packet lives

std::size_t MemProfiler::PacketLives::home(std::uint32_t space,
                                           std::uint64_t uid) const noexcept {
  // Fibonacci hashing: uids are consecutive, and the product's top bits
  // spread them over the table.
  const std::uint64_t key = uid ^ (static_cast<std::uint64_t>(space) << 40);
  return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
}

bool MemProfiler::PacketLives::open(const Life& life) {
  if (2 * (size_ + 1) > slots_.size()) grow();
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = home(life.space, life.uid);
  while (slots_[i].space != 0) {
    if (slots_[i].space == life.space && slots_[i].uid == life.uid) return false;
    i = (i + 1) & mask;
  }
  slots_[i] = life;
  ++size_;
  return true;
}

bool MemProfiler::PacketLives::close(std::uint32_t space, std::uint64_t uid, Life& out) {
  if (size_ == 0) return false;
  const std::size_t mask = slots_.size() - 1;
  std::size_t hole = home(space, uid);
  while (slots_[hole].space != space || slots_[hole].uid != uid) {
    if (slots_[hole].space == 0) return false;
    hole = (hole + 1) & mask;
  }
  out = slots_[hole];
  // Backward shift: pull each later member of the run into the hole when
  // its home does not lie between the hole and it.
  for (std::size_t j = (hole + 1) & mask; slots_[j].space != 0; j = (j + 1) & mask) {
    const std::size_t h = home(slots_[j].space, slots_[j].uid);
    if (((j - h) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole].space = 0;
  --size_;
  return true;
}

void MemProfiler::PacketLives::grow() {
  std::vector<Life> old = std::move(slots_);
  slots_.assign(std::max<std::size_t>(64, 2 * old.size()), Life{});
  shift_ = 64 - std::countr_zero(slots_.size());
  size_ = 0;
  for (const Life& l : old) {
    if (l.space != 0) open(l);
  }
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

// ------------------------------------------------------------------- merge

void MemProfiler::merge(const MemProfiler& other) {
  merged_runs_ += other.runs();
  scheduled_ += other.scheduled_;
  cancelled_ += other.cancelled_;
  work_ += other.work_;
  born_ += other.born_;
  for (const auto& [kind, t] : other.actors_) {
    actors_[kind].count += t.count;
    actors_[kind].bytes += t.bytes;
  }
  for (const auto& [b, n] : other.pkt_delivered_hist_) pkt_delivered_hist_[b] += n;
  for (const auto& [b, n] : other.pkt_dropped_hist_) pkt_dropped_hist_[b] += n;
  for (const auto& [b, n] : other.ev_dispatched_hist_) ev_dispatched_hist_[b] += n;
  for (const auto& [b, n] : other.ev_cancelled_hist_) ev_cancelled_hist_[b] += n;
  for (const auto& [c, o] : other.occ_) {
    OccupancyStats& mine = occ_[c];
    mine.samples += o.samples;
    mine.sum += o.sum;
    mine.max = std::max(mine.max, o.max);
  }
}

// ------------------------------------------------------------------ report

std::string MemProfiler::report_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("work").value(work_);
  w.key("events_scheduled").value(scheduled_);
  w.key("events_cancelled").value(cancelled_);
  w.key("packets_born").value(born_);
  w.key("runs").value(runs());

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
  return w.str();
}

// --------------------------------------------------------------- dashboard

std::string mem_dashboard(const MemProfiler& mp, const std::string& title) {
  std::string out = page_head(title);
  out += "<p class=\"sub\">Memory profile &#183; lifetimes, actor census &#183; deterministic "
         "export</p>\n";

  out += "<div class=\"tiles\">\n";
  const std::pair<const char*, double> tiles[] = {
      {"events (work)", static_cast<double>(mp.work())},
      {"events scheduled", static_cast<double>(mp.events_scheduled())},
      {"events cancelled", static_cast<double>(mp.events_cancelled())},
      {"packets born", static_cast<double>(mp.packets_born())},
      {"actors", static_cast<double>(mp.actor_count())},
      {"actor bytes", static_cast<double>(mp.actor_bytes())},
  };
  for (const auto& [k, v] : tiles) {
    out += "<div class=\"tile\"><div class=\"v\">" + html_escape(fmt_compact(v)) +
           "</div><div class=\"k\">" + k + "</div></div>\n";
  }
  out += "</div>\n";

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

  out += page_tail();
  return out;
}

}  // namespace tussle::sim
