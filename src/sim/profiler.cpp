#include "sim/profiler.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "sim/json.hpp"

namespace tussle::sim {

double wall_now_seconds() noexcept {
  // Wall time is reported to humans and JSON files, never read back into
  // simulation state (see the detlint allowlist entry for this file).
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double>(now).count();
}

namespace {

const char* or_untagged(const char* s) noexcept { return s != nullptr ? s : "(untagged)"; }

}  // namespace

void LoopProfiler::record(const TaskTag& tag, double wall_seconds) noexcept {
  total_events_ += 1;
  total_wall_ += wall_seconds;
  for (Cell& c : cells_) {
    if (c.component == tag.component && c.kind == tag.kind) {
      c.events += 1;
      c.wall += wall_seconds;
      return;
    }
  }
  cells_.push_back(Cell{tag.component, tag.kind, 1, wall_seconds});
}

std::vector<LoopProfiler::Hotspot> LoopProfiler::hotspots(std::size_t k) const {
  std::vector<Hotspot> out;
  out.reserve(cells_.size());
  for (const Cell& c : cells_) {
    Hotspot h;
    h.component = or_untagged(c.component);
    h.kind = or_untagged(c.kind);
    h.events = c.events;
    h.wall_seconds = c.wall;
    h.share = total_wall_ > 0 ? c.wall / total_wall_ : 0;
    out.push_back(std::move(h));
  }
  std::sort(out.begin(), out.end(), [](const Hotspot& a, const Hotspot& b) {
    if (a.wall_seconds != b.wall_seconds) return a.wall_seconds > b.wall_seconds;
    if (a.component != b.component) return a.component < b.component;
    return a.kind < b.kind;
  });
  if (out.size() > k) out.resize(k);
  return out;
}

std::string LoopProfiler::hotspots_json(std::size_t k) const {
  JsonWriter w;
  w.begin_array();
  for (const Hotspot& h : hotspots(k)) {
    w.begin_object();
    w.key("component").value(std::string_view(h.component));
    w.key("kind").value(std::string_view(h.kind));
    w.key("events").value(static_cast<std::uint64_t>(h.events));
    w.key("wall_seconds").value(h.wall_seconds);
    w.key("share").value(h.share);
    w.end_object();
  }
  w.end_array();
  return w.str();
}

std::string LoopProfiler::report(std::size_t k) const {
  std::string out;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%-24s %-16s %12s %12s %7s\n", "component", "kind",
                "events", "wall-ms", "share");
  out += buf;
  for (const Hotspot& h : hotspots(k)) {
    std::snprintf(buf, sizeof(buf), "%-24s %-16s %12llu %12.3f %6.1f%%\n",
                  h.component.c_str(), h.kind.c_str(),
                  static_cast<unsigned long long>(h.events), h.wall_seconds * 1e3,
                  h.share * 100.0);
    out += buf;
  }
  return out;
}

void LoopProfiler::merge(const LoopProfiler& other) {
  total_events_ += other.total_events_;
  total_wall_ += other.total_wall_;
  for (const Cell& oc : other.cells_) {
    bool found = false;
    for (Cell& c : cells_) {
      if (c.component == oc.component && c.kind == oc.kind) {
        c.events += oc.events;
        c.wall += oc.wall;
        found = true;
        break;
      }
    }
    if (!found) cells_.push_back(oc);
  }
}

void LoopProfiler::reset() noexcept {
  cells_.clear();
  total_events_ = 0;
  total_wall_ = 0;
}

void LoopProfiler::begin_event(std::uint64_t /*id*/, SimTime /*now*/,
                               std::size_t /*queue_depth*/, const TaskTag& tag) {
  cur_tag_ = tag;
  cur_start_ = wall_now_seconds();
}

void LoopProfiler::end_event(ShardId /*claimed*/) {
  record(cur_tag_, wall_now_seconds() - cur_start_);
}

std::unique_ptr<Observer> LoopProfiler::make_lane() const {
  return std::make_unique<LoopProfiler>();
}

void LoopProfiler::fold(const Observer& lane) {
  merge(static_cast<const LoopProfiler&>(lane));
}

}  // namespace tussle::sim
