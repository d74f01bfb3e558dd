// Event-loop profiler and heartbeat support (in the style of Shadow's
// host-tracker): where does simulated work actually spend wall-clock time?
//
// Call sites label their scheduled events with a TaskTag (two static
// string literals: component and event kind). When a profiler is attached
// to a Simulator (Simulator::attach), every dispatched event is attributed
// to its tag with a count and wall-clock duration; hotspot reports rank
// (component, kind) cells by time. Attach it after every other observer so
// its interval brackets only the handler (see sim/observer.hpp).
// Profiling is off by default: a simulator with no observer pays one
// empty-list branch per event, and wall-clock time is only ever
// *reported*, never fed back into simulation decisions, so attaching the
// profiler cannot perturb bit-exact replay.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/observer.hpp"

namespace tussle::sim {

/// Monotonic process time in seconds. Observability only — results must
/// never influence event ordering or any simulated outcome.
double wall_now_seconds() noexcept;

class LoopProfiler : public Observer {
 public:
  struct Hotspot {
    std::string component;
    std::string kind;
    std::uint64_t events = 0;
    double wall_seconds = 0;
    double share = 0;  ///< fraction of total profiled wall time
  };

  /// Attributes one dispatched event. Called by the Simulator dispatch
  /// loop; the (component, kind) cell is found by scanning a small vector
  /// of previously-seen tags — tag sets are tiny (tens), and pointer
  /// comparison keeps the hot path allocation-free.
  void record(const TaskTag& tag, double wall_seconds) noexcept;

  std::uint64_t total_events() const noexcept { return total_events_; }
  double total_wall_seconds() const noexcept { return total_wall_; }

  /// Top `k` cells by wall time (ties broken by name, so output is stable).
  std::vector<Hotspot> hotspots(std::size_t k = 10) const;

  /// Renders `hotspots(k)` as a JSON array of objects.
  std::string hotspots_json(std::size_t k = 10) const;

  /// Fixed-width human report, one line per hotspot.
  std::string report(std::size_t k = 10) const;

  /// Folds another profiler's cells into this one (the sweep engine
  /// profiles each run separately and merges in run-index order). Tags are
  /// string literals, so cells match by pointer first, then by content.
  void merge(const LoopProfiler& other);

  void reset() noexcept;

  // --- observer hooks: time the handler between begin and end -------------
  void begin_event(EventId id, SimTime now, std::size_t queue_depth, const TaskTag& tag,
                   const ScheduleRecord* rec) override;
  void end_event(ShardId claimed) override;
  std::unique_ptr<Observer> make_lane() const override;
  void fold(const Observer& lane) override;

 private:
  struct Cell {
    const char* component = nullptr;
    const char* kind = nullptr;
    std::uint64_t events = 0;
    double wall = 0;
  };

  std::vector<Cell> cells_;
  std::uint64_t total_events_ = 0;
  double total_wall_ = 0;
  TaskTag cur_tag_;         ///< the dispatching event's tag
  double cur_start_ = 0;    ///< wall time its handler started
};

}  // namespace tussle::sim
