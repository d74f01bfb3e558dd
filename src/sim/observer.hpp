// One contract for the per-event observability sinks.
//
// ShardAuditor, ScaleProfiler, MemProfiler and LoopProfiler all watch the
// dispatch loop through the same four hooks. A Simulator keeps its
// observers in one ordered list (Simulator::attach, or the typed setters
// for the auditor and the scale and memory profilers), and every backend
// drives the list the same way:
//
//  - on_schedule / on_cancel for each event pushed into or cancelled from
//    a queue;
//  - begin_event for each dispatched event, in attach order, then the
//    handler, then end_event in reverse attach order — so observers nest,
//    and the last one attached brackets only the handler;
//  - every end_event receives the shard the auditor saw claim the event,
//    read once before any end hook runs (the auditor's own end hook
//    resets its claim).
//
// Under the sharded backend each owner records into lanes: at run() start
// the backend calls make_lane() once per attached observer per owner, and
// at run() end it folds each lane back with fold() in ascending owner
// order, so merged reports are shard-count independent. Lanes exist only
// for attached observers. An observer whose make_lane() returns nullptr
// models one global event stream that per-owner lanes cannot hold (the
// scale and memory profilers): it runs on the serial backend only, and
// ShardedBackend::run() refuses it with std::logic_error.
//
// Cost: a simulator with no observer attached pays one empty-list branch
// per event.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "sim/time.hpp"

namespace tussle::sim {

/// Label for a scheduled event. Both pointers must be string literals (or
/// otherwise outlive the simulation); the default tag is "(untagged)".
struct TaskTag {
  const char* component = nullptr;
  const char* kind = nullptr;
};

/// Provisional shard identifier. The AS id doubles as the shard id — the
/// partition the sharded backend runs one logical process per.
using ShardId = std::uint32_t;
/// Sentinel: no shard claimed yet (event prologue, or setup code running
/// outside any dispatched event).
inline constexpr ShardId kNoShard = 0xFFFFFFFFu;
/// Sentinel: state declared shared across shards (Ledger, merge sinks).
/// Mutations are tallied per accessing shard instead of checked.
inline constexpr ShardId kSharedShard = 0xFFFFFFFEu;

class Observer {
 public:
  Observer() = default;
  Observer(const Observer&) = default;
  Observer& operator=(const Observer&) = default;
  Observer(Observer&&) = default;
  Observer& operator=(Observer&&) = default;
  virtual ~Observer() = default;

  /// An event was scheduled: `id` is its EventId value, `now` the schedule
  /// time, `at` the fire time, and `origin` the shard the scheduling event
  /// had claimed (kNoShard during setup or with no auditor attached).
  virtual void on_schedule(std::uint64_t /*id*/, SimTime /*now*/, SimTime /*at*/,
                           const TaskTag& /*tag*/, ShardId /*origin*/) {}
  /// A pending event was cancelled at `now` before it fired.
  virtual void on_cancel(std::uint64_t /*id*/, SimTime /*now*/) {}
  /// Event `id` is about to run; `queue_depth` events are still pending.
  virtual void begin_event(std::uint64_t /*id*/, SimTime /*now*/,
                           std::size_t /*queue_depth*/, const TaskTag& /*tag*/) {}
  /// The event's handler returned; `claimed` is the shard the auditor saw
  /// claim it (kNoShard when unclaimed or no auditor is attached).
  virtual void end_event(ShardId /*claimed*/) {}

  /// A fresh, empty instance of the same kind for one owner's lane under
  /// the sharded backend. It carries configuration the hooks need (the
  /// auditor's fail-fast switch), never recorded data. nullptr, the
  /// default, means "serial backend only".
  virtual std::unique_ptr<Observer> make_lane() const { return nullptr; }
  /// Folds a finished lane, built by this observer's make_lane(), into it.
  /// An observer with lanes overrides both.
  virtual void fold(const Observer& /*lane*/) {}
};

// Hook fan-out shared by the backends. `List` holds Observer pointers, raw
// or owning, in attach order.

template <typename List>
void observe_schedule(const List& obs, std::uint64_t id, SimTime now, SimTime at,
                      const TaskTag& tag, ShardId origin) {
  for (const auto& o : obs) o->on_schedule(id, now, at, tag, origin);
}

template <typename List>
void observe_cancel(const List& obs, std::uint64_t id, SimTime now) {
  for (const auto& o : obs) o->on_cancel(id, now);
}

template <typename List>
void observe_begin(const List& obs, std::uint64_t id, SimTime now, std::size_t queue_depth,
                   const TaskTag& tag) {
  for (const auto& o : obs) o->begin_event(id, now, queue_depth, tag);
}

/// Reverse attach order. Read `claimed` before calling: the auditor's end
/// hook resets its claim.
template <typename List>
void observe_end(const List& obs, ShardId claimed) {
  for (auto it = obs.rbegin(); it != obs.rend(); ++it) (*it)->end_event(claimed);
}

}  // namespace tussle::sim
