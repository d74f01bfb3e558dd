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
// Schedule records. The serial backend keeps one ScheduleRecord per
// pending event (below): when it was scheduled, from which shard, and at
// what causal depth. It writes the record once, at the schedule, and hands
// it to every observer's on_cancel and begin_event, so no observer keeps
// a pending-event table of its own. Records are written only while an
// observer that reads them (reads_schedule_records(): the scale and memory
// profilers) is attached; a bare run, or one with only the auditor or the
// loop profiler, writes none. An observer is passed a record only for an
// event scheduled during its current attachment: for an event scheduled
// before it attached, or while it was detached, it gets nullptr, and
// treats the event as unseen (the scale profiler as a causal root, the
// memory profiler as an event with no lifetime). Causal depth counts along
// the events dispatched since records were last switched on; an event
// whose record is older is a root at depth 1. The sharded backend runs
// lane observers only (see below), which read no record, and passes
// nullptr.
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

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace tussle::sim {

/// Provisional shard identifier. The AS id doubles as the shard id — the
/// partition the sharded backend runs one logical process per.
using ShardId = std::uint32_t;
/// Sentinel: no shard claimed yet (event prologue, or setup code running
/// outside any dispatched event).
inline constexpr ShardId kNoShard = 0xFFFFFFFFu;
/// Sentinel: state declared shared across shards (Ledger, merge sinks).
/// Mutations are tallied per accessing shard instead of checked.
inline constexpr ShardId kSharedShard = 0xFFFFFFFEu;

/// Opaque handle identifying a scheduled event, usable to cancel it.
struct EventId {
  std::uint64_t value = 0;  ///< id_base + seq + 1; 0 is "no event"
  std::uint32_t slot = 0;   ///< the event's queue slot, checked against value
  friend bool operator==(EventId, EventId) = default;
};

/// What the simulator remembers of a pending event's schedule, for its
/// observers (see the top of this file).
struct ScheduleRecord {
  std::int64_t sched_ns = 0;   ///< schedule time
  std::uint64_t depth = 1;     ///< causal depth: 1 + the scheduling event's; 1 at setup
  ShardId origin = kNoShard;   ///< shard the scheduling event had claimed
  friend bool operator==(const ScheduleRecord&, const ScheduleRecord&) = default;
};

/// Label for a scheduled event. Both pointers must be string literals (or
/// otherwise outlive the simulation and never change their text); the
/// default tag is "(untagged)". The observers find a tag's cells by the
/// pointer first (NamedCells, below).
struct TaskTag {
  const char* component = nullptr;
  const char* kind = nullptr;
};

class Observer {
 public:
  Observer() = default;
  Observer(const Observer&) = default;
  Observer& operator=(const Observer&) = default;
  Observer(Observer&&) = default;
  Observer& operator=(Observer&&) = default;
  virtual ~Observer() = default;

  /// An event was scheduled: `id` names it (value and queue slot), `now`
  /// is the schedule time, `at` the fire time, and `origin` the shard the
  /// scheduling event had claimed (kNoShard during setup or with no
  /// auditor attached).
  virtual void on_schedule(EventId /*id*/, SimTime /*now*/, SimTime /*at*/,
                           const TaskTag& /*tag*/, ShardId /*origin*/) {}
  /// A pending event, labelled `tag`, was cancelled at `now` before it
  /// fired. `rec` is its schedule record, nullptr when this observer did
  /// not see it scheduled.
  virtual void on_cancel(EventId /*id*/, SimTime /*now*/, const TaskTag& /*tag*/,
                         const ScheduleRecord* /*rec*/) {}
  /// Event `id` is about to run; `queue_depth` events are still pending.
  /// `rec` is its schedule record, nullptr when this observer did not see
  /// it scheduled.
  virtual void begin_event(EventId /*id*/, SimTime /*now*/, std::size_t /*queue_depth*/,
                           const TaskTag& /*tag*/, const ScheduleRecord* /*rec*/) {}
  /// The event's handler returned; `claimed` is the shard the auditor saw
  /// claim it (kNoShard when unclaimed or no auditor is attached).
  virtual void end_event(ShardId /*claimed*/) {}
  /// True if this observer reads the schedule records its cancel and begin
  /// hooks are handed: the serial backend writes records only while such
  /// an observer is attached. The default, false, may still be handed
  /// records another observer asked for.
  virtual bool reads_schedule_records() const { return false; }

  /// A fresh, empty instance of the same kind for one owner's lane under
  /// the sharded backend. It carries configuration the hooks need (the
  /// auditor's fail-fast switch), never recorded data. nullptr, the
  /// default, means "serial backend only".
  virtual std::unique_ptr<Observer> make_lane() const { return nullptr; }
  /// Folds a finished lane, built by this observer's make_lane(), into it.
  /// An observer with lanes overrides both.
  virtual void fold(const Observer& /*lane*/) {}
};

// Hook fan-out for the sharded backend, whose observers are lanes that
// read no schedule record. `List` holds Observer pointers, raw or owning,
// in attach order. The serial backend fans out in Simulator, which hands
// each observer its record.

template <typename List>
void observe_schedule(const List& obs, EventId id, SimTime now, SimTime at,
                      const TaskTag& tag, ShardId origin) {
  for (const auto& o : obs) o->on_schedule(id, now, at, tag, origin);
}

template <typename List>
void observe_cancel(const List& obs, EventId id, SimTime now, const TaskTag& tag) {
  for (const auto& o : obs) o->on_cancel(id, now, tag, nullptr);
}

template <typename List>
void observe_begin(const List& obs, EventId id, SimTime now, std::size_t queue_depth,
                   const TaskTag& tag) {
  for (const auto& o : obs) o->begin_event(id, now, queue_depth, tag, nullptr);
}

/// Reverse attach order. Read `claimed` before calling: the auditor's end
/// hook resets its claim.
template <typename List>
void observe_end(const List& obs, ShardId claimed) {
  for (auto it = obs.rbegin(); it != obs.rend(); ++it) (*it)->end_event(claimed);
}

// --- the observers' cells ----------------------------------------------------
//
// The auditor and the scale and memory profilers report from ordered
// containers, so every export is a pure function of the event sequence.
// These helpers only change how a hook reaches a cell, so that a warm hook
// allocates nothing and walks no tree:
//
//  - NamedCells: a string-keyed map's cells found by the name's address,
//    then, for an address not seen yet, by its text;
//  - BucketCells: one cached cell per log2 bucket of a histogram map.
//
// Pending-event records are not the observers' to keep: the simulator
// holds one ScheduleRecord per pending event and passes it to the hooks
// (see the top of this file).
//
// Names. Every hook that takes a name (a TaskTag's fields, MemProfiler's
// occupancy names, the auditor's component kinds and mutators) takes a const char* with the TaskTag contract: a string
// literal, or text that outlives the observer and never changes. The cells
// are found by the pointer; an address not seen before is matched by its
// text, and cached, so two literals with the same text share one cell. A
// std::string's buffer or a string_view's data must never be passed: once
// freed, its address can come back holding another name, and the lookup
// would silently pick that name's cell.
//
// Cached pointers point into the owning observer's own maps, whose nodes
// never move or go away. They live in LocalCache, which a copy or move of
// the observer does not inherit: the copy starts empty and re-resolves
// into its own maps, so a copy that records never writes into its source.

/// A value a copy of its owner does not inherit: copying (or moving, which
/// copies) yields a value-initialized T.
template <typename T>
class LocalCache {
 public:
  LocalCache() = default;
  LocalCache(const LocalCache&) noexcept {}
  LocalCache& operator=(const LocalCache& other) noexcept {
    if (this != &other) value_ = T{};
    return *this;
  }
  ~LocalCache() = default;

  T& operator*() noexcept { return value_; }
  T* operator->() noexcept { return &value_; }

 private:
  T value_{};
};

/// Cells of a std::map<std::string, V> keyed by name, found by the
/// name's address in a short list of the names already resolved; a name at
/// an address not in the list is matched by its text and joins the list.
/// A hit compares pointers only, and builds no std::string; a new name is
/// inserted once. `name` follows the literal contract above. Hold it in a
/// LocalCache: the list points into one map's nodes.
template <typename V>
class NamedCells {
 public:
  V& get(std::map<std::string, V>& map, const char* name) {
    for (const Entry& e : entries_) {
      if (e.name == name) return *e.cell;
    }
    return add(map, name);
  }

 private:
  struct Entry {
    const char* name;  ///< a caller's literal
    V* cell = nullptr;
  };

  V& add(std::map<std::string, V>& map, const char* name) {
    V* cell = nullptr;
    for (const Entry& e : entries_) {
      if (std::strcmp(e.name, name) == 0) {
        cell = e.cell;
        break;
      }
    }
    if (cell == nullptr) cell = &map.try_emplace(name).first->second;
    entries_.push_back(Entry{name, cell});
    return *cell;
  }

  std::vector<Entry> entries_;
};

/// One cell per log2 bucket (0..64) of a histogram map. Hold it in a
/// LocalCache.
class BucketCells {
 public:
  std::uint64_t& get(std::map<std::uint32_t, std::uint64_t>& hist, std::uint32_t bucket) {
    std::uint64_t*& cell = cells_[bucket];
    if (cell == nullptr) cell = &hist[bucket];
    return *cell;
  }

 private:
  std::array<std::uint64_t*, 65> cells_{};
};

}  // namespace tussle::sim
