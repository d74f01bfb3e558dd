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
// The schedule, cancel and begin hooks receive the event's full EventId:
// its value and the queue slot it occupies. Within one queue the pending
// events hold distinct slots, so an observer may keep its pending-event
// records in a table indexed by slot (PendingTable, at the end of this
// header) instead of a map keyed by value. That is sound only for a
// serial-only observer (below): the sharded backend's per-owner queues and
// its control queue hand out the same slot numbers. One observer may also
// watch several simulators in turn, each with a queue whose slots and
// values restart, and a simulator stopped at a horizon leaves its pending
// records behind; so a slot-indexed record must also match the id's value.
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
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace tussle::sim {

/// Opaque handle identifying a scheduled event, usable to cancel it.
struct EventId {
  std::uint64_t value = 0;  ///< id_base + seq + 1; 0 is "no event"
  std::uint32_t slot = 0;   ///< the event's queue slot, checked against value
  friend bool operator==(EventId, EventId) = default;
};

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

  /// An event was scheduled: `id` names it (value and queue slot), `now`
  /// is the schedule time, `at` the fire time, and `origin` the shard the
  /// scheduling event had claimed (kNoShard during setup or with no
  /// auditor attached).
  virtual void on_schedule(EventId /*id*/, SimTime /*now*/, SimTime /*at*/,
                           const TaskTag& /*tag*/, ShardId /*origin*/) {}
  /// A pending event was cancelled at `now` before it fired.
  virtual void on_cancel(EventId /*id*/, SimTime /*now*/) {}
  /// Event `id` is about to run; `queue_depth` events are still pending.
  virtual void begin_event(EventId /*id*/, SimTime /*now*/, std::size_t /*queue_depth*/,
                           const TaskTag& /*tag*/) {}
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
void observe_schedule(const List& obs, EventId id, SimTime now, SimTime at,
                      const TaskTag& tag, ShardId origin) {
  for (const auto& o : obs) o->on_schedule(id, now, at, tag, origin);
}

template <typename List>
void observe_cancel(const List& obs, EventId id, SimTime now) {
  for (const auto& o : obs) o->on_cancel(id, now);
}

template <typename List>
void observe_begin(const List& obs, EventId id, SimTime now, std::size_t queue_depth,
                   const TaskTag& tag) {
  for (const auto& o : obs) o->begin_event(id, now, queue_depth, tag);
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
// std::maps, so every export is a pure function of the event sequence. The
// maps stay the storage every report, dashboard and merge reads; these
// helpers only change how a hook reaches a cell, so that a warm hook
// allocates nothing and walks no tree:
//
//  - PendingTable: pending-event records indexed by EventId::slot, for
//    serial-only observers (above), instead of one map node per event;
//  - NamedCells: a string-keyed map's cells found by content through a
//    short list of the names seen so far, so a hit builds no std::string;
//  - BucketCells: one cached cell per log2 bucket of a histogram map.
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

/// Pending-event records of a serial-only observer, indexed by
/// EventId::slot. Each record also keeps its id's value, and only that
/// value finds it: records an unseen dispatch left behind (the observer
/// was detached, or its simulator stopped at a horizon) must not answer
/// for a later event on the same slot, possibly from the next simulator
/// the observer watches, whose slots and values restart.
///
/// The table is a std::deque, whose chunks never move: a doubling vector
/// would copy itself as it grows and hold both copies at once. When the
/// last record drains at the end of an event (a world's end), drained()
/// clears it, which hands its chunks back.
template <typename Rec>
class PendingTable {
 public:
  /// Stores `rec` for `id`, replacing whatever its slot held.
  void put(EventId id, const Rec& rec) {
    if (id.slot >= entries_.size()) entries_.resize(std::size_t{id.slot} + 1);
    Entry& e = entries_[id.slot];
    if (e.value == 0) ++live_;
    e.value = id.value;
    e.rec = rec;
  }

  /// Moves `id`'s record into `out` and frees it. False, leaving `out`
  /// alone, when the slot holds no record of this id.
  bool take(EventId id, Rec& out) {
    if (id.value == 0 || id.slot >= entries_.size()) return false;
    Entry& e = entries_[id.slot];
    if (e.value != id.value) return false;
    out = std::move(e.rec);
    e.value = 0;
    --live_;
    return true;
  }

  /// Releases the table once no record is left. Called at the end of an
  /// event, never from take(): a chain of single events empties the table
  /// between a dispatch and the schedule it makes.
  void drained() {
    if (live_ == 0 && !entries_.empty()) entries_.clear();
  }

 private:
  struct Entry {
    std::uint64_t value = 0;  ///< the id's value; 0 = no record
    Rec rec{};
  };
  std::deque<Entry> entries_;
  std::size_t live_ = 0;  ///< entries holding a record
};

/// Cells of a std::map<std::string, V>, found by content (length and
/// bytes) in a short list of the names already resolved. A hit builds no
/// std::string and walks no tree; a miss inserts the name once. Hold it in
/// a LocalCache: the list points into one map's nodes.
template <typename V>
class NamedCells {
 public:
  V& get(std::map<std::string, V>& map, std::string_view name) {
    for (const Entry& e : entries_) {
      if (e.name == name) return *e.cell;
    }
    auto& node = *map.try_emplace(std::string(name)).first;
    entries_.push_back(Entry{node.first, &node.second});
    return node.second;
  }

 private:
  struct Entry {
    std::string_view name;  ///< views the map node's key
    V* cell = nullptr;
  };
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
