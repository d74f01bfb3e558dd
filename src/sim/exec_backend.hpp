// The pluggable execution surface behind sim::Simulator.
//
// The Simulator used to *be* its dispatch loop; it is now a scheduling
// surface (schedule / schedule_for / cancel / run) delegating to an
// ExecutionBackend:
//
//   SerialBackend   — today's single-threaded loop, bit-exact with every
//                     release before the split. The default.
//   ShardedBackend  — conservative barrier-synchronized parallel DES
//                     (sharded_backend.hpp): one logical process per
//                     owner (the AS id the ShardAuditor uses as the
//                     provisional shard), k worker threads, lookahead
//                     windows from the static link-latency registry.
//
// Two pieces of shared vocabulary live here so both backends and the
// components built on the simulator can speak it:
//
//  * ExecCtx — the per-thread execution context. Under the sharded
//    backend every worker event runs with a context installed; Simulator
//    accessors (now(), rng(), auditor()) resolve through it so component
//    code is backend-agnostic. Serial execution never installs one, so
//    the serial hot path pays a single thread-local load per accessor
//    call.
//
//  * shard_lane<T>() — per-owner copies of shared state objects (packet
//    counters, id sources, ...). Under the sharded backend each owner
//    accumulates into its own lane, and lanes are folded into the base
//    object in ascending owner order at barrier points and at the end of
//    run(), so results are byte-identical at any shard count. Outside a
//    sharded worker the call returns nullptr and the caller uses the
//    base object directly. (Observers get their lanes through
//    Observer::make_lane instead; see sim/observer.hpp.)
//
// Both backends drive the simulator's observer list (Simulator::observers)
// through the fan-out helpers in sim/observer.hpp.
#pragma once

#include <cstdint>
#include <memory>

#include "sim/event_queue.hpp"
#include "sim/shard_audit.hpp"
#include "sim/time.hpp"

namespace tussle::sim {

class Simulator;
class ExecProfiler;
class Rng;

/// Per-thread execution context installed by a backend while it dispatches
/// an event. All pointers are owned elsewhere; `sim` discriminates nested
/// simulators (a simulator built inside another's event keeps using its
/// own base state).
struct ExecCtx {
  Simulator* sim = nullptr;
  void* lp = nullptr;  ///< backend-private logical-process handle (null for control events)
  SimTime now{};
  Rng* rng = nullptr;               ///< stream to serve Simulator::rng()
  ShardAuditor* auditor = nullptr;  ///< lane to serve Simulator::auditor()
  ShardId owner = kNoShard;
  bool control = false;  ///< true while a barrier-phase control event runs
};

namespace detail {
// constinit: statically initialized, so other TUs read it directly rather
// than through a TLS init wrapper (which UBSan misreports as a null load).
extern constinit thread_local ExecCtx* t_exec_ctx;
void set_exec_ctx(ExecCtx* ctx) noexcept;
}  // namespace detail

/// The calling thread's execution context, or nullptr outside a backend
/// dispatch (setup code, serial execution, post-run analysis).
inline ExecCtx* current_exec_ctx() noexcept { return detail::t_exec_ctx; }

/// Abstract execution engine. One backend owns a Simulator's pending-event
/// state; the Simulator forwards its whole scheduling and execution
/// surface here. Implementations are not thread-safe from the caller's
/// side: schedule/cancel/run are called from setup code or from within
/// the backend's own dispatch.
class ExecutionBackend {
 public:
  virtual ~ExecutionBackend() = default;
  ExecutionBackend(const ExecutionBackend&) = delete;
  ExecutionBackend& operator=(const ExecutionBackend&) = delete;

  virtual const char* name() const noexcept = 0;

  /// Schedules `action` at absolute time `at` in the calling context's
  /// ordering domain (current owner under the sharded backend; the global
  /// queue serially). Both schedulers take the action by rvalue reference:
  /// it moves once, into its queue slot or outbox message.
  virtual EventId schedule(SimTime at, TaskTag tag, EventQueue::Action&& action) = 0;

  /// Schedules into `owner`'s ordering domain. The serial backend ignores
  /// the owner (one global order); the sharded backend routes to the
  /// owner's queue — through its barrier inbox when called from another
  /// owner's event, so per-owner event order is shard-count-independent.
  virtual EventId schedule_for(ShardId owner, SimTime at, TaskTag tag,
                               EventQueue::Action&& action) = 0;

  /// Cancels a pending event. Backends may refuse cross-owner
  /// cancellation (returns false) — see the concrete backend's contract.
  virtual bool cancel(EventId id) = 0;

  virtual std::size_t pending() const = 0;

  /// Declares that `owner` exists (Network::add_node registers each AS).
  /// The sharded backend pre-creates one logical process per owner.
  virtual void register_owner(ShardId owner) { (void)owner; }

  /// Declares a static cross-owner latency bound (Network::connect
  /// registers each cross-AS link). The minimum becomes the sharded
  /// backend's barrier-window lookahead.
  virtual void register_lookahead(ShardId a, ShardId b, Duration latency) {
    (void)a;
    (void)b;
    (void)latency;
  }

  /// True when an event the calling context schedules for `owner` will run
  /// in the calling context's execution domain: on the same thread, with
  /// the same shard_lane<T> objects. A backend with one domain (the serial
  /// one) always says yes.
  virtual bool runs_here(ShardId owner) const noexcept {
    (void)owner;
    return true;
  }

  /// Runs until drained / stopped / past `horizon`; returns events executed.
  virtual std::size_t run(SimTime horizon) = 0;
  /// Executes one pending event. Backends without a serializable single
  /// step throw std::logic_error.
  virtual bool step() = 0;

 protected:
  explicit ExecutionBackend(Simulator& sim) noexcept : sim_(&sim) {}
  Simulator& sim() noexcept { return *sim_; }
  const Simulator& sim() const noexcept { return *sim_; }

  // Access to Simulator internals for backend implementations; Simulator
  // befriends only this base class, subclasses go through these.
  SimTime base_now() const noexcept;
  void set_base_now(SimTime t) noexcept;
  std::uint64_t sim_seed() const noexcept;
  Rng& base_rng() noexcept;
  bool stop_requested() const noexcept;
  void clear_stop() noexcept;
  void add_executed(std::size_t n) noexcept;
  /// The auditor and exec profiler the simulator itself has attached (its
  /// base instances, whatever the calling thread); nullptr when detached.
  ShardAuditor* auditor_hook() const noexcept;
  ExecProfiler* exec_hook() const noexcept;
  /// Heartbeat support for every backend: true when a heartbeat is
  /// configured, reset at run() start, and a tick the coordinator calls
  /// between barrier windows (emits at most one line per heartbeat period
  /// of sim-time; schedules nothing, so it cannot change the event order).
  bool heartbeat_active() const noexcept;
  void heartbeat_begin_run() noexcept;
  void heartbeat_tick(SimTime sim_now, std::size_t executed_total,
                      std::size_t queue_depth);

 private:
  Simulator* sim_;
};

/// The single-threaded dispatch loop: one global (time, sequence) order,
/// the observer list and the heartbeat driven per event.
class SerialBackend final : public ExecutionBackend {
 public:
  explicit SerialBackend(Simulator& sim) noexcept : ExecutionBackend(sim) {}

  const char* name() const noexcept override { return "serial"; }
  EventId schedule(SimTime at, TaskTag tag, EventQueue::Action&& action) override;
  EventId schedule_for(ShardId owner, SimTime at, TaskTag tag,
                       EventQueue::Action&& action) override;
  bool cancel(EventId id) override;
  std::size_t pending() const override;
  std::size_t run(SimTime horizon) override;
  bool step() override;
};

// ------------------------------------------------------------------ lanes --
// Type-erased per-owner lane storage, implemented by the sharded backend
// (sharded_backend.cpp). `make` builds one lane for an owner, `fold`
// merges a lane into the base object (and resets the lane so folds are
// incremental), `destroy` frees it. Lanes are keyed by base-object
// address; folds iterate owners in ascending order so merged results are
// shard-count-independent.
using LaneMakeFn = void* (*)(void* base, ShardId owner);
using LaneFoldFn = void (*)(void* base, void* lane);
using LaneDestroyFn = void (*)(void* lane);

/// The calling worker's lane for `base`, created on first use; nullptr
/// when the thread is not inside a sharded worker event.
void* shard_lane_raw(Simulator& sim, void* base, LaneMakeFn make, LaneFoldFn fold,
                     LaneDestroyFn destroy);

/// Customization point: how to build and fold a lane for T. Specialize
/// next to the type's own code (see NetCounters in net/network.cpp).
template <typename T>
struct LaneTraits {
  static T* make(const T& base, ShardId owner) {
    (void)base;
    (void)owner;
    return new T();
  }
  static void fold(T& base, T& lane) {
    base.merge(lane);
    lane = T{};
  }
};

template <typename T>
T* shard_lane(Simulator& sim, T& base) {
  // Serial execution, setup code and control events use the base object:
  // the packet path asks several times per hop, so that answer costs one
  // thread-local load here rather than a call.
  const ExecCtx* c = current_exec_ctx();
  if (c == nullptr || c->lp == nullptr) return nullptr;
  return static_cast<T*>(shard_lane_raw(
      sim, &base,
      [](void* b, ShardId owner) -> void* {
        return LaneTraits<T>::make(*static_cast<T*>(b), owner);
      },
      [](void* b, void* l) { LaneTraits<T>::fold(*static_cast<T*>(b), *static_cast<T*>(l)); },
      [](void* l) { delete static_cast<T*>(l); }));
}

}  // namespace tussle::sim
