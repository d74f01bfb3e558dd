// The discrete-event simulation engine's scheduling surface.
//
// The Simulator owns simulated time, the run's RNG, and its observers;
// *execution* is delegated to a pluggable ExecutionBackend
// (sim/exec_backend.hpp):
//
//  - SerialBackend (the default): the classic single-threaded dispatch
//    loop — bit-exact replay, one global (time, sequence) event order.
//  - ShardedBackend (sim/sharded_backend.hpp): conservative
//    barrier-synchronized parallel execution, one logical process per
//    owner (AS), byte-identical output at any shard count.
//
// Component code stays backend-agnostic: now()/rng()/auditor()/
// scale_profiler()/mem_profiler() resolve through the per-thread ExecCtx
// when a sharded worker is dispatching, and fall back to the simulator's
// own state otherwise (one thread-local load per call on the serial path).
//
// Observability (all off by default):
//  - attach() adds a per-event sim::Observer (sim/observer.hpp): the shard
//    auditor, the scale, memory and loop profilers. The observers live in
//    one ordered list; dispatch runs their begin hooks in attach order and
//    their end hooks in reverse, and pays one empty-list branch per event
//    when none is attached.
//  - set_heartbeat() prints a periodic progress line (sim-time, events/sec,
//    queue depth) — it schedules nothing, so enabling it cannot change the
//    event sequence. The serial loop checks it per event; the sharded
//    backend's coordinator checks it between barrier windows.
//  - set_exec_profiler() records the runtime's own wall-clock profile
//    (barrier windows, worker dispatch/drain/wait); see sim/exec_profile.hpp.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/exec_backend.hpp"
#include "sim/observer.hpp"
#include "sim/profiler.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"
#include "sim/trace.hpp"

namespace tussle::sim {

class ShardAuditor;
class ScaleProfiler;
class ExecProfiler;
class MemProfiler;

class Simulator {
 public:
  /// `seed` drives every random decision in the run; identical seeds yield
  /// identical event sequences. The sharded backend derives each owner's
  /// stream from the same seed, so per-owner draws are shard-count-
  /// independent too.
  explicit Simulator(std::uint64_t seed = 1)
      : rng_(seed), seed_(seed), backend_(std::make_unique<SerialBackend>(*this)) {}

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time: the dispatching worker's event time inside a
  /// sharded worker event, the global clock otherwise.
  SimTime now() const noexcept {
    const ExecCtx* c = current_exec_ctx();
    if (c != nullptr && c->sim == this) return c->now;
    return now_;
  }

  /// The run's RNG. Inside a sharded worker event this is the owner's own
  /// stream (Rng::stream(seed, owner)), so draws stay per-owner
  /// deterministic at any shard count.
  Rng& rng() noexcept {
    ExecCtx* c = current_exec_ctx();
    if (c != nullptr && c->sim == this && c->rng != nullptr) return *c->rng;
    return rng_;
  }

  /// This simulator's own trace log. Components built on the simulator
  /// (Network and friends) default to it, so two concurrent runs never
  /// share a tracer — the per-run analogue of what Tracer::global() was.
  Tracer& tracer() noexcept { return tracer_; }

  // --- execution backend ----------------------------------------------------

  /// Replaces the execution backend. Must be called before any event is
  /// scheduled (throws std::logic_error otherwise); typically right after
  /// construction, e.g. core::RunContext::instrument() installs a
  /// ShardedBackend when the sweep asked for --shards.
  void set_backend(std::unique_ptr<ExecutionBackend> backend);
  ExecutionBackend& backend() noexcept { return *backend_; }
  const ExecutionBackend& backend() const noexcept { return *backend_; }

  /// Declares that owner (provisional shard / AS id) exists; forwarded to
  /// the backend so the sharded one can pre-create its logical process.
  void register_owner(ShardId owner) { backend_->register_owner(owner); }

  /// Declares a static latency bound between two owners (Network::connect
  /// registers every cross-AS link); the minimum is the sharded backend's
  /// barrier-window lookahead.
  void register_lookahead(ShardId a, ShardId b, Duration latency) {
    backend_->register_lookahead(a, b, latency);
  }

  // --- scheduling -----------------------------------------------------------

  /// Schedules `action` to run `delay` after the current time.
  EventId schedule(Duration delay, EventQueue::Action action) {
    return backend_->schedule(now() + delay, TaskTag{}, std::move(action));
  }

  /// Tagged variant: the tag labels the event for the loop profiler.
  EventId schedule(Duration delay, TaskTag tag, EventQueue::Action action) {
    return backend_->schedule(now() + delay, tag, std::move(action));
  }

  /// Schedules into `owner`'s ordering domain (see
  /// ExecutionBackend::schedule_for). Equivalent to schedule() on the
  /// serial backend; required for cross-owner work (packet delivery to
  /// another AS, probe injection at a specific AS) under the sharded one.
  EventId schedule_for(ShardId owner, Duration delay, TaskTag tag,
                       EventQueue::Action action) {
    return backend_->schedule_for(owner, now() + delay, tag, std::move(action));
  }
  EventId schedule_for(ShardId owner, Duration delay, EventQueue::Action action) {
    return backend_->schedule_for(owner, now() + delay, TaskTag{}, std::move(action));
  }

  /// Schedules at an absolute time, which must not be in the past.
  EventId schedule_at(SimTime at, EventQueue::Action action);
  EventId schedule_at(SimTime at, TaskTag tag, EventQueue::Action action);

  /// Schedules a recurring action every `period`, starting one period from
  /// now, until `action` returns false or the simulation stops.
  void schedule_every(Duration period, std::function<bool()> action);
  void schedule_every(Duration period, TaskTag tag, std::function<bool()> action);

  bool cancel(EventId id) { return backend_->cancel(id); }

  /// Runs until the event queue drains or `horizon` is reached, whichever
  /// comes first. Events at exactly `horizon` still fire. Returns the
  /// number of events executed.
  std::size_t run(SimTime horizon = SimTime::max()) { return backend_->run(horizon); }

  /// Executes pending events one at a time; useful in tests. Serial
  /// backend only (the sharded backend throws std::logic_error).
  bool step() { return backend_->step(); }

  /// Requests that run() return after the current event completes — or,
  /// under the sharded backend, after the current barrier window
  /// completes on every shard, so the stopping point is shard-count-
  /// independent.
  void stop() noexcept { stopping_.store(true, std::memory_order_relaxed); }

  std::size_t events_executed() const noexcept { return executed_; }
  std::size_t events_pending() const { return backend_->pending(); }

  /// Appends `obs` to the observer list (see sim/observer.hpp): its begin
  /// hook runs after, and its end hook before, those of every observer
  /// attached earlier. Attaching an attached observer is a no-op. Attach
  /// before run(): the sharded backend builds its lanes at run() start.
  /// Not owned; must outlive the simulator or be detached first. One
  /// observer instance serves one dispatching simulator at a time — the
  /// loop, scale and memory profilers hold the current event between its
  /// begin and end hooks.
  void attach(Observer* obs);
  void detach(Observer* obs);
  const std::vector<Observer*>& observers() const noexcept { return observers_; }

  /// Attaches (or detaches, with nullptr) the cross-shard access auditor,
  /// replacing any auditor attached before in its list position. Dispatch
  /// then opens every event with ShardAuditor::begin_event, so
  /// instrumented mutation points can attribute accesses to the claiming
  /// shard (see sim/shard_audit.hpp). Not owned. Inside a sharded worker
  /// event the accessor returns the worker's per-owner lane.
  void set_auditor(ShardAuditor* auditor);
  ShardAuditor* auditor() const noexcept {
    const ExecCtx* c = current_exec_ctx();
    if (c != nullptr && c->sim == this) return c->auditor;
    return auditor_;
  }

  /// Attaches (or detaches, with nullptr) the scale profiler, replacing any
  /// attached before in its list position. It reconstructs the event DAG,
  /// per-shard loads, and queue-depth profile from the observer hooks (see
  /// sim/scale_profile.hpp). Works best with an auditor attached too —
  /// shard attribution comes from the auditor's claims, and without one
  /// every event lands on kNoShard. Not owned. Inside a sharded worker
  /// event the accessor returns the worker's per-owner lane.
  void set_scale_profiler(ScaleProfiler* scale);
  ScaleProfiler* scale_profiler() const noexcept {
    const ExecCtx* c = current_exec_ctx();
    if (c != nullptr && c->sim == this) return c->scale;
    return scale_;
  }

  /// Attaches (or detaches, with nullptr) the memory profiler, replacing
  /// any attached before in its list position. It accounts
  /// event-control-block churn and lifetimes from the observer hooks;
  /// components report packet births/deaths, actor registrations, and
  /// pointer-chase hops through it (see sim/mem_profile.hpp). Works best
  /// with an auditor attached too — per-shard footprints come from the
  /// auditor's claims. Not owned. Inside a sharded worker event the
  /// accessor returns the worker's per-owner lane.
  void set_mem_profiler(MemProfiler* mem);
  MemProfiler* mem_profiler() const noexcept {
    const ExecCtx* c = current_exec_ctx();
    if (c != nullptr && c->sim == this) return c->mem;
    return mem_;
  }

  /// Modeled live bytes currently attributed to this simulator's attached
  /// memory profiler(s): the base profiler under serial execution, base
  /// plus every owner lane under the sharded backend (safe to read from
  /// control events — workers are parked). 0 when none is attached. The
  /// --dashboard "mem.live_bytes" gauge samples this.
  std::int64_t mem_live_bytes() const { return backend_->mem_live_bytes(); }

  /// Attaches (or detaches, with nullptr) the execution profiler, which
  /// records the runtime's own wall-clock behavior (barrier windows, worker
  /// dispatch/drain/barrier splits, outbox volumes). Wall-clock data is
  /// inherently nondeterministic — exec reports are exempt from the
  /// byte-identity contract and are emitted to their own files (see
  /// sim/exec_profile.hpp). Not owned. Detached runs pay one null-pointer
  /// branch per run and per barrier window, never per event.
  void set_exec_profiler(ExecProfiler* exec) noexcept { exec_ = exec; }
  ExecProfiler* exec_profiler() const noexcept { return exec_; }

  /// One progress report, emitted every heartbeat period of *simulated*
  /// time while the dispatch loop runs.
  struct Heartbeat {
    SimTime sim_now;
    std::size_t events_executed = 0;  ///< lifetime total for this simulator
    std::size_t queue_depth = 0;
    double wall_seconds = 0;       ///< wall time since run() started
    double events_per_sec = 0;     ///< dispatch rate since the last beat
  };
  using HeartbeatFn = std::function<void(const Heartbeat&)>;

  /// Enables a heartbeat every `period` of sim-time; `fn` defaults to a
  /// stderr progress line. A zero period disables. The serial backend
  /// checks per event; the sharded backend's coordinator checks between
  /// barrier windows (so beats are at window granularity there).
  void set_heartbeat(Duration period, HeartbeatFn fn = nullptr);

 private:
  friend class ExecutionBackend;
  friend class SerialBackend;

  void run_repeating(Duration period, TaskTag tag,
                     const std::shared_ptr<std::function<bool()>>& action);
  /// Swaps the typed observer `old` for `now` in the list, keeping its
  /// position; appends `now` when `old` is not attached.
  void replace_observer(Observer* old, Observer* now);
  void dispatch(EventQueue::Popped& ev);
  /// Shared heartbeat emitter: advances next_heartbeat_ past `sim_now` and
  /// calls the callback once. Used per event by the serial loop and per
  /// barrier window by the sharded coordinator (via the backend accessors).
  void emit_heartbeat(SimTime sim_now, std::size_t executed_total,
                      std::size_t queue_depth);

  // The serial dispatch loop; SerialBackend forwards here.
  EventId serial_schedule(SimTime at, TaskTag tag, EventQueue::Action action);
  bool serial_cancel(EventId id);
  std::size_t serial_run(SimTime horizon);
  bool serial_step();

  EventQueue queue_;
  SimTime now_{};
  Rng rng_;
  std::uint64_t seed_ = 1;
  std::atomic<bool> stopping_{false};
  std::size_t executed_ = 0;
  std::unique_ptr<ExecutionBackend> backend_;

  // --- observability (never consulted by simulation logic) ---
  std::vector<Observer*> observers_;  ///< attach order
  ShardAuditor* auditor_ = nullptr;   ///< typed views of observers_ entries
  ScaleProfiler* scale_ = nullptr;
  MemProfiler* mem_ = nullptr;
  ExecProfiler* exec_ = nullptr;
  Tracer tracer_;
  Duration heartbeat_period_{};
  HeartbeatFn heartbeat_;
  SimTime next_heartbeat_{};
  double run_wall_start_ = 0;
  double last_beat_wall_ = 0;
  std::size_t last_beat_events_ = 0;
};

}  // namespace tussle::sim
