// The discrete-event simulation engine's scheduling surface.
//
// The Simulator owns simulated time, the run's RNG, and the observability
// hooks; *execution* is delegated to a pluggable ExecutionBackend
// (sim/exec_backend.hpp):
//
//  - SerialBackend (the default): the classic single-threaded dispatch
//    loop — bit-exact replay, one global (time, sequence) event order.
//  - ShardedBackend (sim/sharded_backend.hpp): conservative
//    barrier-synchronized parallel execution, one logical process per
//    owner (AS), byte-identical output at any shard count.
//
// Component code stays backend-agnostic: now()/rng()/auditor()/
// scale_profiler() resolve through the per-thread ExecCtx when a sharded
// worker is dispatching, and fall back to the simulator's own state
// otherwise (one thread-local load per call on the serial path).
//
// Observability hooks (all off by default, one branch per event when off):
//  - set_profiler() attributes each dispatched event's wall-clock cost to
//    its TaskTag; see sim/profiler.hpp.
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

#include "sim/event_queue.hpp"
#include "sim/exec_backend.hpp"
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

  /// Attaches (or detaches, with nullptr) an event-loop profiler. Not
  /// owned; must outlive the simulator or be detached first.
  void set_profiler(LoopProfiler* profiler) noexcept {
    profiler_ = profiler;
    instrumented_ = profiler_ != nullptr || static_cast<bool>(heartbeat_);
  }
  LoopProfiler* profiler() const noexcept { return profiler_; }

  /// Attaches (or detaches, with nullptr) the cross-shard access auditor.
  /// Dispatch then opens every event with ShardAuditor::begin_event, so
  /// instrumented mutation points can attribute accesses to the claiming
  /// shard (see sim/shard_audit.hpp). Not owned. Uninstrumented runs pay
  /// one null-pointer branch per event. Inside a sharded worker event the
  /// accessor returns the worker's per-owner lane.
  void set_auditor(ShardAuditor* auditor) noexcept { auditor_ = auditor; }
  ShardAuditor* auditor() const noexcept {
    const ExecCtx* c = current_exec_ctx();
    if (c != nullptr && c->sim == this) return c->auditor;
    return auditor_;
  }

  /// Attaches (or detaches, with nullptr) the scale profiler. Dispatch then
  /// reports schedule/cancel/dispatch transitions so it can reconstruct the
  /// event DAG, per-shard loads, and queue-depth profile (see
  /// sim/scale_profile.hpp). Works best with an auditor attached too —
  /// shard attribution comes from the auditor's claim registry, and without
  /// one every event lands on kNoShard. Not owned. Uninstrumented runs pay
  /// one null-pointer branch per schedule and per event. Inside a sharded
  /// worker event the accessor returns the worker's per-owner lane.
  void set_scale_profiler(ScaleProfiler* scale) noexcept { scale_ = scale; }
  ScaleProfiler* scale_profiler() const noexcept {
    const ExecCtx* c = current_exec_ctx();
    if (c != nullptr && c->sim == this) return c->scale;
    return scale_;
  }

  /// Attaches (or detaches, with nullptr) the memory profiler. Dispatch
  /// then reports schedule/cancel/dispatch transitions so it can account
  /// event-control-block churn and lifetimes; components report packet
  /// births/deaths, actor registrations, and pointer-chase hops through it
  /// (see sim/mem_profile.hpp). Works best with an auditor attached too —
  /// per-shard footprints come from the auditor's claim registry. Not
  /// owned. Uninstrumented runs pay one null-pointer branch per schedule
  /// and per event. Inside a sharded worker event the accessor returns the
  /// worker's per-owner lane.
  void set_mem_profiler(MemProfiler* mem) noexcept { mem_ = mem; }
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
  void dispatch_instrumented(EventQueue::Popped& ev);
  void maybe_heartbeat();
  /// Shared heartbeat emitter: advances next_heartbeat_ past `sim_now` and
  /// calls the callback once. Used per event by the serial loop and per
  /// barrier window by the sharded coordinator (via the backend accessors).
  void emit_heartbeat(SimTime sim_now, std::size_t executed_total,
                      std::size_t queue_depth);
  /// Out-of-line scale-profiler notifications (ScaleProfiler is an
  /// incomplete type here).
  void note_schedule(EventId id, SimTime at, const TaskTag& tag);
  void scale_begin(const EventQueue::Popped& ev);
  void scale_end();
  /// Out-of-line mem-profiler notifications (MemProfiler is an incomplete
  /// type here).
  void mem_note_schedule(EventId id, SimTime at, const TaskTag& tag);
  void mem_note_cancel(EventId id);
  void mem_begin(const EventQueue::Popped& ev);
  void mem_end();

  // The pre-split dispatch loop, verbatim; SerialBackend forwards here.
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
  bool instrumented_ = false;  ///< profiler_ or heartbeat active
  LoopProfiler* profiler_ = nullptr;
  ShardAuditor* auditor_ = nullptr;
  ScaleProfiler* scale_ = nullptr;
  ExecProfiler* exec_ = nullptr;
  MemProfiler* mem_ = nullptr;
  Tracer tracer_;
  Duration heartbeat_period_{};
  HeartbeatFn heartbeat_;
  SimTime next_heartbeat_{};
  double run_wall_start_ = 0;
  double last_beat_wall_ = 0;
  std::size_t last_beat_events_ = 0;
};

}  // namespace tussle::sim
