// Conservative barrier-synchronized parallel execution (PDES) for the
// Simulator — in-run parallelism across ASes, shaped like Shadow's
// scheduler/worker split and sized by what sim::ScaleProfiler measured.
//
// Model
// -----
// The unit of sequential execution is the *owner* — the AS id the
// ShardAuditor already uses as the provisional shard. Every owner gets a
// logical process (Lp): its own EventQueue, its own RNG stream
// (Rng::stream(seed, owner)), and one lane per attached observer. A backend
// built with k shards runs min(k, owners) worker threads; worker w
// executes the owners at positions w, w+k, ... of the ascending owner
// list. All *determinism-bearing* state is per-owner, never per-worker,
// so results are byte-identical at any shard count, including k = 1.
//
// Time is cut into barrier windows of width L = the minimum registered
// cross-owner link latency (Network::connect feeds the registry; at
// least 1 ns, so zero-latency topologies degrade to lockstep rather
// than deadlock). Within a window [W, W_end) every owner dispatches its
// own events independently: an event may affect another owner no sooner
// than one lookahead away, which lands at or beyond the window end.
//
// Cross-owner scheduling NEVER touches another owner's queue directly —
// not even at k = 1, not even between owners on the same worker. Each
// schedule_for() to a different owner appends to a per-(source, dest)
// outbox; at the window barrier every destination drains its inboxes,
// sorts arrivals by (time, source owner, source sequence), and only then
// enqueues them. The per-owner event order is therefore a pure function
// of the simulation, not of sharding. An arrival earlier than work its
// destination already executed means the producer undercut the declared
// lookahead; the drain throws.
//
// Events scheduled with no execution context (scenario setup) or from a
// control event go to a *control queue* run on the coordinator thread
// between windows, with every state lane folded first — control work
// (route installation, time-series sampling) sees fully merged state,
// matching the ShardAuditor's declare_control_event contract.
//
// Shared sinks (packet counters, id sources, observers) never see
// concurrent writers: workers accumulate into per-owner lanes and the
// coordinator folds them in ascending owner order, so merged output is
// shard-count-independent. State lanes (shard_lane<T>) are created on
// first use and fold at every control batch. Observer lanes
// (sim/observer.hpp) are built at run() start — one per attached observer
// per owner, none when nothing is attached — and fold at run() end, on
// the error path too. An attached observer without lanes (the scale and
// memory profilers, which model one global event stream) makes run()
// throw std::logic_error before any worker starts. Events a worker
// schedules or cancels for its own owner, and cross-owner messages at
// drain time, are recorded by the owner's lanes; setup and control
// scheduling by the simulator's own observers.
#pragma once

#include <cstdint>
#include <exception>
#include <map>
#include <memory>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/exec_backend.hpp"
#include "sim/exec_profile.hpp"
#include "sim/observer.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace tussle::sim {

class ShardedBackend final : public ExecutionBackend {
 public:
  /// Owner-directed EventIds carry the owner in bits 40+; ids of events
  /// routed through a barrier inbox set this flag and cannot be cancelled.
  static constexpr std::uint64_t kRemoteId = 1ull << 63;

  ShardedBackend(Simulator& sim, std::size_t shards);
  ~ShardedBackend() override;

  const char* name() const noexcept override { return "sharded"; }

  EventId schedule(SimTime at, TaskTag tag, EventQueue::Action&& action) override;
  EventId schedule_for(ShardId owner, SimTime at, TaskTag tag,
                       EventQueue::Action&& action) override;

  /// Same-owner and coordinator-context cancellation only: a worker may
  /// cancel its own owner's pending events; setup/control code may cancel
  /// anything still queued. Cross-owner cancels and inbox-routed ids
  /// return false — cancellation is state the owner must own.
  bool cancel(EventId id) override;

  std::size_t pending() const override;
  /// Only from a worker event of `owner` itself: setup and control events
  /// run on the coordinator, and another owner's events on its worker.
  bool runs_here(ShardId owner) const noexcept override;
  void register_owner(ShardId owner) override;
  void register_lookahead(ShardId a, ShardId b, Duration latency) override;
  /// Throws std::logic_error, before any worker starts, when an attached
  /// observer has no lanes (Observer::make_lane() returns nullptr).
  std::size_t run(SimTime horizon) override;
  /// Not meaningful under parallel execution; throws std::logic_error.
  bool step() override;

  std::size_t shard_count() const noexcept { return shards_; }
  std::size_t owner_count() const noexcept { return lps_.size(); }
  /// The effective barrier lookahead (min registered cross-owner latency,
  /// clamped to >= 1 ns; one unbounded window when nothing is registered).
  Duration lookahead() const noexcept;
  /// Barrier windows completed across all run() calls (tests/diagnostics).
  std::size_t windows_run() const noexcept { return windows_; }

  // ----------------------------------------------------------- internals --
  /// A cross-owner message parked in a per-(src, dest) outbox until the
  /// window barrier.
  struct Msg {
    SimTime at;
    ShardId src = kNoShard;
    std::uint64_t seq = 0;  ///< per-source send counter: the canonical tiebreak
    TaskTag tag;
    EventQueue::Action action;
    ShardId origin = kNoShard;  ///< shard claimed by the sending event
    SimTime sent;
  };

  struct LaneEntry {
    void* obj = nullptr;
    void* base = nullptr;
    LaneFoldFn fold = nullptr;
    LaneDestroyFn destroy = nullptr;
  };

  /// One owner's logical process. Mutated only by its worker inside a
  /// window (or by the coordinator between barriers).
  struct Lp {
    ShardId owner = kNoShard;
    EventQueue queue;
    SimTime lp_now{};
    Rng rng{1};
    std::uint64_t out_seq = 0;
    /// outbox[i] buffers messages for lps_[i]; the last slot buffers
    /// messages for the control queue. Sized at run() start.
    std::vector<std::vector<Msg>> outbox;
    std::map<const void*, LaneEntry> lanes;  ///< shard_lane<T> storage
    /// One lane per attached observer, in attach order; live only while
    /// run() is. `audit` names the auditor's lane among them (ExecCtx
    /// serves it).
    std::vector<std::unique_ptr<Observer>> observers;
    ShardAuditor* audit = nullptr;
    std::size_t executed = 0;
    std::exception_ptr error;

    ~Lp();
  };

  /// Lane lookup/creation for the calling worker (see shard_lane<T>).
  void* lane(void* base, LaneMakeFn make, LaneFoldFn fold, LaneDestroyFn destroy);

 private:
  Lp& lp_for(ShardId owner);  ///< creates pre-run; throws for unknown owners mid-run
  /// Pushes from setup or control context, recorded by the simulator's own
  /// observers with the base auditor's claim as origin.
  EventId push_base(EventQueue& queue, SimTime at, TaskTag tag, EventQueue::Action&& action);
  /// Dispatches lp's events inside the window; returns how many ran. `xl`
  /// is the calling worker's exec-profiler lane (nullptr when detached).
  std::size_t process_lp(Lp& lp, SimTime window_end, ExecProfiler::WorkerLane* xl);
  /// Moves outbox slot `slot` of every source into one list sorted by
  /// (time, source owner, source sequence), calling `drained(src, n)` per
  /// non-empty source.
  template <typename OnDrained>
  std::vector<Msg> gather_inbox(std::size_t slot, OnDrained drained);
  void drain_lp(std::size_t index, Lp& dst, ExecProfiler::WorkerLane* xl);
  void drain_control_inbox();
  std::size_t run_control_at(SimTime tc);
  void fold_state_lanes();
  /// Builds every owner's observer lanes (run() start); throws
  /// std::logic_error, leaving none, when an observer has no lanes.
  void open_observer_lanes();
  /// Folds and drops them, ascending owner order (run() end).
  void fold_observer_lanes();

  std::size_t shards_ = 1;
  std::vector<std::unique_ptr<Lp>> lps_;  ///< ascending owner order
  std::map<ShardId, std::size_t> index_;  ///< owner -> position in lps_
  EventQueue control_;
  std::int64_t lookahead_ns_ = -1;  ///< min registered cross-owner latency; -1 = none
  bool running_ = false;
  /// The simulator's observers the open lanes fold back into, in lane order.
  std::vector<Observer*> lane_bases_;

  // Round state: written by the coordinator before the window barrier,
  // read by workers after it (the barrier orders the accesses).
  SimTime window_end_{};
  bool done_ = false;
  std::size_t windows_ = 0;
};

}  // namespace tussle::sim
