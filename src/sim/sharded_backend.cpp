#include "sim/sharded_backend.hpp"

#include <algorithm>
#include <barrier>
#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "sim/simulator.hpp"

namespace tussle::sim {

namespace {

/// Installs/uninstalls the thread's ExecCtx with unwind safety: a throwing
/// event handler must not leave a stale context behind.
class CtxGuard {
 public:
  explicit CtxGuard(ExecCtx* ctx) noexcept { detail::set_exec_ctx(ctx); }
  ~CtxGuard() { detail::set_exec_ctx(nullptr); }
  CtxGuard(const CtxGuard&) = delete;
  CtxGuard& operator=(const CtxGuard&) = delete;
};

/// A worker event's push into its own owner's queue, recorded by the
/// owner's lanes with the lane auditor's claim as origin.
EventId push_owned(ShardedBackend::Lp& lp, SimTime now, SimTime at, TaskTag tag,
                   EventQueue::Action&& action) {
  const EventId id = lp.queue.push(at, std::move(action), tag);
  observe_schedule(lp.observers, id, now, at, tag, claim_of(lp.audit));
  return id;
}

}  // namespace

ShardedBackend::Lp::~Lp() {
  for (auto& [base, entry] : lanes) {
    if (entry.destroy != nullptr) entry.destroy(entry.obj);
  }
}

ShardedBackend::ShardedBackend(Simulator& sim, std::size_t shards)
    : ExecutionBackend(sim), shards_(shards == 0 ? 1 : shards) {}

ShardedBackend::~ShardedBackend() = default;

// --------------------------------------------------------------- registry --

void ShardedBackend::register_owner(ShardId owner) {
  if (owner == kNoShard || owner == kSharedShard) return;  // sentinels own nothing
  if (index_.count(owner) != 0) return;
  if (running_) {
    throw std::logic_error(
        "ShardedBackend: owner " + std::to_string(owner) +
        " registered mid-run; the owner set must be fixed before run()");
  }
  auto lp = std::make_unique<Lp>();
  lp->owner = owner;
  // Namespace the owner's event ids so cancel() can route by id. Bits 40+
  // hold owner+1 (0 stays the control queue); bit 63 flags inbox-routed ids.
  lp->queue.set_id_base((static_cast<std::uint64_t>(owner) + 1) << 40);
  lp->rng = Rng::stream(sim_seed(), owner);
  const auto pos = std::lower_bound(
      lps_.begin(), lps_.end(), owner,
      [](const std::unique_ptr<Lp>& a, ShardId o) { return a->owner < o; });
  lps_.insert(pos, std::move(lp));
  index_.clear();
  for (std::size_t i = 0; i < lps_.size(); ++i) index_.emplace(lps_[i]->owner, i);
}

void ShardedBackend::register_lookahead(ShardId a, ShardId b, Duration latency) {
  if (a == b) return;  // intra-owner links do not bound the window
  const std::int64_t ns = latency.as_nanos() < 0 ? 0 : latency.as_nanos();
  if (lookahead_ns_ < 0 || ns < lookahead_ns_) lookahead_ns_ = ns;
}

Duration ShardedBackend::lookahead() const noexcept {
  if (lookahead_ns_ < 0) return SimTime::max();
  return SimTime::nanos(lookahead_ns_ < 1 ? 1 : lookahead_ns_);
}

ShardedBackend::Lp& ShardedBackend::lp_for(ShardId owner) {
  const auto it = index_.find(owner);
  if (it != index_.end()) return *lps_[it->second];
  register_owner(owner);  // throws mid-run
  const auto it2 = index_.find(owner);
  if (it2 == index_.end()) {
    throw std::logic_error("ShardedBackend: cannot schedule for sentinel owner " +
                           std::to_string(owner));
  }
  return *lps_[it2->second];
}

// ------------------------------------------------------------- scheduling --

EventId ShardedBackend::push_base(EventQueue& queue, SimTime at, TaskTag tag,
                                  EventQueue::Action&& action) {
  const EventId id = queue.push(at, std::move(action), tag);
  observe_schedule(sim().observers(), id, base_now(), at, tag, claim_of(auditor_hook()));
  return id;
}

EventId ShardedBackend::schedule(SimTime at, TaskTag tag, EventQueue::Action&& action) {
  ExecCtx* c = current_exec_ctx();
  if (c != nullptr && c->sim == &sim() && c->lp != nullptr) {
    // A worker event scheduling for its own owner: plain per-owner push.
    return push_owned(*static_cast<Lp*>(c->lp), c->now, at, tag, std::move(action));
  }
  // Setup code or a control event: global work runs on the control queue at
  // a barrier, with every shard quiescent.
  return push_base(control_, at, tag, std::move(action));
}

EventId ShardedBackend::schedule_for(ShardId owner, SimTime at, TaskTag tag,
                                     EventQueue::Action&& action) {
  ExecCtx* c = current_exec_ctx();
  const bool worker = c != nullptr && c->sim == &sim() && c->lp != nullptr;
  if (!worker) {
    // Setup or control context: the world is quiescent, push directly into
    // the owner's queue (deterministic — single-threaded by construction).
    if (owner == kNoShard || owner == kSharedShard) {
      return push_base(control_, at, tag, std::move(action));
    }
    return push_base(lp_for(owner).queue, at, tag, std::move(action));
  }

  Lp& src = *static_cast<Lp*>(c->lp);
  if (owner == src.owner) return push_owned(src, c->now, at, tag, std::move(action));

  // Cross-owner (or owner-less control) message from a worker event: park it
  // in the per-destination outbox; the destination drains, sorts by
  // (time, source owner, source sequence), and enqueues at the next barrier.
  // This path is taken even when both owners share a worker — the event
  // order a destination sees must be a function of the simulation, not of
  // the owner-to-worker assignment.
  std::size_t slot;
  if (owner == kNoShard || owner == kSharedShard) {
    slot = lps_.size();  // the control-queue inbox
  } else {
    const auto it = index_.find(owner);
    if (it == index_.end()) {
      throw std::logic_error(
          "ShardedBackend::schedule_for: unknown owner " + std::to_string(owner) +
          "; owners must be registered (Network::add_node) before run()");
    }
    slot = it->second;
  }
  const std::uint64_t seq = src.out_seq++;
  Msg m;
  m.at = at;
  m.src = src.owner;
  m.seq = seq;
  m.tag = tag;
  m.action = std::move(action);
  m.origin = claim_of(src.audit);
  m.sent = c->now;
  src.outbox[slot].push_back(std::move(m));
  // A synthetic, non-cancellable id: the destination assigns the real one
  // when it drains the inbox.
  return EventId{kRemoteId | (((static_cast<std::uint64_t>(src.owner) + 1) << 40) + seq + 1)};
}

bool ShardedBackend::cancel(EventId id) {
  if (id.value == 0 || (id.value & kRemoteId) != 0) return false;  // inbox-routed
  const std::uint64_t owner_p1 = id.value >> 40;
  ExecCtx* c = current_exec_ctx();
  Lp* const worker = c != nullptr && c->sim == &sim() ? static_cast<Lp*>(c->lp) : nullptr;
  EventQueue* queue = &control_;
  if (owner_p1 == 0) {
    if (worker != nullptr) return false;  // the control queue belongs to the coordinator
  } else {
    const auto it = index_.find(static_cast<ShardId>(owner_p1 - 1));
    if (it == index_.end()) return false;
    Lp& lp = *lps_[it->second];
    if (worker != nullptr && worker != &lp) return false;  // cross-owner cancel would race
    queue = &lp.queue;
  }
  TaskTag tag;
  if (!queue->cancel(id, &tag)) return false;
  // Route like the schedule did: worker pushes were recorded by the owner's
  // lanes, setup/control pushes by the simulator's own observers.
  if (worker != nullptr) {
    observe_cancel(worker->observers, id, c->now, tag);
  } else {
    observe_cancel(sim().observers(), id, base_now(), tag);
  }
  return true;
}

bool ShardedBackend::runs_here(ShardId owner) const noexcept {
  const ExecCtx* c = current_exec_ctx();
  return c != nullptr && c->sim == &sim() && c->lp != nullptr && c->owner == owner;
}

std::size_t ShardedBackend::pending() const {
  std::size_t n = control_.size();
  for (const auto& lp : lps_) n += lp->queue.size();
  return n;
}

bool ShardedBackend::step() {
  throw std::logic_error(
      "Simulator::step() is not supported by the sharded backend: there is no "
      "single global next event; use run() or the serial backend");
}

// ---------------------------------------------------------------- dispatch --

std::size_t ShardedBackend::process_lp(Lp& lp, SimTime window_end,
                                       ExecProfiler::WorkerLane* xl) {
  ExecCtx ctx;
  ctx.sim = &sim();
  ctx.lp = &lp;
  ctx.rng = &lp.rng;
  ctx.auditor = lp.audit;
  ctx.owner = lp.owner;
  CtxGuard guard(&ctx);
  std::size_t n = 0;
  while (!lp.queue.empty()) {
    if (lp.queue.next_time() >= window_end) break;
    auto ev = lp.queue.pop();
    lp.lp_now = ev.time;
    ctx.now = ev.time;
    if (lp.observers.empty()) {
      ev.action();
    } else {
      observe_begin(lp.observers, ev.id, ev.time, lp.queue.size(), ev.tag);
      ev.action();
      observe_end(lp.observers, claim_of(lp.audit));
    }
    ++lp.executed;
    ++n;
    if (stop_requested()) break;  // finish no more events; the window still barriers
  }
  if (xl != nullptr && n > 0) xl->owner_events(lp.owner, n);
  return n;
}

template <typename OnDrained>
std::vector<ShardedBackend::Msg> ShardedBackend::gather_inbox(std::size_t slot,
                                                              OnDrained drained) {
  // Each slot has exactly one reader after the barrier (the destination's
  // worker, or the coordinator for the control slot), so the gather is
  // race-free without locks.
  std::vector<Msg> msgs;
  for (auto& src : lps_) {
    auto& box = src->outbox[slot];
    if (box.empty()) continue;
    drained(src->owner, box.size());
    msgs.insert(msgs.end(), std::make_move_iterator(box.begin()),
                std::make_move_iterator(box.end()));
    box.clear();
  }
  // Canonical arrival order: (time, source owner, source sequence) — a pure
  // function of the simulation, independent of worker interleaving.
  std::sort(msgs.begin(), msgs.end(), [](const Msg& a, const Msg& b) {
    if (a.at != b.at) return a.at < b.at;
    if (a.src != b.src) return a.src < b.src;
    return a.seq < b.seq;
  });
  return msgs;
}

void ShardedBackend::drain_lp(std::size_t index, Lp& dst, ExecProfiler::WorkerLane* xl) {
  std::vector<Msg> msgs = gather_inbox(index, [xl, &dst](ShardId src, std::size_t n) {
    if (xl != nullptr) xl->drained(src, dst.owner, n);
  });
  for (auto& m : msgs) {
    if (m.at < dst.lp_now) {
      throw std::logic_error(
          "ShardedBackend: cross-shard lookahead violated — owner " +
          std::to_string(m.src) + " sent an event for owner " +
          std::to_string(dst.owner) + " at t=" + std::to_string(m.at.as_nanos()) +
          "ns, which already executed up to t=" +
          std::to_string(dst.lp_now.as_nanos()) +
          "ns; register the true minimum cross-owner latency "
          "(Simulator::register_lookahead) or schedule no earlier than one "
          "lookahead ahead");
    }
    const EventId id = dst.queue.push(m.at, std::move(m.action), m.tag);
    observe_schedule(dst.observers, id, m.sent, m.at, m.tag, m.origin);
  }
}

void ShardedBackend::drain_control_inbox() {
  ExecProfiler* const ex = exec_hook();
  std::vector<Msg> msgs = gather_inbox(lps_.size(), [ex](ShardId src, std::size_t n) {
    if (ex != nullptr) ex->record_drained(src, kNoShard, n);
  });
  for (auto& m : msgs) {
    const EventId id = control_.push(m.at, std::move(m.action), m.tag);
    observe_schedule(sim().observers(), id, m.sent, m.at, m.tag, m.origin);
  }
}

std::size_t ShardedBackend::run_control_at(SimTime tc) {
  // Control events see the merged world: fold every state lane first, in
  // ascending owner order, so e.g. a time-series sample reads the same
  // counter values at any shard count.
  ExecProfiler* const ex = exec_hook();
  const double xt0 = ex != nullptr ? wall_now_seconds() : 0;
  fold_state_lanes();
  const double xt1 = ex != nullptr ? wall_now_seconds() : 0;
  std::size_t n = 0;
  ShardAuditor* const au = auditor_hook();
  const std::vector<Observer*>& observers = sim().observers();
  ExecCtx ctx;
  ctx.sim = &sim();
  ctx.control = true;
  ctx.rng = &base_rng();
  ctx.auditor = au;
  CtxGuard guard(&ctx);
  while (!control_.empty() && control_.next_time() == tc && !stop_requested()) {
    auto ev = control_.pop();
    set_base_now(ev.time);
    ctx.now = ev.time;
    observe_begin(observers, ev.id, ev.time, control_.size(), ev.tag);
    if (au != nullptr) {
      au->declare_control_event(ev.tag.kind != nullptr ? ev.tag.kind : "control");
    }
    ev.action();
    observe_end(observers, claim_of(au));
    ++n;
  }
  if (ex != nullptr) ex->record_control(xt0, xt1 - xt0, wall_now_seconds() - xt1, n);
  return n;
}

// ------------------------------------------------------------------ lanes --

void* ShardedBackend::lane(void* base, LaneMakeFn make, LaneFoldFn fold,
                           LaneDestroyFn destroy) {
  ExecCtx* c = current_exec_ctx();
  Lp& lp = *static_cast<Lp*>(c->lp);
  auto it = lp.lanes.find(base);
  if (it == lp.lanes.end()) {
    LaneEntry e;
    e.obj = make(base, lp.owner);
    e.base = base;
    e.fold = fold;
    e.destroy = destroy;
    it = lp.lanes.emplace(base, e).first;
  }
  return it->second.obj;
}

void* shard_lane_raw(Simulator& sim, void* base, LaneMakeFn make, LaneFoldFn fold,
                     LaneDestroyFn destroy) {
  ExecCtx* c = current_exec_ctx();
  if (c == nullptr || c->sim != &sim || c->lp == nullptr) return nullptr;
  auto* backend = dynamic_cast<ShardedBackend*>(&sim.backend());
  if (backend == nullptr) return nullptr;
  return backend->lane(base, make, fold, destroy);
}

void ShardedBackend::fold_state_lanes() {
  // Ascending owner order (lps_ is sorted), so merged results never depend
  // on the shard count. Folds reset the lane, so they are incremental.
  for (auto& lp : lps_) {
    for (auto& [base, entry] : lp->lanes) entry.fold(entry.base, entry.obj);
  }
}

void ShardedBackend::open_observer_lanes() {
  const Observer* const audit = auditor_hook();
  for (auto& lp : lps_) {
    for (const Observer* base : sim().observers()) {
      std::unique_ptr<Observer> lane = base->make_lane();
      if (lane == nullptr) {
        for (auto& built : lps_) {
          built->observers.clear();
          built->audit = nullptr;
        }
        throw std::logic_error(
            "ShardedBackend::run: an attached observer has no per-owner lanes; the "
            "scale and memory profilers model one global event stream and run on the "
            "serial backend only");
      }
      if (base == audit) lp->audit = static_cast<ShardAuditor*>(lane.get());
      lp->observers.push_back(std::move(lane));
    }
  }
  lane_bases_ = sim().observers();
}

void ShardedBackend::fold_observer_lanes() {
  // Unlike state lanes, observers fold once per run (their merge semantics
  // treat each source as a completed run), again in ascending owner order.
  for (auto& lp : lps_) {
    for (std::size_t i = 0; i < lp->observers.size(); ++i) {
      lane_bases_[i]->fold(*lp->observers[i]);
    }
    lp->observers.clear();
    lp->audit = nullptr;
  }
  lane_bases_.clear();
}

// -------------------------------------------------------------------- run --

std::size_t ShardedBackend::run(SimTime horizon) {
  open_observer_lanes();
  clear_stop();
  running_ = true;
  const std::size_t control_slot = lps_.size();
  for (auto& lp : lps_) {
    if (lp->outbox.size() != control_slot + 1) lp->outbox.resize(control_slot + 1);
    lp->error = nullptr;
  }

  const std::int64_t max_ns = SimTime::max().as_nanos();
  const std::int64_t la_ns =
      lookahead_ns_ < 0 ? max_ns : (lookahead_ns_ < 1 ? 1 : lookahead_ns_);

  std::size_t start_executed = 0;
  for (const auto& lp : lps_) start_executed += lp->executed;
  std::size_t control_n = 0;

  const std::size_t nw = std::min(shards_, lps_.size());
  std::atomic<bool> failed{false};
  std::barrier sync(static_cast<std::ptrdiff_t>(nw) + 1);
  done_ = false;

  // Execution profiler: workers time their slice of each window through a
  // private lane; the coordinator brackets windows/control. Detached runs
  // pay one null-pointer branch per window, never per event.
  ExecProfiler* const ex = exec_hook();
  const double run_wall = ex != nullptr ? ex->begin_run("sharded", nw, la_ns) : 0;
  const bool hb = heartbeat_active();
  if (hb) heartbeat_begin_run();

  {
    std::vector<std::jthread> workers;
    workers.reserve(nw);
    for (std::size_t w = 0; w < nw; ++w) {
      ExecProfiler::WorkerLane* const xl = ex != nullptr ? &ex->lane(w) : nullptr;
      workers.emplace_back([this, w, nw, &sync, &failed, xl, run_wall] {
        while (true) {
          // tA..t4 bracket this worker's window: barrier wait (includes the
          // coordinator's inter-window work), dispatch, B-wait, drain.
          const double tA = xl != nullptr ? wall_now_seconds() : 0;
          sync.arrive_and_wait();  // A: window published
          if (done_) return;
          const double t1 = xl != nullptr ? wall_now_seconds() : 0;
          std::uint64_t events = 0;
          for (std::size_t i = w; i < lps_.size(); i += nw) {
            try {
              events += process_lp(*lps_[i], window_end_, xl);
            } catch (...) {
              lps_[i]->error = std::current_exception();
              failed.store(true, std::memory_order_relaxed);
            }
          }
          const double t2 = xl != nullptr ? wall_now_seconds() : 0;
          sync.arrive_and_wait();  // B: all outboxes final for this window
          const double t3 = xl != nullptr ? wall_now_seconds() : 0;
          for (std::size_t i = w; i < lps_.size(); i += nw) {
            try {
              drain_lp(i, *lps_[i], xl);
            } catch (...) {
              lps_[i]->error = std::current_exception();
              failed.store(true, std::memory_order_relaxed);
            }
          }
          if (xl != nullptr) {
            const double t4 = wall_now_seconds();
            xl->window((t1 - tA) + (t3 - t2), t2 - t1, t4 - t3, t1 - run_wall,
                       t3 - run_wall, events);
          }
          sync.arrive_and_wait();  // C: all queues consistent again
        }
      });
    }

    std::exception_ptr coordinator_error;
    while (true) {
      if (stop_requested() || failed.load(std::memory_order_relaxed)) break;
      // Next control time and next shard-event time decide the round kind.
      const bool have_c = !control_.empty();
      const SimTime tc = have_c ? control_.next_time() : SimTime::max();
      bool have_q = false;
      SimTime tq = SimTime::max();
      for (const auto& lp : lps_) {
        if (lp->queue.empty()) continue;
        have_q = true;
        tq = std::min(tq, lp->queue.next_time());
      }
      if (!have_c && !have_q) break;
      const SimTime tmin = std::min(tc, tq);
      if (tmin > horizon) break;

      if (have_c && tc <= tq) {
        // Control events run before shard events at the same instant, with
        // every shard quiescent and all state lanes folded.
        try {
          control_n += run_control_at(tc);
        } catch (...) {
          coordinator_error = std::current_exception();
          break;
        }
        continue;
      }

      // One barrier window [tq, window_end_).
      const std::int64_t start_ns = tq.as_nanos();
      std::int64_t end_ns = (max_ns - start_ns > la_ns) ? start_ns + la_ns : max_ns;
      if (have_c) end_ns = std::min(end_ns, tc.as_nanos());
      if (horizon != SimTime::max()) end_ns = std::min(end_ns, horizon.as_nanos() + 1);
      window_end_ = SimTime::nanos(end_ns);
      if (ex != nullptr) ex->begin_window(start_ns, end_ns);
      sync.arrive_and_wait();  // A
      sync.arrive_and_wait();  // B
      sync.arrive_and_wait();  // C
      if (ex != nullptr) ex->end_window();
      drain_control_inbox();
      ++windows_;
      if (hb) {
        // Workers are parked at barrier A; barrier C ordered their writes,
        // so reading per-owner progress here is race-free. Every owner has
        // simulated through window_end_; the beat reports lifetime events
        // including this run's so far.
        std::size_t exec_now = 0;
        for (const auto& lp : lps_) exec_now += lp->executed;
        heartbeat_tick(window_end_,
                       sim().events_executed() + control_n + (exec_now - start_executed),
                       pending());
      }
    }

    done_ = true;
    sync.arrive_and_wait();  // release the workers; jthreads join on scope exit
    if (coordinator_error != nullptr) {
      running_ = false;
      fold_state_lanes();
      fold_observer_lanes();
      std::rethrow_exception(coordinator_error);
    }
  }

  const double fold_wall = ex != nullptr ? wall_now_seconds() : 0;
  fold_state_lanes();
  fold_observer_lanes();
  running_ = false;
  if (ex != nullptr) {
    ex->record_fold(wall_now_seconds() - fold_wall);
    // Error paths skip end_run: a failed run's partial record is discarded
    // by the next begin_run rather than reported as a complete run.
    if (!failed.load(std::memory_order_relaxed)) ex->end_run();
  }

  // Advance the global clock: the furthest any owner actually executed,
  // then the horizon if we drained before reaching it (serial semantics).
  SimTime end_now = base_now();
  for (const auto& lp : lps_) end_now = std::max(end_now, lp->lp_now);
  set_base_now(end_now);
  if (failed.load(std::memory_order_relaxed)) {
    for (const auto& lp : lps_) {
      if (lp->error != nullptr) std::rethrow_exception(lp->error);
    }
  }
  if (!stop_requested() && base_now() < horizon && horizon != SimTime::max()) {
    set_base_now(horizon);
  }

  std::size_t executed_now = 0;
  for (const auto& lp : lps_) executed_now += lp->executed;
  const std::size_t n = control_n + (executed_now - start_executed);
  add_executed(n);
  return n;
}

}  // namespace tussle::sim
