#include "sim/simulator.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "sim/exec_profile.hpp"
#include "sim/mem_profile.hpp"
#include "sim/scale_profile.hpp"
#include "sim/shard_audit.hpp"

namespace tussle::sim {

// ------------------------------------------------------- backend plumbing --

namespace detail {
constinit thread_local ExecCtx* t_exec_ctx = nullptr;
void set_exec_ctx(ExecCtx* ctx) noexcept { t_exec_ctx = ctx; }
}  // namespace detail

SimTime ExecutionBackend::base_now() const noexcept { return sim_->now_; }
void ExecutionBackend::set_base_now(SimTime t) noexcept { sim_->now_ = t; }
std::uint64_t ExecutionBackend::sim_seed() const noexcept { return sim_->seed_; }
Rng& ExecutionBackend::base_rng() noexcept { return sim_->rng_; }
bool ExecutionBackend::stop_requested() const noexcept {
  return sim_->stopping_.load(std::memory_order_relaxed);
}
void ExecutionBackend::clear_stop() noexcept {
  sim_->stopping_.store(false, std::memory_order_relaxed);
}
void ExecutionBackend::add_executed(std::size_t n) noexcept { sim_->executed_ += n; }
ShardAuditor* ExecutionBackend::auditor_hook() const noexcept { return sim_->auditor_; }
ExecProfiler* ExecutionBackend::exec_hook() const noexcept { return sim_->exec_; }

bool ExecutionBackend::heartbeat_active() const noexcept {
  return static_cast<bool>(sim_->heartbeat_);
}

void ExecutionBackend::heartbeat_begin_run() noexcept {
  sim_->run_wall_start_ = wall_now_seconds();
  sim_->last_beat_wall_ = sim_->run_wall_start_;
  sim_->last_beat_events_ = sim_->executed_;
  sim_->next_heartbeat_ = sim_->now_ + sim_->heartbeat_period_;
}

void ExecutionBackend::heartbeat_tick(SimTime sim_now, std::size_t executed_total,
                                      std::size_t queue_depth) {
  if (!sim_->heartbeat_ || sim_now < sim_->next_heartbeat_) return;
  sim_->emit_heartbeat(sim_now, executed_total, queue_depth);
}

EventId SerialBackend::schedule(SimTime at, TaskTag tag, EventQueue::Action&& action) {
  return sim().serial_schedule(at, tag, std::move(action));
}

EventId SerialBackend::schedule_for(ShardId owner, SimTime at, TaskTag tag,
                                    EventQueue::Action&& action) {
  (void)owner;  // one global order: owner routing is a sharded-backend concern
  return sim().serial_schedule(at, tag, std::move(action));
}

bool SerialBackend::cancel(EventId id) { return sim().serial_cancel(id); }
std::size_t SerialBackend::pending() const { return sim().queue_.size(); }
std::size_t SerialBackend::run(SimTime horizon) {
  if (heartbeat_active()) heartbeat_begin_run();
  return sim().serial_run(horizon);
}
bool SerialBackend::step() { return sim().serial_step(); }

void Simulator::set_backend(std::unique_ptr<ExecutionBackend> backend) {
  if (backend == nullptr) {
    throw std::invalid_argument("Simulator::set_backend: null backend");
  }
  if (backend_->pending() != 0) {
    throw std::logic_error(
        "Simulator::set_backend: events already scheduled; install the backend "
        "before building the scenario");
  }
  backend_ = std::move(backend);
}

void Simulator::register_lookahead(ShardId a, ShardId b, Duration latency) {
  backend_->register_lookahead(a, b, latency);
  if (scale_ != nullptr) scale_->register_link(a, b, latency);
}

// ------------------------------------------------------ scheduling surface --

void Simulator::throw_negative_delay() {
  throw std::invalid_argument("schedule: negative delay (the time would be in the past)");
}

EventId Simulator::schedule_at(SimTime at, EventQueue::Action action) {
  if (at < now()) throw std::invalid_argument("schedule_at: time is in the past");
  return backend_->schedule(at, TaskTag{}, std::move(action));
}

EventId Simulator::schedule_at(SimTime at, TaskTag tag, EventQueue::Action action) {
  if (at < now()) throw std::invalid_argument("schedule_at: time is in the past");
  return backend_->schedule(at, tag, std::move(action));
}

EventId Simulator::serial_schedule(SimTime at, TaskTag tag, EventQueue::Action&& action) {
  const EventId id = queue_.push(at, std::move(action), tag);
  if (!observers_.empty()) {
    // The scheduling event's claimed shard is the traffic-matrix origin;
    // during setup (or with no auditor) there is none.
    const ShardId origin = claim_of(auditor_);
    if (records_on_) {
      Scheduled& s = record_at(id.slot);
      s.rec = ScheduleRecord{now_.as_nanos(), cur_depth_ + 1, origin};
      s.epoch = attach_epoch_;
    }
    observe_schedule(observers_, id, now_, at, tag, origin);
  }
  return id;
}

bool Simulator::serial_cancel(EventId id) {
  TaskTag tag;
  if (!queue_.cancel(id, &tag)) return false;
  // A tombstone keeps its slot, so the slot's record is still this event's
  // when it was written while observed.
  const Scheduled* s = records_on_ ? written_at(id.slot) : nullptr;
  for (std::size_t i = 0; i < observers_.size(); ++i) {
    observers_[i]->on_cancel(id, now_, tag, seen_by(s, i));
  }
  return true;
}

Simulator::Scheduled& Simulator::record_at(std::uint32_t slot) {
  const std::size_t block = slot >> kRecordBlockBits;
  while (records_.size() <= block) {
    records_.push_back(std::make_unique<Scheduled[]>(std::size_t{1} << kRecordBlockBits));
  }
  return records_[block][slot & kRecordMask];
}

const Simulator::Scheduled* Simulator::written_at(std::uint32_t slot) const noexcept {
  const std::size_t block = slot >> kRecordBlockBits;
  if (block >= records_.size()) return nullptr;
  return &records_[block][slot & kRecordMask];
}

// --------------------------------------------------------------- observers --

void Simulator::attach(Observer* obs) {
  if (obs == nullptr) return;
  if (std::find(observers_.begin(), observers_.end(), obs) == observers_.end()) {
    observers_.push_back(obs);
    observers_since_.push_back(++attach_epoch_);
    observers_changed();
  }
}

void Simulator::detach(Observer* obs) {
  const auto it = std::find(observers_.begin(), observers_.end(), obs);
  if (it != observers_.end()) {
    observers_since_.erase(observers_since_.begin() + (it - observers_.begin()));
    observers_.erase(it);
    observers_changed();
  }
  if (obs == auditor_) auditor_ = nullptr;
  if (obs == scale_) scale_ = nullptr;
  if (obs == mem_) mem_ = nullptr;
}

void Simulator::replace_observer(Observer* old, Observer* now) {
  if (old == now) return;
  const auto it = std::find(observers_.begin(), observers_.end(), old);
  if (it == observers_.end()) {
    attach(now);
  } else if (now == nullptr ||
             std::find(observers_.begin(), observers_.end(), now) != observers_.end()) {
    detach(old);
  } else {
    *it = now;
    observers_since_[static_cast<std::size_t>(it - observers_.begin())] = ++attach_epoch_;
    observers_changed();
  }
}

void Simulator::observers_changed() {
  const bool on = std::any_of(observers_.begin(), observers_.end(),
                              [](const Observer* o) { return o->reads_schedule_records(); });
  // Records written before a gap may sit stale on reused slots: dating
  // the switch-on keeps them from seeding a causal depth.
  if (on && !records_on_) records_since_ = attach_epoch_;
  records_on_ = on;
}

void Simulator::set_auditor(ShardAuditor* auditor) {
  replace_observer(auditor_, auditor);
  auditor_ = auditor;
}

void Simulator::set_scale_profiler(ScaleProfiler* scale) {
  replace_observer(scale_, scale);
  scale_ = scale;
}

void Simulator::set_mem_profiler(MemProfiler* mem) {
  replace_observer(mem_, mem);
  mem_ = mem;
}

void Simulator::schedule_every(Duration period, std::function<bool()> action) {
  schedule_every(period, TaskTag{}, std::move(action));
}

void Simulator::schedule_every(Duration period, TaskTag tag, std::function<bool()> action) {
  // Each firing builds the next closure afresh around the shared action, so
  // nothing captures an owning pointer to itself (a self-referential
  // shared_ptr cycle would never be freed once the chain stops).
  auto shared = std::make_shared<std::function<bool()>>(std::move(action));
  schedule(period, tag, [this, period, tag, shared] { run_repeating(period, tag, shared); });
}

void Simulator::run_repeating(Duration period, TaskTag tag,
                              const std::shared_ptr<std::function<bool()>>& action) {
  if ((*action)()) {
    schedule(period, tag, [this, period, tag, action] { run_repeating(period, tag, action); });
  }
}

void Simulator::set_heartbeat(Duration period, HeartbeatFn fn) {
  heartbeat_period_ = period;
  if (period.as_nanos() <= 0) {
    heartbeat_ = nullptr;
  } else if (fn) {
    heartbeat_ = std::move(fn);
  } else {
    heartbeat_ = [](const Heartbeat& hb) {
      std::fprintf(stderr,
                   "heartbeat: sim-time %s, %zu events (%.0f/s), queue depth %zu, "
                   "wall %.2fs\n",
                   hb.sim_now.to_string().c_str(), hb.events_executed, hb.events_per_sec,
                   hb.queue_depth, hb.wall_seconds);
    };
  }
  next_heartbeat_ = now_ + heartbeat_period_;
}

void Simulator::dispatch(EventQueue::Popped& ev) {
  if (observers_.empty()) {
    ev.action();
  } else {
    // pop() freed the slot, so the handler may write a new record over
    // this one: the begin hooks read it first, and the depth is copied.
    const Scheduled* s = records_on_ ? written_at(ev.id.slot) : nullptr;
    cur_depth_ = s != nullptr && s->epoch >= records_since_ ? s->rec.depth : 1;
    const std::size_t depth = queue_.size();
    for (std::size_t i = 0; i < observers_.size(); ++i) {
      observers_[i]->begin_event(ev.id, now_, depth, ev.tag, seen_by(s, i));
    }
    ev.action();
    cur_depth_ = 0;
    observe_end(observers_, claim_of(auditor_));
  }
  if (heartbeat_ && now_ >= next_heartbeat_) {
    emit_heartbeat(now_, executed_ + 1 /* the event being dispatched */, queue_.size());
  }
}

void Simulator::emit_heartbeat(SimTime sim_now, std::size_t executed_total,
                               std::size_t queue_depth) {
  const double wall = wall_now_seconds();
  Heartbeat hb;
  hb.sim_now = sim_now;
  hb.events_executed = executed_total;
  hb.queue_depth = queue_depth;
  hb.wall_seconds = wall - run_wall_start_;
  const double dt = wall - last_beat_wall_;
  hb.events_per_sec =
      dt > 0 ? static_cast<double>(executed_total - last_beat_events_) / dt : 0;
  heartbeat_(hb);
  last_beat_wall_ = wall;
  last_beat_events_ = executed_total;
  // Catch up past idle stretches so a long event gap emits one beat, not a
  // burst of back-dated ones.
  while (next_heartbeat_ <= sim_now) next_heartbeat_ += heartbeat_period_;
}

std::size_t Simulator::serial_run(SimTime horizon) {
  stopping_.store(false, std::memory_order_relaxed);
  const std::int64_t exec_start_ns = now_.as_nanos();
  const double exec_wall = exec_ != nullptr ? wall_now_seconds() : 0;
  std::size_t n = 0;
  while (!queue_.empty() && !stopping_.load(std::memory_order_relaxed)) {
    if (queue_.next_time() > horizon) break;
    auto ev = queue_.pop();
    now_ = ev.time;
    dispatch(ev);
    ++n;
    ++executed_;
  }
  if (!stopping_.load(std::memory_order_relaxed) && now_ < horizon &&
      horizon != SimTime::max()) {
    now_ = horizon;  // simulated until the requested horizon
  }
  if (exec_ != nullptr) {
    exec_->record_serial_run(exec_start_ns, now_.as_nanos(), n,
                             wall_now_seconds() - exec_wall);
  }
  return n;
}

bool Simulator::serial_step() {
  if (queue_.empty()) return false;
  auto ev = queue_.pop();
  now_ = ev.time;
  dispatch(ev);
  ++executed_;
  return true;
}

}  // namespace tussle::sim
