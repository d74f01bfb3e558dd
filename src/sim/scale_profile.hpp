// Scale profiler: the PDES-readiness measurement pass.
//
// The scaling plan is a million-actor data plane and in-run conservative
// parallel execution (AS-sharded, barrier-synchronized, link latency as
// lookahead — the design sim::ShardedBackend implements). This profiler
// measures, on the serial engine, exactly the quantities that design
// lives or dies by:
//
//  (a) per-shard load: event counts and dispatch shares per provisional
//      shard (the AS id the ShardAuditor attributes each event to), both
//      in total and on an aligned sim-time tick grid (the shard-load
//      heatmap in the dashboard);
//  (b) the cross-shard traffic matrix: which shard schedules events into
//      which — the PDES communication graph — with the minimum observed
//      scheduling delay per (from, to) pair, plus the *static* lookahead
//      registry (min cross-shard link latency per shard pair, registered
//      by Network::connect);
//  (c) critical-path analysis over event causality: an event scheduled
//      while another event is dispatching is its causal child, so the
//      longest schedule-parent chain is the span of the event DAG and
//      work/span bounds any parallel speedup;
//  (d) the event-queue depth histogram, sampled at each dispatch. Memory
//      itself (allocation sites, actor footprints, lifetimes) is
//      MemProfiler's report (sim/mem_profile.hpp).
//
// It also *predicts* barrier-round PDES speedup at k worker shards by
// replaying the recorded per-window shard loads through a virtual
// barrier-synchronized executor: sim time is cut into lookahead windows,
// real shards are LPT-packed onto k virtual shards, and each window costs
// the maximum virtual-shard load (the barrier waits for the slowest),
// plus any unclaimed/shared events, which a conservative design must run
// with every shard quiescent. speedup(k) = work / cost(k), capped by the
// work/span causality bound; k = 1 is exactly 1.0 by construction and the
// k → ∞ entry is the pure work/span bound.
//
// Determinism contract (same as spans/timeseries/audit — detlint's
// scale-wall-clock check enforces the first rule statically):
//  - nothing here may touch a wall clock, draw randomness, or schedule:
//    every recorded quantity is a pure function of the event sequence, so
//    "dispatch share" means event-count share, never wall time;
//  - all accumulation structures that survive to a merge point are
//    ordered containers, so reports are byte-identical across runs;
//  - sweep runs record into per-run instances merged in run-index order,
//    so exports are byte-identical at any --jobs;
//  - the profiler is a sim::Observer: a simulator with no observer
//    attached pays one empty-list branch per event.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/observer.hpp"
#include "sim/time.hpp"

namespace tussle::sim {

class ScaleProfiler : public Observer {
 public:
  // --- configuration (set before recording) -------------------------------
  /// Tick interval for the shard-load time grid (default 10 ms of sim
  /// time). Must be positive; applies to events recorded afterwards.
  void set_tick(Duration tick);
  Duration tick() const noexcept { return tick_; }

  // --- observer hooks ------------------------------------------------------
  /// An event was scheduled: `id` is the EventId value, `now` the schedule
  /// time, `at` the fire time, `origin` the shard the scheduling event had
  /// claimed (kNoShard during setup). Records causal depth and origin.
  void on_schedule(std::uint64_t id, SimTime now, SimTime at, const TaskTag& tag,
                   ShardId origin) override;
  /// A pending event was cancelled before firing.
  void on_cancel(std::uint64_t id, SimTime now) override;
  /// Dispatch is about to run event `id`; `queue_depth` is the number of
  /// events still pending (sampled into the queue-depth histogram).
  void begin_event(std::uint64_t id, SimTime now, std::size_t queue_depth,
                   const TaskTag& tag) override;
  /// The event's handler returned; `shard` is the shard the ShardAuditor
  /// saw claim it (kNoShard when unclaimed or no auditor is attached).
  void end_event(ShardId shard) override;
  /// A lane is an empty profiler at the default tick.
  std::unique_ptr<Observer> make_lane() const override;
  void fold(const Observer& lane) override;

  // --- world-registration hooks (Network / component builders) ------------
  /// Registers a link between two provisional shards with its propagation
  /// latency; cross-shard minima become the PDES lookahead distribution.
  /// Same-shard registrations are ignored.
  void register_link(ShardId a, ShardId b, Duration latency);

  // --- results -------------------------------------------------------------
  /// Total events dispatched (the "work" of the work/span bound).
  std::uint64_t work() const noexcept;
  std::uint64_t events_scheduled() const noexcept;
  std::uint64_t events_cancelled() const noexcept;
  /// Longest causal chain seen in any single merged run (the "span").
  std::uint64_t critical_path_length() const noexcept;
  /// Sum of per-run spans: the serial composition the pooled work/span
  /// ratio divides by, so replicas do not fake parallelism between runs.
  std::uint64_t span_total() const noexcept;
  /// Pooled work/span ratio: the theoretical max speedup, ∞ processors.
  double work_span_ratio() const noexcept;
  /// Runs folded into this profiler (a recording instance counts itself
  /// once work was recorded).
  std::uint64_t runs() const noexcept;

  /// Per-shard dispatched-event totals (kNoShard / kSharedShard included).
  const std::map<ShardId, std::uint64_t>& shard_events() const noexcept {
    return shard_events_;
  }
  /// max shard share / mean shard share over real shards (1.0 = perfectly
  /// balanced, 0 when fewer than one real shard saw events).
  double imbalance_ratio() const noexcept;

  struct TrafficEdge {
    std::uint64_t events = 0;
    std::int64_t min_delay_ns = 0;  ///< min (fire − schedule) time observed
  };
  const std::map<std::pair<ShardId, ShardId>, TrafficEdge>& traffic() const noexcept {
    return traffic_;
  }
  /// Dispatched events whose schedule-time origin shard differs from the
  /// dispatching shard — the PDES cross-shard message volume.
  std::uint64_t cross_shard_events() const noexcept;

  /// Min registered cross-shard link latency (ns) per normalized (a < b)
  /// shard pair — the static lookahead distribution.
  const std::map<std::pair<ShardId, ShardId>, std::int64_t>& lookahead_links() const noexcept {
    return links_;
  }
  /// Barrier-window width: the min registered cross-shard latency, else
  /// the tick interval. Fixed at the first dispatched event.
  std::int64_t window_ns() const noexcept;

  /// Queue-depth/occupancy summary; histogram buckets are power-of-two
  /// (bucket b covers depths [2^(b−1), 2^b − 1], bucket 0 = depth 0).
  struct QueueStats {
    std::uint64_t samples = 0;
    std::uint64_t max_depth = 0;
    double mean_depth = 0;
    std::map<std::uint32_t, std::uint64_t> histogram;  ///< log2 bucket -> events
  };
  QueueStats queue_stats() const;

  /// Causal-depth profile, same power-of-two bucketing as queue depth.
  const std::map<std::uint32_t, std::uint64_t>& depth_profile() const noexcept {
    return depth_hist_;
  }

  /// The virtual barrier-executor prediction: (k, predicted speedup) for
  /// k ∈ {1,2,3,4,6,8,12,16,24,32,48,64}, plus k = 0 meaning ∞ (the pure
  /// work/span bound). Empty when no events were recorded.
  std::vector<std::pair<std::uint64_t, double>> speedup_curve() const;
  /// Predicted speedup at one k (0 = ∞). 0 when nothing was recorded.
  double speedup_at(std::uint64_t k) const;

  /// Shard-load time grid: (tick index, shard) -> events dispatched in
  /// that tick. Tick index i covers [i·tick, (i+1)·tick).
  const std::map<std::pair<std::int64_t, ShardId>, std::uint64_t>& tick_load() const noexcept {
    return tick_load_;
  }

  /// Machine-readable report. Every container behind it is ordered, so the
  /// output is a pure function of the recorded event sequence.
  std::string report_json() const;

  /// Folds another profiler's results into this one. Speedup costs and
  /// spans are finalized per source run before pooling (Σwork / Σcost),
  /// so merging is associative and run-index-order merges are
  /// schedule-independent.
  void merge(const ScaleProfiler& other);

 private:
  struct Pending {
    std::uint64_t depth = 1;      ///< causal depth this event will run at
    ShardId origin = kNoShard;    ///< shard claimed when it was scheduled
    std::int64_t sched_ns = 0;    ///< schedule time
  };

  /// Barrier costs of *this instance's own recording* (not merged runs),
  /// keyed by k (0 = ∞).
  std::map<std::uint64_t, std::uint64_t> own_costs() const;
  /// Own + merged barrier costs.
  std::map<std::uint64_t, std::uint64_t> total_costs() const;
  const std::string& tail_label() const noexcept;
  std::int64_t tail_time_ns() const noexcept;

  // --- configuration / in-flight state ---
  Duration tick_ = Duration::millis(10);
  std::map<std::uint64_t, Pending> pending_;
  bool in_event_ = false;
  Pending cur_;                 ///< the dispatching event's pending record
  std::int64_t cur_time_ns_ = 0;
  std::int64_t frozen_window_ns_ = 0;  ///< fixed at first dispatch
  bool recorded_ = false;       ///< this instance dispatched at least one event

  // --- raw per-run recording (summed on merge) ---
  std::uint64_t scheduled_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t work_ = 0;
  std::uint64_t cross_ = 0;
  std::map<ShardId, std::uint64_t> shard_events_;
  std::map<std::pair<std::int64_t, ShardId>, std::uint64_t> tick_load_;
  std::map<std::pair<std::int64_t, ShardId>, std::uint64_t> window_load_;
  std::map<std::pair<ShardId, ShardId>, TrafficEdge> traffic_;
  std::map<std::pair<ShardId, ShardId>, std::int64_t> links_;
  std::map<std::uint32_t, std::uint64_t> depth_hist_;
  std::map<std::uint32_t, std::uint64_t> queue_hist_;
  std::uint64_t queue_samples_ = 0;
  std::uint64_t queue_max_ = 0;
  std::uint64_t queue_sum_ = 0;

  // --- own critical path (this instance's recording) ---
  std::uint64_t own_span_ = 0;
  std::string own_tail_;
  std::int64_t own_tail_ns_ = 0;

  // --- merged-run accumulators (finalized results folded by merge()) ---
  std::uint64_t merged_runs_ = 0;
  std::uint64_t merged_span_total_ = 0;
  std::uint64_t merged_span_max_ = 0;
  std::string merged_tail_;
  std::int64_t merged_tail_ns_ = 0;
  std::int64_t merged_window_ns_ = 0;
  std::map<std::uint64_t, std::uint64_t> merged_costs_;
};

/// Self-contained zero-JS HTML dashboard section: stat tiles, shard-load
/// heatmap (tick × shard), cross-shard traffic matrix, predicted
/// speedup-vs-k curve, and the queue-depth histogram. Byte-identical for a
/// given profiler state.
std::string scale_dashboard(const ScaleProfiler& sp, const std::string& title);

}  // namespace tussle::sim
