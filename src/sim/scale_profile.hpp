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
//      registry (min cross-shard link latency per shard pair, declared
//      through Simulator::register_lookahead);
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
//    attached pays one empty-list branch per event. It has no per-owner
//    lanes, so it runs on the serial backend only (ShardedBackend::run()
//    refuses it).
//
// Per-event cost: no allocation once warm, and no tree walk while a
// shard's cells stay cached. The simulator hands the profiler each event's
// schedule record (causal depth, origin shard, schedule time; see
// sim/observer.hpp), so the profiler keeps no pending-event table. Each
// dispatch bumps cells cached per shard (its total, its tick and window
// rows, the traffic edge) and per histogram bucket. A shard entering a new
// tick or window finds its row in an open-addressing index over a flat row
// vector: no node, no tree walk, and a vector that grows by doubling.
// Reports, merges and the barrier replay read the rows sorted in
// (row, shard) order.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/observer.hpp"
#include "sim/time.hpp"

namespace tussle::sim {

class ScaleProfiler : public Observer {
 public:
  /// Tick interval for the shard-load time grid: 10 ms of sim time.
  static constexpr Duration kTick = Duration::millis(10);

  // --- observer hooks ------------------------------------------------------
  /// An event was scheduled: `id` names it, `now` is the schedule time,
  /// `at` the fire time, `origin` the shard the scheduling event had
  /// claimed (kNoShard during setup). Records causal depth and origin.
  void on_schedule(EventId id, SimTime now, SimTime at, const TaskTag& tag,
                   ShardId origin) override;
  /// A pending event was cancelled before firing.
  void on_cancel(EventId id, SimTime now, const TaskTag& tag,
                 const ScheduleRecord* rec) override;
  /// Dispatch is about to run event `id`; `queue_depth` is the number of
  /// events still pending (sampled into the queue-depth histogram). `rec`
  /// carries its causal depth and origin; an event without one (scheduled
  /// before the profiler attached) is a causal root.
  void begin_event(EventId id, SimTime now, std::size_t queue_depth, const TaskTag& tag,
                   const ScheduleRecord* rec) override;
  /// The event's handler returned; `shard` is the shard the ShardAuditor
  /// saw claim it (kNoShard when unclaimed or no auditor is attached).
  void end_event(ShardId shard) override;
  bool reads_schedule_records() const override { return true; }
  // No make_lane(): causal depth crosses owners, so per-owner lanes cannot
  // hold the event DAG — the profiler runs on the serial backend only.

  // --- world-registration hook (Simulator::register_lookahead) ------------
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

  /// One cell of a (row, shard) grid: events a shard dispatched in one
  /// tick or one lookahead window.
  struct LoadCell {
    std::int64_t row = 0;
    ShardId shard = kNoShard;
    std::uint64_t events = 0;
  };
  /// Shard-load time grid in (tick index, shard) order. Tick index i
  /// covers [i·tick, (i+1)·tick).
  std::vector<LoadCell> tick_load() const { return tick_load_.sorted(); }

  /// Machine-readable report. Every container behind it is ordered, so the
  /// output is a pure function of the recorded event sequence.
  std::string report_json() const;

  /// Folds another profiler's results into this one. Speedup costs and
  /// spans are finalized per source run before pooling (Σwork / Σcost),
  /// so merging is associative and run-index-order merges are
  /// schedule-independent.
  void merge(const ScaleProfiler& other);

 private:
  /// (row, shard) -> events: the cells in a vector, in the order they
  /// were opened, found through an open-addressing index of their
  /// positions (linear probing, at most half full). A new cell appends to
  /// the vector; neither the vector nor the index allocates but to double.
  /// A cell's position never changes, so callers may cache it.
  class LoadGrid {
   public:
    static constexpr std::uint32_t kNone = ~0u;
    /// Position of (row, shard)'s cell, opened at 0 events if new.
    std::uint32_t cell(std::int64_t row, ShardId shard);
    std::uint64_t& events(std::uint32_t pos) noexcept { return cells_[pos].events; }
    bool empty() const noexcept { return cells_.empty(); }
    /// Every cell, in (row, shard) order.
    std::vector<LoadCell> sorted() const;
    /// Adds each of `other`'s cells into this grid.
    void add(const LoadGrid& other);

   private:
    void grow_index();
    std::vector<LoadCell> cells_;
    std::vector<std::uint32_t> index_;  ///< position + 1 per slot; 0 = empty
  };

  /// The cells one shard's dispatches bump: its total, and its tick and
  /// window rows as last resolved. One way per shard id modulo kShardWays;
  /// a shard that takes another's way re-resolves them.
  struct ShardCells {
    ShardId shard = kNoShard;
    std::uint64_t* events = nullptr;  ///< nullptr: way unused
    std::int64_t tick = 0;
    std::uint32_t tick_cell = LoadGrid::kNone;
    std::int64_t window_start_ns = 0;  ///< the window's first instant, so no division per event
    std::uint32_t window_cell = LoadGrid::kNone;
  };
  /// One traffic edge per (origin, shard) hash modulo kEdgeWays.
  struct EdgeCell {
    ShardId origin = kNoShard;
    ShardId shard = kNoShard;
    TrafficEdge* edge = nullptr;  ///< nullptr: way unused
  };
  static constexpr std::size_t kShardWays = 64;
  static constexpr std::size_t kEdgeWays = 1024;
  ShardCells& shard_cells(ShardId shard);
  TrafficEdge& edge(ShardId origin, ShardId shard);

  /// Barrier costs of *this instance's own recording* (not merged runs),
  /// keyed by k (0 = ∞).
  std::map<std::uint64_t, std::uint64_t> own_costs() const;
  /// Own + merged barrier costs.
  std::map<std::uint64_t, std::uint64_t> total_costs() const;
  const std::string& tail_label() const noexcept;
  std::int64_t tail_time_ns() const noexcept;

  // --- in-flight state ---
  ScheduleRecord cur_;          ///< the dispatching event's schedule record
  std::int64_t cur_time_ns_ = 0;
  std::int64_t frozen_window_ns_ = 0;  ///< fixed at first dispatch
  bool recorded_ = false;       ///< this instance dispatched at least one event

  // --- raw per-run recording (summed on merge) ---
  std::uint64_t scheduled_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t work_ = 0;
  std::uint64_t cross_ = 0;
  std::map<ShardId, std::uint64_t> shard_events_;
  LoadGrid tick_load_;
  LoadGrid window_load_;
  std::map<std::pair<ShardId, ShardId>, TrafficEdge> traffic_;
  std::map<std::pair<ShardId, ShardId>, std::int64_t> links_;
  std::map<std::uint32_t, std::uint64_t> depth_hist_;
  std::map<std::uint32_t, std::uint64_t> queue_hist_;
  std::uint64_t queue_samples_ = 0;
  std::uint64_t queue_max_ = 0;
  std::uint64_t queue_sum_ = 0;

  // --- cells of the maps above, reached without a tree walk ---
  LocalCache<std::array<ShardCells, kShardWays>> shard_cells_;
  LocalCache<std::array<EdgeCell, kEdgeWays>> edge_cells_;
  LocalCache<BucketCells> depth_cells_;
  LocalCache<BucketCells> queue_cells_;

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
