// Execution profiler: wall-clock observability for the runtime itself.
//
// The ScaleProfiler (sim/scale_profile.hpp) *predicts* barrier-window PDES
// speedup from event counts on the serial engine; this module *measures*
// where wall-clock time actually goes once the ShardedBackend runs — per
// barrier window and per worker, split across
//
//   dispatch      — executing the owner queues' events,
//   outbox drain  — gathering/sorting/enqueueing cross-owner messages,
//   barrier wait  — blocked at a window barrier (includes the coordinator's
//                   inter-window work the workers must wait out),
//   control batch — coordinator-run control events between windows,
//   lane fold     — folding per-owner state lanes before control events,
//
// plus window occupancy (events dispatched against the lookahead horizon),
// per-(src, dst) outbox message volumes, and per-jthread busy/idle
// shares. The same hooks wrap the serial backend's dispatch loop (one
// window per run() call, all of it dispatch on worker 0), so serial and
// sharded runs export the same report schema.
//
// validate() replays the ScaleProfiler's virtual-barrier model (LPT packing
// of per-owner loads onto k virtual shards, window cost = the slowest
// shard) over the per-window per-owner event counts this profiler recorded
// at runtime, and compares the model's predicted speedup against the
// measured one (worker busy seconds / elapsed run wall). The residual is
// decomposed into the three loss terms a barrier design can suffer —
// dispatch imbalance, barrier/coordination overhead, drain cost — so a
// regression names its cause.
//
// Determinism contract — the explicit EXCEPTION. Everything here is
// wall-clock data and therefore nondeterministic run to run: exec reports
// are exempt from the byte-identity contract that covers metrics, spans,
// time series, audit, and scale exports. The harness emits them to their
// own files (--exec-json/--exec-trace/--exec-dashboard), never into the
// .metrics object, and detlint's wall-clock check keeps the list of
// modules allowed to read the wall clock to exactly the audited set this
// file belongs to. An unattached profiler costs each backend one
// null-pointer branch per run/window, never per event.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/shard_audit.hpp"

namespace tussle::sim {

class ExecProfiler {
 public:
  /// Wall-time slices beyond this many windows per run are dropped from the
  /// Chrome trace (aggregates stay complete) so long runs stay bounded.
  static constexpr std::size_t kMaxSliceWindows = 512;

  /// One worker's share of one barrier window (seconds of wall time).
  struct WorkerSlice {
    double barrier_s = 0;   ///< waiting for the window to open (A release)
    double dispatch_s = 0;  ///< executing owner-queue events
    double drain_s = 0;     ///< draining/sorting/enqueueing inboxes
    double dispatch_start = -1;  ///< run-relative wall; -1 = slice capped
    double drain_start = -1;
    std::uint64_t events = 0;  ///< events this worker dispatched
  };

  /// One barrier window, assembled from every worker's lane at end_run().
  struct Window {
    std::int64_t start_ns = 0;  ///< sim-time window [start, end)
    std::int64_t end_ns = 0;
    double wall_start = -1;  ///< run-relative coordinator wall; -1 = capped
    double elapsed = 0;      ///< coordinator wall from publish to barrier C
    std::uint64_t events = 0;
    std::vector<WorkerSlice> workers;
    std::map<ShardId, std::uint64_t> owner_events;  ///< validation replay input
  };

  /// One coordinator control batch (between windows).
  struct ControlBatch {
    double wall_start = -1;  ///< run-relative; -1 = capped
    double fold_s = 0;       ///< lane fold preceding the batch
    double control_s = 0;
    std::uint64_t events = 0;
  };

  /// (src owner, dst owner) -> messages drained; dst == kNoShard is the
  /// control-queue inbox.
  using Volumes = std::map<std::pair<ShardId, ShardId>, std::uint64_t>;

  /// One backend run() invocation.
  struct Run {
    std::string backend;  ///< "serial" or "sharded"
    std::size_t workers = 0;
    std::int64_t lookahead_ns = 0;
    double elapsed = 0;
    double control_seconds = 0;
    double fold_seconds = 0;
    std::uint64_t control_events = 0;
    std::vector<Window> windows;
    std::vector<ControlBatch> control_batches;
    Volumes volumes;
  };

  /// Per-worker recording surface. Worker w writes only lane(w), strictly
  /// between its barrier-A release and its barrier-C arrival; the
  /// coordinator reads lanes only in end_run(), after the workers joined.
  class WorkerLane {
   public:
    /// Closes this worker's current window (call once per window, before
    /// arriving at barrier C). Wall starts are run-relative.
    void window(double barrier_s, double dispatch_s, double drain_s,
                double dispatch_start, double drain_start, std::uint64_t events);
    /// Events this worker dispatched for `owner` in the current window.
    void owner_events(ShardId owner, std::uint64_t events);
    /// Messages drained from `src`'s outbox into `dst`'s queue.
    void drained(ShardId src, ShardId dst, std::uint64_t events);

   private:
    friend class ExecProfiler;
    struct WinRec {
      std::uint32_t window = 0;
      float barrier_s = 0;
      float dispatch_s = 0;
      float drain_s = 0;
      double dispatch_start = -1;
      double drain_start = -1;
      std::uint32_t events = 0;
    };
    struct OwnRec {
      std::uint32_t window = 0;
      ShardId owner = kNoShard;
      std::uint32_t events = 0;
    };
    std::uint32_t windows_done_ = 0;
    std::vector<WinRec> windows_;
    std::vector<OwnRec> owners_;
    Volumes volumes_;
  };

  // --- recording: coordinator / backend thread only ------------------------
  /// Opens a run record and sizes `workers` lanes. Returns the run-start
  /// wall time so the caller can compute run-relative offsets.
  double begin_run(const char* backend, std::size_t workers, std::int64_t lookahead_ns);
  /// Worker w's lane; stable for the whole run (no reallocation mid-run).
  WorkerLane& lane(std::size_t worker) { return lanes_[worker]; }
  /// Coordinator brackets for one barrier window (outside barriers A..C).
  void begin_window(std::int64_t start_ns, std::int64_t end_ns);
  void end_window();
  /// One coordinator control batch: the lane fold that preceded it, the
  /// batch itself, and how many control events ran.
  void record_control(double wall_start, double fold_s, double control_s,
                      std::uint64_t events);
  /// End-of-run lane fold / observability merge time.
  void record_fold(double seconds);
  /// Coordinator-drained volume (the control-queue inbox, dst == kNoShard).
  void record_drained(ShardId src, ShardId dst, std::uint64_t events);
  /// Closes the run: assembles windows from the worker lanes and retires
  /// the record. Error paths skip this; begin_run() discards partial state.
  void end_run();

  /// The serial backend's whole dispatch loop as one single-worker window.
  void record_serial_run(std::int64_t start_ns, std::int64_t end_ns,
                         std::uint64_t events, double elapsed_s);

  // --- results -------------------------------------------------------------
  std::size_t runs() const noexcept { return runs_.size(); }
  const std::vector<Run>& run_records() const noexcept { return runs_; }
  std::size_t windows() const noexcept;
  std::size_t max_workers() const noexcept;
  double elapsed_seconds() const noexcept;

  struct PhaseTotals {
    double dispatch = 0;  ///< summed worker-seconds
    double drain = 0;
    double barrier = 0;
    double control = 0;
    double fold = 0;
  };
  PhaseTotals phases() const noexcept;

  struct WorkerShare {
    double busy_s = 0;  ///< dispatch + drain
    double idle_s = 0;  ///< barrier wait
  };
  /// Pooled per-worker-index busy/idle, sized max_workers().
  std::vector<WorkerShare> worker_shares() const;

  /// Pooled per-(src, dst) drained-message volumes across runs.
  Volumes volumes() const;

  /// Window-occupancy histogram: log2 bucket of events-per-window -> count
  /// (bucket b covers [2^(b-1), 2^b - 1], bucket 0 = empty windows).
  std::map<std::uint32_t, std::uint64_t> occupancy_histogram() const;

  /// Measured-vs-predicted speedup over the pooled runs.
  struct Validation {
    std::size_t workers = 0;         ///< max worker count across runs
    std::uint64_t window_events = 0;
    std::uint64_t serial_events = 0;  ///< control-batch events (serial by design)
    double measured_speedup = 0;   ///< busy wall / elapsed wall
    double predicted_speedup = 0;  ///< the ScaleProfiler LPT model, replayed
    std::size_t windows_compared = 0;
    double mean_window_error = 0;  ///< mean |measured − predicted| / predicted
    double imbalance_seconds = 0;  ///< max-dispatch − mean-dispatch, summed
    double drain_seconds = 0;      ///< slowest drain per window, summed
    double barrier_seconds = 0;    ///< window wall unexplained by dispatch/drain
    const char* dominant_loss = "none";
    double barrier_overhead_fraction = 0;  ///< barrier_seconds / elapsed
  };
  Validation validate() const;

  /// Machine-readable report (the --exec-json payload). Wall-clock data:
  /// NOT byte-identical across runs — see the file comment.
  std::string report_json() const;

  /// Appends another profiler's run records (the sweep engine merges per-run
  /// instances in run-index order, same as every other sink).
  void merge(const ExecProfiler& other);

 private:
  std::vector<Run> runs_;
  // In-flight run state (coordinator thread only).
  bool in_run_ = false;
  Run cur_;
  double run_start_ = 0;
  double window_open_ = 0;
  std::vector<WorkerLane> lanes_;
};

/// Chrome trace-event JSON: one process per run, one track per worker plus
/// a coordinator track, wall-time "X" slices for dispatch/drain/control/
/// fold/window (capped at ExecProfiler::kMaxSliceWindows per run).
std::string exec_chrome_trace(const ExecProfiler& ep);

/// Self-contained zero-JS HTML dashboard: stat tiles, worker timeline
/// gantt, window-occupancy histogram, and per-worker stall breakdown —
/// same idiom as scale_dashboard / timeseries_dashboard.
std::string exec_dashboard(const ExecProfiler& ep, const std::string& title);

}  // namespace tussle::sim
