// Memory profiler: the allocation-site / object-lifetime / locality pass.
//
// The scaling plan is a million-actor data plane (struct-of-arrays actors,
// arena/pool allocation, calendar queue). Before the engine is rebuilt
// around that design, this profiler measures — on today's pointer-heavy
// engine — exactly the quantities the refactor must improve:
//
//  (a) allocation sites: per-component alloc/free counters and live-bytes
//      (event control blocks, packets, nodes/links, routing-table entries,
//      ledger entries, sweep per-run state), all in sim-deterministic model
//      units so reports are reproducible — never a malloc hook, never RSS;
//  (b) object lifetimes in sim time: packet birth→deliver/drop and event
//      schedule→dispatch/cancel histograms — the churn an arena with
//      per-window reset would absorb;
//  (c) a pointer-chase/locality model ("chase-churn-v1"): per-dispatch
//      indirection depth along the hot path (queue top → heap handle →
//      closure, then node → FIB → interface → link → queue as components
//      report them) plus container-occupancy stats, scored per component
//      into a predicted arena/SoA benefit — the analogue of the
//      ScaleProfiler's predicted-speedup curve, and the ranking that says
//      which component the refactor should flatten first;
//  (d) peak/steady live-bytes per shard, so a sharded partition's memory
//      footprint is attributable per owner.
//
// One accounting source: this is the only profiler that counts
// allocations and actors. The data plane's packet lifetimes and link-queue
// samples all arrive through net::Network::emit, and world builders
// register actors here directly, so no second report can disagree on a
// size.
//
// Determinism contract (same as spans/timeseries/scale — detlint's
// mem-wall-clock check enforces the first rule statically):
//  - nothing here may touch a wall clock, draw randomness, or schedule:
//    every recorded byte is a model unit attached to a sim-time event, so
//    "live bytes" means modeled resident bytes, never process RSS;
//  - all accumulation structures that survive to a merge point are
//    ordered containers, so reports are byte-identical across runs;
//  - sweep runs record into per-run instances merged in run-index order,
//    so exports are byte-identical at any --jobs;
//  - the profiler is a sim::Observer: a simulator with no observer
//    attached pays one empty-list branch per event. It has no per-owner
//    lanes, so it runs on the serial backend only (ShardedBackend::run()
//    refuses it).
//
// Per-event cost: no allocation once warm, per event or per packet. The
// simulator hands the profiler each event's schedule record (its schedule
// time; see sim/observer.hpp), so the profiler keeps no pending-event
// table, and the event's "sim.event/<component>" site is found from its
// tag. A packet's lifetime sits in a flat open-addressing table keyed by
// (uid space, uid), sized by the packets in flight. Sites, chase and
// occupancy cells are found by the name literal's address in short lists
// (the literal contract of sim/observer.hpp), histogram cells per bucket,
// shard cells per shard, and the timeline cell per tick row.
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

/// Modeled resident bytes of one scheduled event. The value was set for an
/// earlier engine (a heap entry holding the std::function, plus an
/// out-of-line closure); today's queue keeps a 16-byte heap key and a slot
/// holding the action and tag (sim/event_queue.hpp), and the link events
/// that dominate the data plane fit std::function's inline buffer. A model
/// constant, not a measurement: it stays at its old value because every
/// committed memory report counts in it, and recalibrating the model
/// against the real allocator is one change for all its constants.
inline constexpr std::uint64_t kEventControlBlockBytes = 96;

/// Modeled pointer-chase depth of one dispatch before any component adds
/// its own hops. The value counts an earlier engine's chain (heap entry,
/// event handle, out-of-line closure); today's dispatch reads the heap key,
/// then the slot's action, whose link closures are inline. Kept, like
/// kEventControlBlockBytes, for the committed reports until the model is
/// recalibrated as a whole.
inline constexpr std::uint64_t kDispatchChaseHops = 3;

class MemProfiler : public Observer {
 public:
  /// Tick interval for the live-bytes timeline grid: 10 ms of sim time.
  static constexpr Duration kTick = Duration::millis(10);

  // --- observer hooks ------------------------------------------------------
  /// An event was scheduled: counts one event-control-block allocation
  /// under "sim.event/<component>" and opens its schedule→dispatch/cancel
  /// lifetime.
  void on_schedule(EventId id, SimTime now, SimTime at, const TaskTag& tag,
                   ShardId origin) override;
  /// A pending event was cancelled before firing: closes its lifetime into
  /// the cancelled histogram and frees its control block. An event without
  /// a record (scheduled before the profiler attached) has neither.
  void on_cancel(EventId id, SimTime now, const TaskTag& tag,
                 const ScheduleRecord* rec) override;
  /// Dispatch is about to run event `id`: closes its lifetime into the
  /// dispatched histogram, frees its control block (both only with a
  /// record), samples event-queue occupancy, and opens the per-dispatch
  /// chase/churn window.
  void begin_event(EventId id, SimTime now, std::size_t queue_depth, const TaskTag& tag,
                   const ScheduleRecord* rec) override;
  /// The event's handler returned; `shard` is the shard the ShardAuditor
  /// saw claim it (kNoShard when unclaimed or no auditor is attached).
  /// Attributes the dispatch's live-bytes delta to that shard.
  void end_event(ShardId shard) override;
  bool reads_schedule_records() const override { return true; }
  // No make_lane(): a packet is born and dies on different owners and a
  // run has one peak, so per-owner lanes cannot hold the footprint — the
  // profiler runs on the serial backend only.

  // --- accounting hooks (components) ---------------------------------------
  // Every kind, site, component and container name below is a string
  // literal, or text that outlives the profiler and never changes (the
  // literal contract of sim/observer.hpp): cells are found by address.

  /// Counts one long-lived actor of `kind` at an estimated resident size;
  /// actor bytes enter the live-bytes account (they are allocated and stay).
  void register_actor(const char* kind, std::uint64_t bytes);
  /// Counts one allocation of `site` at `bytes` model bytes into the
  /// live-bytes account.
  void count_alloc(const char* site, std::uint64_t bytes);
  /// Counts one free of `site`; live-bytes go down by `bytes`.
  void count_free(const char* site, std::uint64_t bytes);

  // --- packet lifetimes -----------------------------------------------------
  /// A fresh packet-uid space. Packet uids restart with each net::Network,
  /// so every Network that reports packets here asks for its own space and
  /// names its packets by (space, uid): a world stopped at a horizon leaves
  /// its in-flight packets open, and they never answer for the next
  /// world's packets.
  std::uint32_t open_packet_space() noexcept { return ++packet_spaces_; }
  /// A packet was originated (uid assigned): opens its birth→death lifetime
  /// and counts its allocation under "net.packet". First birth wins:
  /// tunnel decapsulation and mirrored copies keep the wire uid, so a
  /// packet has exactly one identity and one lifetime end-to-end.
  void packet_birth(std::uint32_t space, std::uint64_t uid, SimTime now, std::uint64_t bytes);
  /// The packet reached its destination. First death wins: mirrored copies
  /// share the original's uid, and only the first deliver/drop closes the
  /// lifetime; later deaths of the same uid are ignored.
  void packet_delivered(std::uint32_t space, std::uint64_t uid, SimTime now);
  /// The packet was dropped (filter, ttl, no-route, queue-full, link-down).
  void packet_dropped(std::uint32_t space, std::uint64_t uid, SimTime now);

  // --- locality hooks -------------------------------------------------------
  /// Component `component` chased `hops` pointer indirections on the hot
  /// path (FIB hash lookup, interface vector, link handle, queue handle…).
  /// Hops noted during a dispatch also enter the per-dispatch histogram.
  void note_hops(const char* component, std::uint64_t hops);
  /// Samples the occupancy of a named container (event queue, FIB tables,
  /// link queues) — the sizing input for arenas and flat tables.
  void note_occupancy(const char* container, std::uint64_t size);

  // --- results -------------------------------------------------------------
  /// Total events dispatched while attached (the per-event denominator).
  std::uint64_t work() const noexcept { return work_; }
  std::uint64_t events_scheduled() const noexcept { return scheduled_; }
  std::uint64_t events_cancelled() const noexcept { return cancelled_; }
  /// Runs folded into this profiler (a recording instance counts itself
  /// once work was recorded).
  std::uint64_t runs() const noexcept { return merged_runs_ + (recorded_ ? 1 : 0); }

  /// Modeled live bytes right now (sum over sites of alloc − freed bytes).
  std::int64_t live_bytes() const noexcept { return live_; }
  /// Peak modeled live bytes of any single merged run (max over runs —
  /// replicas do not stack in memory; the sweep reuses their footprint).
  std::int64_t peak_live_bytes() const noexcept {
    return own_peak_ > merged_peak_ ? own_peak_ : merged_peak_;
  }
  /// Total allocations counted across every site.
  std::uint64_t alloc_count() const noexcept { return alloc_count_; }
  /// Registered actor population and its modeled resident bytes.
  std::uint64_t actor_count() const noexcept;
  std::uint64_t actor_bytes() const noexcept;
  /// The two gated ratios (bench_compare.py MEM mode): modeled live bytes
  /// per registered actor, and allocations per dispatched event.
  double live_bytes_per_actor() const noexcept;
  double allocs_per_event() const noexcept;

  struct SiteStats {
    std::uint64_t allocs = 0;
    std::uint64_t frees = 0;
    std::uint64_t alloc_bytes = 0;
    std::uint64_t freed_bytes = 0;
    std::int64_t peak_live = 0;  ///< max live bytes of this site in one run
    std::int64_t live() const noexcept {
      return static_cast<std::int64_t>(alloc_bytes) - static_cast<std::int64_t>(freed_bytes);
    }
  };
  const std::map<std::string, SiteStats>& sites() const noexcept { return sites_; }

  struct Tally {
    std::uint64_t count = 0;
    std::uint64_t bytes = 0;
  };
  const std::map<std::string, Tally>& actors() const noexcept { return actors_; }

  /// Lifetime histograms, power-of-two nanosecond buckets (bucket 0 = 0 ns,
  /// bucket b covers [2^(b−1), 2^b − 1] ns).
  const std::map<std::uint32_t, std::uint64_t>& packet_delivered_hist() const noexcept {
    return pkt_delivered_hist_;
  }
  const std::map<std::uint32_t, std::uint64_t>& packet_dropped_hist() const noexcept {
    return pkt_dropped_hist_;
  }
  const std::map<std::uint32_t, std::uint64_t>& event_dispatched_hist() const noexcept {
    return ev_dispatched_hist_;
  }
  const std::map<std::uint32_t, std::uint64_t>& event_cancelled_hist() const noexcept {
    return ev_cancelled_hist_;
  }

  struct ChaseStats {
    std::uint64_t calls = 0;
    std::uint64_t hops = 0;
  };
  const std::map<std::string, ChaseStats>& chases() const noexcept { return chase_; }
  /// Per-dispatch total-hop histogram (power-of-two buckets).
  const std::map<std::uint32_t, std::uint64_t>& hops_per_dispatch_hist() const noexcept {
    return hops_hist_;
  }

  struct OccupancyStats {
    std::uint64_t samples = 0;
    std::uint64_t sum = 0;
    std::uint64_t max = 0;
    double mean() const noexcept {
      return samples > 0 ? static_cast<double>(sum) / static_cast<double>(samples) : 0.0;
    }
  };
  const std::map<std::string, OccupancyStats>& occupancy() const noexcept { return occ_; }

  /// The chase-churn-v1 locality score per component: arena_score =
  /// allocations per dispatched event (churn an arena absorbs), soa_score =
  /// chase hops per dispatched event (indirections SoA flattens),
  /// score = arena_score + soa_score. Components are the union of
  /// allocation-site prefixes (text before '/') and chase keys, so every
  /// churner and every chaser gets ranked.
  struct LocalityScore {
    std::string component;
    std::uint64_t allocs = 0;
    std::uint64_t chase_calls = 0;
    std::uint64_t chase_hops = 0;
    double arena_score = 0;
    double soa_score = 0;
    double score = 0;
  };
  std::vector<LocalityScore> locality_scores() const;

  struct ShardMem {
    std::uint64_t events = 0;
    std::int64_t live = 0;       ///< net live-bytes delta attributed to the shard
    std::int64_t peak_live = 0;  ///< max of that running delta in one run
  };
  const std::map<ShardId, ShardMem>& shard_mem() const noexcept { return shard_mem_; }

  /// Live-bytes timeline: tick index → max modeled live bytes observed in
  /// that tick. Tick index i covers [i·tick, (i+1)·tick). Merging runs
  /// takes the per-tick max, so the merged timeline is the footprint
  /// envelope across replicas.
  const std::map<std::int64_t, std::int64_t>& timeline() const noexcept { return timeline_; }

  /// Machine-readable report. Every container behind it is ordered, so the
  /// output is a pure function of the recorded event sequence.
  std::string report_json() const;

  /// Folds another profiler's results into this one. Peaks are finalized
  /// per source run before pooling (max over runs), counts and histograms
  /// sum, timelines take the per-tick max — so merging is associative and
  /// run-index-order merges are schedule-independent.
  void merge(const MemProfiler& other);

 private:
  /// Open packet lifetimes by (space, uid): open addressing with linear
  /// probing, at most half full, and backward-shift deletion, so no
  /// tombstones pile up and its size follows the packets in flight. It
  /// never shrinks: a warm profiler allocates nothing per packet.
  class PacketLives {
   public:
    struct Life {
      std::uint64_t uid = 0;
      std::uint32_t space = 0;  ///< 0: empty slot (spaces start at 1)
      std::int64_t birth_ns = 0;
      std::uint64_t bytes = 0;
    };
    /// Opens (space, uid)'s life unless one is open: first birth wins.
    void open(const Life& life);
    /// Moves (space, uid)'s open life into `out`. False, leaving `out`
    /// alone, when none is open: first death won.
    bool close(std::uint32_t space, std::uint64_t uid, Life& out);

   private:
    std::size_t home(std::uint32_t space, std::uint64_t uid) const noexcept;
    void grow();
    std::vector<Life> slots_;  ///< size 0 or a power of two
    std::size_t size_ = 0;     ///< open lives
    int shift_ = 64;           ///< 64 - log2(slots_.size())
  };
  struct ShardCell {
    ShardId shard = kNoShard;
    ShardMem* mem = nullptr;  ///< nullptr: way unused
  };
  struct TimelineCell {
    std::int64_t tick = 0;
    std::int64_t* cell = nullptr;
  };
  static constexpr std::size_t kShardWays = 64;

  /// `tag`'s "sim.event/<component>" site.
  SiteStats& event_site(const TaskTag& tag);
  void alloc_at(SiteStats& s, std::uint64_t bytes);
  void free_at(SiteStats& s, std::uint64_t bytes);
  void packet_death(std::uint32_t space, std::uint64_t uid, SimTime now,
                    std::map<std::uint32_t, std::uint64_t>& hist, BucketCells& cells);
  void sample_timeline();
  void add_live(std::int64_t delta);

  // --- in-flight state ---
  PacketLives packets_;
  std::uint32_t packet_spaces_ = 0;  ///< spaces handed out by open_packet_space()
  bool in_event_ = false;
  std::int64_t cur_time_ns_ = 0;
  std::int64_t cur_delta_ = 0;   ///< live-bytes delta of the dispatching event
  std::uint64_t cur_hops_ = 0;   ///< chase hops of the dispatching event
  bool recorded_ = false;        ///< this instance dispatched at least one event

  // --- raw per-run recording (summed on merge) ---
  std::uint64_t scheduled_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t work_ = 0;
  std::uint64_t alloc_count_ = 0;
  std::int64_t live_ = 0;
  std::map<std::string, SiteStats> sites_;
  std::map<std::string, Tally> actors_;
  std::map<std::uint32_t, std::uint64_t> pkt_delivered_hist_;
  std::map<std::uint32_t, std::uint64_t> pkt_dropped_hist_;
  std::map<std::uint32_t, std::uint64_t> ev_dispatched_hist_;
  std::map<std::uint32_t, std::uint64_t> ev_cancelled_hist_;
  std::map<std::string, ChaseStats> chase_;
  std::map<std::uint32_t, std::uint64_t> hops_hist_;
  std::map<std::string, OccupancyStats> occ_;
  std::map<ShardId, ShardMem> shard_mem_;
  std::map<std::int64_t, std::int64_t> timeline_;

  // --- cells of the maps above, reached without a tree walk ---
  LocalCache<NamedCells<SiteStats>> event_site_cells_;  ///< by tag component
  LocalCache<NamedCells<SiteStats>> site_cells_;
  LocalCache<NamedCells<ChaseStats>> chase_cells_;
  LocalCache<NamedCells<OccupancyStats>> occ_cells_;
  LocalCache<BucketCells> pkt_delivered_cells_;
  LocalCache<BucketCells> pkt_dropped_cells_;
  LocalCache<BucketCells> ev_dispatched_cells_;
  LocalCache<BucketCells> ev_cancelled_cells_;
  LocalCache<BucketCells> hops_cells_;
  LocalCache<std::array<ShardCell, kShardWays>> shard_cells_;
  LocalCache<TimelineCell> timeline_cell_;

  // --- own peak (this instance's recording) ---
  std::int64_t own_peak_ = 0;

  // --- merged-run accumulators (finalized results folded by merge()) ---
  std::uint64_t merged_runs_ = 0;
  std::int64_t merged_peak_ = 0;
};

/// Self-contained zero-JS HTML dashboard section: stat tiles, live-bytes
/// timeline, lifetime histograms, per-site allocation bars, locality
/// scores, and the per-shard footprint table. Byte-identical for a given
/// profiler state.
std::string mem_dashboard(const MemProfiler& mp, const std::string& title);

}  // namespace tussle::sim
