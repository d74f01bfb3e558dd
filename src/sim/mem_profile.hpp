// Memory profiler: what a run keeps alive, measured in sim time and counts.
//
//  (a) object lifetimes in sim time: packet birth→deliver/drop and event
//      schedule→dispatch/cancel histograms, the churn a pool or an arena
//      with per-window reset would absorb;
//  (b) container occupancy: FIB entries at each route lookup ("net.fib")
//      and link-queue depth after each enqueue ("net.link_queue"), the
//      sizing input for flat tables and rings;
//  (c) the actor census: how many of each long-lived actor kind a world
//      registers, and their sizeof;
//  (d) the event counters: dispatched, scheduled, cancelled, packets born.
//
// It models no allocator: how many heap allocations a run makes, and how
// many bytes, is the real allocator's count (perfbench's traced binary
// reports it as alloc.run_per_event). The event-queue depth is the scale
// profiler's (sim/scale_profile.hpp, its "queue" section).
//
// One accounting source: the data plane's packet lifetimes and link-queue
// samples all arrive through net::Network::emit, and world builders
// register actors here directly, so no second report can disagree on a
// count.
//
// Determinism contract (same as spans/timeseries/scale — detlint's
// mem-wall-clock check enforces the first rule statically):
//  - nothing here may touch a wall clock, draw randomness, or schedule:
//    every recorded quantity is a count or a sim-time duration;
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
// table. A packet's lifetime sits in a flat open-addressing table keyed by
// (uid space, uid), sized by the packets in flight. Occupancy cells are
// found by the name literal's address in a short list (the literal
// contract of sim/observer.hpp), histogram cells per bucket.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/observer.hpp"
#include "sim/time.hpp"

namespace tussle::sim {

class MemProfiler : public Observer {
 public:
  // --- observer hooks ------------------------------------------------------
  /// An event was scheduled: counts it. Its schedule→dispatch/cancel
  /// lifetime runs from the schedule record the simulator keeps.
  void on_schedule(EventId id, SimTime now, SimTime at, const TaskTag& tag,
                   ShardId origin) override;
  /// A pending event was cancelled before firing: closes its lifetime into
  /// the cancelled histogram. An event without a record (scheduled before
  /// the profiler attached) has none.
  void on_cancel(EventId id, SimTime now, const TaskTag& tag,
                 const ScheduleRecord* rec) override;
  /// Dispatch is about to run event `id`: closes its lifetime into the
  /// dispatched histogram (only with a record).
  void begin_event(EventId id, SimTime now, std::size_t queue_depth, const TaskTag& tag,
                   const ScheduleRecord* rec) override;
  /// The event's handler returned: counts one unit of work. The shard is
  /// not read.
  void end_event(ShardId shard) override;
  bool reads_schedule_records() const override { return true; }
  // No make_lane(): a packet is born and dies on different owners, so
  // per-owner lanes cannot hold its lifetime — the profiler runs on the
  // serial backend only.

  // --- accounting hooks (components) ---------------------------------------
  // Every kind and container name below is a string literal, or text that
  // outlives the profiler and never changes (the literal contract of
  // sim/observer.hpp): occupancy cells are found by address.

  /// Counts one long-lived actor of `kind`, `bytes` its sizeof.
  void register_actor(const char* kind, std::uint64_t bytes);
  /// Samples the occupancy of a named container (FIB tables, link queues).
  void note_occupancy(const char* container, std::uint64_t size);

  // --- packet lifetimes -----------------------------------------------------
  /// A fresh packet-uid space. Packet uids restart with each net::Network,
  /// so every Network that reports packets here asks for its own space and
  /// names its packets by (space, uid): a world stopped at a horizon leaves
  /// its in-flight packets open, and they never answer for the next
  /// world's packets.
  std::uint32_t open_packet_space() noexcept { return ++packet_spaces_; }
  /// A packet was originated (uid assigned): opens its birth→death
  /// lifetime. First birth wins: tunnel decapsulation and mirrored copies
  /// keep the wire uid, so a packet has exactly one identity and one
  /// lifetime end-to-end.
  void packet_birth(std::uint32_t space, std::uint64_t uid, SimTime now);
  /// The packet reached its destination. First death wins: mirrored copies
  /// share the original's uid, and only the first deliver/drop closes the
  /// lifetime; later deaths of the same uid are ignored.
  void packet_delivered(std::uint32_t space, std::uint64_t uid, SimTime now);
  /// The packet was dropped (filter, ttl, no-route, queue-full, link-down).
  void packet_dropped(std::uint32_t space, std::uint64_t uid, SimTime now);

  // --- results -------------------------------------------------------------
  /// Total events dispatched while attached (the per-event denominator).
  std::uint64_t work() const noexcept { return work_; }
  std::uint64_t events_scheduled() const noexcept { return scheduled_; }
  std::uint64_t events_cancelled() const noexcept { return cancelled_; }
  /// Packet lifetimes opened (a repeated birth of one uid counts once).
  std::uint64_t packets_born() const noexcept { return born_; }
  /// Runs folded into this profiler (a recording instance counts itself
  /// once work was recorded).
  std::uint64_t runs() const noexcept { return merged_runs_ + (recorded_ ? 1 : 0); }
  /// Lifetimes opened: events scheduled plus packets born. perfbench's
  /// side pass still divides it by work() for its "mem model allocations
  /// per event" row, which ROADMAP item 12 retires.
  std::uint64_t alloc_count() const noexcept { return scheduled_ + born_; }
  /// Registered actor population and the sum of its sizeofs.
  std::uint64_t actor_count() const noexcept;
  std::uint64_t actor_bytes() const noexcept;

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

  struct OccupancyStats {
    std::uint64_t samples = 0;
    std::uint64_t sum = 0;
    std::uint64_t max = 0;
    double mean() const noexcept {
      return samples > 0 ? static_cast<double>(sum) / static_cast<double>(samples) : 0.0;
    }
  };
  const std::map<std::string, OccupancyStats>& occupancy() const noexcept { return occ_; }

  /// Machine-readable report. Every container behind it is ordered, so the
  /// output is a pure function of the recorded event sequence.
  std::string report_json() const;

  /// Folds another profiler's results into this one: counts and histograms
  /// sum, occupancy maxima take the max — so merging is associative and
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
    };
    /// Opens (space, uid)'s life unless one is open: first birth wins.
    /// True when it opened one.
    bool open(const Life& life);
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

  void packet_death(std::uint32_t space, std::uint64_t uid, SimTime now,
                    std::map<std::uint32_t, std::uint64_t>& hist, BucketCells& cells);

  // --- in-flight state ---
  PacketLives packets_;
  std::uint32_t packet_spaces_ = 0;  ///< spaces handed out by open_packet_space()
  bool recorded_ = false;            ///< this instance dispatched at least one event

  // --- raw per-run recording (summed on merge) ---
  std::uint64_t scheduled_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t work_ = 0;
  std::uint64_t born_ = 0;
  std::map<std::string, Tally> actors_;
  std::map<std::uint32_t, std::uint64_t> pkt_delivered_hist_;
  std::map<std::uint32_t, std::uint64_t> pkt_dropped_hist_;
  std::map<std::uint32_t, std::uint64_t> ev_dispatched_hist_;
  std::map<std::uint32_t, std::uint64_t> ev_cancelled_hist_;
  std::map<std::string, OccupancyStats> occ_;

  // --- cells of the maps above, reached without a tree walk ---
  LocalCache<NamedCells<OccupancyStats>> occ_cells_;
  LocalCache<BucketCells> pkt_delivered_cells_;
  LocalCache<BucketCells> pkt_dropped_cells_;
  LocalCache<BucketCells> ev_dispatched_cells_;
  LocalCache<BucketCells> ev_cancelled_cells_;

  std::uint64_t merged_runs_ = 0;  ///< runs folded in by merge()
};

/// Self-contained zero-JS HTML dashboard section: stat tiles and the four
/// lifetime histograms. Byte-identical for a given profiler state.
std::string mem_dashboard(const MemProfiler& mp, const std::string& title);

}  // namespace tussle::sim
