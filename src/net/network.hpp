// The Network: owns nodes and links, provides the data-plane fabric that the
// routing, trust, and economics layers program.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "net/node.hpp"
#include "net/packet.hpp"
#include "net/queue.hpp"
#include "sim/simulator.hpp"
#include "sim/span.hpp"
#include "sim/stats.hpp"
#include "sim/trace.hpp"

namespace tussle::net {

using LinkId = std::uint32_t;

/// A full-duplex point-to-point link. Each direction has its own output
/// queue and transmitter; serialization time is size/bandwidth and
/// propagation delay is fixed.
class Link {
 public:
  Link(Network& net, LinkId id, NodeId a, NodeId b, double bits_per_second,
       sim::Duration propagation, QueueKind kind, std::size_t queue_capacity);

  LinkId id() const noexcept { return id_; }
  NodeId endpoint_a() const noexcept { return dirs_[0].from; }
  NodeId endpoint_b() const noexcept { return dirs_[1].from; }
  NodeId peer_of(NodeId n) const;

  /// Queues a packet for transmission from `sender` toward the other end.
  /// Returns false if the packet was dropped (queue full or link down).
  bool transmit_from(NodeId sender, Packet p);

  /// Failure injection: a down link silently discards traffic. Audited:
  /// same-AS links belong to that AS's shard, cross-AS links are shared
  /// boundary channels, so either shard may fail them.
  void set_up(bool up);
  bool up() const noexcept { return up_; }

  double bandwidth_bps() const noexcept { return bps_; }
  sim::Duration propagation() const noexcept { return prop_; }

  std::uint64_t tx_packets(NodeId from) const { return dir_for(from).tx_packets; }
  std::uint64_t tx_bytes(NodeId from) const { return dir_for(from).tx_bytes; }
  std::uint64_t queue_drops() const noexcept {
    return dirs_[0].queue->drops() + dirs_[1].queue->drops();
  }
  /// Instantaneous utilization proxy: queued bytes in both directions.
  std::uint64_t backlog_bytes() const noexcept {
    return dirs_[0].queue->bytes() + dirs_[1].queue->bytes();
  }

 private:
  friend class Network;  // connect() records each direction's ingress interface

  struct Direction {
    NodeId from = kNoNode;
    NodeId to = kNoNode;
    std::unique_ptr<Queue> queue;
    bool transmitting = false;
    IfIndex ingress = -1;  ///< the interface of `to` this direction arrives on
    std::uint64_t tx_packets = 0;
    std::uint64_t tx_bytes = 0;
  };

  std::size_t dir_index_for(NodeId from) const;
  Direction& dir_for(NodeId from) { return dirs_[dir_index_for(from)]; }
  const Direction& dir_for(NodeId from) const { return dirs_[dir_index_for(from)]; }
  void start_transmission(Direction& d);

  Network* net_;
  LinkId id_ = 0;
  double bps_ = 0;
  sim::Duration prop_;
  bool up_ = true;
  Direction dirs_[2];
};

/// The packet-lifecycle events a Network reports through emit().
enum class PacketEventKind : std::uint8_t {
  kOriginate,  ///< uid assigned at the source: the packet's lifetime opens
  kMirror,     ///< a filter's tap made a copy (the copy keeps the uid)
  kRedirect,   ///< a filter rewrote the destination
  kForward,    ///< a transit node decremented the TTL and passed it on
  kEnqueue,    ///< accepted into a link's output queue
  kDeliver,    ///< reached its destination: the lifetime closes
  kDrop,       ///< died for `PacketEvent::reason`: the lifetime closes
};

/// Why a packet died. Each cause belongs to a different tussle, so every
/// sink keeps them apart. Filter, ttl and no-route drops are a node's
/// decision; queue-full and link-down drops happen on a link.
enum class DropReason : std::uint8_t { kNone, kFilter, kTtl, kNoRoute, kQueueFull, kLinkDown };

/// One packet-lifecycle event: what happened, to which packet, where, plus
/// the one extra fact its kind's records need. Sites build it with
/// designated initializers, so every field has a default.
struct PacketEvent {
  PacketEventKind kind = PacketEventKind::kOriginate;
  DropReason reason = DropReason::kNone;  ///< kDrop only
  std::uint64_t uid = 0;
  FlowId flow = 0;
  NodeId node = kNoNode;          ///< acting node; a link drop in flight names the receiver
  LinkId link = 0;                ///< kEnqueue and link drops (queue-full, link-down)
  std::uint64_t bytes = 0;        ///< kOriginate: modeled size, sizeof(Packet) + wire bytes
  std::uint64_t queued = 0;       ///< kEnqueue: packets in the queue after the enqueue
  std::uint8_t ttl = 0;           ///< kForward: the TTL after the decrement
  double latency_s = 0;           ///< kDeliver: end-to-end latency, seconds
  std::string_view detail = {};   ///< filter drop: the deciding filter's reason
  bool disclosed = false;         ///< filter drop: the deciding filter discloses itself
};

/// Aggregate data-plane counters, with drop causes broken out — several
/// experiments report *why* traffic died (filtered vs. congested vs.
/// unroutable), since each cause belongs to a different tussle.
struct NetCounters {
  sim::Counter originated;
  sim::Counter delivered;
  sim::Counter dropped_filter;
  sim::Counter dropped_ttl;
  sim::Counter dropped_no_route;
  sim::Counter dropped_queue;
  sim::Counter dropped_link_down;
  sim::Counter redirected;
  sim::Counter mirrored;
  sim::Counter forwarded;
  sim::Summary delivery_latency_s;  ///< end-to-end, seconds

  void reset();
  /// Folds another counter set into this one (sharded per-owner lanes merge
  /// through here; Summary merging pools moments, so merged stats equal the
  /// single-stream result).
  void merge(const NetCounters& other);
};

class Network {
 public:
  explicit Network(sim::Simulator& sim) : sim_(&sim) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  NodeId add_node(AsId as);
  Link& connect(NodeId a, NodeId b, double bits_per_second, sim::Duration propagation,
                QueueKind kind = QueueKind::kDropTail, std::size_t queue_capacity = 64);

  Node& node(NodeId id) { return *nodes_.at(id); }
  const Node& node(NodeId id) const { return *nodes_.at(id); }
  Link& link(LinkId id) { return *links_.at(id); }
  const Link& link(LinkId id) const { return *links_.at(id); }
  std::size_t node_count() const noexcept { return nodes_.size(); }
  std::size_t link_count() const noexcept { return links_.size(); }

  sim::Simulator& simulator() noexcept { return *sim_; }

  /// Data-plane counter sink. Inside a sharded worker event this resolves
  /// to the owner's private lane (folded into the base in owner order at
  /// barriers), so hot-path counting never crosses threads; everywhere else
  /// it is the base object. Read merged results through the const overload
  /// after run() (or from a control event, which runs post-fold).
  NetCounters& counters() noexcept;
  const NetCounters& counters() const noexcept { return counters_; }

  /// Packet-id source, lane-routed like counters(); sharded lanes draw from
  /// per-owner namespaces so uids stay globally unique.
  PacketIdSource& packet_ids() noexcept;

  /// Tracer receiving this network's flow-provenance events (enqueue,
  /// forward, drop-with-reason, deliver): the owning simulator's, so two
  /// concurrent runs never share trace state. It is disabled unless someone
  /// turns it on — the data plane pays one branch per event either way.
  sim::Tracer& tracer() noexcept { return sim_->tracer(); }

  /// Causal span tracer, or nullptr (the default — the data plane then pays
  /// exactly one branch per decision point). When attached, every packet
  /// gets a lifetime span under its flow span, every node visit a hop span,
  /// and every filter verdict a decision span, so downstream effects
  /// (ledger transfers, drops) are causally attributed.
  sim::SpanTracer* spans() noexcept { return spans_; }
  void set_spans(sim::SpanTracer* spans) noexcept { spans_ = spans; }

  /// Cross-shard access auditor, read through the owning simulator so a
  /// single Simulator::set_auditor call covers the whole topology. Null
  /// (the default) costs one pointer load + branch per instrumented
  /// mutation — the same contract as spans().
  sim::ShardAuditor* auditor() const noexcept { return sim_->auditor(); }

  /// Scale profiler, read through the owning simulator like the auditor.
  /// connect registers lookahead links with it. Null (the default) costs
  /// one pointer load + branch per registration point.
  sim::ScaleProfiler* scale_profiler() const noexcept { return sim_->scale_profiler(); }

  /// Memory profiler, read through the owning simulator like the auditor.
  /// add_node/connect register actor footprints, emit() records packet
  /// birth/death lifetimes and link-queue occupancy, and forwarding notes
  /// FIB pointer-chase depth. Null (the default) costs one pointer load +
  /// branch per hook point.
  sim::MemProfiler* mem_profiler() const noexcept { return sim_->mem_profiler(); }

  /// The one choke point of the packet lifecycle: every originate, mirror,
  /// redirect, forward, enqueue, deliver and drop site calls this exactly
  /// once. It bumps the NetCounters field, opens or closes the packet's
  /// MemProfiler lifetime (and samples "net.link_queue"), writes the span
  /// tracer's packet, drop and redirect records, and renders the JSONL
  /// trace line. Each sink is resolved when the event's kind needs it,
  /// through the lane-aware accessors, so inside a sharded worker event
  /// counters and profilers are the owner's lanes.
  void emit(const PacketEvent& e);

  /// Observers invoked on every successful local delivery, after the node's
  /// own handler. Scenarios use them for global accounting; several can
  /// coexist (a FlowTracker plus a scenario counter, say).
  using DeliveryObserver = std::function<void(const Packet&, NodeId at)>;
  /// Replaces all observers with one (legacy behaviour).
  void set_delivery_observer(DeliveryObserver obs) {
    observers_.clear();
    if (obs) observers_.push_back(std::move(obs));
  }
  void add_delivery_observer(DeliveryObserver obs) {
    if (obs) observers_.push_back(std::move(obs));
  }
  void notify_delivered(const Packet& p, NodeId at);

  /// All (neighbor, interface) pairs of a node — used by routing protocols.
  std::vector<std::pair<NodeId, IfIndex>> neighbors(NodeId n) const;

  /// §VI-A fault reporting: when enabled, a drop by a *disclosed* filter
  /// makes the dropping node send a control-plane error to the packet's
  /// source naming itself and the rule. Undisclosed filters stay silent
  /// either way. Off by default (it is a deployable mechanism, not a law
  /// of nature — which is rather the point).
  void enable_fault_reporting(bool on) noexcept { fault_reporting_ = on; }
  bool fault_reporting() const noexcept { return fault_reporting_; }

 private:
  sim::Simulator* sim_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<Link>> links_;
  NetCounters counters_;
  PacketIdSource ids_;
  std::vector<DeliveryObserver> observers_;
  sim::SpanTracer* spans_ = nullptr;
  bool fault_reporting_ = false;
};

}  // namespace tussle::net
