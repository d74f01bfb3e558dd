#include "net/network.hpp"

#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "sim/exec_backend.hpp"
#include "sim/mem_profile.hpp"
#include "sim/shard_audit.hpp"

namespace tussle::sim {

/// Per-owner packet-id lanes draw from disjoint namespaces — (owner+1)<<40,
/// the event-id scheme — so uids are unique and per-owner deterministic
/// without any cross-thread coordination. Nothing merges back: the base
/// source keeps namespace 0 for serial/setup draws.
template <>
struct LaneTraits<net::PacketIdSource> {
  static net::PacketIdSource* make(const net::PacketIdSource& base, ShardId owner) {
    (void)base;
    auto* lane = new net::PacketIdSource();
    lane->set_namespace((static_cast<std::uint64_t>(owner) + 1) << 40);
    return lane;
  }
  static void fold(net::PacketIdSource& base, net::PacketIdSource& lane) {
    (void)base;
    (void)lane;  // namespaced counters never collide; there is nothing to fold
  }
};

/// A pool lane holds the packets in flight on its owner, and the events
/// that name their slots sit in that owner's queue: the fold moves no
/// packet (the default fold would destroy them), only the lane's
/// on-the-wire count.
template <>
struct LaneTraits<net::PacketPool> {
  static net::PacketPool* make(const net::PacketPool& base, ShardId owner) {
    (void)base;
    (void)owner;
    return new net::PacketPool();
  }
  static void fold(net::PacketPool& base, net::PacketPool& lane) { base.fold_count(lane); }
};

template <>
struct LaneTraits<net::NetCounters> {
  static net::NetCounters* make(const net::NetCounters& base, ShardId owner) {
    (void)base;
    (void)owner;
    return new net::NetCounters();
  }
  static void fold(net::NetCounters& base, net::NetCounters& lane) {
    base.merge(lane);
    lane.reset();
  }
};

}  // namespace tussle::sim

namespace tussle::net {

namespace {

/// Provisional shard owner of a link: same-AS links belong to that AS,
/// cross-AS links are the boundary channels the PDES design shards across,
/// so both sides may touch them (tallied, never a violation).
sim::ShardId link_shard(const Network& net, NodeId a, NodeId b) {
  const AsId as_a = net.node(a).as();
  const AsId as_b = net.node(b).as();
  return as_a == as_b ? static_cast<sim::ShardId>(as_a) : sim::kSharedShard;
}

/// The trace/span name of a drop cause; Network::emit renders a filter drop
/// as "filter:<the filter's reason>".
const char* drop_name(DropReason reason) noexcept {
  switch (reason) {
    case DropReason::kNone: return "none";
    case DropReason::kFilter: return "filter";
    case DropReason::kTtl: return "ttl";
    case DropReason::kNoRoute: return "no-route";
    case DropReason::kQueueFull: return "queue-full";
    case DropReason::kLinkDown: return "link-down";
  }
  return "?";
}

}  // namespace

// ---------------------------------------------------------------- Link ----

Link::Link(Network& net, LinkId id, NodeId a, NodeId b, double bits_per_second,
           sim::Duration propagation, QueueKind kind, std::size_t queue_capacity)
    : net_(&net), id_(id), bps_(bits_per_second), prop_(propagation) {
  if (bits_per_second <= 0) throw std::invalid_argument("link bandwidth must be positive");
  dirs_[0].from = a;
  dirs_[0].to = b;
  dirs_[1].from = b;
  dirs_[1].to = a;
  dirs_[0].queue = make_queue(kind, queue_capacity);
  dirs_[1].queue = make_queue(kind, queue_capacity);
}

NodeId Link::peer_of(NodeId n) const {
  if (n == dirs_[0].from) return dirs_[0].to;
  if (n == dirs_[1].from) return dirs_[1].to;
  throw std::invalid_argument("node is not an endpoint of this link");
}

std::uint32_t Link::dir_index_for(NodeId from) const {
  if (from == dirs_[0].from) return 0;
  if (from == dirs_[1].from) return 1;
  throw std::invalid_argument("node is not an endpoint of this link");
}

bool Link::transmit_from(NodeId sender, Packet&& p) {
  // The egress queue being mutated lives with the sender: transmitting is
  // an action of the sender's shard, whichever shard the link registered
  // under.
  if (auto* au = net_->auditor()) {
    au->check_mutation("net.link", id_, net_->node(sender).as(), "transmit");
  }
  if (!up_) {
    net_->emit({.kind = PacketEventKind::kDrop, .reason = DropReason::kLinkDown, .uid = p.uid,
                .flow = p.flow, .node = sender, .link = id_});
    return false;
  }
  const std::uint32_t dir = dir_index_for(sender);
  Direction& d = dirs_[dir];
  if (!d.transmitting && d.queue->passes_through() && d.queue->empty()) {
    // The queue would hand the packet straight back: skip the round trip.
    net_->emit({.kind = PacketEventKind::kEnqueue, .uid = p.uid, .flow = p.flow,
                .node = sender, .link = id_, .queued = 1});
    put_on_wire(dir, std::move(p));
    return true;
  }
  const std::uint64_t uid = p.uid;
  const FlowId flow = p.flow;
  if (!d.queue->enqueue(std::move(p))) {
    net_->emit({.kind = PacketEventKind::kDrop, .reason = DropReason::kQueueFull, .uid = uid,
                .flow = flow, .node = sender, .link = id_});
    return false;
  }
  net_->emit({.kind = PacketEventKind::kEnqueue, .uid = uid, .flow = flow, .node = sender,
              .link = id_, .queued = d.queue->packets()});
  if (!d.transmitting) start_transmission(dir);
  return true;
}

void Link::start_transmission(std::uint32_t dir) {
  if (auto p = dirs_[dir].queue->dequeue()) put_on_wire(dir, std::move(*p));
}

void Link::put_on_wire(std::uint32_t dir, Packet&& p) {
  dirs_[dir].transmitting = true;
  const auto serialization =
      sim::Duration::seconds(static_cast<double>(p.size_bytes) * 8.0 / bps_);
  // The packet waits out its serialization in this domain's wire pool. The
  // event names it by slot: 16 trivially copyable bytes, which
  // std::function keeps inline, so scheduling it allocates nothing.
  const std::uint32_t slot = net_->wire().put(std::move(p));
  auto done = [this, dir, slot] { serialized(dir, slot); };
  static_assert(sizeof(done) <= 16 && std::is_trivially_copyable_v<decltype(done)>);
  net_->simulator().schedule(serialization, sim::TaskTag{"net.link", "serialize"}, done);
}

void Link::serialized(std::uint32_t dir, std::uint32_t slot) {
  Direction& d = dirs_[dir];
  // Serialization completion is the transmitting shard's own event.
  if (auto* au = net_->auditor()) au->claim("net.link", id_, net_->node(d.from).as());
  d.transmitting = false;
  PacketPool& wire = net_->wire();
  d.tx_packets += 1;
  d.tx_bytes += wire.at(slot).size_bytes;
  // Propagation hands the packet to the receiving node's owner: on the
  // sharded backend a cross-AS hop rides the barrier inbox (propagation
  // delay >= the registered lookahead makes that legal), while a same-AS
  // hop stays on the owner's own queue. Serial execution is unaffected.
  // The packet keeps its slot only when that owner's event runs in this
  // domain, and so reads this pool; otherwise the event carries it.
  sim::Simulator& sim = net_->simulator();
  const auto owner = static_cast<sim::ShardId>(net_->node(d.to).as());
  const sim::TaskTag tag{"net.link", "propagate"};
  if (sim.backend().runs_here(owner)) {
    auto arrival = [this, dir, slot] { arrive(dir, net_->wire().take(slot)); };
    static_assert(sizeof(arrival) <= 16 && std::is_trivially_copyable_v<decltype(arrival)>);
    sim.schedule_for(owner, prop_, tag, arrival);
  } else {
    sim.schedule_for(owner, prop_, tag, [this, dir, pkt = wire.take(slot)]() mutable {
      arrive(dir, std::move(pkt));
    });
  }
  if (!d.queue->empty()) start_transmission(dir);
}

void Link::arrive(std::uint32_t dir, Packet&& p) {
  net_->wire().land();
  const Direction& d = dirs_[dir];
  if (!up_) {
    net_->emit({.kind = PacketEventKind::kDrop, .reason = DropReason::kLinkDown, .uid = p.uid,
                .flow = p.flow, .node = d.to, .link = id_});
    return;
  }
  // This event runs as the receiving node's owner (schedule_for above).
  Node& dst = net_->node(d.to);
  dst.receive(std::move(p), d.ingress);
}

void Link::set_up(bool up) {
  if (auto* au = net_->auditor()) {
    au->check_mutation("net.link", id_, link_shard(*net_, dirs_[0].from, dirs_[1].from),
                       "set_up");
  }
  up_ = up;
}

// ---------------------------------------------------------- NetCounters --

void NetCounters::reset() {
  originated.reset();
  delivered.reset();
  dropped_filter.reset();
  dropped_ttl.reset();
  dropped_no_route.reset();
  dropped_queue.reset();
  dropped_link_down.reset();
  redirected.reset();
  mirrored.reset();
  forwarded.reset();
  delivery_latency_s.reset();
}

void NetCounters::merge(const NetCounters& other) {
  originated.add(other.originated.value());
  delivered.add(other.delivered.value());
  dropped_filter.add(other.dropped_filter.value());
  dropped_ttl.add(other.dropped_ttl.value());
  dropped_no_route.add(other.dropped_no_route.value());
  dropped_queue.add(other.dropped_queue.value());
  dropped_link_down.add(other.dropped_link_down.value());
  redirected.add(other.redirected.value());
  mirrored.add(other.mirrored.value());
  forwarded.add(other.forwarded.value());
  delivery_latency_s.merge(other.delivery_latency_s);
}

// -------------------------------------------------------------- Network --

NetCounters& Network::counters() noexcept {
  if (auto* lane = sim::shard_lane(*sim_, counters_)) return *lane;
  return counters_;
}

PacketIdSource& Network::packet_ids() noexcept {
  if (auto* lane = sim::shard_lane(*sim_, ids_)) return *lane;
  return ids_;
}

PacketPool& Network::wire() noexcept {
  if (auto* lane = sim::shard_lane(*sim_, wire_)) return *lane;
  return wire_;
}

NodeId Network::add_node(AsId as) {
  const auto id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(std::make_unique<Node>(*this, id, as));
  // Each AS is an execution owner: the sharded backend pre-creates its
  // logical process (a no-op on the serial backend).
  sim_->register_owner(static_cast<sim::ShardId>(as));
  if (auto* au = auditor()) au->register_component("net.node", id, as);
  if (auto* mp = mem_profiler()) mp->register_actor("net.node", sizeof(Node));
  return id;
}

Link& Network::connect(NodeId a, NodeId b, double bits_per_second, sim::Duration propagation,
                       QueueKind kind, std::size_t queue_capacity) {
  if (a == b) throw std::invalid_argument("self-links are not supported");
  const auto id = static_cast<LinkId>(links_.size());
  links_.push_back(std::make_unique<Link>(*this, id, a, b, bits_per_second, propagation, kind,
                                          queue_capacity));
  // Each direction keeps the interface it arrives on, so propagation hands
  // the packet straight to it.
  Link& link = *links_.back();
  link.dirs_[1].ingress = node(a).attach_interface(id);
  link.dirs_[0].ingress = node(b).attach_interface(id);
  // Cross-AS propagation delays bound how early one owner can affect
  // another: the minimum becomes the sharded backend's barrier lookahead,
  // and the scale profiler's lookahead registry (same-AS pairs are
  // ignored).
  sim_->register_lookahead(static_cast<sim::ShardId>(node(a).as()),
                           static_cast<sim::ShardId>(node(b).as()), propagation);
  if (auto* au = auditor()) au->register_component("net.link", id, link_shard(*this, a, b));
  if (auto* mp = mem_profiler()) mp->register_actor("net.link", sizeof(Link));
  return link;
}

std::uint32_t Network::mem_space(sim::MemProfiler& mp) {
  if (&mp != mem_space_owner_) {
    mem_space_owner_ = &mp;
    mem_space_ = mp.open_packet_space();
  }
  return mem_space_;
}

void Network::emit(const PacketEvent& e) {
  const sim::SimTime now = sim_->now();
  switch (e.kind) {
    case PacketEventKind::kOriginate:
      counters().originated.add();
      if (auto* mp = mem_profiler()) mp->packet_birth(mem_space(*mp), e.uid, now, e.bytes);
      if (spans_ != nullptr) {
        spans_->annotate(spans_->packet_span(now, e.uid, e.flow), {"origin", e.node});
      }
      return;
    case PacketEventKind::kMirror:
      counters().mirrored.add();
      return;
    case PacketEventKind::kRedirect:
      counters().redirected.add();
      TUSSLE_TRACE_EVENT(tracer(), now, sim::TraceLevel::kInfo, "net.node", "redirect",
                         {"uid", e.uid}, {"flow", e.flow}, {"node", e.node});
      if (spans_ != nullptr) spans_->instant(now, "net.node", "redirect", {{"node", e.node}});
      return;
    case PacketEventKind::kForward:
      counters().forwarded.add();
      TUSSLE_TRACE_EVENT(tracer(), now, sim::TraceLevel::kDebug, "net.node", "forward",
                         {"uid", e.uid}, {"flow", e.flow}, {"node", e.node}, {"ttl", e.ttl});
      return;
    case PacketEventKind::kEnqueue:
      // Link-queue occupancy after the enqueue: how deep the drop-tail
      // rings, which never shrink, have to grow.
      if (auto* mp = mem_profiler()) mp->note_occupancy("net.link_queue", e.queued);
      TUSSLE_TRACE_EVENT(tracer(), now, sim::TraceLevel::kDebug, "net.link", "enqueue",
                         {"uid", e.uid}, {"flow", e.flow}, {"link", e.link}, {"node", e.node},
                         {"queued", e.queued});
      return;
    case PacketEventKind::kDeliver: {
      NetCounters& ctr = counters();
      ctr.delivered.add();
      ctr.delivery_latency_s.observe(e.latency_s);
      if (auto* mp = mem_profiler()) mp->packet_delivered(mem_space(*mp), e.uid, now);
      TUSSLE_TRACE_EVENT(tracer(), now, sim::TraceLevel::kInfo, "net.node", "deliver",
                         {"uid", e.uid}, {"flow", e.flow}, {"node", e.node},
                         {"latency_s", e.latency_s});
      if (spans_ != nullptr) spans_->end_packet(e.uid, now);
      return;
    }
    case PacketEventKind::kDrop:
      break;
  }

  NetCounters& ctr = counters();
  switch (e.reason) {
    case DropReason::kNone: break;
    case DropReason::kFilter: ctr.dropped_filter.add(); break;
    case DropReason::kTtl: ctr.dropped_ttl.add(); break;
    case DropReason::kNoRoute: ctr.dropped_no_route.add(); break;
    case DropReason::kQueueFull: ctr.dropped_queue.add(); break;
    case DropReason::kLinkDown: ctr.dropped_link_down.add(); break;
  }
  if (auto* mp = mem_profiler()) mp->packet_dropped(mem_space(*mp), e.uid, now);
  sim::Tracer& tr = tracer();
  if (spans_ == nullptr && !tr.enabled_for(sim::TraceLevel::kInfo)) return;
  const std::string reason = e.reason == DropReason::kFilter
                                 ? "filter:" + std::string(e.detail)
                                 : std::string(drop_name(e.reason));
  const bool at_link = e.reason == DropReason::kQueueFull || e.reason == DropReason::kLinkDown;
  if (at_link) {
    TUSSLE_TRACE_EVENT(tr, now, sim::TraceLevel::kInfo, "net.link", "drop", {"reason", reason},
                       {"uid", e.uid}, {"flow", e.flow}, {"link", e.link}, {"node", e.node});
  } else if (e.reason == DropReason::kFilter) {
    TUSSLE_TRACE_EVENT(tr, now, sim::TraceLevel::kInfo, "net.node", "drop", {"reason", reason},
                       {"uid", e.uid}, {"flow", e.flow}, {"node", e.node},
                       {"disclosed", e.disclosed});
  } else {
    TUSSLE_TRACE_EVENT(tr, now, sim::TraceLevel::kInfo, "net.node", "drop", {"reason", reason},
                       {"uid", e.uid}, {"flow", e.flow}, {"node", e.node});
  }
  if (spans_ == nullptr) return;
  // A zero-length drop span, then the packet's causal tree closes. A node
  // drop hangs under the hop that decided (the packet span when no hop is
  // active); link code runs outside any hop, so a link drop hangs under the
  // packet span.
  sim::SpanId parent = at_link ? sim::kNoSpan : spans_->current();
  if (parent == sim::kNoSpan) parent = spans_->find_packet(e.uid);
  const sim::SpanId id =
      at_link ? spans_->begin_under(parent, now, "net.link", "drop",
                                    {{"reason", reason}, {"link", e.link}, {"node", e.node}})
              : spans_->begin_under(parent, now, "net.node", "drop",
                                    {{"reason", reason}, {"node", e.node}});
  spans_->end(id, now);
  spans_->end_packet(e.uid, now);
}

void Network::notify_delivered(const Packet& p, NodeId at) {
  // Network-wide counters are deliberately shared across shards today; the
  // tally marks them as a merge point the PDES refactor must make
  // shard-local-then-merge.
  if (auto* au = auditor()) au->record_shared_access("net.counters", "deliver");
  const sim::SimTime now = sim_->now();
  const double latency_s = now.as_seconds() - p.sent_at_s;
  // Delivery can happen inside a hop span (forwarded packet) or with no
  // active context (origination straight to a local address); adopt the
  // packet span in the latter case, looked up before emit closes it, so the
  // deliver span never floats free.
  const bool adopt = spans_ != nullptr && spans_->current() == sim::kNoSpan;
  if (adopt) spans_->push(spans_->find_packet(p.uid));
  emit({.kind = PacketEventKind::kDeliver, .uid = p.uid, .flow = p.flow, .node = at,
        .latency_s = latency_s});
  // Settlements posted by delivery observers (e.g. PaidTransit::settle)
  // nest under this span: "who was compensated because it arrived".
  std::optional<sim::ScopedSpan> deliver;
  if (spans_ != nullptr) {
    deliver.emplace(spans_, now, "net.node", "deliver",
                    std::initializer_list<sim::TraceField>{{"node", at}, {"latency_s", latency_s}});
  }
  for (const auto& obs : observers_) obs(p, at);
  deliver.reset();
  if (adopt) spans_->pop();
}

std::vector<std::pair<NodeId, IfIndex>> Network::neighbors(NodeId n) const {
  std::vector<std::pair<NodeId, IfIndex>> out;
  const Node& nd = node(n);
  for (IfIndex i = 0; i < static_cast<IfIndex>(nd.interface_count()); ++i) {
    const Link& l = link(nd.link_of(i));
    out.emplace_back(l.peer_of(n), i);
  }
  return out;
}

}  // namespace tussle::net
