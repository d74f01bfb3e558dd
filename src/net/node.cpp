#include "net/node.hpp"

#include <algorithm>

#include "net/network.hpp"
#include "sim/mem_profile.hpp"
#include "sim/shard_audit.hpp"

namespace tussle::net {

namespace {

const char* filter_action_name(FilterAction a) noexcept {
  switch (a) {
    case FilterAction::kAccept: return "accept";
    case FilterAction::kDrop: return "drop";
    case FilterAction::kRedirect: return "redirect";
    case FilterAction::kBypass: return "bypass";
    case FilterAction::kMirror: return "mirror";
  }
  return "?";
}

/// Re-establishes a packet's lifetime span as the active context for one
/// node visit. Each hop is a separately scheduled event, so the active
/// stack is empty on entry and must be re-seeded from the uid registry.
class PacketSpanScope {
 public:
  PacketSpanScope(sim::SpanTracer* sp, std::uint64_t uid) : sp_(sp) {
    if (sp_ != nullptr) sp_->push(sp_->find_packet(uid));
  }
  ~PacketSpanScope() {
    if (sp_ != nullptr) sp_->pop();
  }
  PacketSpanScope(const PacketSpanScope&) = delete;
  PacketSpanScope& operator=(const PacketSpanScope&) = delete;

 private:
  sim::SpanTracer* sp_;
};

}  // namespace

bool Node::owns(const Address& a) const {
  return std::find(addresses_.begin(), addresses_.end(), a) != addresses_.end();
}

void Node::audit_mutation(const char* what) const {
  if (auto* au = net_->auditor()) au->check_mutation("net.node", id_, as_, what);
}

void Node::add_address(const Address& a) {
  audit_mutation("add_address");
  addresses_.push_back(a);
}

void Node::renumber(std::vector<Address> addrs) {
  audit_mutation("renumber");
  addresses_ = std::move(addrs);
}

ForwardingTable& Node::forwarding() {
  audit_mutation("forwarding");
  return fib_;
}

void Node::add_filter(PacketFilter f) {
  audit_mutation("add_filter");
  filters_.push_back(std::move(f));
}

void Node::set_local_handler(LocalHandler h) {
  audit_mutation("set_local_handler");
  local_handler_ = std::move(h);
}

bool Node::remove_filter(const std::string& name) {
  audit_mutation("remove_filter");
  auto it = std::find_if(filters_.begin(), filters_.end(),
                         [&](const PacketFilter& f) { return f.name == name; });
  if (it == filters_.end()) return false;
  filters_.erase(it);
  return true;
}

std::vector<std::string> Node::disclosed_filter_names() const {
  std::vector<std::string> out;
  for (const auto& f : filters_) {
    if (f.disclosed) out.push_back(f.name);
  }
  return out;
}

void Node::originate(Packet p) {
  if (auto* au = net_->auditor()) {
    // Originating is the node acting: claim its shard. The uid source is
    // process-shared state the PDES refactor must split into per-shard
    // ranges — tally it so the report says who draws from it.
    au->claim("net.node", id_, as_);
    au->record_shared_access("net.packet_ids", "next");
  }
  p.uid = net_->packet_ids().next();
  p.sent_at_s = net_->simulator().now().as_seconds();
  // Birth of the packet's one identity: encapsulation and mirroring keep
  // the uid, so the lifetime closes exactly once, at deliver or drop.
  net_->emit({.kind = PacketEventKind::kOriginate, .uid = p.uid, .flow = p.flow, .node = id_});
  forward(std::move(p));
}

bool Node::run_filters(const Packet& p, FilterDecision& out, bool& disclosed,
                       std::vector<Address>* taps, sim::SpanTracer* spans,
                       sim::SimTime now) const {
  for (const auto& f : filters_) {
    FilterDecision d;
    if (spans != nullptr) {
      // The decision span is the causal anchor for everything the filter
      // does — a pricing filter's ledger transfer lands underneath it, so
      // the settlement is attributed to this verdict on this packet.
      sim::ScopedSpan decision(spans, now, "net.filter", "decision",
                               {{"filter", f.name}, {"node", id_}, {"disclosed", f.disclosed}});
      d = f.fn(p);
      decision.annotate({"action", filter_action_name(d.action)});
      if (!d.reason.empty()) decision.annotate({"reason", d.reason});
    } else {
      d = f.fn(p);
    }
    if (d.action == FilterAction::kBypass) {
      // A negotiated permit pre-empts everything installed after it.
      return false;
    }
    if (d.action == FilterAction::kMirror) {
      // Taps copy and step aside; the chain keeps running.
      if (taps && d.redirect_to) taps->push_back(*d.redirect_to);
      continue;
    }
    if (d.action != FilterAction::kAccept) {
      out = std::move(d);
      disclosed = f.disclosed;
      return true;
    }
  }
  return false;
}

void Node::receive(Packet&& p, IfIndex /*iface*/) {
  // A packet arriving is this node's shard running: claim the event.
  if (auto* au = net_->auditor()) au->claim("net.node", id_, as_);
  sim::SpanTracer* sp = net_->spans();
  const sim::SimTime now = net_->simulator().now();
  // Span context for this visit: packet span re-activated from the uid
  // registry, then a hop span covering everything this node does to the
  // packet (filters, delivery, forwarding). Declaration order matters —
  // the hop span must close before the packet context pops.
  PacketSpanScope pscope(sp, p.uid);
  std::optional<sim::ScopedSpan> hop;
  if (sp != nullptr) {
    hop.emplace(sp, now, "net.node", "hop",
                std::initializer_list<sim::TraceField>{{"node", id_}, {"as", as_}});
  }
  // Tussle hooks run on everything that crosses the node, before the node
  // even decides whether the packet is for itself — exactly where real
  // middleboxes sit.
  FilterDecision decision;
  bool decided_by_disclosed = false;
  std::vector<Address> taps;
  const bool blocked = run_filters(p, decision, decided_by_disclosed, &taps, sp, now);
  // Mirrored copies go out even for packets that are then dropped — the
  // tap sees what the censor saw.
  for (const Address& tap : taps) {
    Packet copy = p;
    copy.dst = tap;
    copy.source_route.reset();
    net_->emit({.kind = PacketEventKind::kMirror, .uid = copy.uid, .flow = copy.flow,
                .node = id_});
    forward(std::move(copy));
  }
  if (blocked) {
    if (decision.action == FilterAction::kDrop) {
      net_->emit({.kind = PacketEventKind::kDrop, .reason = DropReason::kFilter, .uid = p.uid,
                  .flow = p.flow, .node = id_, .detail = decision.reason,
                  .disclosed = decided_by_disclosed});
      // §VI-A "design what happens then": a *disclosed* control point
      // reports the failure to the sender; an undisclosed one is silent
      // loss, which is exactly what makes covert controls hard to debug.
      if (net_->fault_reporting() && decided_by_disclosed && p.proto != AppProto::kControl &&
          p.src.valid()) {
        Packet err;
        err.src = addresses_.empty() ? Address{} : addresses_.front();
        err.dst = p.src;
        err.proto = AppProto::kControl;
        err.size_bytes = 100;
        err.payload_tag = "err:" + std::to_string(id_) + ":" + decision.reason;
        err.flow = p.flow;
        originate(std::move(err));
      }
      return;
    }
    if (decision.action == FilterAction::kRedirect && decision.redirect_to) {
      net_->emit({.kind = PacketEventKind::kRedirect, .uid = p.uid, .flow = p.flow, .node = id_});
      p.dst = *decision.redirect_to;
    }
  }

  if (deliver_local(p)) return;
  if (p.ttl == 0) {
    net_->emit({.kind = PacketEventKind::kDrop, .reason = DropReason::kTtl, .uid = p.uid,
                .flow = p.flow, .node = id_});
    return;
  }
  p.ttl -= 1;
  net_->emit({.kind = PacketEventKind::kForward, .uid = p.uid, .flow = p.flow, .node = id_,
              .ttl = p.ttl});
  // deliver_local() above saw this destination: one ownership scan a hop.
  route(std::move(p));
}

bool Node::deliver_local(Packet& p) {
  if (!owns(p.dst)) return false;
  // Tunnel endpoint: unwrap and keep going with the inner packet.
  if (p.inner) {
    if (auto inner = p.decapsulate()) {
      // The packet identity (uid) survives, so no lifetime closes here.
      forward(std::move(*inner));
      return true;
    }
  }
  if (local_handler_) local_handler_(p);
  net_->notify_delivered(p, id_);
  return true;
}

void Node::forward(Packet&& p) {
  // Local delivery first: a decapsulated, mirrored or originated packet may
  // already be at its destination, and the FIB's default route must not
  // bounce it away.
  if (!deliver_local(p)) route(std::move(p));
}

void Node::route(Packet&& p) {
  if (auto* mp = net_->mem_profiler()) {
    // The table this lookup searches: the sizing input for a flat FIB.
    mp->note_occupancy("net.fib", fib_.prefix_entries() + fib_.as_entries());
  }

  std::optional<IfIndex> iface;

  if (p.source_route) {
    // Advance the source route when we reach the head AS.
    auto& sr = *p.source_route;
    while (!sr.exhausted() && sr.hops[sr.next] == as_) sr.next += 1;
    if (auto hop = sr.next_hop()) {
      iface = fib_.lookup_as(*hop);
    } else {
      iface = fib_.lookup(p.dst);  // route exhausted: normal forwarding
    }
  } else {
    iface = fib_.lookup(p.dst);
  }

  if (!iface) {
    net_->emit({.kind = PacketEventKind::kDrop, .reason = DropReason::kNoRoute, .uid = p.uid,
                .flow = p.flow, .node = id_});
    return;
  }
  net_->link(link_of(*iface)).transmit_from(id_, std::move(p));
}

}  // namespace tussle::net
