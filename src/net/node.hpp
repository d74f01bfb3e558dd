// Nodes: hosts and routers.
//
// A node is deliberately programmable at the points where the paper says
// tussle happens on the data path: an ordered chain of packet filters
// (firewalls, DPI boxes, pricing enforcers, government taps) runs on every
// packet, and each filter can accept, drop, or redirect. The filters are
// installed by whichever actor controls the node — who gets to install them
// is decided by the scenario, which is exactly the paper's point.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "net/forwarding.hpp"
#include "net/packet.hpp"
#include "sim/span.hpp"

namespace tussle::net {

class Network;

/// What a packet filter decided.
enum class FilterAction {
  kAccept,    ///< no objection; later filters still run
  kDrop,      ///< discard (counted, with reason)
  kRedirect,  ///< rewrite the destination and continue (e.g. SMTP capture)
  kBypass,    ///< affirmative permit: skip the REST of the filter chain
              ///< (negotiated pinholes, §V-B MIDCOM)
  kMirror,    ///< deliver a copy to a tap address and continue processing
              ///< (§VI-A: "the desire of third parties to observe a data
              ///< flow (e.g. wiretap) calls for data capture sites")
};

struct FilterDecision {
  FilterAction action = FilterAction::kAccept;
  std::optional<Address> redirect_to;  ///< required when action == kRedirect
  std::string reason;                  ///< for the visibility/disclosure machinery

  static FilterDecision accept() { return {}; }
  static FilterDecision drop(std::string why) {
    return FilterDecision{FilterAction::kDrop, std::nullopt, std::move(why)};
  }
  static FilterDecision redirect(Address to, std::string why) {
    return FilterDecision{FilterAction::kRedirect, to, std::move(why)};
  }
  static FilterDecision bypass(std::string why) {
    return FilterDecision{FilterAction::kBypass, std::nullopt, std::move(why)};
  }
  static FilterDecision mirror(Address tap, std::string why) {
    return FilterDecision{FilterAction::kMirror, tap, std::move(why)};
  }
};

/// An on-path packet inspector/controller.
struct PacketFilter {
  std::string name;      ///< identifies the controlling actor, for disclosure
  bool disclosed = true; ///< does the device reveal that it imposes limits? (§V-B)
  std::function<FilterDecision(const Packet&)> fn;
};

class Node {
 public:
  Node(Network& net, NodeId id, AsId as) : net_(&net), id_(id), as_(as) {}

  NodeId id() const noexcept { return id_; }
  AsId as() const noexcept { return as_; }

  void add_address(const Address& a);
  const std::vector<Address>& addresses() const noexcept { return addresses_; }
  bool owns(const Address& a) const;
  /// Replaces all addresses (renumbering when switching providers, E1).
  void renumber(std::vector<Address> addrs);

  /// Mutable FIB access is a state mutation of this node — route
  /// installation from another shard's handler is exactly the hazard the
  /// shard auditor exists to catch.
  ForwardingTable& forwarding();
  const ForwardingTable& forwarding() const noexcept { return fib_; }

  // --- tussle hooks -------------------------------------------------------
  void add_filter(PacketFilter f);
  bool remove_filter(const std::string& name);
  const std::vector<PacketFilter>& filters() const noexcept { return filters_; }
  /// The disclosure rule (§V-B): which filters admit their existence to an
  /// endpoint that asks. Undisclosed filters are invisible here.
  std::vector<std::string> disclosed_filter_names() const;

  /// Handler invoked when a packet addressed to this node arrives.
  using LocalHandler = std::function<void(const Packet&)>;
  void set_local_handler(LocalHandler h);

  // --- data path ----------------------------------------------------------
  /// Originates a packet from this node (stamps uid/send time, then routes).
  void originate(Packet p);

  /// Called by the attached link when a packet arrives on `iface`.
  void receive(Packet p, IfIndex iface);

  // --- wiring (used by Network) -------------------------------------------
  IfIndex attach_interface(std::uint32_t link_id) {
    iface_links_.push_back(link_id);
    return static_cast<IfIndex>(iface_links_.size() - 1);
  }
  std::uint32_t link_of(IfIndex iface) const { return iface_links_.at(static_cast<std::size_t>(iface)); }
  std::size_t interface_count() const noexcept { return iface_links_.size(); }

 private:
  /// Audits one mutation of this node's state (one null-pointer branch
  /// when no auditor is attached to the owning simulator).
  void audit_mutation(const char* what) const;
  /// Local delivery: a packet addressed to this node is unwrapped and sent
  /// on if it is a tunnel packet, else handed to the local handler and the
  /// network's delivery observers. False when the packet is not for us.
  bool deliver_local(Packet& p);
  void forward(Packet p);
  bool run_filters(const Packet& p, FilterDecision& out, bool& disclosed,
                   std::vector<Address>* taps, sim::SpanTracer* spans,
                   sim::SimTime now) const;

  Network* net_;
  NodeId id_ = 0;
  AsId as_ = 0;
  std::vector<Address> addresses_;
  ForwardingTable fib_;
  std::vector<PacketFilter> filters_;
  LocalHandler local_handler_;
  std::vector<std::uint32_t> iface_links_;
};

}  // namespace tussle::net
