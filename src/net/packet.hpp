// The self-describing datagram.
//
// Everything a middlebox could possibly peek at is an explicit header field,
// because "peeking is irresistible" (§VI-A): the simulator's firewalls, DPI
// boxes and value-pricing enforcers read exactly these fields, and
// end-to-end encryption works by making the application-visible ones opaque.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/address.hpp"

namespace tussle::net {

/// Differentiated-service class carried in the ToS bits. Deliberately a
/// separate dimension from the application type (§IV-A: binding QoS to
/// port numbers would entangle the QoS tussle with the what-may-I-run
/// tussle).
enum class ServiceClass : std::uint8_t {
  kBestEffort = 0,
  kAssured = 1,   ///< better-than-best-effort, paper's diffserv analogue
  kPremium = 2,   ///< low-latency class (VoIP-grade)
};

std::string to_string(ServiceClass c);

/// Application protocol tag — what a DPI box sees if the packet is not
/// encrypted. Plays the role of the port number.
enum class AppProto : std::uint8_t {
  kUnknown = 0,
  kWeb,
  kMail,
  kVoip,
  kP2p,
  kDns,
  kVpn,      ///< tunnel framing; inner traffic invisible
  kControl,  ///< routing / signalling
};

std::string to_string(AppProto p);

/// A provider-level loose source route: the list of ASes the sender asks
/// the network to traverse, in order (§V-A-4).
struct SourceRoute {
  std::vector<AsId> hops;
  std::size_t next = 0;  ///< index of the next unvisited hop

  bool exhausted() const noexcept { return next >= hops.size(); }
  std::optional<AsId> next_hop() const noexcept {
    return exhausted() ? std::nullopt : std::optional<AsId>(hops[next]);
  }
};

/// One simulated datagram.
///
/// Copyable value type; tunnelled payloads are shared (a tunnel decap and
/// the encapsulating packet may both be alive momentarily).
struct Packet {
  // --- addressing ---
  Address src;
  Address dst;

  // --- self-description ---
  ServiceClass tos = ServiceClass::kBestEffort;
  AppProto proto = AppProto::kUnknown;
  std::uint32_t size_bytes = 1000;
  std::uint8_t ttl = 64;
  FlowId flow = 0;

  // --- end-to-end security ---
  /// End-to-end encrypted: on-path boxes can see src/dst/tos/size but not
  /// the application protocol or payload tag.
  bool encrypted = false;
  /// Steganographic: the real content hides inside an innocent-looking
  /// cover protocol (fn.17's "next step in this sort of escalation").
  /// Unlike encryption, hiding is NOT visible: observable_proto() returns
  /// the cover and visibly_opaque() stays false. On-path boxes can only
  /// guess statistically (see apps::make_stego_detector).
  bool steganographic = false;
  /// The protocol actually being carried when steganographic is set.
  AppProto covert_proto = AppProto::kUnknown;

  // --- options ---
  std::optional<SourceRoute> source_route;
  /// Encapsulated inner packet (tunnel / VPN). Outer proto should be kVpn.
  std::shared_ptr<const Packet> inner;

  // --- bookkeeping (not "on the wire") ---
  std::uint64_t uid = 0;           ///< unique packet id for tracing
  double sent_at_s = 0;            ///< stamped by the sender, for latency stats
  std::string payload_tag;         ///< free-form content label for apps

  /// What an on-path observer can tell about the application. Encryption
  /// collapses everything to kUnknown; a VPN tunnel shows only kVpn.
  AppProto observable_proto() const noexcept {
    if (encrypted) return AppProto::kUnknown;
    return proto;
  }

  /// True when an observer can positively detect that the sender is hiding
  /// the payload (the paper: "if you are trying to act in an anonymous way,
  /// it should be hard to disguise this fact").
  bool visibly_opaque() const noexcept { return encrypted || proto == AppProto::kVpn; }

  /// Builds a tunnel packet that carries this one to `gateway`.
  Packet encapsulate(Address tunnel_src, Address gateway) const;

  /// Unwraps one layer of tunnelling. Returns nullopt if not a tunnel.
  std::optional<Packet> decapsulate() const;
};

/// Source of unique packet ids (monotone per simulation). Under sharded
/// execution each owner draws from its own namespaced lane (see
/// set_namespace), so ids stay unique and per-owner deterministic at any
/// shard count.
class PacketIdSource {
 public:
  std::uint64_t next() noexcept { return ns_ | ++last_; }

  /// Partitions the id space: ids become `ns | counter`. The sharded
  /// backend's per-owner lanes use (owner + 1) << 40, matching the event-id
  /// scheme; the base source keeps namespace 0, so serial runs are
  /// unchanged.
  void set_namespace(std::uint64_t ns) noexcept { ns_ = ns; }

 private:
  std::uint64_t ns_ = 0;
  std::uint64_t last_ = 0;
};

/// The packets on the wire: each one a link is serializing, and each one
/// propagating inside one execution domain. A link's events name the packet
/// by its slot, so they capture 16 bytes instead of the packet. Slots are
/// reused last freed first and the pool never shrinks, so once it has grown
/// to a run's peak a hop allocates nothing. Under sharded execution every
/// owner has its own pool (a lane, see Network::wire()), and a slot is only
/// ever read in the pool that issued it.
class PacketPool {
 public:
  /// Puts `p` on the wire: parks it in a free slot and returns the slot.
  std::uint32_t put(Packet&& p) {
    ++on_wire_;
    if (free_.empty()) {
      slots_.push_back(std::move(p));
      return static_cast<std::uint32_t>(slots_.size() - 1);
    }
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    slots_[slot] = std::move(p);
    return slot;
  }

  const Packet& at(std::uint32_t slot) const noexcept { return slots_[slot]; }

  /// Moves the packet out of its slot and frees the slot. The packet stays
  /// on the wire until land() is called: here, or in the pool of the domain
  /// it propagates into.
  Packet take(std::uint32_t slot) {
    Packet p = std::move(slots_[slot]);
    free_.push_back(slot);
    return p;
  }

  /// A packet came off the wire at its far end (received, or lost there to
  /// a link that went down).
  void land() noexcept { --on_wire_; }

  /// Packets put on the wire and not landed yet. A sharded owner's lane can
  /// go negative (its arrivals were put by other owners); after run(), or
  /// from a control event, the base pool's count covers every owner.
  std::int64_t on_wire() const noexcept { return on_wire_; }

  /// Adds a lane's count to this one and zeroes it. The lane keeps its
  /// slots: their packets are still in flight on the lane's owner.
  void fold_count(PacketPool& lane) noexcept {
    on_wire_ += lane.on_wire_;
    lane.on_wire_ = 0;
  }

 private:
  std::vector<Packet> slots_;
  std::vector<std::uint32_t> free_;
  std::int64_t on_wire_ = 0;
};

}  // namespace tussle::net
