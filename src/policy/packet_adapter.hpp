// Bridges the policy engine to the data plane.
//
// The standard packet ontology declares what an on-path box can lawfully
// *see* (and therefore what a policy can be written about): header fields,
// the observable protocol, opacity, and addressing — tagged by tussle
// space. Note what is absent: payload contents of encrypted packets are not
// in the vocabulary at all, so no installable policy can depend on them.
#pragma once

#include <functional>
#include <optional>
#include <string>

#include "net/node.hpp"
#include "policy/rules.hpp"

namespace tussle::policy {

/// The attribute vocabulary available to on-path packet policies.
///
/// Spaces: "application" (what is being run), "qos" (what service is asked
/// for), "identity" (who is talking), "economics" (size/accounting),
/// "security" (opacity).
Ontology standard_packet_ontology();

/// Binds a packet's observable fields into a Context.
Context context_for_packet(const net::Packet& p);

/// Resolves a redirect target label (e.g. "isp-mail-server") to an address.
using RedirectResolver = std::function<std::optional<net::Address>(const std::string&)>;

/// Wraps a PolicySet as a node filter. `name` identifies the controlling
/// actor; `disclosed` feeds the paper's visibility requirement.
///
/// The filter decides as PolicySet::evaluate(context_for_packet(p)) would,
/// with the same errors, but binds the attributes its rules read to packet
/// fields once, here: a call reads only those fields, by slot, and
/// allocates nothing unless it drops or redirects.
net::PacketFilter make_packet_filter(std::string name, bool disclosed, PolicySet policy,
                                     RedirectResolver resolver = {});

}  // namespace tussle::policy
