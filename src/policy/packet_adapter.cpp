#include "policy/packet_adapter.hpp"

#include <array>
#include <iterator>
#include <memory>
#include <vector>

namespace tussle::policy {

namespace {

/// One observable packet field. This table is the only place a standard
/// attribute's name, type, tussle space and packet reader are written:
/// standard_packet_ontology(), context_for_packet() and the compiled
/// filter's binder are all generated from it.
struct PacketAttribute {
  const char* name;
  ValueType type;
  const char* space;
  Value (*read)(const net::Packet&);
};

const PacketAttribute kPacketAttributes[] = {
    {"proto", ValueType::kString, "application",
     [](const net::Packet& p) -> Value { return net::to_string(p.observable_proto()); }},
    {"payload_visible", ValueType::kBool, "security",
     [](const net::Packet& p) -> Value { return !p.encrypted; }},
    {"opaque", ValueType::kBool, "security",
     [](const net::Packet& p) -> Value { return p.visibly_opaque(); }},
    {"encrypted", ValueType::kBool, "security",
     [](const net::Packet& p) -> Value { return p.encrypted; }},
    {"tos", ValueType::kString, "qos",
     [](const net::Packet& p) -> Value { return net::to_string(p.tos); }},
    {"size", ValueType::kNumber, "economics",
     [](const net::Packet& p) -> Value { return static_cast<double>(p.size_bytes); }},
    {"src_as", ValueType::kNumber, "identity",
     [](const net::Packet& p) -> Value { return static_cast<double>(p.src.provider); }},
    {"dst_as", ValueType::kNumber, "identity",
     [](const net::Packet& p) -> Value { return static_cast<double>(p.dst.provider); }},
    {"src_host", ValueType::kNumber, "identity",
     [](const net::Packet& p) -> Value { return static_cast<double>(p.src.host); }},
    {"dst_host", ValueType::kNumber, "identity",
     [](const net::Packet& p) -> Value { return static_cast<double>(p.dst.host); }},
    {"ttl", ValueType::kNumber, "application",
     [](const net::Packet& p) -> Value { return static_cast<double>(p.ttl); }},
    {"has_source_route", ValueType::kBool, "routing",
     [](const net::Packet& p) -> Value { return p.source_route.has_value(); }},
};

constexpr std::size_t kColumns = std::size(kPacketAttributes);

/// A PolicySet bound to the packet table once, at install: each ontology
/// slot a rule reads maps to its table column, and a call reads only those
/// columns from the packet. A slot with no column (an attribute the packet
/// does not carry) stays unbound and fails only if evaluation reaches it.
struct CompiledFilter {
  CompiledFilter(PolicySet p, RedirectResolver r)
      : policy(std::move(p)), resolver(std::move(r)) {
    const Ontology& onto = policy.ontology();
    column.assign(onto.size(), -1);
    for (const Rule& rule : policy.rules()) {
      for (const std::string& attr : rule.when.referenced_attributes()) {
        int& col = column[onto.slot_of(attr)];
        for (std::size_t i = 0; col < 0 && i < kColumns; ++i) {
          if (attr == kPacketAttributes[i].name) {
            col = static_cast<int>(i);
            reads.push_back(i);
          }
        }
      }
    }
  }

  /// Fills the columns the rules read into a slot array on the stack and
  /// runs first-match over it.
  const Rule* match(const net::Packet& p) const {
    std::array<Value, kColumns> values;
    for (std::size_t i : reads) values[i] = kPacketAttributes[i].read(p);
    return policy.first_match(SlotContext{column, values.data()});
  }

  PolicySet policy;
  RedirectResolver resolver;
  std::vector<int> column;         ///< by ontology slot: table column, or -1
  std::vector<std::size_t> reads;  ///< the table columns some rule reads
};

}  // namespace

Ontology standard_packet_ontology() {
  Ontology o;
  for (const PacketAttribute& a : kPacketAttributes) o.declare(a.name, a.type, a.space);
  return o;
}

Context context_for_packet(const net::Packet& p) {
  Context ctx;
  for (const PacketAttribute& a : kPacketAttributes) ctx.set(a.name, a.read(p));
  return ctx;
}

net::PacketFilter make_packet_filter(std::string name, bool disclosed, PolicySet policy,
                                     RedirectResolver resolver) {
  net::PacketFilter f;
  f.name = std::move(name);
  f.disclosed = disclosed;
  f.fn = [c = std::make_shared<const CompiledFilter>(std::move(policy), std::move(resolver)),
          fname = f.name](const net::Packet& p) -> net::FilterDecision {
    const Rule* rule = c->match(p);
    const Effect effect = rule != nullptr ? rule->effect : c->policy.default_effect();
    if (effect == Effect::kPermit) return net::FilterDecision::accept();
    // Only a drop or a redirect formats a reason, so accepting allocates
    // nothing. The default effect has neither a rule name nor a target.
    const std::string rule_name = rule != nullptr ? rule->name : std::string();
    if (effect == Effect::kDeny) {
      return net::FilterDecision::drop(fname + ":" + (rule_name.empty() ? "default" : rule_name));
    }
    if (c->resolver) {
      if (auto addr = c->resolver(rule != nullptr ? rule->redirect_target : std::string())) {
        return net::FilterDecision::redirect(*addr, fname + ":" + rule_name);
      }
    }
    // Unresolvable redirect degrades to a drop: failing closed is the
    // only safe behaviour for a control point.
    return net::FilterDecision::drop(fname + ":unresolvable-redirect");
  };
  return f;
}

}  // namespace tussle::policy
