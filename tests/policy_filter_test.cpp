// The compiled packet filter against the reference path.
//
// make_packet_filter binds the attributes its rules read to packet fields
// once and evaluates by slot. Its decisions must equal the ones built from
// PolicySet::evaluate(context_for_packet(p)): the same action, redirect
// target and reason on every packet, and the same error, of the same type
// and message, wherever evaluation throws.
#include <gtest/gtest.h>

#include <typeinfo>
#include <vector>

#include "policy/packet_adapter.hpp"
#include "sim/random.hpp"

namespace tussle::policy {
namespace {

const net::Address kTrap{.provider = 9, .subscriber = 9, .host = 9};

std::optional<net::Address> resolve_trap(const std::string& label) {
  if (label == "trap") return kTrap;
  return std::nullopt;
}

/// The reference: the decision PolicySet::evaluate makes on the full
/// name-keyed context, mapped to a filter decision.
net::FilterDecision reference(const std::string& name, const PolicySet& ps,
                              const RedirectResolver& resolver, const net::Packet& p) {
  const Decision d = ps.evaluate(context_for_packet(p));
  switch (d.effect) {
    case Effect::kPermit: return net::FilterDecision::accept();
    case Effect::kDeny:
      return net::FilterDecision::drop(name + ":" +
                                       (d.rule_name.empty() ? "default" : d.rule_name));
    case Effect::kRedirect:
      if (resolver) {
        if (auto addr = resolver(d.redirect_target)) {
          return net::FilterDecision::redirect(*addr, name + ":" + d.rule_name);
        }
      }
      return net::FilterDecision::drop(name + ":unresolvable-redirect");
  }
  return net::FilterDecision::accept();
}

/// A decision, or the policy error that replaced it.
struct Outcome {
  std::string error;  ///< "<dynamic type>: <message>", empty when none
  net::FilterAction action = net::FilterAction::kAccept;
  std::optional<net::Address> redirect_to;
  std::string reason;

  bool operator==(const Outcome&) const = default;
};

template <class Decide>
Outcome outcome(Decide decide) {
  try {
    const net::FilterDecision d = decide();
    return Outcome{{}, d.action, d.redirect_to, d.reason};
  } catch (const PolicyError& e) {
    return Outcome{std::string(typeid(e).name()) + ": " + e.what(), {}, {}, {}};
  }
}

std::string describe(const Outcome& o) {
  if (!o.error.empty()) return "threw " + o.error;
  std::string s = "action " + std::to_string(static_cast<int>(o.action)) + " reason '" +
                  o.reason + "'";
  if (o.redirect_to) s += " to " + o.redirect_to->to_string();
  return s;
}

// --- generated ontologies, rule sets and packets ---------------------------

struct Attr {
  std::string name;
  ValueType type;
};

const std::vector<Attr> kStandard = {
    {"proto", ValueType::kString},         {"payload_visible", ValueType::kBool},
    {"opaque", ValueType::kBool},          {"encrypted", ValueType::kBool},
    {"tos", ValueType::kString},           {"size", ValueType::kNumber},
    {"src_as", ValueType::kNumber},        {"dst_as", ValueType::kNumber},
    {"src_host", ValueType::kNumber},      {"dst_host", ValueType::kNumber},
    {"ttl", ValueType::kNumber},           {"has_source_route", ValueType::kBool},
};

std::size_t index(sim::Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

/// The standard attributes, or (one time in three) a custom vocabulary: the
/// standard names in shuffled order, so slots differ from table columns,
/// with attributes no packet carries mixed in and one standard name
/// sometimes declared with another type.
std::vector<Attr> gen_vocabulary(sim::Rng& rng) {
  std::vector<Attr> v = kStandard;
  if (rng.uniform_int(0, 2) != 0) return v;
  rng.shuffle(v);
  v.push_back(Attr{"port", ValueType::kNumber});
  v.push_back(Attr{"app_label", ValueType::kString});
  v.push_back(Attr{"trusted", ValueType::kBool});
  rng.shuffle(v);
  if (rng.bernoulli(0.5)) {
    Attr& retyped = v[index(rng, v.size())];
    retyped.type = retyped.type == ValueType::kNumber ? ValueType::kString : ValueType::kNumber;
  }
  return v;
}

Ontology ontology_of(const std::vector<Attr>& vocab) {
  Ontology o;
  for (const Attr& a : vocab) o.declare(a.name, a.type);
  return o;
}

class RuleGen {
 public:
  RuleGen(sim::Rng& rng, const std::vector<Attr>& vocab) : rng_(rng), vocab_(vocab) {}

  std::string boolean(int depth) {
    if (depth <= 0 || rng_.bernoulli(0.3)) return boolean_leaf();
    switch (rng_.uniform_int(0, 3)) {
      case 0: return "(" + boolean(depth - 1) + " and " + boolean(depth - 1) + ")";
      case 1: return "(" + boolean(depth - 1) + " or " + boolean(depth - 1) + ")";
      case 2: return "not " + boolean(depth - 1);
      default: return "((" + boolean(depth - 1) + ") == (" + boolean(depth - 1) + "))";
    }
  }

 private:
  std::string pick(ValueType t) {
    std::vector<const std::string*> names;
    for (const Attr& a : vocab_) {
      if (a.type == t) names.push_back(&a.name);
    }
    return *names[index(rng_, names.size())];
  }

  std::string text() {
    static const char* const kWords[] = {"web",  "mail",    "voip",        "p2p",     "dns",
                                         "vpn",  "control", "unknown",     "premium", "assured",
                                         "best-effort",     "a-label-longer-than-sso"};
    return std::string("'") + kWords[rng_.uniform_int(0, 11)] + "'";
  }

  std::string number(int depth) {
    if (depth <= 0 || rng_.bernoulli(0.5)) {
      if (rng_.bernoulli(0.4)) return std::to_string(rng_.uniform_int(0, 2000));
      return pick(ValueType::kNumber);
    }
    static const char* const kOps[] = {" + ", " - ", " * ", " / "};
    return "(" + number(depth - 1) + kOps[rng_.uniform_int(0, 3)] + number(depth - 1) + ")";
  }

  std::string boolean_leaf() {
    static const char* const kCmp[] = {" == ", " != ", " < ", " <= ", " > ", " >= "};
    switch (rng_.uniform_int(0, 5)) {
      case 0: return pick(ValueType::kBool);
      case 1: return rng_.bernoulli(0.5) ? "true" : "false";
      case 2: return pick(ValueType::kString) + kCmp[rng_.uniform_int(0, 5)] + text();
      case 3: return pick(ValueType::kString) + " in [" + text() + ", " + text() + "]";
      case 4:
        return pick(ValueType::kNumber) + " in [64, 1000, " +
               std::to_string(rng_.uniform_int(0, 20)) + "]";
      default: return number(2) + kCmp[rng_.uniform_int(0, 5)] + number(2);
    }
  }

  sim::Rng& rng_;
  const std::vector<Attr>& vocab_;
};

Effect gen_effect(sim::Rng& rng) {
  switch (rng.uniform_int(0, 2)) {
    case 0: return Effect::kPermit;
    case 1: return Effect::kDeny;
    default: return Effect::kRedirect;
  }
}

PolicySet gen_policy(sim::Rng& rng, const std::vector<Attr>& vocab) {
  PolicySet ps(ontology_of(vocab), gen_effect(rng));
  RuleGen gen(rng, vocab);
  const int rules = rng.uniform_int(0, 4);
  for (int i = 0; i < rules; ++i) {
    const Effect effect = gen_effect(rng);
    // An unnamed rule reports as "default" when it drops.
    const std::string name = rng.bernoulli(0.1) ? "" : "rule-" + std::to_string(i);
    const std::string target = rng.bernoulli(0.7) ? "trap" : "nowhere";
    ps.add(name, effect, gen.boolean(3), {},
           effect == Effect::kRedirect ? target : std::string());
  }
  return ps;
}

net::Packet gen_packet(sim::Rng& rng) {
  net::Packet p;
  p.src = net::Address{.provider = static_cast<net::AsId>(rng.uniform_int(0, 20)),
                       .subscriber = 1,
                       .host = static_cast<std::uint32_t>(rng.uniform_int(0, 20))};
  p.dst = net::Address{.provider = static_cast<net::AsId>(rng.uniform_int(0, 20)),
                       .subscriber = 2,
                       .host = static_cast<std::uint32_t>(rng.uniform_int(0, 20))};
  p.proto = static_cast<net::AppProto>(rng.uniform_int(0, 7));  // every proto, VPN included
  p.tos = static_cast<net::ServiceClass>(rng.uniform_int(0, 2));
  p.size_bytes = static_cast<std::uint32_t>(rng.uniform_int(0, 3000));
  p.ttl = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  p.encrypted = rng.bernoulli(0.3);
  if (rng.bernoulli(0.2)) {
    p.steganographic = true;
    p.covert_proto = static_cast<net::AppProto>(rng.uniform_int(0, 7));
  }
  if (rng.bernoulli(0.2)) p.source_route = net::SourceRoute{{3, 5, 7}, 1};
  if (rng.bernoulli(0.1)) {
    p = p.encapsulate(net::Address{.provider = 4, .subscriber = 4, .host = 4},
                      net::Address{.provider = 6, .subscriber = 6, .host = 6});
  }
  return p;
}

class CompiledFilterDiff : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CompiledFilterDiff, MatchesReferenceOnGeneratedRulesAndPackets) {
  sim::Rng rng(GetParam());
  int errors = 0;
  int decisions = 0;
  for (int set = 0; set < 150; ++set) {
    const std::vector<Attr> vocab = gen_vocabulary(rng);
    const PolicySet ps = gen_policy(rng, vocab);
    const RedirectResolver resolver = rng.bernoulli(0.8) ? resolve_trap : RedirectResolver{};
    const net::PacketFilter f = make_packet_filter("fw", true, ps, resolver);
    for (int i = 0; i < 40; ++i) {
      const net::Packet p = gen_packet(rng);
      const Outcome want = outcome([&] { return reference("fw", ps, resolver, p); });
      const Outcome got = outcome([&] { return f.fn(p); });
      ASSERT_EQ(got, want) << "compiled: " << describe(got) << "\nreference: " << describe(want);
      (want.error.empty() ? decisions : errors) += 1;
    }
  }
  // The generator reaches both outcomes: decisions, and errors raised mid-evaluation.
  EXPECT_GT(decisions, 1000);
  EXPECT_GT(errors, 10);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompiledFilterDiff, ::testing::Values(3, 30, 300));

net::Packet web_packet(bool encrypted = false) {
  net::Packet p;
  p.src = net::Address{.provider = 1, .subscriber = 1, .host = 5};
  p.dst = net::Address{.provider = 2, .subscriber = 1, .host = 9};
  p.proto = net::AppProto::kWeb;
  p.encrypted = encrypted;
  return p;
}

TEST(CompiledFilter, UnboundAttributeFailsOnlyWhenReached) {
  Ontology o = standard_packet_ontology();
  o.declare("port", ValueType::kNumber);
  PolicySet ps(o, Effect::kPermit);
  ps.add("no-web-port", Effect::kDeny, "encrypted and port == 80");
  const auto f = make_packet_filter("fw", true, ps);
  EXPECT_EQ(f.fn(web_packet()).action, net::FilterAction::kAccept);
  EXPECT_THROW(f.fn(web_packet(/*encrypted=*/true)), OntologyError);
  EXPECT_THROW(ps.evaluate(context_for_packet(web_packet(true))), OntologyError);
}

TEST(CompiledFilter, RetypedStandardAttributeIsTypeError) {
  Ontology o;
  o.declare("encrypted", ValueType::kNumber);
  PolicySet ps(o, Effect::kPermit);
  ps.add("odd", Effect::kDeny, "encrypted > 0");
  const auto f = make_packet_filter("fw", true, ps);
  EXPECT_THROW(f.fn(web_packet()), TypeError);
  EXPECT_THROW(ps.evaluate(context_for_packet(web_packet())), TypeError);
}

TEST(CompiledFilter, DivisionByZeroIsTypeError) {
  PolicySet ps(standard_packet_ontology(), Effect::kPermit);
  ps.add("ratio", Effect::kDeny, "size / (ttl - ttl) > 1");
  EXPECT_THROW(make_packet_filter("fw", true, ps).fn(web_packet()), TypeError);
}

TEST(CompiledFilter, UnresolvableRedirectDropsWithReason) {
  PolicySet ps(standard_packet_ontology(), Effect::kPermit);
  ps.add("grab-web", Effect::kRedirect, "proto == 'web'", "application", "nowhere");
  for (const RedirectResolver& resolver : {RedirectResolver{}, RedirectResolver{resolve_trap}}) {
    const auto d = make_packet_filter("isp", false, ps, resolver).fn(web_packet());
    EXPECT_EQ(d.action, net::FilterAction::kDrop);
    EXPECT_EQ(d.reason, "isp:unresolvable-redirect");
  }
}

}  // namespace
}  // namespace tussle::policy
