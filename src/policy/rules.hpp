// Rule engine: ordered first-match rule sets with a default effect.
//
// This is the simulator's analogue of the policy-language systems the paper
// surveys (P3P, KeyNote, COPS): actors express constraints inside a bounded
// ontology, and the engine decides per request. On top of plain evaluation
// it offers the modularity analysis the paper motivates — detecting rules
// that couple attributes from different tussle spaces.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "policy/expr.hpp"

namespace tussle::policy {

enum class Effect { kPermit, kDeny, kRedirect };

std::string to_string(Effect e);

struct Rule {
  std::string name;
  Effect effect = Effect::kPermit;
  Expr when;
  /// Target label for kRedirect (interpreted by the adapter layer).
  std::string redirect_target;
  /// Declared tussle space this rule is *supposed* to govern.
  std::string tussle_space;
};

struct Decision {
  Effect effect = Effect::kPermit;
  std::string rule_name;  ///< empty when the default applied
  std::string redirect_target;
};

/// Report row from the modularity analysis: a rule that reads attributes
/// outside its own declared tussle space.
struct Coupling {
  std::string rule_name;
  std::string rule_space;
  std::string foreign_space;
  std::string attribute;
};

class PolicySet {
 public:
  PolicySet(Ontology ontology, Effect default_effect)
      : onto_(std::move(ontology)), default_(default_effect) {}

  const Ontology& ontology() const noexcept { return onto_; }
  Effect default_effect() const noexcept { return default_; }

  /// Compiles and appends a rule. Throws on parse/ontology/type errors.
  PolicySet& add(const std::string& name, Effect effect, const std::string& when,
                 const std::string& tussle_space = {}, const std::string& redirect_target = {});

  bool remove(const std::string& name);
  const std::vector<Rule>& rules() const noexcept { return rules_; }

  /// First-match evaluation; falls back to the default effect.
  Decision evaluate(const Context& ctx) const;

  /// The first rule whose condition holds under `ctx` (a Context or a
  /// SlotContext), or null when none does and the default effect applies.
  template <class Ctx>
  const Rule* first_match(const Ctx& ctx) const {
    for (const Rule& r : rules_) {
      if (r.when.test(ctx)) return &r;
    }
    return nullptr;
  }

  /// Every cross-space attribute reference — empty means the rule set is
  /// modular along its declared tussle boundaries.
  std::vector<Coupling> cross_space_couplings() const;

  /// Spillover index in [0,1]: fraction of attribute references that cross
  /// a tussle boundary. 0 = perfectly modular.
  double spillover_index() const;

 private:
  Ontology onto_;
  Effect default_;
  std::vector<Rule> rules_;
};

}  // namespace tussle::policy
