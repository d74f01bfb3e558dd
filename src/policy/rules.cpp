#include "policy/rules.hpp"

#include <algorithm>

namespace tussle::policy {

std::string to_string(Effect e) {
  switch (e) {
    case Effect::kPermit: return "permit";
    case Effect::kDeny: return "deny";
    case Effect::kRedirect: return "redirect";
  }
  return "?";
}

PolicySet& PolicySet::add(const std::string& name, Effect effect, const std::string& when,
                          const std::string& tussle_space,
                          const std::string& redirect_target) {
  if (effect == Effect::kRedirect && redirect_target.empty()) {
    throw PolicyError("redirect rule '" + name + "' needs a target");
  }
  Expr e = Expr::compile(when, onto_);
  if (e.result_type() != ValueType::kBool) {
    throw TypeError("rule '" + name + "' condition is not boolean");
  }
  rules_.push_back(Rule{name, effect, std::move(e), redirect_target, tussle_space});
  return *this;
}

bool PolicySet::remove(const std::string& name) {
  auto it = std::find_if(rules_.begin(), rules_.end(),
                         [&](const Rule& r) { return r.name == name; });
  if (it == rules_.end()) return false;
  rules_.erase(it);
  return true;
}

Decision PolicySet::evaluate(const Context& ctx) const {
  if (const Rule* r = first_match(ctx)) return Decision{r->effect, r->name, r->redirect_target};
  return Decision{default_, {}, {}};
}

std::vector<Coupling> PolicySet::cross_space_couplings() const {
  std::vector<Coupling> out;
  for (const Rule& r : rules_) {
    if (r.tussle_space.empty()) continue;  // untagged rules are exempt
    for (const std::string& attr : r.when.referenced_attributes()) {
      const std::string space = onto_.space_of(attr);
      if (!space.empty() && space != r.tussle_space) {
        out.push_back(Coupling{r.name, r.tussle_space, space, attr});
      }
    }
  }
  return out;
}

double PolicySet::spillover_index() const {
  std::size_t refs = 0;
  std::size_t crossings = 0;
  for (const Rule& r : rules_) {
    if (r.tussle_space.empty()) continue;
    for (const std::string& attr : r.when.referenced_attributes()) {
      const std::string space = onto_.space_of(attr);
      if (space.empty()) continue;
      ++refs;
      if (space != r.tussle_space) ++crossings;
    }
  }
  return refs == 0 ? 0.0 : static_cast<double>(crossings) / static_cast<double>(refs);
}

}  // namespace tussle::policy
