#include "policy/value.hpp"

#include <cstdio>

namespace tussle::policy {

ValueType type_of(const Value& v) noexcept {
  switch (v.index()) {
    case 0: return ValueType::kBool;
    case 1: return ValueType::kNumber;
    default: return ValueType::kString;
  }
}

std::string to_string(ValueType t) {
  switch (t) {
    case ValueType::kBool: return "bool";
    case ValueType::kNumber: return "number";
    case ValueType::kString: return "string";
  }
  return "?";
}

std::string to_string(const Value& v) {
  switch (v.index()) {
    case 0: return std::get<bool>(v) ? "true" : "false";
    case 1: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%g", std::get<double>(v));
      return buf;
    }
    default: return "\"" + std::get<std::string>(v) + "\"";
  }
}

const Value& Context::get(const std::string& name) const {
  auto it = attrs_.find(name);
  if (it == attrs_.end()) throw OntologyError("attribute not bound: " + name);
  return it->second;
}

Ontology& Ontology::declare(const std::string& name, ValueType t, std::string space) {
  Attribute& a = attrs_.try_emplace(name, Attribute{t, {}, attrs_.size()}).first->second;
  a.type = t;
  if (!space.empty()) a.space = std::move(space);
  return *this;
}

const Ontology::Attribute& Ontology::at(const std::string& name) const {
  auto it = attrs_.find(name);
  if (it == attrs_.end()) throw OntologyError("attribute not declared: " + name);
  return it->second;
}

ValueType Ontology::type_of(const std::string& name) const { return at(name).type; }

std::size_t Ontology::slot_of(const std::string& name) const { return at(name).slot; }

std::string Ontology::space_of(const std::string& name) const {
  auto it = attrs_.find(name);
  return it == attrs_.end() ? std::string{} : it->second.space;
}

}  // namespace tussle::policy
