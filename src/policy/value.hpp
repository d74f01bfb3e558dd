// Values and attribute contexts for the policy language.
#pragma once

#include <cstddef>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <variant>

namespace tussle::policy {

/// Base class of all policy-engine errors.
class PolicyError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The expression referenced an attribute the ontology does not define.
/// This is the formal face of the paper's §II-B point: a policy language
/// bounds the tussle that can be expressed within defined limits.
class OntologyError : public PolicyError {
 public:
  using PolicyError::PolicyError;
};

class ParseError : public PolicyError {
 public:
  using PolicyError::PolicyError;
};

class TypeError : public PolicyError {
 public:
  using PolicyError::PolicyError;
};

/// Runtime value: boolean, number, or string.
using Value = std::variant<bool, double, std::string>;

enum class ValueType { kBool, kNumber, kString };

ValueType type_of(const Value& v) noexcept;
std::string to_string(ValueType t);
std::string to_string(const Value& v);

/// Attribute bindings an expression is evaluated against.
class Context {
 public:
  Context& set(const std::string& name, Value v) {
    attrs_[name] = std::move(v);
    return *this;
  }
  Context& set(const std::string& name, const char* v) {
    return set(name, Value(std::string(v)));
  }
  /// Throws OntologyError when the attribute is absent.
  const Value& get(const std::string& name) const;
  bool has(const std::string& name) const { return attrs_.count(name) != 0; }

 private:
  std::map<std::string, Value> attrs_;
};

/// Attribute values read by slot (Ontology::slot_of) instead of by name: the
/// binding a compiled packet filter fills once per packet. Slot s reads
/// `values[column[s]]`. A slot whose column is negative, or lies past the
/// end of `column`, is unbound: evaluation that reaches it throws
/// OntologyError, as an absent Context entry does.
struct SlotContext {
  std::span<const int> column;
  const Value* values = nullptr;
};

/// The declared attribute vocabulary. Expressions are checked against it at
/// compile time, so an undeclared attribute fails *before* any packet flows.
///
/// Each attribute may be tagged with the tussle space it belongs to
/// ("qos", "application", "identity", ...). The tagging powers the
/// modularity analysis in PolicySet: a rule whose expression crosses
/// spaces is coupling tussles that the paper says should stay separate.
///
/// Each attribute also gets a dense slot, 0, 1, 2, ... in declaration
/// order. Compiled expressions record it, so a binding can hand them values
/// by index (SlotContext) rather than by name.
class Ontology {
 public:
  /// Declares an attribute, or retypes one already declared. A redeclared
  /// attribute keeps its slot, and keeps its space when `space` is empty.
  Ontology& declare(const std::string& name, ValueType t, std::string space = {});
  bool defines(const std::string& name) const { return attrs_.count(name) != 0; }
  ValueType type_of(const std::string& name) const;
  /// Tussle space of the attribute, or "" when untagged.
  std::string space_of(const std::string& name) const;
  /// Dense slot of the attribute, below size().
  std::size_t slot_of(const std::string& name) const;
  std::size_t size() const noexcept { return attrs_.size(); }

 private:
  struct Attribute {
    ValueType type = ValueType::kBool;
    std::string space;
    std::size_t slot = 0;
  };
  const Attribute& at(const std::string& name) const;

  std::map<std::string, Attribute> attrs_;
};

}  // namespace tussle::policy
