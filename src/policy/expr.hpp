// The policy expression language.
//
// A small, total (no loops, no side effects) boolean/arithmetic language
// over declared attributes:
//
//   proto == "web" and (dst_as in [3, 7] or encrypted) and size < 1500
//
// Grammar (precedence low→high):
//   expr   := or
//   or     := and ("or" and)*
//   and    := unary ("and" unary)*
//   unary  := "not" unary | cmp
//   cmp    := sum (("=="|"!="|"<"|"<="|">"|">=") sum | "in" list)?
//   sum    := term (("+"|"-") term)*
//   term   := atom (("*"|"/") atom)*
//   atom   := "(" expr ")" | number | string | "true" | "false" | ident
//   list   := "[" literal ("," literal)* "]"
//
// Compilation checks every identifier against an Ontology and type-checks
// operators, so malformed policy fails at install time, not on the fast
// path. Each attribute node also records the attribute's ontology slot, so
// an expression evaluates either by name (Context) or by slot
// (SlotContext) through the same evaluator, with the same errors.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "policy/value.hpp"

namespace tussle::policy {

/// A compiled, immutable expression. Cheap to copy (shared AST).
class Expr {
 public:
  /// Parses and type-checks `source` against `onto`.
  /// Throws ParseError / OntologyError / TypeError.
  static Expr compile(const std::string& source, const Ontology& onto);

  /// Evaluates against a context; result type matches the checked type.
  Value eval(const Context& ctx) const;

  /// Convenience for predicate use: evaluates and requires a bool result.
  bool test(const Context& ctx) const;
  /// The same test with attributes read by slot. `ctx` must come from the
  /// ontology this expression was compiled against.
  bool test(const SlotContext& ctx) const;

  ValueType result_type() const noexcept { return type_; }
  const std::string& source() const noexcept { return source_; }

  /// All attribute names the expression reads — used for tussle-boundary
  /// analysis (which tussle spaces does this policy couple?).
  std::vector<std::string> referenced_attributes() const;

  struct Node;  // AST; opaque to clients

 private:
  Expr(std::shared_ptr<const Node> root, ValueType t, std::string src)
      : root_(std::move(root)), type_(t), source_(std::move(src)) {}

  std::shared_ptr<const Node> root_;
  ValueType type_;
  std::string source_;
};

}  // namespace tussle::policy
