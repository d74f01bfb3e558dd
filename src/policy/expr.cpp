#include "policy/expr.hpp"

#include <cctype>
#include <cmath>
#include <functional>
#include <set>

namespace tussle::policy {

// ------------------------------------------------------------- lexer ------

namespace {

enum class Tok {
  kEnd,
  kNumber,
  kString,
  kIdent,     // also carries keywords: and/or/not/in/true/false
  kLParen,
  kRParen,
  kLBracket,
  kRBracket,
  kComma,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kPlus,
  kMinus,
  kStar,
  kSlash,
};

struct Token {
  Tok kind = Tok::kEnd;
  std::string text;
  double number = 0;
  std::size_t pos = 0;
};

class Lexer {
 public:
  explicit Lexer(const std::string& src) : src_(src) {}

  Token next() {
    skip_ws();
    Token t;
    t.pos = i_;
    if (i_ >= src_.size()) return t;
    const char c = src_[i_];
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i_ + 1 < src_.size() &&
         std::isdigit(static_cast<unsigned char>(src_[i_ + 1])))) {
      return lex_number();
    }
    if (c == '"' || c == '\'') return lex_string(c);
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') return lex_ident();
    ++i_;
    switch (c) {
      case '(': t.kind = Tok::kLParen; return t;
      case ')': t.kind = Tok::kRParen; return t;
      case '[': t.kind = Tok::kLBracket; return t;
      case ']': t.kind = Tok::kRBracket; return t;
      case ',': t.kind = Tok::kComma; return t;
      case '+': t.kind = Tok::kPlus; return t;
      case '-': t.kind = Tok::kMinus; return t;
      case '*': t.kind = Tok::kStar; return t;
      case '/': t.kind = Tok::kSlash; return t;
      case '=':
        if (peek() == '=') {
          ++i_;
          t.kind = Tok::kEq;
          return t;
        }
        break;
      case '!':
        if (peek() == '=') {
          ++i_;
          t.kind = Tok::kNe;
          return t;
        }
        break;
      case '<':
        if (peek() == '=') {
          ++i_;
          t.kind = Tok::kLe;
        } else {
          t.kind = Tok::kLt;
        }
        return t;
      case '>':
        if (peek() == '=') {
          ++i_;
          t.kind = Tok::kGe;
        } else {
          t.kind = Tok::kGt;
        }
        return t;
      default: break;
    }
    throw ParseError("unexpected character '" + std::string(1, c) + "' at offset " +
                     std::to_string(t.pos));
  }

 private:
  char peek() const { return i_ < src_.size() ? src_[i_] : '\0'; }

  void skip_ws() {
    while (i_ < src_.size() && std::isspace(static_cast<unsigned char>(src_[i_]))) ++i_;
  }

  Token lex_number() {
    Token t;
    t.pos = i_;
    t.kind = Tok::kNumber;
    std::size_t end = i_;
    while (end < src_.size() &&
           (std::isdigit(static_cast<unsigned char>(src_[end])) || src_[end] == '.')) {
      ++end;
    }
    t.text = src_.substr(i_, end - i_);
    std::size_t used = 0;
    t.number = std::stod(t.text, &used);
    if (used != t.text.size()) {
      throw ParseError("malformed number '" + t.text + "' at offset " + std::to_string(t.pos));
    }
    i_ = end;
    return t;
  }

  Token lex_string(char quote) {
    Token t;
    t.pos = i_;
    t.kind = Tok::kString;
    ++i_;  // opening quote
    std::string out;
    while (i_ < src_.size() && src_[i_] != quote) {
      out.push_back(src_[i_]);
      ++i_;
    }
    if (i_ >= src_.size()) throw ParseError("unterminated string literal");
    ++i_;  // closing quote
    t.text = std::move(out);
    return t;
  }

  Token lex_ident() {
    Token t;
    t.pos = i_;
    t.kind = Tok::kIdent;
    std::size_t end = i_;
    while (end < src_.size() && (std::isalnum(static_cast<unsigned char>(src_[end])) ||
                                 src_[end] == '_' || src_[end] == '.')) {
      ++end;
    }
    t.text = src_.substr(i_, end - i_);
    i_ = end;
    return t;
  }

  const std::string& src_;
  std::size_t i_ = 0;
};

}  // namespace

// --------------------------------------------------------------- AST ------

struct Expr::Node {
  enum class Op {
    kLiteral,
    kAttr,
    kNot,
    kAnd,
    kOr,
    kEq,
    kNe,
    kLt,
    kLe,
    kGt,
    kGe,
    kIn,
    kAdd,
    kSub,
    kMul,
    kDiv,
  };
  Op op = Op::kLiteral;
  Value literal;
  std::string attr;
  std::size_t slot = 0;     // for kAttr: the attribute's ontology slot
  std::vector<Value> list;  // for kIn
  std::shared_ptr<const Node> lhs;
  std::shared_ptr<const Node> rhs;
  ValueType type = ValueType::kBool;
};

namespace {

using Node = Expr::Node;
using Op = Node::Op;
using NodePtr = std::shared_ptr<const Node>;

class Parser {
 public:
  Parser(const std::string& src, const Ontology& onto) : lexer_(src), onto_(onto) { advance(); }

  NodePtr parse() {
    NodePtr e = parse_or();
    if (cur_.kind != Tok::kEnd) {
      throw ParseError("trailing input at offset " + std::to_string(cur_.pos));
    }
    return e;
  }

 private:
  void advance() { cur_ = lexer_.next(); }

  bool accept(Tok k) {
    if (cur_.kind != k) return false;
    advance();
    return true;
  }

  bool accept_kw(const char* kw) {
    if (cur_.kind != Tok::kIdent || cur_.text != kw) return false;
    advance();
    return true;
  }

  void expect(Tok k, const char* what) {
    if (!accept(k)) {
      throw ParseError(std::string("expected ") + what + " at offset " +
                       std::to_string(cur_.pos));
    }
  }

  static NodePtr make_bool_binary(Op op, NodePtr l, NodePtr r) {
    if (l->type != ValueType::kBool || r->type != ValueType::kBool) {
      throw TypeError("logical operator requires bool operands");
    }
    auto n = std::make_shared<Node>();
    n->op = op;
    n->lhs = std::move(l);
    n->rhs = std::move(r);
    n->type = ValueType::kBool;
    return n;
  }

  NodePtr parse_or() {
    NodePtr l = parse_and();
    while (accept_kw("or")) l = make_bool_binary(Op::kOr, l, parse_and());
    return l;
  }

  NodePtr parse_and() {
    NodePtr l = parse_unary();
    while (accept_kw("and")) l = make_bool_binary(Op::kAnd, l, parse_unary());
    return l;
  }

  NodePtr parse_unary() {
    if (accept_kw("not")) {
      NodePtr operand = parse_unary();
      if (operand->type != ValueType::kBool) throw TypeError("'not' requires a bool operand");
      auto n = std::make_shared<Node>();
      n->op = Op::kNot;
      n->lhs = std::move(operand);
      n->type = ValueType::kBool;
      return n;
    }
    return parse_cmp();
  }

  NodePtr parse_cmp() {
    NodePtr l = parse_sum();
    Op op;
    if (accept(Tok::kEq)) {
      op = Op::kEq;
    } else if (accept(Tok::kNe)) {
      op = Op::kNe;
    } else if (accept(Tok::kLt)) {
      op = Op::kLt;
    } else if (accept(Tok::kLe)) {
      op = Op::kLe;
    } else if (accept(Tok::kGt)) {
      op = Op::kGt;
    } else if (accept(Tok::kGe)) {
      op = Op::kGe;
    } else if (cur_.kind == Tok::kIdent && cur_.text == "in") {
      advance();
      return parse_in(std::move(l));
    } else {
      return l;
    }
    NodePtr r = parse_sum();
    if (l->type != r->type) {
      throw TypeError("comparison between " + to_string(l->type) + " and " +
                      to_string(r->type));
    }
    if ((op == Op::kLt || op == Op::kLe || op == Op::kGt || op == Op::kGe) &&
        l->type == ValueType::kBool) {
      throw TypeError("ordering comparison on bool");
    }
    auto n = std::make_shared<Node>();
    n->op = op;
    n->lhs = std::move(l);
    n->rhs = std::move(r);
    n->type = ValueType::kBool;
    return n;
  }

  NodePtr parse_in(NodePtr l) {
    expect(Tok::kLBracket, "'['");
    auto n = std::make_shared<Node>();
    n->op = Op::kIn;
    n->type = ValueType::kBool;
    do {
      Value v = parse_literal_value();
      if (type_of(v) != l->type) {
        throw TypeError("'in' list element type mismatches subject");
      }
      n->list.push_back(std::move(v));
    } while (accept(Tok::kComma));
    expect(Tok::kRBracket, "']'");
    n->lhs = std::move(l);
    return n;
  }

  Value parse_literal_value() {
    if (cur_.kind == Tok::kNumber) {
      Value v = cur_.number;
      advance();
      return v;
    }
    if (cur_.kind == Tok::kString) {
      Value v = cur_.text;
      advance();
      return v;
    }
    if (cur_.kind == Tok::kIdent && (cur_.text == "true" || cur_.text == "false")) {
      Value v = (cur_.text == "true");
      advance();
      return v;
    }
    throw ParseError("expected literal at offset " + std::to_string(cur_.pos));
  }

  NodePtr parse_sum() {
    NodePtr l = parse_term();
    for (;;) {
      Op op;
      if (accept(Tok::kPlus)) {
        op = Op::kAdd;
      } else if (accept(Tok::kMinus)) {
        op = Op::kSub;
      } else {
        return l;
      }
      l = make_arith(op, l, parse_term());
    }
  }

  NodePtr parse_term() {
    NodePtr l = parse_atom();
    for (;;) {
      Op op;
      if (accept(Tok::kStar)) {
        op = Op::kMul;
      } else if (accept(Tok::kSlash)) {
        op = Op::kDiv;
      } else {
        return l;
      }
      l = make_arith(op, l, parse_atom());
    }
  }

  static NodePtr make_arith(Op op, NodePtr l, NodePtr r) {
    if (l->type != ValueType::kNumber || r->type != ValueType::kNumber) {
      throw TypeError("arithmetic requires number operands");
    }
    auto n = std::make_shared<Node>();
    n->op = op;
    n->lhs = std::move(l);
    n->rhs = std::move(r);
    n->type = ValueType::kNumber;
    return n;
  }

  NodePtr parse_atom() {
    if (accept(Tok::kLParen)) {
      NodePtr e = parse_or();
      expect(Tok::kRParen, "')'");
      return e;
    }
    if (cur_.kind == Tok::kNumber || cur_.kind == Tok::kString ||
        (cur_.kind == Tok::kIdent && (cur_.text == "true" || cur_.text == "false"))) {
      auto n = std::make_shared<Node>();
      n->op = Op::kLiteral;
      n->literal = parse_literal_value();
      n->type = type_of(n->literal);
      return n;
    }
    if (cur_.kind == Tok::kIdent) {
      // Here the ontology does its bounding work.
      if (!onto_.defines(cur_.text)) {
        throw OntologyError("attribute not in ontology: " + cur_.text);
      }
      auto n = std::make_shared<Node>();
      n->op = Op::kAttr;
      n->attr = cur_.text;
      n->slot = onto_.slot_of(cur_.text);
      n->type = onto_.type_of(cur_.text);
      advance();
      return n;
    }
    throw ParseError("expected expression at offset " + std::to_string(cur_.pos));
  }

  Lexer lexer_;
  const Ontology& onto_;
  Token cur_;
};

// How an attribute node is read: by name from a hand-built Context, or by
// slot from a SlotContext. Both throw OntologyError for an unbound attribute.
struct ByName {
  const Context& ctx;
  const Value& operator()(const Node& n) const { return ctx.get(n.attr); }
};

struct BySlot {
  const SlotContext& ctx;
  const Value& operator()(const Node& n) const {
    const int column = n.slot < ctx.column.size() ? ctx.column[n.slot] : -1;
    if (column < 0) throw OntologyError("attribute not bound: " + n.attr);
    return ctx.values[column];
  }
};

template <class Read>
Value eval_node(const Node& n, const Read& read);

// An operand: a leaf by reference, anything else evaluated into `scratch`.
// Strings only come from leaves, so evaluation never copies one.
template <class Read>
const Value& operand(const Node& n, const Read& read, Value& scratch) {
  switch (n.op) {
    case Op::kLiteral: return n.literal;
    case Op::kAttr: {
      const Value& v = read(n);
      if (type_of(v) != n.type) {
        throw TypeError("attribute " + n.attr + " bound to wrong type at eval time");
      }
      return v;
    }
    default: return scratch = eval_node(n, read);
  }
}

template <class Read>
Value eval_node(const Node& n, const Read& read) {
  Value a, b;  // scratch for operands that are not leaves
  switch (n.op) {
    case Op::kLiteral:
    case Op::kAttr: return operand(n, read, a);
    case Op::kNot: return !std::get<bool>(eval_node(*n.lhs, read));
    case Op::kAnd:
      // Short-circuit: policies often guard expensive attributes.
      if (!std::get<bool>(eval_node(*n.lhs, read))) return false;
      return eval_node(*n.rhs, read);
    case Op::kOr:
      if (std::get<bool>(eval_node(*n.lhs, read))) return true;
      return eval_node(*n.rhs, read);
    case Op::kEq:
    case Op::kNe: {
      // Equality reads its right operand first (the order of earlier
      // releases), an ordering its left: when both operands fail, the order
      // decides which error is raised.
      const Value& y = operand(*n.rhs, read, b);
      const Value& x = operand(*n.lhs, read, a);
      const bool equal = x == y;
      return n.op == Op::kEq ? equal : !equal;
    }
    case Op::kLt:
    case Op::kLe:
    case Op::kGt:
    case Op::kGe: {
      const Value& x = operand(*n.lhs, read, a);
      const Value& y = operand(*n.rhs, read, b);
      int c;
      if (x.index() == 1) {
        const double l = std::get<double>(x), r = std::get<double>(y);
        c = (l < r) ? -1 : (l > r ? 1 : 0);
      } else {
        c = std::get<std::string>(x).compare(std::get<std::string>(y));
      }
      switch (n.op) {
        case Op::kLt: return c < 0;
        case Op::kLe: return c <= 0;
        case Op::kGt: return c > 0;
        default: return c >= 0;
      }
    }
    case Op::kIn: {
      const Value& subject = operand(*n.lhs, read, a);
      for (const Value& v : n.list) {
        if (v == subject) return true;
      }
      return false;
    }
    case Op::kAdd:
    case Op::kSub:
    case Op::kMul:
    case Op::kDiv: {
      const double l = std::get<double>(eval_node(*n.lhs, read));
      const double r = std::get<double>(eval_node(*n.rhs, read));
      switch (n.op) {
        case Op::kAdd: return l + r;
        case Op::kSub: return l - r;
        case Op::kMul: return l * r;
        default:
          if (r == 0.0) throw TypeError("division by zero in policy expression");
          return l / r;
      }
    }
  }
  throw PolicyError("corrupt AST");
}

void collect_attrs(const Node& n, std::set<std::string>& out) {
  if (n.op == Op::kAttr) out.insert(n.attr);
  if (n.lhs) collect_attrs(*n.lhs, out);
  if (n.rhs) collect_attrs(*n.rhs, out);
}

}  // namespace

// -------------------------------------------------------------- Expr ------

Expr Expr::compile(const std::string& source, const Ontology& onto) {
  Parser p(source, onto);
  std::shared_ptr<const Node> root = p.parse();
  return Expr(root, root->type, source);
}

Value Expr::eval(const Context& ctx) const { return eval_node(*root_, ByName{ctx}); }

bool Expr::test(const Context& ctx) const {
  if (type_ != ValueType::kBool) throw TypeError("test() on non-bool expression");
  return std::get<bool>(eval(ctx));
}

bool Expr::test(const SlotContext& ctx) const {
  if (type_ != ValueType::kBool) throw TypeError("test() on non-bool expression");
  return std::get<bool>(eval_node(*root_, BySlot{ctx}));
}

std::vector<std::string> Expr::referenced_attributes() const {
  std::set<std::string> s;
  collect_attrs(*root_, s);
  return {s.begin(), s.end()};
}

}  // namespace tussle::policy
