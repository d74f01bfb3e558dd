#include "policy/expr.hpp"

#include <gtest/gtest.h>

namespace tussle::policy {
namespace {

Ontology onto() {
  Ontology o;
  o.declare("proto", ValueType::kString);
  o.declare("size", ValueType::kNumber);
  o.declare("encrypted", ValueType::kBool);
  o.declare("src_as", ValueType::kNumber);
  return o;
}

Context ctx() {
  Context c;
  c.set("proto", "web");
  c.set("size", 1200.0);
  c.set("encrypted", false);
  c.set("src_as", 7.0);
  return c;
}

TEST(Expr, LiteralBool) {
  EXPECT_TRUE(Expr::compile("true", onto()).test(ctx()));
  EXPECT_FALSE(Expr::compile("false", onto()).test(ctx()));
}

TEST(Expr, StringEquality) {
  EXPECT_TRUE(Expr::compile("proto == \"web\"", onto()).test(ctx()));
  EXPECT_FALSE(Expr::compile("proto == 'mail'", onto()).test(ctx()));
  EXPECT_TRUE(Expr::compile("proto != 'mail'", onto()).test(ctx()));
}

TEST(Expr, NumericComparisons) {
  auto o = onto();
  auto c = ctx();
  EXPECT_TRUE(Expr::compile("size > 1000", o).test(c));
  EXPECT_TRUE(Expr::compile("size >= 1200", o).test(c));
  EXPECT_FALSE(Expr::compile("size < 1200", o).test(c));
  EXPECT_TRUE(Expr::compile("size <= 1200", o).test(c));
}

TEST(Expr, Arithmetic) {
  auto o = onto();
  auto c = ctx();
  EXPECT_TRUE(Expr::compile("size * 2 == 2400", o).test(c));
  EXPECT_TRUE(Expr::compile("size / 4 == 300", o).test(c));
  EXPECT_TRUE(Expr::compile("size + 100 - 50 == 1250", o).test(c));
  EXPECT_TRUE(Expr::compile("size - 200 * 2 == 800", o).test(c));  // precedence
}

TEST(Expr, BooleanConnectives) {
  auto o = onto();
  auto c = ctx();
  EXPECT_TRUE(Expr::compile("proto == 'web' and size > 1000", o).test(c));
  EXPECT_TRUE(Expr::compile("proto == 'mail' or size > 1000", o).test(c));
  EXPECT_FALSE(Expr::compile("not (size > 1000)", o).test(c));
  EXPECT_TRUE(Expr::compile("not encrypted", o).test(c));
}

TEST(Expr, PrecedenceAndBeforeOr) {
  auto o = onto();
  auto c = ctx();
  // false and false or true  ==  (false and false) or true  ==  true
  EXPECT_TRUE(Expr::compile("encrypted and encrypted or true", o).test(c));
}

TEST(Expr, InList) {
  auto o = onto();
  auto c = ctx();
  EXPECT_TRUE(Expr::compile("src_as in [3, 7, 9]", o).test(c));
  EXPECT_FALSE(Expr::compile("src_as in [3, 9]", o).test(c));
  EXPECT_TRUE(Expr::compile("proto in ['web', 'mail']", o).test(c));
}

TEST(Expr, UndeclaredAttributeIsOntologyError) {
  // The bounding function of a policy language: "port_number" is simply not
  // sayable in this ontology.
  EXPECT_THROW(Expr::compile("port_number == 80", onto()), OntologyError);
}

TEST(Expr, TypeMismatchRejectedAtCompileTime) {
  EXPECT_THROW(Expr::compile("proto == 7", onto()), TypeError);
  EXPECT_THROW(Expr::compile("size and encrypted", onto()), TypeError);
  EXPECT_THROW(Expr::compile("not size", onto()), TypeError);
  EXPECT_THROW(Expr::compile("encrypted < true", onto()), TypeError);
  EXPECT_THROW(Expr::compile("proto + 'x' == 'webx'", onto()), TypeError);
  EXPECT_THROW(Expr::compile("size in ['web']", onto()), TypeError);
}

TEST(Expr, ParseErrors) {
  EXPECT_THROW(Expr::compile("size >", onto()), ParseError);
  EXPECT_THROW(Expr::compile("(size > 1", onto()), ParseError);
  EXPECT_THROW(Expr::compile("size > 1 extra", onto()), ParseError);
  EXPECT_THROW(Expr::compile("'unterminated", onto()), ParseError);
  EXPECT_THROW(Expr::compile("size @ 3", onto()), ParseError);
  EXPECT_THROW(Expr::compile("src_as in []", onto()), ParseError);
}

TEST(Expr, MalformedNumberLiteralsRejected) {
  // A run of digits and dots must parse whole: no prefix of it stands in.
  EXPECT_THROW(Expr::compile("size > 1.2.3", onto()), ParseError);
  EXPECT_THROW(Expr::compile("size > 1..5", onto()), ParseError);
  EXPECT_THROW(Expr::compile("src_as in [3, 7.7.7]", onto()), ParseError);
  EXPECT_TRUE(Expr::compile("size > 1199.5", onto()).test(ctx()));
  EXPECT_TRUE(Expr::compile("size > .5", onto()).test(ctx()));
  EXPECT_TRUE(Expr::compile("size >= 1200.", onto()).test(ctx()));
}

TEST(Expr, DivisionByZeroAtEvalTime) {
  auto e = Expr::compile("size / (size - 1200) > 1", onto());
  EXPECT_THROW(e.test(ctx()), TypeError);
}

TEST(Expr, OperandOrderDecidesWhichErrorIsRaised) {
  // Both operands fail: src_as is unbound and the quotient divides by zero.
  // Equality reads its right operand first, an ordering its left.
  Context c;
  c.set("size", 5.0);
  EXPECT_THROW(Expr::compile("src_as == size / (size - size)", onto()).test(c), TypeError);
  EXPECT_THROW(Expr::compile("src_as != size / (size - size)", onto()).test(c), TypeError);
  EXPECT_THROW(Expr::compile("src_as < size / (size - size)", onto()).test(c), OntologyError);
}

TEST(Expr, MissingAttributeAtEvalTime) {
  auto e = Expr::compile("size > 0", onto());
  Context empty;
  EXPECT_THROW(e.test(empty), OntologyError);
}

TEST(Expr, ShortCircuitSkipsMissingAttribute) {
  // 'and' must not evaluate its right side when the left is false.
  auto e = Expr::compile("encrypted and size > 0", onto());
  Context c;
  c.set("encrypted", false);  // size unbound
  EXPECT_FALSE(e.test(c));
  auto e2 = Expr::compile("not encrypted or size > 0", onto());
  EXPECT_TRUE(e2.test(c));
}

TEST(Expr, ReferencedAttributesSortedUnique) {
  auto e = Expr::compile("size > 0 and proto == 'web' and size < 9000", onto());
  auto attrs = e.referenced_attributes();
  ASSERT_EQ(attrs.size(), 2u);
  EXPECT_EQ(attrs[0], "proto");
  EXPECT_EQ(attrs[1], "size");
}

TEST(Expr, ResultTypeReported) {
  EXPECT_EQ(Expr::compile("size + 1", onto()).result_type(), ValueType::kNumber);
  EXPECT_EQ(Expr::compile("size > 1", onto()).result_type(), ValueType::kBool);
  EXPECT_THROW(Expr::compile("size + 1", onto()).test(ctx()), TypeError);
}

TEST(Expr, NumericEval) {
  auto e = Expr::compile("size * 2 + 10", onto());
  EXPECT_DOUBLE_EQ(std::get<double>(e.eval(ctx())), 2410.0);
}

TEST(Expr, StringOrdering) {
  auto o = onto();
  auto c = ctx();
  EXPECT_TRUE(Expr::compile("proto >= 'voip'", o).test(c));  // "web" > "voip"
  EXPECT_FALSE(Expr::compile("proto < 'aaa'", o).test(c));
}

TEST(Expr, SourcePreserved) {
  const std::string src = "size > 100";
  EXPECT_EQ(Expr::compile(src, onto()).source(), src);
}

// Parameterized truth-table sweep for the connectives.
class ConnectiveTruth : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

TEST_P(ConnectiveTruth, AndOrNotMatchCpp) {
  auto [a, b] = GetParam();
  Ontology o;
  o.declare("a", ValueType::kBool);
  o.declare("b", ValueType::kBool);
  Context c;
  c.set("a", a);
  c.set("b", b);
  EXPECT_EQ(Expr::compile("a and b", o).test(c), a && b);
  EXPECT_EQ(Expr::compile("a or b", o).test(c), a || b);
  EXPECT_EQ(Expr::compile("not a", o).test(c), !a);
  EXPECT_EQ(Expr::compile("not (a and b) == (not a or not b)", o).test(c), true);  // De Morgan
}

INSTANTIATE_TEST_SUITE_P(TruthTable, ConnectiveTruth,
                         ::testing::Combine(::testing::Bool(), ::testing::Bool()));

}  // namespace
}  // namespace tussle::policy
