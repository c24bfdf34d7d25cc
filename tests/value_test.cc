// Unit tests for the Value type: SQL comparison semantics, casts, hashing,
// and three-valued logic helpers.

#include <gtest/gtest.h>

#include <limits>

#include "common/value.h"

namespace grfusion {
namespace {

TEST(ValueTest, NullBasics) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.type(), ValueType::kNull);
  EXPECT_EQ(v.ToString(), "NULL");
  EXPECT_TRUE(v == Value::Null());
}

TEST(ValueTest, TypedAccessors) {
  EXPECT_EQ(Value::BigInt(42).AsBigInt(), 42);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value::Varchar("abc").AsVarchar(), "abc");
  EXPECT_TRUE(Value::Boolean(true).AsBoolean());
}

TEST(ValueTest, NumericView) {
  EXPECT_DOUBLE_EQ(Value::BigInt(-3).AsNumeric(), -3.0);
  EXPECT_DOUBLE_EQ(Value::Double(1.5).AsNumeric(), 1.5);
  EXPECT_DOUBLE_EQ(Value::Boolean(true).AsNumeric(), 1.0);
}

TEST(ValueTest, CompareSameTypes) {
  auto cmp = [](const Value& a, const Value& b) {
    auto r = a.Compare(b);
    EXPECT_TRUE(r.ok());
    return *r;
  };
  EXPECT_LT(cmp(Value::BigInt(1), Value::BigInt(2)), 0);
  EXPECT_EQ(cmp(Value::BigInt(5), Value::BigInt(5)), 0);
  EXPECT_GT(cmp(Value::Double(2.5), Value::Double(1.0)), 0);
  EXPECT_LT(cmp(Value::Varchar("abc"), Value::Varchar("abd")), 0);
  EXPECT_LT(cmp(Value::Boolean(false), Value::Boolean(true)), 0);
}

TEST(ValueTest, CompareCrossNumeric) {
  auto r = Value::BigInt(3).Compare(Value::Double(3.0));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 0);
  r = Value::Double(2.5).Compare(Value::BigInt(3));
  ASSERT_TRUE(r.ok());
  EXPECT_LT(*r, 0);
}

TEST(ValueTest, CompareNullErrors) {
  EXPECT_FALSE(Value::Null().Compare(Value::BigInt(1)).ok());
  EXPECT_FALSE(Value::BigInt(1).Compare(Value::Null()).ok());
}

TEST(ValueTest, CompareIncompatibleTypesErrors) {
  EXPECT_FALSE(Value::Varchar("x").Compare(Value::BigInt(1)).ok());
  EXPECT_FALSE(Value::Boolean(true).Compare(Value::Varchar("true")).ok());
}

TEST(ValueTest, SqlEqualsTreatsNullAsUnknown) {
  EXPECT_FALSE(Value::Null().SqlEquals(Value::Null()));
  EXPECT_FALSE(Value::Null().SqlEquals(Value::BigInt(1)));
  EXPECT_TRUE(Value::BigInt(7).SqlEquals(Value::BigInt(7)));
  EXPECT_TRUE(Value::BigInt(7).SqlEquals(Value::Double(7.0)));
}

TEST(ValueTest, StructuralEqualityAndHashAgree) {
  EXPECT_EQ(Value::Null(), Value::Null());
  EXPECT_EQ(Value::Null().Hash(), Value::Null().Hash());
  EXPECT_EQ(Value::BigInt(9).Hash(), Value::BigInt(9).Hash());
  EXPECT_EQ(Value::Varchar("k").Hash(), Value::Varchar("k").Hash());
  EXPECT_NE(Value::BigInt(9), Value::Varchar("9"));
}

TEST(ValueTest, IntegralDoubleHashesLikeBigInt) {
  // Hash joins on mixed BIGINT/DOUBLE keys rely on this.
  EXPECT_EQ(Value::Double(5.0).Hash(), Value::BigInt(5).Hash());
}

TEST(ValueTest, CastNumeric) {
  auto v = Value::BigInt(3).CastTo(ValueType::kDouble);
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(v->AsDouble(), 3.0);
  v = Value::Double(3.7).CastTo(ValueType::kBigInt);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->AsBigInt(), 3);  // Truncation.
}

TEST(ValueTest, CastFromString) {
  auto v = Value::Varchar("123").CastTo(ValueType::kBigInt);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->AsBigInt(), 123);
  v = Value::Varchar("1.5").CastTo(ValueType::kDouble);
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(v->AsDouble(), 1.5);
  EXPECT_FALSE(Value::Varchar("12x").CastTo(ValueType::kBigInt).ok());
  EXPECT_FALSE(Value::Varchar("").CastTo(ValueType::kBigInt).ok());
}

TEST(ValueTest, CastToVarchar) {
  auto v = Value::BigInt(-4).CastTo(ValueType::kVarchar);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->AsVarchar(), "-4");
  v = Value::Boolean(true).CastTo(ValueType::kVarchar);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->AsVarchar(), "true");
}

TEST(ValueTest, CastNullStaysNull) {
  auto v = Value::Null().CastTo(ValueType::kBigInt);
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->is_null());
}

TEST(ValueTest, HashValuesComposite) {
  std::vector<Value> a = {Value::BigInt(1), Value::Varchar("x")};
  std::vector<Value> b = {Value::BigInt(1), Value::Varchar("x")};
  std::vector<Value> c = {Value::Varchar("x"), Value::BigInt(1)};
  EXPECT_EQ(HashValues(a), HashValues(b));
  EXPECT_NE(HashValues(a), HashValues(c));  // Order matters.
}

TEST(ValueTest, KeyEqualsGroupsSqlEqualValues) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::pair<Value, Value>> same = {
      {Value::Double(0.0), Value::Double(-0.0)},
      {Value::Double(nan), Value::Double(-nan)},
      {Value::Null(), Value::Null()},
  };
  for (const auto& [a, b] : same) {
    EXPECT_TRUE(KeyEquals({a}, {b})) << a.ToString() << " " << b.ToString();
    EXPECT_EQ(HashValues({a}), HashValues({b})) << a.ToString();
  }
  EXPECT_FALSE(KeyEquals({Value::Double(1.0000001)},
                         {Value::Double(1.0000002)}));
  // Types must match; the hash still agrees for an integral DOUBLE, which
  // lets a hash join normalize BIGINT keys to DOUBLE.
  EXPECT_FALSE(KeyEquals({Value::BigInt(3)}, {Value::Double(3.0)}));
  EXPECT_EQ(HashValues({Value::BigInt(3)}), HashValues({Value::Double(3.0)}));
}

}  // namespace
}  // namespace grfusion
