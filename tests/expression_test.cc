// Unit tests for the bound expression layer: SQL three-valued logic,
// arithmetic, string predicates, and the path expressions evaluated through
// a hand-built graph view.

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "expr/expression.h"

namespace grfusion {
namespace {

ExprPtr Lit(Value v) { return std::make_shared<ConstantExpr>(std::move(v)); }
ExprPtr Col(size_t i, ValueType t = ValueType::kBigInt) {
  return std::make_shared<ColumnRefExpr>(i, t, "c" + std::to_string(i));
}

Value MustEval(const Expression& e, const ExecRow& row = ExecRow()) {
  auto v = e.Eval(row);
  EXPECT_TRUE(v.ok()) << v.status().ToString();
  return v.ok() ? *v : Value::Null();
}

TEST(ExpressionTest, CompareOps) {
  for (auto [op, expected] :
       {std::pair{CompareOp::kEq, false}, {CompareOp::kNe, true},
        {CompareOp::kLt, true}, {CompareOp::kLe, true},
        {CompareOp::kGt, false}, {CompareOp::kGe, false}}) {
    CompareExpr e(op, Lit(Value::BigInt(1)), Lit(Value::BigInt(2)));
    EXPECT_EQ(MustEval(e).AsBoolean(), expected) << CompareOpToString(op);
  }
}

TEST(ExpressionTest, CompareWithNullIsNull) {
  CompareExpr e(CompareOp::kEq, Lit(Value::Null()), Lit(Value::BigInt(1)));
  EXPECT_TRUE(MustEval(e).is_null());
}

TEST(ExpressionTest, ThreeValuedAndOr) {
  auto and_of = [](Value a, Value b) {
    ConjunctionExpr e(ConjunctionExpr::Kind::kAnd,
                      {Lit(std::move(a)), Lit(std::move(b))});
    return MustEval(e);
  };
  auto or_of = [](Value a, Value b) {
    ConjunctionExpr e(ConjunctionExpr::Kind::kOr,
                      {Lit(std::move(a)), Lit(std::move(b))});
    return MustEval(e);
  };
  // FALSE dominates AND even with NULL present.
  EXPECT_FALSE(and_of(Value::Boolean(false), Value::Null()).AsBoolean());
  EXPECT_TRUE(and_of(Value::Boolean(true), Value::Null()).is_null());
  // TRUE dominates OR even with NULL present.
  EXPECT_TRUE(or_of(Value::Boolean(true), Value::Null()).AsBoolean());
  EXPECT_TRUE(or_of(Value::Boolean(false), Value::Null()).is_null());
}

TEST(ExpressionTest, NotAndIsNull) {
  NotExpr n(Lit(Value::Boolean(true)));
  EXPECT_FALSE(MustEval(n).AsBoolean());
  NotExpr n2(Lit(Value::Null()));
  EXPECT_TRUE(MustEval(n2).is_null());
  IsNullExpr isnull(Lit(Value::Null()), false);
  EXPECT_TRUE(MustEval(isnull).AsBoolean());
  IsNullExpr notnull(Lit(Value::BigInt(1)), true);
  EXPECT_TRUE(MustEval(notnull).AsBoolean());
}

TEST(ExpressionTest, ArithmeticIntegerAndDouble) {
  ArithmeticExpr add(ArithOp::kAdd, Lit(Value::BigInt(2)),
                     Lit(Value::BigInt(3)));
  Value v = MustEval(add);
  EXPECT_EQ(v.type(), ValueType::kBigInt);
  EXPECT_EQ(v.AsBigInt(), 5);

  ArithmeticExpr mixed(ArithOp::kMul, Lit(Value::BigInt(2)),
                       Lit(Value::Double(1.5)));
  v = MustEval(mixed);
  EXPECT_EQ(v.type(), ValueType::kDouble);
  EXPECT_DOUBLE_EQ(v.AsDouble(), 3.0);

  // Integer division produces a DOUBLE (no silent truncation).
  ArithmeticExpr div(ArithOp::kDiv, Lit(Value::BigInt(7)),
                     Lit(Value::BigInt(2)));
  EXPECT_DOUBLE_EQ(MustEval(div).AsDouble(), 3.5);

  ArithmeticExpr mod(ArithOp::kMod, Lit(Value::BigInt(7)),
                     Lit(Value::BigInt(3)));
  EXPECT_EQ(MustEval(mod).AsBigInt(), 1);
}

TEST(ExpressionTest, DivisionByZeroErrors) {
  ArithmeticExpr div(ArithOp::kDiv, Lit(Value::BigInt(1)),
                     Lit(Value::BigInt(0)));
  EXPECT_FALSE(div.Eval(ExecRow()).ok());
}

TEST(ExpressionTest, InList) {
  InListExpr in(Lit(Value::BigInt(2)),
                {Lit(Value::BigInt(1)), Lit(Value::BigInt(2))}, false);
  EXPECT_TRUE(MustEval(in).AsBoolean());
  InListExpr not_in(Lit(Value::BigInt(9)),
                    {Lit(Value::BigInt(1)), Lit(Value::BigInt(2))}, true);
  EXPECT_TRUE(MustEval(not_in).AsBoolean());
  // Missing with a NULL in the list -> NULL (SQL semantics).
  InListExpr with_null(Lit(Value::BigInt(9)),
                       {Lit(Value::BigInt(1)), Lit(Value::Null())}, false);
  EXPECT_TRUE(MustEval(with_null).is_null());
}

TEST(ExpressionTest, ColumnRefReadsRow) {
  ExecRow row;
  row.columns = {Value::BigInt(10), Value::Varchar("x")};
  EXPECT_EQ(MustEval(*Col(0), row).AsBigInt(), 10);
  // Out-of-range column is an internal error, not UB.
  EXPECT_FALSE(Col(5)->Eval(row).ok());
}

TEST(ExpressionTest, ScalarFuncs) {
  ScalarFuncExpr abs(ScalarFunc::kAbs, {Lit(Value::BigInt(-5))});
  EXPECT_EQ(MustEval(abs).AsBigInt(), 5);
  ScalarFuncExpr upper(ScalarFunc::kUpper, {Lit(Value::Varchar("ab"))});
  EXPECT_EQ(MustEval(upper).AsVarchar(), "AB");
  ScalarFuncExpr len(ScalarFunc::kLength, {Lit(Value::Varchar("abcd"))});
  EXPECT_EQ(MustEval(len).AsBigInt(), 4);
  ScalarFuncExpr substr(ScalarFunc::kSubstr,
                        {Lit(Value::Varchar("hello")), Lit(Value::BigInt(2)),
                         Lit(Value::BigInt(3))});
  EXPECT_EQ(MustEval(substr).AsVarchar(), "ell");
  ScalarFuncExpr coalesce(
      ScalarFunc::kCoalesce,
      {Lit(Value::Null()), Lit(Value::BigInt(3)), Lit(Value::BigInt(9))});
  EXPECT_EQ(MustEval(coalesce).AsBigInt(), 3);
  ScalarFuncExpr sqrt_neg(ScalarFunc::kSqrt, {Lit(Value::Double(-1.0))});
  EXPECT_FALSE(sqrt_neg.Eval(ExecRow()).ok());
}

TEST(ExpressionTest, EvalPredicateSemantics) {
  EXPECT_TRUE(*EvalPredicate(*Lit(Value::Boolean(true)), ExecRow()));
  EXPECT_FALSE(*EvalPredicate(*Lit(Value::Boolean(false)), ExecRow()));
  EXPECT_FALSE(*EvalPredicate(*Lit(Value::Null()), ExecRow()));
  EXPECT_TRUE(*EvalPredicate(*Lit(Value::BigInt(7)), ExecRow()));
}

TEST(ExpressionTest, FlattenAndCombineConjuncts) {
  ExprPtr a = Lit(Value::Boolean(true));
  ExprPtr b = Lit(Value::Boolean(false));
  ExprPtr c = Lit(Value::Boolean(true));
  ExprPtr nested = std::make_shared<ConjunctionExpr>(
      ConjunctionExpr::Kind::kAnd,
      std::vector<ExprPtr>{
          a, std::make_shared<ConjunctionExpr>(ConjunctionExpr::Kind::kAnd,
                                               std::vector<ExprPtr>{b, c})});
  std::vector<ExprPtr> flat;
  FlattenConjuncts(nested, &flat);
  EXPECT_EQ(flat.size(), 3u);
  EXPECT_EQ(CombineConjuncts({}), nullptr);
  EXPECT_EQ(CombineConjuncts({a}), a);
  EXPECT_NE(CombineConjuncts({a, b}), nullptr);
}

// --- Path expressions over a real graph view -------------------------------------

class PathExprTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto vt = catalog_.CreateTable(
        "V", Schema({Column("vid", ValueType::kBigInt),
                     Column("tag", ValueType::kVarchar)}));
    auto et = catalog_.CreateTable(
        "E", Schema({Column("eid", ValueType::kBigInt),
                     Column("s", ValueType::kBigInt),
                     Column("d", ValueType::kBigInt),
                     Column("w", ValueType::kDouble)}));
    ASSERT_TRUE(vt.ok() && et.ok());
    for (int64_t i = 1; i <= 4; ++i) {
      ASSERT_TRUE((*vt)->Insert(Tuple({Value::BigInt(i),
                                       Value::Varchar("v" +
                                                      std::to_string(i))}))
                      .ok());
    }
    auto edge = [&](int64_t id, int64_t s, int64_t d, double w) {
      ASSERT_TRUE((*et)->Insert(Tuple({Value::BigInt(id), Value::BigInt(s),
                                       Value::BigInt(d), Value::Double(w)}))
                      .ok());
    };
    edge(10, 1, 2, 1.0);
    edge(11, 2, 3, 2.0);
    edge(12, 3, 4, 4.0);
    GraphViewDef def;
    def.name = "G";
    def.directed = true;
    def.vertex_table = "V";
    def.vertex_id_column = "vid";
    def.vertex_attributes = {{"tag", "tag"}};
    def.edge_table = "E";
    def.edge_id_column = "eid";
    def.edge_from_column = "s";
    def.edge_to_column = "d";
    def.edge_attributes = {{"w", "w"}};
    auto gv = catalog_.CreateGraphView(def);
    ASSERT_TRUE(gv.ok());
    gv_ = *gv;

    auto path = std::make_shared<PathData>();
    path->vertexes = {1, 2, 3, 4};
    path->edges = {10, 11, 12};
    path->accumulated_cost = 7.0;
    row_.paths.push_back(path);
  }

  ElementAttr EdgeWeight() {
    ElementAttr attr;
    attr.kind = PathElementKind::kEdges;
    attr.field = ElementField::kSourceColumn;
    attr.column = 3;
    attr.type = ValueType::kDouble;
    attr.display_name = "w";
    return attr;
  }

  Catalog catalog_;
  GraphView* gv_ = nullptr;
  ExecRow row_;
};

TEST_F(PathExprTest, PathProperties) {
  PathPropertyExpr length(0, PathProperty::kLength, "len");
  EXPECT_EQ(MustEval(length, row_).AsBigInt(), 3);
  PathPropertyExpr start(0, PathProperty::kStartVertexId, "s");
  EXPECT_EQ(MustEval(start, row_).AsBigInt(), 1);
  PathPropertyExpr end(0, PathProperty::kEndVertexId, "e");
  EXPECT_EQ(MustEval(end, row_).AsBigInt(), 4);
  PathPropertyExpr cost(0, PathProperty::kCost, "c");
  EXPECT_DOUBLE_EQ(MustEval(cost, row_).AsDouble(), 7.0);
  PathPropertyExpr str(0, PathProperty::kPathString, "p");
  EXPECT_EQ(MustEval(str, row_).AsVarchar(), "1 -[10]-> 2 -[11]-> 3 -[12]-> 4");
}

TEST_F(PathExprTest, EndpointAttr) {
  ElementAttr tag;
  tag.kind = PathElementKind::kVertexes;
  tag.field = ElementField::kSourceColumn;
  tag.column = 1;
  tag.type = ValueType::kVarchar;
  tag.display_name = "tag";
  PathEndpointAttrExpr start(0, true, gv_, tag);
  EXPECT_EQ(MustEval(start, row_).AsVarchar(), "v1");
  PathEndpointAttrExpr end(0, false, gv_, tag);
  EXPECT_EQ(MustEval(end, row_).AsVarchar(), "v4");
}

TEST_F(PathExprTest, ElementAttrAndOutOfRange) {
  PathElementAttrExpr w1(0, 1, gv_, EdgeWeight());
  EXPECT_DOUBLE_EQ(MustEval(w1, row_).AsDouble(), 2.0);
  PathElementAttrExpr w9(0, 9, gv_, EdgeWeight());
  EXPECT_TRUE(MustEval(w9, row_).is_null());  // Out of range -> NULL.
}

TEST_F(PathExprTest, RangePredicateAllSemantics) {
  // All weights < 5 -> true.
  PathRangePredicateExpr all_small(
      0, 0, PathRangePredicateExpr::kOpenEnd, gv_, EdgeWeight(),
      RangePredicateOp::kCompare, CompareOp::kLt, {Lit(Value::Double(5.0))});
  EXPECT_TRUE(MustEval(all_small, row_).AsBoolean());
  // All weights < 3 -> false (edge 12 has w=4).
  PathRangePredicateExpr some_large(
      0, 0, PathRangePredicateExpr::kOpenEnd, gv_, EdgeWeight(),
      RangePredicateOp::kCompare, CompareOp::kLt, {Lit(Value::Double(3.0))});
  EXPECT_FALSE(MustEval(some_large, row_).AsBoolean());
  // Sub-range [0..1] < 3 -> true.
  PathRangePredicateExpr prefix(0, 0, 1, gv_, EdgeWeight(),
                                RangePredicateOp::kCompare, CompareOp::kLt,
                                {Lit(Value::Double(3.0))});
  EXPECT_TRUE(MustEval(prefix, row_).AsBoolean());
  // Range starting past the path length -> false.
  PathRangePredicateExpr beyond(0, 5, PathRangePredicateExpr::kOpenEnd, gv_,
                                EdgeWeight(), RangePredicateOp::kCompare,
                                CompareOp::kLt, {Lit(Value::Double(99.0))});
  EXPECT_FALSE(MustEval(beyond, row_).AsBoolean());
  // Closed range whose end exceeds the path -> false.
  PathRangePredicateExpr too_long(0, 0, 7, gv_, EdgeWeight(),
                                  RangePredicateOp::kCompare, CompareOp::kLt,
                                  {Lit(Value::Double(99.0))});
  EXPECT_FALSE(MustEval(too_long, row_).AsBoolean());
}

TEST_F(PathExprTest, PathAggregates) {
  PathAggregateExpr sum(0, gv_, EdgeWeight(), AggFunc::kSum);
  EXPECT_DOUBLE_EQ(MustEval(sum, row_).AsDouble(), 7.0);
  PathAggregateExpr avg(0, gv_, EdgeWeight(), AggFunc::kAvg);
  EXPECT_NEAR(MustEval(avg, row_).AsDouble(), 7.0 / 3.0, 1e-12);
  PathAggregateExpr mx(0, gv_, EdgeWeight(), AggFunc::kMax);
  EXPECT_DOUBLE_EQ(MustEval(mx, row_).AsDouble(), 4.0);
  PathAggregateExpr mn(0, gv_, EdgeWeight(), AggFunc::kMin);
  EXPECT_DOUBLE_EQ(MustEval(mn, row_).AsDouble(), 1.0);
  PathAggregateExpr cnt(0, gv_, EdgeWeight(), AggFunc::kCount);
  EXPECT_EQ(MustEval(cnt, row_).AsBigInt(), 3);
}

// EvalNumeric gives Eval's value, unpacked, or Eval's error status.
void ExpectNumericMatchesEval(const Expression& expr, const ExecRow& row) {
  SCOPED_TRACE(expr.ToString());
  StatusOr<Value> value = expr.Eval(row);
  NumericValue n;
  Status status = expr.EvalNumeric(row, &n);
  ASSERT_EQ(status.ok(), value.ok()) << status.ToString();
  if (!status.ok()) {
    EXPECT_EQ(status, value.status());
    return;
  }
  Value got = n.ToValue();
  ASSERT_EQ(got.type(), value->type());
  if (!got.is_null()) {
    EXPECT_TRUE(got.SqlEquals(*value));
  }
}

TEST_F(PathExprTest, EvalNumericAgreesWithEval) {
  ElementAttr vid;
  vid.kind = PathElementKind::kVertexes;
  vid.field = ElementField::kSourceColumn;
  vid.column = 0;
  vid.type = ValueType::kBigInt;
  vid.display_name = "vid";
  ElementAttr tag = vid;
  tag.column = 1;
  tag.type = ValueType::kVarchar;
  tag.display_name = "tag";
  ElementAttr id = vid;
  id.field = ElementField::kVertexId;
  id.column = -1;
  id.display_name = "Id";

  std::vector<std::unique_ptr<Expression>> exprs;
  for (PathProperty property :
       {PathProperty::kLength, PathProperty::kPathString,
        PathProperty::kStartVertexId, PathProperty::kEndVertexId,
        PathProperty::kCost}) {
    exprs.push_back(std::make_unique<PathPropertyExpr>(
        0, property, PathPropertyName(property)));
  }
  for (bool start : {true, false}) {
    for (const ElementAttr& attr : {vid, tag, id}) {
      exprs.push_back(
          std::make_unique<PathEndpointAttrExpr>(0, start, gv_, attr));
    }
  }

  // A populated slot, an endpoint that is not in the view, and an
  // unpopulated slot.
  ExecRow dangling;
  auto path = std::make_shared<PathData>();
  path->vertexes = {1, 99};
  path->edges = {10};
  dangling.paths.push_back(path);
  for (const ExecRow* row : {&row_, &dangling}) {
    for (const auto& expr : exprs) ExpectNumericMatchesEval(*expr, *row);
  }
  ExecRow unpopulated;
  for (const auto& expr : exprs) ExpectNumericMatchesEval(*expr, unpopulated);

  NumericValue n;
  PathEndpointAttrExpr end_vid(0, false, gv_, vid);
  ASSERT_TRUE(end_vid.EvalNumeric(row_, &n).ok());
  EXPECT_EQ(n.kind, NumericValue::Kind::kInt);
  EXPECT_EQ(n.i, 4);
  PathPropertyExpr cost(0, PathProperty::kCost, "c");
  ASSERT_TRUE(cost.EvalNumeric(row_, &n).ok());
  EXPECT_EQ(n.kind, NumericValue::Kind::kDouble);
  EXPECT_DOUBLE_EQ(n.d, 7.0);
}

TEST_F(PathExprTest, MissingPathSlotErrors) {
  ExecRow empty;
  PathPropertyExpr length(0, PathProperty::kLength, "len");
  EXPECT_FALSE(length.Eval(empty).ok());
}

}  // namespace
}  // namespace grfusion
