#ifndef GRFUSION_EXPR_EXPRESSION_H_
#define GRFUSION_EXPR_EXPRESSION_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "expr/row.h"
#include "graph/graph_view.h"

namespace grfusion {

class Expression;
/// Expressions are shared between the planner and multiple operators
/// (e.g., a pushed-down conjunct referenced by both the traversal spec and
/// EXPLAIN output), hence shared ownership.
using ExprPtr = std::shared_ptr<const Expression>;

enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };
enum class ArithOp { kAdd, kSub, kMul, kDiv, kMod };

const char* CompareOpToString(CompareOp op);
const char* ArithOpToString(ArithOp op);

/// Applies `op` to the three-valued comparison of two values. NULL operands
/// yield NULL (SQL semantics).
StatusOr<Value> EvalCompare(CompareOp op, const Value& left,
                            const Value& right);

/// A value as an aggregate reads it: NULL, a BIGINT in `i`, a DOUBLE in
/// `d`, or any other value in `other`.
struct NumericValue {
  enum class Kind { kNull, kInt, kDouble, kOther };
  Kind kind = Kind::kNull;
  int64_t i = 0;
  double d = 0.0;
  Value other;

  /// Unpacks `v`, copying it only when it is not NULL or a number.
  void Set(const Value& v) {
    switch (v.type()) {
      case ValueType::kNull:
        kind = Kind::kNull;
        break;
      case ValueType::kBigInt:
        kind = Kind::kInt;
        i = v.AsBigInt();
        break;
      case ValueType::kDouble:
        kind = Kind::kDouble;
        d = v.AsDouble();
        break;
      default:
        kind = Kind::kOther;
        other = v;
        break;
    }
  }
  /// The value Set unpacked.
  Value ToValue() const {
    switch (kind) {
      case Kind::kNull:
        return Value::Null();
      case Kind::kInt:
        return Value::BigInt(i);
      case Kind::kDouble:
        return Value::Double(d);
      case Kind::kOther:
        break;
    }
    return other;
  }
};

/// Bound, executable expression. Expressions are immutable after
/// construction; Eval is const and re-entrant.
class Expression {
 public:
  virtual ~Expression() = default;

  /// Evaluates against one row. Implementations return Status only for true
  /// runtime errors (type confusion, division by zero); SQL NULL propagates
  /// as a NULL Value.
  virtual StatusOr<Value> Eval(const ExecRow& row) const = 0;

  /// Whether Eval(row) is non-NULL, with Eval's error statuses. Overridden
  /// where the answer is cheaper than the value: COUNT over a bare path
  /// alias must not format the path.
  virtual StatusOr<bool> EvalIsNotNull(const ExecRow& row) const {
    GRF_ASSIGN_OR_RETURN(Value v, Eval(row));
    return !v.is_null();
  }

  /// Eval(row) unpacked into `*out`, with Eval's error statuses. Overridden
  /// where the number is read without building a Value: aggregates over a
  /// path's length or an endpoint's column read one per path.
  virtual Status EvalNumeric(const ExecRow& row, NumericValue* out) const {
    GRF_ASSIGN_OR_RETURN(Value v, Eval(row));
    out->Set(v);
    return Status::OK();
  }

  /// Static result type (kNull when unknown/polymorphic).
  virtual ValueType result_type() const = 0;

  virtual std::string ToString() const = 0;
};

/// Evaluates a predicate expression for a WHERE-style filter: NULL and
/// non-boolean falsy values count as "not passing".
StatusOr<bool> EvalPredicate(const Expression& expr, const ExecRow& row);

// --- Prepared-statement parameters -------------------------------------------

/// Parameter slots of one prepared statement. The binder grows `expected`
/// while compiling (recording the type each placeholder is compared against,
/// where inferable); PreparedStatement::Execute fills `values` before every
/// run. ParameterExpr nodes hold a pointer into this block, so it must
/// outlive the plan and stay at a stable address (the owning plan instance
/// heap-allocates it alongside the operator tree).
struct ParamSet {
  std::vector<ValueType> expected;  ///< Inferred slot types (kNull = any).
  std::vector<Value> values;        ///< Bound at execute time.

  void EnsureSlot(size_t index) {
    if (expected.size() <= index) {
      expected.resize(index + 1, ValueType::kNull);
    }
  }
  size_t num_slots() const { return expected.size(); }
};

/// A `?` / `$n` placeholder: evaluates to the value bound for its slot at
/// execute time. Unbound slots are an Internal error — the session layer
/// checks arity before running the plan.
class ParameterExpr : public Expression {
 public:
  ParameterExpr(const ParamSet* params, size_t index)
      : params_(params), index_(index) {}
  StatusOr<Value> Eval(const ExecRow&) const override {
    if (index_ >= params_->values.size()) {
      return Status::Internal("parameter $" + std::to_string(index_ + 1) +
                              " was not bound");
    }
    return params_->values[index_];
  }
  ValueType result_type() const override {
    return index_ < params_->expected.size() ? params_->expected[index_]
                                             : ValueType::kNull;
  }
  std::string ToString() const override {
    return "$" + std::to_string(index_ + 1);
  }
  size_t index() const { return index_; }

 private:
  const ParamSet* params_;
  size_t index_;
};

// --- Scalar expressions -----------------------------------------------------

/// A literal constant.
class ConstantExpr : public Expression {
 public:
  explicit ConstantExpr(Value value) : value_(std::move(value)) {}
  StatusOr<Value> Eval(const ExecRow&) const override { return value_; }
  ValueType result_type() const override { return value_.type(); }
  std::string ToString() const override { return value_.ToString(); }
  const Value& value() const { return value_; }

 private:
  Value value_;
};

/// Reference to a column of the input row by position.
class ColumnRefExpr : public Expression {
 public:
  ColumnRefExpr(size_t index, ValueType type, std::string name)
      : index_(index), type_(type), name_(std::move(name)) {}
  StatusOr<Value> Eval(const ExecRow& row) const override {
    if (index_ >= row.columns.size()) {
      return Status::Internal("column index " + std::to_string(index_) +
                              " out of range (" + name_ + ")");
    }
    return row.columns[index_];
  }
  ValueType result_type() const override { return type_; }
  std::string ToString() const override { return name_; }
  size_t index() const { return index_; }

 private:
  size_t index_;
  ValueType type_;
  std::string name_;
};

/// left <op> right comparison with SQL NULL propagation.
class CompareExpr : public Expression {
 public:
  CompareExpr(CompareOp op, ExprPtr left, ExprPtr right)
      : op_(op), left_(std::move(left)), right_(std::move(right)) {}
  StatusOr<Value> Eval(const ExecRow& row) const override;
  ValueType result_type() const override { return ValueType::kBoolean; }
  std::string ToString() const override;
  CompareOp op() const { return op_; }
  const ExprPtr& left() const { return left_; }
  const ExprPtr& right() const { return right_; }

 private:
  CompareOp op_;
  ExprPtr left_;
  ExprPtr right_;
};

/// N-ary AND / OR with SQL three-valued logic.
class ConjunctionExpr : public Expression {
 public:
  enum class Kind { kAnd, kOr };
  ConjunctionExpr(Kind kind, std::vector<ExprPtr> children)
      : kind_(kind), children_(std::move(children)) {}
  StatusOr<Value> Eval(const ExecRow& row) const override;
  ValueType result_type() const override { return ValueType::kBoolean; }
  std::string ToString() const override;
  Kind kind() const { return kind_; }
  const std::vector<ExprPtr>& children() const { return children_; }

 private:
  Kind kind_;
  std::vector<ExprPtr> children_;
};

/// Logical negation (NULL stays NULL).
class NotExpr : public Expression {
 public:
  explicit NotExpr(ExprPtr child) : child_(std::move(child)) {}
  StatusOr<Value> Eval(const ExecRow& row) const override;
  ValueType result_type() const override { return ValueType::kBoolean; }
  std::string ToString() const override { return "NOT " + child_->ToString(); }

 private:
  ExprPtr child_;
};

/// Binary arithmetic. Integer ops stay integral; mixing with DOUBLE widens.
class ArithmeticExpr : public Expression {
 public:
  ArithmeticExpr(ArithOp op, ExprPtr left, ExprPtr right)
      : op_(op), left_(std::move(left)), right_(std::move(right)) {}
  StatusOr<Value> Eval(const ExecRow& row) const override;
  ValueType result_type() const override;
  std::string ToString() const override;

 private:
  ArithOp op_;
  ExprPtr left_;
  ExprPtr right_;
};

/// Unary minus.
class NegateExpr : public Expression {
 public:
  explicit NegateExpr(ExprPtr child) : child_(std::move(child)) {}
  StatusOr<Value> Eval(const ExecRow& row) const override;
  ValueType result_type() const override { return child_->result_type(); }
  std::string ToString() const override { return "-" + child_->ToString(); }

 private:
  ExprPtr child_;
};

/// expr IS [NOT] NULL.
class IsNullExpr : public Expression {
 public:
  IsNullExpr(ExprPtr child, bool negated)
      : child_(std::move(child)), negated_(negated) {}
  StatusOr<Value> Eval(const ExecRow& row) const override;
  ValueType result_type() const override { return ValueType::kBoolean; }
  std::string ToString() const override {
    return child_->ToString() + (negated_ ? " IS NOT NULL" : " IS NULL");
  }

 private:
  ExprPtr child_;
  bool negated_;
};

/// expr [NOT] IN (v1, v2, ...).
class InListExpr : public Expression {
 public:
  InListExpr(ExprPtr child, std::vector<ExprPtr> list, bool negated)
      : child_(std::move(child)), list_(std::move(list)), negated_(negated) {}
  StatusOr<Value> Eval(const ExecRow& row) const override;
  ValueType result_type() const override { return ValueType::kBoolean; }
  std::string ToString() const override;
  const ExprPtr& child() const { return child_; }
  const std::vector<ExprPtr>& list() const { return list_; }
  bool negated() const { return negated_; }

 private:
  ExprPtr child_;
  std::vector<ExprPtr> list_;
  bool negated_;
};

/// expr [NOT] LIKE pattern ('%' and '_' wildcards).
class LikeExpr : public Expression {
 public:
  LikeExpr(ExprPtr child, ExprPtr pattern, bool negated)
      : child_(std::move(child)), pattern_(std::move(pattern)),
        negated_(negated) {}
  StatusOr<Value> Eval(const ExecRow& row) const override;
  ValueType result_type() const override { return ValueType::kBoolean; }
  std::string ToString() const override {
    return child_->ToString() + (negated_ ? " NOT LIKE " : " LIKE ") +
           pattern_->ToString();
  }

 private:
  ExprPtr child_;
  ExprPtr pattern_;
  bool negated_;
};

// --- Path expressions (paper §4, §5.2) ---------------------------------------

/// Which element sequence of a path a reference addresses.
enum class PathElementKind { kEdges, kVertexes };

/// Scalar per-path properties.
enum class PathProperty {
  kLength,         ///< Number of edges.
  kPathString,     ///< Human-readable rendering (PS.PathString).
  kStartVertexId,  ///< PS.StartVertexId / PS.StartVertex.Id fast path.
  kEndVertexId,
  kCost,           ///< Accumulated SPScan cost.
};

/// The property's SQL spelling after `alias.`: "Length", "PathString",
/// "StartVertex.Id", "EndVertex.Id" or "Cost".
const char* PathPropertyName(PathProperty property);

/// Special element attributes that live in the topology rather than in the
/// relational sources.
enum class ElementField {
  kSourceColumn,  ///< Regular attribute: read source tuple at `column`.
  kEdgeId,
  kEdgeFrom,
  kEdgeTo,
  kVertexId,
  kVertexFanOut,
  kVertexFanIn,
};

/// Describes how to extract one value from a path element (edge or vertex).
struct ElementAttr {
  PathElementKind kind = PathElementKind::kEdges;
  ElementField field = ElementField::kSourceColumn;
  int column = -1;           ///< Source-tuple column when kSourceColumn.
  ValueType type = ValueType::kNull;
  std::string display_name;  ///< For ToString/EXPLAIN.
};

/// Fetches the value of `attr` for element `index` of `path` (NULL value when
/// the index is out of range is NOT produced here; callers bounds-check).
StatusOr<Value> FetchElementValue(const GraphView& gv, const PathData& path,
                                  const ElementAttr& attr, size_t index);

/// Extracts an edge-kind attribute value straight from a topology entry
/// (used by traversal operators to test pushed-down filters on edges they
/// have not added to any path yet).
StatusOr<Value> ExtractEdgeValue(const GraphView& gv, const EdgeEntry& edge,
                                 const ElementAttr& attr);

/// Extracts a vertex-kind attribute value straight from a topology entry.
StatusOr<Value> ExtractVertexValue(const GraphView& gv,
                                   const VertexEntry& vertex,
                                   const ElementAttr& attr);

/// PS.Length / PS.PathString / PS.Cost / endpoint-id shortcuts.
class PathPropertyExpr : public Expression {
 public:
  PathPropertyExpr(size_t slot, PathProperty property, std::string name)
      : slot_(slot), property_(property), name_(std::move(name)) {}
  StatusOr<Value> Eval(const ExecRow& row) const override;
  /// Every property of a populated path slot is non-NULL.
  StatusOr<bool> EvalIsNotNull(const ExecRow& row) const override;
  /// Every property but PathString, read straight from the path.
  Status EvalNumeric(const ExecRow& row, NumericValue* out) const override;
  ValueType result_type() const override {
    return property_ == PathProperty::kPathString ? ValueType::kVarchar
           : property_ == PathProperty::kCost     ? ValueType::kDouble
                                                  : ValueType::kBigInt;
  }
  std::string ToString() const override { return name_; }
  size_t slot() const { return slot_; }
  PathProperty property() const { return property_; }

 private:
  size_t slot_;
  PathProperty property_;
  std::string name_;
};

/// PS.StartVertex.<attr> / PS.EndVertex.<attr>: endpoint attribute access
/// through the vertex tuple pointer.
class PathEndpointAttrExpr : public Expression {
 public:
  PathEndpointAttrExpr(size_t slot, bool start, const GraphView* gv,
                       ElementAttr attr)
      : slot_(slot), start_(start), gv_(gv), attr_(std::move(attr)) {}
  StatusOr<Value> Eval(const ExecRow& row) const override;
  /// A source column is read from the vertex tuple by reference.
  Status EvalNumeric(const ExecRow& row, NumericValue* out) const override;
  ValueType result_type() const override { return attr_.type; }
  std::string ToString() const override;
  size_t slot() const { return slot_; }
  bool start() const { return start_; }
  const ElementAttr& attr() const { return attr_; }

 private:
  size_t slot_;
  bool start_;
  const GraphView* gv_;
  ElementAttr attr_;
};

/// PS.Edges[i].<attr> / PS.Vertexes[i].<attr> — single-element access.
/// Out-of-range indexes evaluate to NULL (and thus fail predicates), which
/// matches the planner's length-inference expectations.
class PathElementAttrExpr : public Expression {
 public:
  PathElementAttrExpr(size_t slot, size_t index, const GraphView* gv,
                      ElementAttr attr)
      : slot_(slot), index_(index), gv_(gv), attr_(std::move(attr)) {}
  StatusOr<Value> Eval(const ExecRow& row) const override;
  ValueType result_type() const override { return attr_.type; }
  std::string ToString() const override;
  size_t slot() const { return slot_; }
  size_t index() const { return index_; }
  const ElementAttr& attr() const { return attr_; }

 private:
  size_t slot_;
  size_t index_;
  const GraphView* gv_;
  ElementAttr attr_;
};

/// How a quantified range predicate tests each element.
enum class RangePredicateOp { kCompare, kIn, kLike };

/// Quantified predicate over a contiguous range of path elements:
///   PS.Edges[lo..hi].Attr <op> rhs      (hi == kOpenEnd means "..*")
/// True iff EVERY element with index in [lo, min(hi, len-1)] satisfies the
/// test AND the range is non-empty w.r.t. lo (a path too short to have
/// element `lo` fails). This is the paper's
/// `PS.Edges[0..*].StartDate > '1/1/2000'` construct.
class PathRangePredicateExpr : public Expression {
 public:
  static constexpr size_t kOpenEnd = static_cast<size_t>(-1);

  PathRangePredicateExpr(size_t slot, size_t lo, size_t hi, const GraphView* gv,
                         ElementAttr attr, RangePredicateOp op,
                         CompareOp compare_op, std::vector<ExprPtr> rhs)
      : slot_(slot), lo_(lo), hi_(hi), gv_(gv), attr_(std::move(attr)),
        op_(op), compare_op_(compare_op), rhs_(std::move(rhs)) {}

  StatusOr<Value> Eval(const ExecRow& row) const override;
  ValueType result_type() const override { return ValueType::kBoolean; }
  std::string ToString() const override;

  size_t slot() const { return slot_; }
  size_t lo() const { return lo_; }
  size_t hi() const { return hi_; }
  const ElementAttr& attr() const { return attr_; }
  RangePredicateOp op() const { return op_; }
  CompareOp compare_op() const { return compare_op_; }
  const std::vector<ExprPtr>& rhs() const { return rhs_; }

  /// Tests one element value against the (row-evaluated) right-hand side.
  StatusOr<bool> TestElement(const Value& element, const ExecRow& row) const;

 private:
  size_t slot_;
  size_t lo_;
  size_t hi_;
  const GraphView* gv_;
  ElementAttr attr_;
  RangePredicateOp op_;
  CompareOp compare_op_;       ///< Valid when op_ == kCompare.
  std::vector<ExprPtr> rhs_;   ///< 1 expr for compare/like; N for IN.
};

/// Aggregate functions usable both over relations and over path elements.
enum class AggFunc { kCount, kSum, kMin, kMax, kAvg };

const char* AggFuncToString(AggFunc func);

/// SUM(PS.Edges.Weight)-style aggregate over all elements of one path.
class PathAggregateExpr : public Expression {
 public:
  PathAggregateExpr(size_t slot, const GraphView* gv, ElementAttr attr,
                    AggFunc func)
      : slot_(slot), gv_(gv), attr_(std::move(attr)), func_(func) {}
  StatusOr<Value> Eval(const ExecRow& row) const override;
  ValueType result_type() const override {
    return func_ == AggFunc::kCount ? ValueType::kBigInt : ValueType::kDouble;
  }
  std::string ToString() const override;
  size_t slot() const { return slot_; }
  const ElementAttr& attr() const { return attr_; }
  AggFunc func() const { return func_; }

 private:
  size_t slot_;
  const GraphView* gv_;
  ElementAttr attr_;
  AggFunc func_;
};

// --- Scalar functions ---------------------------------------------------------

/// Built-in scalar SQL functions.
enum class ScalarFunc {
  kAbs,
  kFloor,
  kCeil,
  kSqrt,
  kLength,    ///< String length.
  kUpper,
  kLower,
  kSubstr,    ///< SUBSTR(s, start [, len]) — 1-based start, SQL style.
  kCoalesce,  ///< First non-NULL argument.
};

const char* ScalarFuncToString(ScalarFunc func);

/// A call to a built-in scalar function. NULL inputs yield NULL (except
/// COALESCE, which skips them).
class ScalarFuncExpr : public Expression {
 public:
  ScalarFuncExpr(ScalarFunc func, std::vector<ExprPtr> args)
      : func_(func), args_(std::move(args)) {}
  StatusOr<Value> Eval(const ExecRow& row) const override;
  ValueType result_type() const override;
  std::string ToString() const override;

 private:
  ScalarFunc func_;
  std::vector<ExprPtr> args_;
};

// --- Helpers -----------------------------------------------------------------

/// Collects the conjuncts of an AND tree (a non-AND expression is returned
/// as a single conjunct).
void FlattenConjuncts(const ExprPtr& expr, std::vector<ExprPtr>* out);

/// Rebuilds a single predicate from conjuncts (nullptr when empty, the sole
/// conjunct when singular).
ExprPtr CombineConjuncts(std::vector<ExprPtr> conjuncts);

}  // namespace grfusion

#endif  // GRFUSION_EXPR_EXPRESSION_H_
