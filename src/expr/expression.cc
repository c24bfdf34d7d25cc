#include "expr/expression.h"

#include <cmath>

#include "common/string_util.h"
#include "graph/path.h"

namespace grfusion {

const char* CompareOpToString(CompareOp op) {
  switch (op) {
    case CompareOp::kEq: return "=";
    case CompareOp::kNe: return "<>";
    case CompareOp::kLt: return "<";
    case CompareOp::kLe: return "<=";
    case CompareOp::kGt: return ">";
    case CompareOp::kGe: return ">=";
  }
  return "?";
}

const char* ArithOpToString(ArithOp op) {
  switch (op) {
    case ArithOp::kAdd: return "+";
    case ArithOp::kSub: return "-";
    case ArithOp::kMul: return "*";
    case ArithOp::kDiv: return "/";
    case ArithOp::kMod: return "%";
  }
  return "?";
}

const char* AggFuncToString(AggFunc func) {
  switch (func) {
    case AggFunc::kCount: return "COUNT";
    case AggFunc::kSum: return "SUM";
    case AggFunc::kMin: return "MIN";
    case AggFunc::kMax: return "MAX";
    case AggFunc::kAvg: return "AVG";
  }
  return "?";
}

StatusOr<Value> EvalCompare(CompareOp op, const Value& left,
                            const Value& right) {
  if (left.is_null() || right.is_null()) return Value::Null();
  GRF_ASSIGN_OR_RETURN(int cmp, left.Compare(right));
  bool result = false;
  switch (op) {
    case CompareOp::kEq: result = cmp == 0; break;
    case CompareOp::kNe: result = cmp != 0; break;
    case CompareOp::kLt: result = cmp < 0; break;
    case CompareOp::kLe: result = cmp <= 0; break;
    case CompareOp::kGt: result = cmp > 0; break;
    case CompareOp::kGe: result = cmp >= 0; break;
  }
  return Value::Boolean(result);
}

StatusOr<bool> EvalPredicate(const Expression& expr, const ExecRow& row) {
  GRF_ASSIGN_OR_RETURN(Value v, expr.Eval(row));
  if (v.is_null()) return false;
  if (v.type() == ValueType::kBoolean) return v.AsBoolean();
  return v.AsNumeric() != 0.0;
}

// --- CompareExpr -------------------------------------------------------------

StatusOr<Value> CompareExpr::Eval(const ExecRow& row) const {
  GRF_ASSIGN_OR_RETURN(Value l, left_->Eval(row));
  GRF_ASSIGN_OR_RETURN(Value r, right_->Eval(row));
  return EvalCompare(op_, l, r);
}

std::string CompareExpr::ToString() const {
  return left_->ToString() + " " + CompareOpToString(op_) + " " +
         right_->ToString();
}

// --- ConjunctionExpr ----------------------------------------------------------

StatusOr<Value> ConjunctionExpr::Eval(const ExecRow& row) const {
  // SQL 3VL: AND is false-dominant, OR is true-dominant; otherwise NULL wins
  // over the neutral element.
  bool saw_null = false;
  for (const ExprPtr& child : children_) {
    GRF_ASSIGN_OR_RETURN(Value v, child->Eval(row));
    if (v.is_null()) {
      saw_null = true;
      continue;
    }
    bool b = v.type() == ValueType::kBoolean ? v.AsBoolean()
                                             : v.AsNumeric() != 0.0;
    if (kind_ == Kind::kAnd && !b) return Value::Boolean(false);
    if (kind_ == Kind::kOr && b) return Value::Boolean(true);
  }
  if (saw_null) return Value::Null();
  return Value::Boolean(kind_ == Kind::kAnd);
}

std::string ConjunctionExpr::ToString() const {
  std::string sep = kind_ == Kind::kAnd ? " AND " : " OR ";
  std::string out = "(";
  for (size_t i = 0; i < children_.size(); ++i) {
    if (i > 0) out += sep;
    out += children_[i]->ToString();
  }
  return out + ")";
}

// --- NotExpr -------------------------------------------------------------------

StatusOr<Value> NotExpr::Eval(const ExecRow& row) const {
  GRF_ASSIGN_OR_RETURN(Value v, child_->Eval(row));
  if (v.is_null()) return Value::Null();
  bool b = v.type() == ValueType::kBoolean ? v.AsBoolean()
                                           : v.AsNumeric() != 0.0;
  return Value::Boolean(!b);
}

// --- ArithmeticExpr -------------------------------------------------------------

ValueType ArithmeticExpr::result_type() const {
  if (left_->result_type() == ValueType::kBigInt &&
      right_->result_type() == ValueType::kBigInt && op_ != ArithOp::kDiv) {
    return ValueType::kBigInt;
  }
  return ValueType::kDouble;
}

StatusOr<Value> ArithmeticExpr::Eval(const ExecRow& row) const {
  GRF_ASSIGN_OR_RETURN(Value l, left_->Eval(row));
  GRF_ASSIGN_OR_RETURN(Value r, right_->Eval(row));
  if (l.is_null() || r.is_null()) return Value::Null();
  bool integral = l.type() == ValueType::kBigInt &&
                  r.type() == ValueType::kBigInt;
  if (integral) {
    int64_t a = l.AsBigInt(), b = r.AsBigInt();
    switch (op_) {
      case ArithOp::kAdd: return Value::BigInt(a + b);
      case ArithOp::kSub: return Value::BigInt(a - b);
      case ArithOp::kMul: return Value::BigInt(a * b);
      case ArithOp::kDiv:
        if (b == 0) return Status::InvalidArgument("division by zero");
        return Value::Double(static_cast<double>(a) / static_cast<double>(b));
      case ArithOp::kMod:
        if (b == 0) return Status::InvalidArgument("modulo by zero");
        return Value::BigInt(a % b);
    }
  }
  if ((l.type() != ValueType::kBigInt && l.type() != ValueType::kDouble) ||
      (r.type() != ValueType::kBigInt && r.type() != ValueType::kDouble)) {
    return Status::InvalidArgument("arithmetic on non-numeric operands: " +
                                   ToString());
  }
  double a = l.AsNumeric(), b = r.AsNumeric();
  switch (op_) {
    case ArithOp::kAdd: return Value::Double(a + b);
    case ArithOp::kSub: return Value::Double(a - b);
    case ArithOp::kMul: return Value::Double(a * b);
    case ArithOp::kDiv:
      if (b == 0.0) return Status::InvalidArgument("division by zero");
      return Value::Double(a / b);
    case ArithOp::kMod:
      if (b == 0.0) return Status::InvalidArgument("modulo by zero");
      return Value::Double(std::fmod(a, b));
  }
  return Status::Internal("unreachable arithmetic op");
}

std::string ArithmeticExpr::ToString() const {
  return "(" + left_->ToString() + " " + ArithOpToString(op_) + " " +
         right_->ToString() + ")";
}

// --- NegateExpr -----------------------------------------------------------------

StatusOr<Value> NegateExpr::Eval(const ExecRow& row) const {
  GRF_ASSIGN_OR_RETURN(Value v, child_->Eval(row));
  if (v.is_null()) return Value::Null();
  if (v.type() == ValueType::kBigInt) return Value::BigInt(-v.AsBigInt());
  if (v.type() == ValueType::kDouble) return Value::Double(-v.AsDouble());
  return Status::InvalidArgument("cannot negate " + v.ToString());
}

// --- IsNullExpr -----------------------------------------------------------------

StatusOr<Value> IsNullExpr::Eval(const ExecRow& row) const {
  GRF_ASSIGN_OR_RETURN(Value v, child_->Eval(row));
  return Value::Boolean(negated_ ? !v.is_null() : v.is_null());
}

// --- InListExpr -----------------------------------------------------------------

StatusOr<Value> InListExpr::Eval(const ExecRow& row) const {
  GRF_ASSIGN_OR_RETURN(Value v, child_->Eval(row));
  if (v.is_null()) return Value::Null();
  bool saw_null = false;
  for (const ExprPtr& item : list_) {
    GRF_ASSIGN_OR_RETURN(Value candidate, item->Eval(row));
    if (candidate.is_null()) {
      saw_null = true;
      continue;
    }
    if (v.SqlEquals(candidate)) return Value::Boolean(!negated_);
  }
  if (saw_null) return Value::Null();
  return Value::Boolean(negated_);
}

std::string InListExpr::ToString() const {
  std::string out = child_->ToString() + (negated_ ? " NOT IN (" : " IN (");
  for (size_t i = 0; i < list_.size(); ++i) {
    if (i > 0) out += ", ";
    out += list_[i]->ToString();
  }
  return out + ")";
}

// --- LikeExpr -------------------------------------------------------------------

StatusOr<Value> LikeExpr::Eval(const ExecRow& row) const {
  GRF_ASSIGN_OR_RETURN(Value v, child_->Eval(row));
  GRF_ASSIGN_OR_RETURN(Value p, pattern_->Eval(row));
  if (v.is_null() || p.is_null()) return Value::Null();
  if (v.type() != ValueType::kVarchar || p.type() != ValueType::kVarchar) {
    return Status::InvalidArgument("LIKE requires VARCHAR operands");
  }
  bool matched = LikeMatch(v.AsVarchar(), p.AsVarchar());
  return Value::Boolean(negated_ ? !matched : matched);
}

// --- Path expressions -------------------------------------------------------------

StatusOr<Value> ExtractEdgeValue(const GraphView& gv, const EdgeEntry& edge,
                                 const ElementAttr& attr) {
  switch (attr.field) {
    case ElementField::kEdgeId:
      return Value::BigInt(edge.id);
    case ElementField::kEdgeFrom:
      return Value::BigInt(edge.from);
    case ElementField::kEdgeTo:
      return Value::BigInt(edge.to);
    case ElementField::kSourceColumn: {
      const Tuple* t = gv.EdgeTuple(edge);
      if (t == nullptr) return Status::Internal("dangling edge tuple");
      return t->value(static_cast<size_t>(attr.column));
    }
    default:
      return Status::Internal("bad edge field");
  }
}

namespace {

/// The source-tuple value at `column` of `vertex`, by reference; null when
/// the tuple is gone.
const Value* VertexColumnValue(const GraphView& gv, const VertexEntry& vertex,
                               int column) {
  const Tuple* t = gv.VertexTuple(vertex);
  return t == nullptr ? nullptr : &t->value(static_cast<size_t>(column));
}

}  // namespace

StatusOr<Value> ExtractVertexValue(const GraphView& gv,
                                   const VertexEntry& vertex,
                                   const ElementAttr& attr) {
  switch (attr.field) {
    case ElementField::kVertexId:
      return Value::BigInt(vertex.id);
    case ElementField::kVertexFanOut:
      return Value::BigInt(static_cast<int64_t>(gv.FanOut(vertex)));
    case ElementField::kVertexFanIn:
      return Value::BigInt(static_cast<int64_t>(gv.FanIn(vertex)));
    case ElementField::kSourceColumn: {
      const Value* v = VertexColumnValue(gv, vertex, attr.column);
      if (v == nullptr) return Status::Internal("dangling vertex tuple");
      return *v;
    }
    default:
      return Status::Internal("bad vertex field");
  }
}

StatusOr<Value> FetchElementValue(const GraphView& gv, const PathData& path,
                                  const ElementAttr& attr, size_t index) {
  if (attr.kind == PathElementKind::kEdges) {
    if (index >= path.edges.size()) {
      return Status::OutOfRange("edge index out of range");
    }
    const EdgeEntry* e = gv.FindEdge(path.edges[index]);
    if (e == nullptr) return Status::Internal("dangling edge in path");
    return ExtractEdgeValue(gv, *e, attr);
  }
  if (index >= path.vertexes.size()) {
    return Status::OutOfRange("vertex index out of range");
  }
  const VertexEntry* v = gv.FindVertex(path.vertexes[index]);
  if (v == nullptr) return Status::Internal("dangling vertex in path");
  return ExtractVertexValue(gv, *v, attr);
}

namespace {

/// The path in `slot` of `row`, or null when the slot is not populated.
const PathData* SlotPath(const ExecRow& row, size_t slot) {
  return slot < row.paths.size() ? row.paths[slot].get() : nullptr;
}

StatusOr<const PathData*> PathAt(const ExecRow& row, size_t slot) {
  const PathData* path = SlotPath(row, slot);
  if (path == nullptr) {
    return Status::Internal("path slot " + std::to_string(slot) +
                            " not populated");
  }
  return path;
}

}  // namespace

const char* PathPropertyName(PathProperty property) {
  switch (property) {
    case PathProperty::kLength:
      return "Length";
    case PathProperty::kPathString:
      return "PathString";
    case PathProperty::kStartVertexId:
      return "StartVertex.Id";
    case PathProperty::kEndVertexId:
      return "EndVertex.Id";
    case PathProperty::kCost:
      return "Cost";
  }
  return "?";
}

StatusOr<Value> PathPropertyExpr::Eval(const ExecRow& row) const {
  GRF_ASSIGN_OR_RETURN(const PathData* path, PathAt(row, slot_));
  if (property_ == PathProperty::kPathString) {
    return Value::Varchar(PathToString(*path));
  }
  NumericValue n;
  GRF_RETURN_IF_ERROR(EvalNumeric(row, &n));
  return n.ToValue();
}

Status PathPropertyExpr::EvalNumeric(const ExecRow& row,
                                     NumericValue* out) const {
  const PathData* path = SlotPath(row, slot_);
  if (path == nullptr || property_ == PathProperty::kPathString) {
    return Expression::EvalNumeric(row, out);
  }
  out->kind = NumericValue::Kind::kInt;
  switch (property_) {
    case PathProperty::kLength:
      out->i = static_cast<int64_t>(path->Length());
      break;
    case PathProperty::kStartVertexId:
      out->i = path->StartVertex();
      break;
    case PathProperty::kEndVertexId:
      out->i = path->EndVertex();
      break;
    case PathProperty::kCost:
      out->kind = NumericValue::Kind::kDouble;
      out->d = path->accumulated_cost;
      break;
    case PathProperty::kPathString:
      break;
  }
  return Status::OK();
}

StatusOr<bool> PathPropertyExpr::EvalIsNotNull(const ExecRow& row) const {
  GRF_RETURN_IF_ERROR(PathAt(row, slot_).status());
  return true;
}

StatusOr<Value> PathEndpointAttrExpr::Eval(const ExecRow& row) const {
  GRF_ASSIGN_OR_RETURN(const PathData* path, PathAt(row, slot_));
  size_t index = start_ ? 0 : path->vertexes.size() - 1;
  return FetchElementValue(*gv_, *path, attr_, index);
}

Status PathEndpointAttrExpr::EvalNumeric(const ExecRow& row,
                                         NumericValue* out) const {
  // A source column of a live endpoint is read in place; anything else,
  // errors included, goes through Eval.
  const PathData* path = SlotPath(row, slot_);
  if (path != nullptr && !path->vertexes.empty() &&
      attr_.field == ElementField::kSourceColumn) {
    const VertexEntry* v = gv_->FindVertex(start_ ? path->vertexes.front()
                                                  : path->vertexes.back());
    const Value* value =
        v == nullptr ? nullptr : VertexColumnValue(*gv_, *v, attr_.column);
    if (value != nullptr) {
      out->Set(*value);
      return Status::OK();
    }
  }
  return Expression::EvalNumeric(row, out);
}

std::string PathEndpointAttrExpr::ToString() const {
  return StrFormat("path[%zu].%s.%s", slot_,
                   start_ ? "StartVertex" : "EndVertex",
                   attr_.display_name.c_str());
}

StatusOr<Value> PathElementAttrExpr::Eval(const ExecRow& row) const {
  GRF_ASSIGN_OR_RETURN(const PathData* path, PathAt(row, slot_));
  size_t limit = attr_.kind == PathElementKind::kEdges
                     ? path->edges.size()
                     : path->vertexes.size();
  if (index_ >= limit) return Value::Null();
  return FetchElementValue(*gv_, *path, attr_, index_);
}

std::string PathElementAttrExpr::ToString() const {
  return StrFormat("path[%zu].%s[%zu].%s", slot_,
                   attr_.kind == PathElementKind::kEdges ? "Edges" : "Vertexes",
                   index_, attr_.display_name.c_str());
}

StatusOr<bool> PathRangePredicateExpr::TestElement(const Value& element,
                                                   const ExecRow& row) const {
  if (element.is_null()) return false;
  switch (op_) {
    case RangePredicateOp::kCompare: {
      GRF_ASSIGN_OR_RETURN(Value rhs, rhs_[0]->Eval(row));
      GRF_ASSIGN_OR_RETURN(Value v, EvalCompare(compare_op_, element, rhs));
      return !v.is_null() && v.AsBoolean();
    }
    case RangePredicateOp::kIn: {
      for (const ExprPtr& item : rhs_) {
        GRF_ASSIGN_OR_RETURN(Value candidate, item->Eval(row));
        if (element.SqlEquals(candidate)) return true;
      }
      return false;
    }
    case RangePredicateOp::kLike: {
      GRF_ASSIGN_OR_RETURN(Value pattern, rhs_[0]->Eval(row));
      if (pattern.is_null() || pattern.type() != ValueType::kVarchar ||
          element.type() != ValueType::kVarchar) {
        return false;
      }
      return LikeMatch(element.AsVarchar(), pattern.AsVarchar());
    }
  }
  return Status::Internal("bad range predicate op");
}

StatusOr<Value> PathRangePredicateExpr::Eval(const ExecRow& row) const {
  GRF_ASSIGN_OR_RETURN(const PathData* path, PathAt(row, slot_));
  size_t count = attr_.kind == PathElementKind::kEdges
                     ? path->edges.size()
                     : path->vertexes.size();
  if (lo_ >= count) return Value::Boolean(false);
  size_t last = hi_ == kOpenEnd ? count - 1 : hi_;
  if (last >= count) return Value::Boolean(false);
  for (size_t i = lo_; i <= last; ++i) {
    GRF_ASSIGN_OR_RETURN(Value element, FetchElementValue(*gv_, *path,
                                                          attr_, i));
    GRF_ASSIGN_OR_RETURN(bool pass, TestElement(element, row));
    if (!pass) return Value::Boolean(false);
  }
  return Value::Boolean(true);
}

std::string PathRangePredicateExpr::ToString() const {
  std::string range = hi_ == kOpenEnd ? StrFormat("[%zu..*]", lo_)
                                      : StrFormat("[%zu..%zu]", lo_, hi_);
  std::string op;
  switch (op_) {
    case RangePredicateOp::kCompare:
      op = CompareOpToString(compare_op_);
      break;
    case RangePredicateOp::kIn:
      op = "IN";
      break;
    case RangePredicateOp::kLike:
      op = "LIKE";
      break;
  }
  return StrFormat("path[%zu].%s%s.%s %s ...", slot_,
                   attr_.kind == PathElementKind::kEdges ? "Edges" : "Vertexes",
                   range.c_str(), attr_.display_name.c_str(), op.c_str());
}

StatusOr<Value> PathAggregateExpr::Eval(const ExecRow& row) const {
  GRF_ASSIGN_OR_RETURN(const PathData* path, PathAt(row, slot_));
  size_t count = attr_.kind == PathElementKind::kEdges
                     ? path->edges.size()
                     : path->vertexes.size();
  if (func_ == AggFunc::kCount) {
    return Value::BigInt(static_cast<int64_t>(count));
  }
  double acc = 0.0;
  double best = 0.0;
  bool first = true;
  size_t n = 0;
  for (size_t i = 0; i < count; ++i) {
    GRF_ASSIGN_OR_RETURN(Value v, FetchElementValue(*gv_, *path, attr_, i));
    if (v.is_null()) continue;
    if (v.type() != ValueType::kBigInt && v.type() != ValueType::kDouble) {
      return Status::InvalidArgument("path aggregate over non-numeric attribute");
    }
    double x = v.AsNumeric();
    ++n;
    acc += x;
    if (first || (func_ == AggFunc::kMin ? x < best : x > best)) best = x;
    first = false;
  }
  if (n == 0) return Value::Null();
  switch (func_) {
    case AggFunc::kSum: return Value::Double(acc);
    case AggFunc::kAvg: return Value::Double(acc / static_cast<double>(n));
    case AggFunc::kMin:
    case AggFunc::kMax: return Value::Double(best);
    default: break;
  }
  return Status::Internal("bad path aggregate");
}

std::string PathAggregateExpr::ToString() const {
  return StrFormat("%s(path[%zu].%s.%s)", AggFuncToString(func_), slot_,
                   attr_.kind == PathElementKind::kEdges ? "Edges" : "Vertexes",
                   attr_.display_name.c_str());
}

// --- Scalar functions -----------------------------------------------------------

const char* ScalarFuncToString(ScalarFunc func) {
  switch (func) {
    case ScalarFunc::kAbs: return "ABS";
    case ScalarFunc::kFloor: return "FLOOR";
    case ScalarFunc::kCeil: return "CEIL";
    case ScalarFunc::kSqrt: return "SQRT";
    case ScalarFunc::kLength: return "LENGTH";
    case ScalarFunc::kUpper: return "UPPER";
    case ScalarFunc::kLower: return "LOWER";
    case ScalarFunc::kSubstr: return "SUBSTR";
    case ScalarFunc::kCoalesce: return "COALESCE";
  }
  return "?";
}

ValueType ScalarFuncExpr::result_type() const {
  switch (func_) {
    case ScalarFunc::kAbs:
      return args_.empty() ? ValueType::kDouble : args_[0]->result_type();
    case ScalarFunc::kFloor:
    case ScalarFunc::kCeil:
      return ValueType::kBigInt;
    case ScalarFunc::kSqrt:
      return ValueType::kDouble;
    case ScalarFunc::kLength:
      return ValueType::kBigInt;
    case ScalarFunc::kUpper:
    case ScalarFunc::kLower:
    case ScalarFunc::kSubstr:
      return ValueType::kVarchar;
    case ScalarFunc::kCoalesce:
      return args_.empty() ? ValueType::kNull : args_[0]->result_type();
  }
  return ValueType::kNull;
}

StatusOr<Value> ScalarFuncExpr::Eval(const ExecRow& row) const {
  if (func_ == ScalarFunc::kCoalesce) {
    for (const ExprPtr& arg : args_) {
      GRF_ASSIGN_OR_RETURN(Value v, arg->Eval(row));
      if (!v.is_null()) return v;
    }
    return Value::Null();
  }
  std::vector<Value> values;
  values.reserve(args_.size());
  for (const ExprPtr& arg : args_) {
    GRF_ASSIGN_OR_RETURN(Value v, arg->Eval(row));
    if (v.is_null()) return Value::Null();
    values.push_back(std::move(v));
  }
  auto require_string = [&](size_t i) -> StatusOr<const std::string*> {
    if (values[i].type() != ValueType::kVarchar) {
      return Status::InvalidArgument(std::string(ScalarFuncToString(func_)) +
                                     " expects a VARCHAR argument");
    }
    return &values[i].AsVarchar();
  };
  switch (func_) {
    case ScalarFunc::kAbs:
      if (values[0].type() == ValueType::kBigInt) {
        int64_t v = values[0].AsBigInt();
        return Value::BigInt(v < 0 ? -v : v);
      }
      return Value::Double(std::fabs(values[0].AsNumeric()));
    case ScalarFunc::kFloor:
      return Value::BigInt(
          static_cast<int64_t>(std::floor(values[0].AsNumeric())));
    case ScalarFunc::kCeil:
      return Value::BigInt(
          static_cast<int64_t>(std::ceil(values[0].AsNumeric())));
    case ScalarFunc::kSqrt: {
      double x = values[0].AsNumeric();
      if (x < 0) return Status::InvalidArgument("SQRT of negative value");
      return Value::Double(std::sqrt(x));
    }
    case ScalarFunc::kLength: {
      GRF_ASSIGN_OR_RETURN(const std::string* s, require_string(0));
      return Value::BigInt(static_cast<int64_t>(s->size()));
    }
    case ScalarFunc::kUpper: {
      GRF_ASSIGN_OR_RETURN(const std::string* s, require_string(0));
      return Value::Varchar(ToUpper(*s));
    }
    case ScalarFunc::kLower: {
      GRF_ASSIGN_OR_RETURN(const std::string* s, require_string(0));
      return Value::Varchar(ToLower(*s));
    }
    case ScalarFunc::kSubstr: {
      GRF_ASSIGN_OR_RETURN(const std::string* s, require_string(0));
      if (values[1].type() != ValueType::kBigInt) {
        return Status::InvalidArgument("SUBSTR start must be an integer");
      }
      int64_t start = values[1].AsBigInt();
      int64_t len = values.size() > 2 && values[2].type() == ValueType::kBigInt
                        ? values[2].AsBigInt()
                        : static_cast<int64_t>(s->size());
      if (start < 1) start = 1;
      size_t from = static_cast<size_t>(start - 1);
      if (from >= s->size() || len <= 0) return Value::Varchar("");
      return Value::Varchar(s->substr(from, static_cast<size_t>(len)));
    }
    default:
      break;
  }
  return Status::Internal("bad scalar function");
}

std::string ScalarFuncExpr::ToString() const {
  std::string out = ScalarFuncToString(func_);
  out += "(";
  for (size_t i = 0; i < args_.size(); ++i) {
    if (i > 0) out += ", ";
    out += args_[i]->ToString();
  }
  return out + ")";
}

// --- Helpers -----------------------------------------------------------------

void FlattenConjuncts(const ExprPtr& expr, std::vector<ExprPtr>* out) {
  if (expr == nullptr) return;
  const auto* conj = dynamic_cast<const ConjunctionExpr*>(expr.get());
  if (conj != nullptr && conj->kind() == ConjunctionExpr::Kind::kAnd) {
    for (const ExprPtr& child : conj->children()) {
      FlattenConjuncts(child, out);
    }
    return;
  }
  out->push_back(expr);
}

ExprPtr CombineConjuncts(std::vector<ExprPtr> conjuncts) {
  if (conjuncts.empty()) return nullptr;
  if (conjuncts.size() == 1) return conjuncts[0];
  return std::make_shared<ConjunctionExpr>(ConjunctionExpr::Kind::kAnd,
                                           std::move(conjuncts));
}

}  // namespace grfusion
