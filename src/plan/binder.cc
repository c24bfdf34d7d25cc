#include "plan/binder.h"

#include "common/string_util.h"

namespace grfusion {

std::optional<AggFunc> AggFuncFromName(const std::string& upper_name) {
  if (upper_name == "COUNT") return AggFunc::kCount;
  if (upper_name == "SUM") return AggFunc::kSum;
  if (upper_name == "MIN") return AggFunc::kMin;
  if (upper_name == "MAX") return AggFunc::kMax;
  if (upper_name == "AVG") return AggFunc::kAvg;
  return std::nullopt;
}

int Binder::RefInfo::SinglePath() const {
  if (path_mask == 0 || (path_mask & (path_mask - 1)) != 0) return -1;
  int idx = 0;
  uint64_t mask = path_mask;
  while ((mask & 1) == 0) {
    mask >>= 1;
    ++idx;
  }
  return idx;
}

int Binder::RefInfo::SingleRelational() const {
  if (relational_mask == 0 ||
      (relational_mask & (relational_mask - 1)) != 0) {
    return -1;
  }
  int idx = 0;
  uint64_t mask = relational_mask;
  while ((mask & 1) == 0) {
    mask >>= 1;
    ++idx;
  }
  return idx;
}

// --- Analysis -------------------------------------------------------------------

StatusOr<Binder::RefInfo> Binder::Analyze(const ParsedExpr& expr) const {
  RefInfo info;
  if (expr.kind == ParsedExpr::Kind::kRef) {
    int b = scope_->FindBinding(expr.ref[0].name);
    if (b >= 0 && scope_->binding(static_cast<size_t>(b)).is_path()) {
      info.path_mask |= 1ull << b;
      return info;
    }
    if (b >= 0) {
      info.relational_mask |= 1ull << b;
      return info;
    }
    if (expr.ref.size() == 1) {
      GRF_ASSIGN_OR_RETURN(auto resolved,
                           scope_->ResolveColumn("", expr.ref[0].name));
      info.relational_mask |= 1ull << resolved.binding;
      return info;
    }
    return Status::NotFound("unknown table or alias '" + expr.ref[0].name +
                            "'");
  }
  for (const ParsedExprPtr& child : expr.children) {
    GRF_ASSIGN_OR_RETURN(RefInfo child_info, Analyze(*child));
    info.relational_mask |= child_info.relational_mask;
    info.path_mask |= child_info.path_mask;
  }
  return info;
}

// --- Path-reference classification ------------------------------------------------

StatusOr<ElementAttr> Binder::ResolveEdgeAttr(const GraphView& gv,
                                              const std::string& name) const {
  ElementAttr attr;
  attr.kind = PathElementKind::kEdges;
  attr.display_name = name;
  if (EqualsIgnoreCase(name, "ID")) {
    attr.field = ElementField::kEdgeId;
    attr.type = ValueType::kBigInt;
    return attr;
  }
  if (EqualsIgnoreCase(name, "FROM") || EqualsIgnoreCase(name, "STARTVERTEX")) {
    attr.field = ElementField::kEdgeFrom;
    attr.type = ValueType::kBigInt;
    return attr;
  }
  if (EqualsIgnoreCase(name, "TO") || EqualsIgnoreCase(name, "ENDVERTEX")) {
    attr.field = ElementField::kEdgeTo;
    attr.type = ValueType::kBigInt;
    return attr;
  }
  int col = gv.ResolveEdgeAttribute(name);
  if (col < 0) {
    return Status::NotFound("edge attribute '" + name +
                            "' not defined by graph view '" + gv.name() + "'");
  }
  attr.field = ElementField::kSourceColumn;
  attr.column = col;
  attr.type = gv.edge_table()->schema().column(static_cast<size_t>(col)).type;
  return attr;
}

StatusOr<ElementAttr> Binder::ResolveVertexAttr(const GraphView& gv,
                                                const std::string& name) const {
  ElementAttr attr;
  attr.kind = PathElementKind::kVertexes;
  attr.display_name = name;
  if (EqualsIgnoreCase(name, "ID")) {
    attr.field = ElementField::kVertexId;
    attr.type = ValueType::kBigInt;
    return attr;
  }
  if (EqualsIgnoreCase(name, "FANOUT")) {
    attr.field = ElementField::kVertexFanOut;
    attr.type = ValueType::kBigInt;
    return attr;
  }
  if (EqualsIgnoreCase(name, "FANIN")) {
    attr.field = ElementField::kVertexFanIn;
    attr.type = ValueType::kBigInt;
    return attr;
  }
  int col = gv.ResolveVertexAttribute(name);
  if (col < 0) {
    return Status::NotFound("vertex attribute '" + name +
                            "' not defined by graph view '" + gv.name() + "'");
  }
  attr.field = ElementField::kSourceColumn;
  attr.column = col;
  attr.type =
      gv.vertex_table()->schema().column(static_cast<size_t>(col)).type;
  return attr;
}

StatusOr<std::optional<Binder::PathRef>> Binder::ClassifyPathRef(
    const ParsedExpr& expr) const {
  if (expr.kind != ParsedExpr::Kind::kRef) return std::optional<PathRef>();
  int b = scope_->FindBinding(expr.ref[0].name);
  if (b < 0 || !scope_->binding(static_cast<size_t>(b)).is_path()) {
    return std::optional<PathRef>();
  }
  PathRef out;
  out.binding = static_cast<size_t>(b);
  out.table_binding = &scope_->binding(out.binding);
  const GraphView& gv = *out.table_binding->gv;
  const auto& parts = expr.ref;

  if (parts[0].has_index) {
    return Status::InvalidArgument("cannot index a paths alias directly");
  }
  if (parts.size() == 1) {
    out.kind = PathRef::Kind::kBareAlias;
    return std::optional<PathRef>(out);
  }

  const RefPart& second = parts[1];
  auto need_len = [&](size_t n) -> Status {
    if (parts.size() != n) {
      return Status::InvalidArgument("malformed path reference '" +
                                     expr.ToString() + "'");
    }
    return Status::OK();
  };

  if (!second.has_index) {
    if (EqualsIgnoreCase(second.name, "LENGTH")) {
      GRF_RETURN_IF_ERROR(need_len(2));
      out.kind = PathRef::Kind::kProperty;
      out.property = PathProperty::kLength;
      return std::optional<PathRef>(out);
    }
    if (EqualsIgnoreCase(second.name, "PATHSTRING")) {
      GRF_RETURN_IF_ERROR(need_len(2));
      out.kind = PathRef::Kind::kProperty;
      out.property = PathProperty::kPathString;
      return std::optional<PathRef>(out);
    }
    if (EqualsIgnoreCase(second.name, "COST")) {
      GRF_RETURN_IF_ERROR(need_len(2));
      out.kind = PathRef::Kind::kProperty;
      out.property = PathProperty::kCost;
      return std::optional<PathRef>(out);
    }
    if (EqualsIgnoreCase(second.name, "STARTVERTEXID")) {
      GRF_RETURN_IF_ERROR(need_len(2));
      out.kind = PathRef::Kind::kProperty;
      out.property = PathProperty::kStartVertexId;
      return std::optional<PathRef>(out);
    }
    if (EqualsIgnoreCase(second.name, "ENDVERTEXID")) {
      GRF_RETURN_IF_ERROR(need_len(2));
      out.kind = PathRef::Kind::kProperty;
      out.property = PathProperty::kEndVertexId;
      return std::optional<PathRef>(out);
    }
    if (EqualsIgnoreCase(second.name, "STARTVERTEX") ||
        EqualsIgnoreCase(second.name, "ENDVERTEX")) {
      GRF_RETURN_IF_ERROR(need_len(3));
      out.start = EqualsIgnoreCase(second.name, "STARTVERTEX");
      if (EqualsIgnoreCase(parts[2].name, "ID")) {
        out.kind = PathRef::Kind::kProperty;
        out.property = out.start ? PathProperty::kStartVertexId
                                 : PathProperty::kEndVertexId;
        return std::optional<PathRef>(out);
      }
      out.kind = PathRef::Kind::kEndpointAttr;
      GRF_ASSIGN_OR_RETURN(out.attr, ResolveVertexAttr(gv, parts[2].name));
      return std::optional<PathRef>(out);
    }
    if (EqualsIgnoreCase(second.name, "EDGES") ||
        EqualsIgnoreCase(second.name, "VERTEXES") ||
        EqualsIgnoreCase(second.name, "VERTICES")) {
      // Un-indexed element collection: aggregate argument form.
      GRF_RETURN_IF_ERROR(need_len(3));
      out.kind = PathRef::Kind::kElementsNoIndex;
      if (EqualsIgnoreCase(second.name, "EDGES")) {
        GRF_ASSIGN_OR_RETURN(out.attr, ResolveEdgeAttr(gv, parts[2].name));
      } else {
        GRF_ASSIGN_OR_RETURN(out.attr, ResolveVertexAttr(gv, parts[2].name));
      }
      return std::optional<PathRef>(out);
    }
    return Status::NotFound("unknown path property '" + second.name + "'");
  }

  // Indexed element access: Edges[...] / Vertexes[...].
  bool edges = EqualsIgnoreCase(second.name, "EDGES");
  bool vertexes = EqualsIgnoreCase(second.name, "VERTEXES") ||
                  EqualsIgnoreCase(second.name, "VERTICES");
  if (!edges && !vertexes) {
    return Status::InvalidArgument("only Edges/Vertexes can be indexed in '" +
                                   expr.ToString() + "'");
  }
  GRF_RETURN_IF_ERROR(need_len(3));
  if (second.lo < 0 || (second.is_range && second.hi >= 0 &&
                        second.hi < second.lo)) {
    return Status::InvalidArgument("bad index range in '" + expr.ToString() +
                                   "'");
  }
  if (edges) {
    GRF_ASSIGN_OR_RETURN(out.attr, ResolveEdgeAttr(gv, parts[2].name));
  } else {
    GRF_ASSIGN_OR_RETURN(out.attr, ResolveVertexAttr(gv, parts[2].name));
  }
  out.lo = static_cast<size_t>(second.lo);
  if (second.is_range) {
    out.kind = PathRef::Kind::kElementsRange;
    out.hi = second.hi < 0 ? PathRangePredicateExpr::kOpenEnd
                           : static_cast<size_t>(second.hi);
  } else {
    out.kind = PathRef::Kind::kElementAttr;
    out.hi = out.lo;
  }
  return std::optional<PathRef>(out);
}

// --- Binding --------------------------------------------------------------------

StatusOr<ExprPtr> Binder::BindPathRef(const PathRef& ref) const {
  const size_t slot = ref.table_binding->path_slot;
  const GraphView* gv = ref.table_binding->gv;
  switch (ref.kind) {
    case PathRef::Kind::kBareAlias:
      return ExprPtr(std::make_shared<PathPropertyExpr>(
          slot, PathProperty::kPathString, ref.table_binding->alias));
    case PathRef::Kind::kProperty:
      return ExprPtr(std::make_shared<PathPropertyExpr>(
          slot, ref.property,
          ref.table_binding->alias + "." + PathPropertyName(ref.property)));
    case PathRef::Kind::kEndpointAttr:
      return ExprPtr(std::make_shared<PathEndpointAttrExpr>(slot, ref.start,
                                                            gv, ref.attr));
    case PathRef::Kind::kElementAttr:
      return ExprPtr(
          std::make_shared<PathElementAttrExpr>(slot, ref.lo, gv, ref.attr));
    case PathRef::Kind::kElementsRange:
      return Status::InvalidArgument(
          "a path element range reference is only valid on the left of a "
          "comparison, IN, or LIKE predicate");
    case PathRef::Kind::kElementsNoIndex:
      return Status::InvalidArgument(
          "an un-indexed Edges/Vertexes reference is only valid inside an "
          "aggregate function");
  }
  return Status::Internal("bad path ref kind");
}

StatusOr<ExprPtr> Binder::BindRef(const ParsedExpr& expr) const {
  GRF_ASSIGN_OR_RETURN(std::optional<PathRef> path_ref, ClassifyPathRef(expr));
  if (path_ref.has_value()) return BindPathRef(*path_ref);

  for (const RefPart& part : expr.ref) {
    if (part.has_index) {
      return Status::InvalidArgument("cannot index column reference '" +
                                     expr.ToString() + "'");
    }
  }
  if (expr.ref.size() == 1) {
    GRF_ASSIGN_OR_RETURN(auto resolved,
                         scope_->ResolveColumn("", expr.ref[0].name));
    return ExprPtr(std::make_shared<ColumnRefExpr>(
        resolved.global_index, resolved.type, resolved.display));
  }
  if (expr.ref.size() == 2) {
    GRF_ASSIGN_OR_RETURN(auto resolved, scope_->ResolveColumn(
                                            expr.ref[0].name,
                                            expr.ref[1].name));
    return ExprPtr(std::make_shared<ColumnRefExpr>(
        resolved.global_index, resolved.type, resolved.display));
  }
  return Status::InvalidArgument("cannot resolve reference '" +
                                 expr.ToString() + "'");
}

namespace {

std::optional<ScalarFunc> ScalarFuncFromName(const std::string& upper_name) {
  if (upper_name == "ABS") return ScalarFunc::kAbs;
  if (upper_name == "FLOOR") return ScalarFunc::kFloor;
  if (upper_name == "CEIL" || upper_name == "CEILING") return ScalarFunc::kCeil;
  if (upper_name == "SQRT") return ScalarFunc::kSqrt;
  if (upper_name == "LENGTH" || upper_name == "LEN") return ScalarFunc::kLength;
  if (upper_name == "UPPER") return ScalarFunc::kUpper;
  if (upper_name == "LOWER") return ScalarFunc::kLower;
  if (upper_name == "SUBSTR" || upper_name == "SUBSTRING") {
    return ScalarFunc::kSubstr;
  }
  if (upper_name == "COALESCE") return ScalarFunc::kCoalesce;
  return std::nullopt;
}

}  // namespace

StatusOr<ExprPtr> Binder::BindFunc(const ParsedExpr& expr) const {
  if (std::optional<ScalarFunc> scalar = ScalarFuncFromName(expr.func_name);
      scalar.has_value()) {
    if (expr.star_arg || expr.children.empty()) {
      return Status::InvalidArgument(expr.func_name +
                                     " requires argument expressions");
    }
    std::vector<ExprPtr> args;
    for (const ParsedExprPtr& child : expr.children) {
      GRF_ASSIGN_OR_RETURN(ExprPtr bound, Bind(*child));
      args.push_back(std::move(bound));
    }
    return ExprPtr(std::make_shared<ScalarFuncExpr>(*scalar, std::move(args)));
  }
  std::optional<AggFunc> agg = AggFuncFromName(expr.func_name);
  if (!agg.has_value()) {
    return Status::Unsupported("unknown function '" + expr.func_name + "'");
  }
  if (expr.star_arg || expr.children.empty()) {
    return Status::InvalidArgument(
        "relational aggregate " + expr.func_name +
        " is only allowed in the SELECT list of an aggregate query");
  }
  if (expr.children.size() != 1) {
    return Status::InvalidArgument(expr.func_name +
                                   " takes exactly one argument");
  }
  GRF_ASSIGN_OR_RETURN(std::optional<PathRef> ref,
                       ClassifyPathRef(*expr.children[0]));
  if (ref.has_value() && ref->kind == PathRef::Kind::kElementsNoIndex) {
    // SUM(PS.Edges.Weight)-style per-path aggregate (paper §4).
    return ExprPtr(std::make_shared<PathAggregateExpr>(
        ref->table_binding->path_slot, ref->table_binding->gv, ref->attr,
        *agg));
  }
  return Status::InvalidArgument(
      "relational aggregate " + expr.func_name +
      " is only allowed in the SELECT list of an aggregate query");
}

void Binder::InferParamType(const ExprPtr& maybe_param,
                            const ExprPtr& other) const {
  if (params_ == nullptr) return;
  const auto* param = dynamic_cast<const ParameterExpr*>(maybe_param.get());
  if (param == nullptr) return;
  if (params_->expected[param->index()] != ValueType::kNull) return;
  ValueType other_type = other->result_type();
  if (other_type != ValueType::kNull) {
    params_->expected[param->index()] = other_type;
  }
}

void Binder::ForceParamType(const ExprPtr& maybe_param, ValueType type) const {
  if (params_ == nullptr) return;
  const auto* param = dynamic_cast<const ParameterExpr*>(maybe_param.get());
  if (param == nullptr) return;
  if (params_->expected[param->index()] == ValueType::kNull) {
    params_->expected[param->index()] = type;
  }
}

StatusOr<ExprPtr> Binder::Bind(const ParsedExpr& expr) const {
  switch (expr.kind) {
    case ParsedExpr::Kind::kLiteral:
      return ExprPtr(std::make_shared<ConstantExpr>(expr.literal));
    case ParsedExpr::Kind::kStar:
      return Status::InvalidArgument("'*' is only valid in the SELECT list");
    case ParsedExpr::Kind::kParameter: {
      if (params_ == nullptr) {
        return Status::InvalidArgument(
            "parameter placeholders require a prepared statement");
      }
      params_->EnsureSlot(static_cast<size_t>(expr.param_index));
      return ExprPtr(std::make_shared<ParameterExpr>(
          params_, static_cast<size_t>(expr.param_index)));
    }
    case ParsedExpr::Kind::kRef:
      return BindRef(expr);
    case ParsedExpr::Kind::kNegate: {
      GRF_ASSIGN_OR_RETURN(ExprPtr child, Bind(*expr.children[0]));
      return ExprPtr(std::make_shared<NegateExpr>(std::move(child)));
    }
    case ParsedExpr::Kind::kNot: {
      GRF_ASSIGN_OR_RETURN(ExprPtr child, Bind(*expr.children[0]));
      return ExprPtr(std::make_shared<NotExpr>(std::move(child)));
    }
    case ParsedExpr::Kind::kArith: {
      GRF_ASSIGN_OR_RETURN(ExprPtr left, Bind(*expr.children[0]));
      GRF_ASSIGN_OR_RETURN(ExprPtr right, Bind(*expr.children[1]));
      InferParamType(left, right);
      InferParamType(right, left);
      return ExprPtr(std::make_shared<ArithmeticExpr>(
          expr.arith_op, std::move(left), std::move(right)));
    }
    case ParsedExpr::Kind::kCompare: {
      // Quantified range predicate? (range ref on either side)
      GRF_ASSIGN_OR_RETURN(auto pred, TryBindElementPredicate(expr));
      if (pred != nullptr) return ExprPtr(pred);
      GRF_ASSIGN_OR_RETURN(ExprPtr left, Bind(*expr.children[0]));
      GRF_ASSIGN_OR_RETURN(ExprPtr right, Bind(*expr.children[1]));
      InferParamType(left, right);
      InferParamType(right, left);
      return ExprPtr(std::make_shared<CompareExpr>(
          expr.compare_op, std::move(left), std::move(right)));
    }
    case ParsedExpr::Kind::kAnd:
    case ParsedExpr::Kind::kOr: {
      std::vector<ExprPtr> children;
      children.reserve(expr.children.size());
      for (const ParsedExprPtr& child : expr.children) {
        GRF_ASSIGN_OR_RETURN(ExprPtr bound, Bind(*child));
        children.push_back(std::move(bound));
      }
      return ExprPtr(std::make_shared<ConjunctionExpr>(
          expr.kind == ParsedExpr::Kind::kAnd ? ConjunctionExpr::Kind::kAnd
                                              : ConjunctionExpr::Kind::kOr,
          std::move(children)));
    }
    case ParsedExpr::Kind::kFunc:
      return BindFunc(expr);
    case ParsedExpr::Kind::kIn: {
      GRF_ASSIGN_OR_RETURN(auto pred, TryBindElementPredicate(expr));
      if (pred != nullptr) return ExprPtr(pred);
      GRF_ASSIGN_OR_RETURN(ExprPtr child, Bind(*expr.children[0]));
      std::vector<ExprPtr> list;
      for (size_t i = 1; i < expr.children.size(); ++i) {
        GRF_ASSIGN_OR_RETURN(ExprPtr item, Bind(*expr.children[i]));
        InferParamType(item, child);
        InferParamType(child, item);
        list.push_back(std::move(item));
      }
      return ExprPtr(std::make_shared<InListExpr>(std::move(child),
                                                  std::move(list),
                                                  expr.negated));
    }
    case ParsedExpr::Kind::kIsNull: {
      GRF_ASSIGN_OR_RETURN(ExprPtr child, Bind(*expr.children[0]));
      return ExprPtr(std::make_shared<IsNullExpr>(std::move(child),
                                                  expr.negated));
    }
    case ParsedExpr::Kind::kLike: {
      GRF_ASSIGN_OR_RETURN(auto pred, TryBindElementPredicate(expr));
      if (pred != nullptr) return ExprPtr(pred);
      GRF_ASSIGN_OR_RETURN(ExprPtr child, Bind(*expr.children[0]));
      GRF_ASSIGN_OR_RETURN(ExprPtr pattern, Bind(*expr.children[1]));
      ForceParamType(pattern, ValueType::kVarchar);
      ForceParamType(child, ValueType::kVarchar);
      return ExprPtr(std::make_shared<LikeExpr>(
          std::move(child), std::move(pattern), expr.negated));
    }
  }
  return Status::Internal("bad parsed expression kind");
}

StatusOr<std::shared_ptr<const PathRangePredicateExpr>>
Binder::TryBindElementPredicate(const ParsedExpr& conjunct) const {
  using Result = std::shared_ptr<const PathRangePredicateExpr>;
  const ParsedExpr* lhs = nullptr;
  RangePredicateOp op = RangePredicateOp::kCompare;
  CompareOp compare_op = CompareOp::kEq;
  std::vector<const ParsedExpr*> rhs_parsed;

  switch (conjunct.kind) {
    case ParsedExpr::Kind::kCompare:
      lhs = conjunct.children[0].get();
      compare_op = conjunct.compare_op;
      rhs_parsed.push_back(conjunct.children[1].get());
      break;
    case ParsedExpr::Kind::kIn:
      if (conjunct.negated) return Result(nullptr);
      op = RangePredicateOp::kIn;
      lhs = conjunct.children[0].get();
      for (size_t i = 1; i < conjunct.children.size(); ++i) {
        rhs_parsed.push_back(conjunct.children[i].get());
      }
      break;
    case ParsedExpr::Kind::kLike:
      if (conjunct.negated) return Result(nullptr);
      op = RangePredicateOp::kLike;
      lhs = conjunct.children[0].get();
      rhs_parsed.push_back(conjunct.children[1].get());
      break;
    default:
      return Result(nullptr);
  }

  GRF_ASSIGN_OR_RETURN(std::optional<PathRef> ref, ClassifyPathRef(*lhs));
  bool mirrored = false;
  if ((!ref.has_value() || (ref->kind != PathRef::Kind::kElementsRange &&
                            ref->kind != PathRef::Kind::kElementAttr)) &&
      conjunct.kind == ParsedExpr::Kind::kCompare) {
    // Try the mirrored form: <expr> <op> PS.Edges[..].attr.
    GRF_ASSIGN_OR_RETURN(ref, ClassifyPathRef(*conjunct.children[1]));
    if (ref.has_value() && (ref->kind == PathRef::Kind::kElementsRange ||
                            ref->kind == PathRef::Kind::kElementAttr)) {
      mirrored = true;
      rhs_parsed.clear();
      rhs_parsed.push_back(conjunct.children[0].get());
      switch (compare_op) {
        case CompareOp::kLt: compare_op = CompareOp::kGt; break;
        case CompareOp::kLe: compare_op = CompareOp::kGe; break;
        case CompareOp::kGt: compare_op = CompareOp::kLt; break;
        case CompareOp::kGe: compare_op = CompareOp::kLe; break;
        default: break;
      }
    }
  }
  (void)mirrored;
  if (!ref.has_value() || (ref->kind != PathRef::Kind::kElementsRange &&
                           ref->kind != PathRef::Kind::kElementAttr)) {
    return Result(nullptr);
  }

  // The right-hand sides must not reference any path (they are evaluated
  // against the probing outer row while the traversal runs).
  std::vector<ExprPtr> rhs;
  for (const ParsedExpr* parsed : rhs_parsed) {
    GRF_ASSIGN_OR_RETURN(RefInfo info, Analyze(*parsed));
    if (info.HasPaths()) return Result(nullptr);
    GRF_ASSIGN_OR_RETURN(ExprPtr bound, Bind(*parsed));
    rhs.push_back(std::move(bound));
  }
  return Result(std::make_shared<PathRangePredicateExpr>(
      ref->table_binding->path_slot, ref->lo, ref->hi, ref->table_binding->gv,
      ref->attr, op, compare_op, std::move(rhs)));
}

}  // namespace grfusion
