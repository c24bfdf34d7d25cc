#include "plan/planner.h"

#include <algorithm>
#include <cmath>
#include <thread>
#include <unordered_map>

#include "common/string_util.h"
#include "exec/agg_ops.h"
#include "exec/filter_ops.h"
#include "exec/join_ops.h"
#include "exec/scan_ops.h"
#include "graphexec/graph_ops.h"

namespace grfusion {

size_t PlannerOptions::effective_parallelism() const {
  if (max_parallelism != 0) return max_parallelism;
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

std::string PlannerOptions::PlanShapeKey() const {
  return StrFormat(
      "fp=%d,li=%d,fml=%zu,ix=%d,rf=%d,tv=%d,mp=%zu,pmr=%zu,pms=%zu,fb=%d,"
      "fmb=%zu",
      enable_filter_pushdown ? 1 : 0, enable_length_inference ? 1 : 0,
      fallback_max_length, enable_index_scan ? 1 : 0,
      enable_reachability_fastpath ? 1 : 0, static_cast<int>(default_traversal),
      max_parallelism, parallel_min_rows, parallel_min_starts,
      enable_frontier_bfs ? 1 : 0, frontier_min_batch);
}

namespace {

void FlattenParsedConjuncts(const ParsedExpr* expr,
                            std::vector<const ParsedExpr*>* out) {
  if (expr == nullptr) return;
  if (expr->kind == ParsedExpr::Kind::kAnd) {
    for (const ParsedExprPtr& child : expr->children) {
      FlattenParsedConjuncts(child.get(), out);
    }
    return;
  }
  out->push_back(expr);
}

/// Recognizes `PS.Length <op> <integer literal>` (either orientation) on a
/// bound comparison and tightens [min, max] accordingly (§6.1).
bool MatchLengthBound(const Expression& bound, size_t slot, size_t* min_len,
                      size_t* max_len) {
  const auto* cmp = dynamic_cast<const CompareExpr*>(&bound);
  if (cmp == nullptr) return false;
  const Expression* lhs = cmp->left().get();
  const Expression* rhs = cmp->right().get();
  CompareOp op = cmp->op();
  const auto* prop = dynamic_cast<const PathPropertyExpr*>(lhs);
  const auto* constant = dynamic_cast<const ConstantExpr*>(rhs);
  if (prop == nullptr || constant == nullptr) {
    // Mirrored: <literal> <op> PS.Length.
    prop = dynamic_cast<const PathPropertyExpr*>(rhs);
    constant = dynamic_cast<const ConstantExpr*>(lhs);
    switch (op) {
      case CompareOp::kLt: op = CompareOp::kGt; break;
      case CompareOp::kLe: op = CompareOp::kGe; break;
      case CompareOp::kGt: op = CompareOp::kLt; break;
      case CompareOp::kGe: op = CompareOp::kLe; break;
      default: break;
    }
  }
  if (prop == nullptr || constant == nullptr) return false;
  if (prop->property() != PathProperty::kLength || prop->slot() != slot) {
    return false;
  }
  if (constant->value().type() != ValueType::kBigInt) return false;
  int64_t c = constant->value().AsBigInt();
  auto raise_min = [&](int64_t v) {
    if (v > 0 && static_cast<size_t>(v) > *min_len) {
      *min_len = static_cast<size_t>(v);
    }
  };
  auto lower_max = [&](int64_t v) {
    size_t bound_v = v < 0 ? 0 : static_cast<size_t>(v);
    if (bound_v < *max_len) *max_len = bound_v;
  };
  switch (op) {
    case CompareOp::kEq:
      raise_min(c);
      lower_max(c);
      return true;
    case CompareOp::kLt:
      lower_max(c - 1);
      return true;
    case CompareOp::kLe:
      lower_max(c);
      return true;
    case CompareOp::kGt:
      raise_min(c + 1);
      return true;
    case CompareOp::kGe:
      raise_min(c);
      return true;
    case CompareOp::kNe:
      return false;  // Not a contiguous window; leave as residual.
  }
  return false;
}

/// Recognizes `SUM(PS.Edges.attr) <op> <expr without paths>` on a bound
/// comparison (either orientation) and produces the pushable sum bound.
bool MatchSumBound(const Expression& bound, size_t slot,
                   TraversalSpec::SumBound* out) {
  const auto* cmp = dynamic_cast<const CompareExpr*>(&bound);
  if (cmp == nullptr) return false;
  CompareOp op = cmp->op();
  const auto* agg = dynamic_cast<const PathAggregateExpr*>(cmp->left().get());
  ExprPtr other = cmp->right();
  if (agg == nullptr) {
    agg = dynamic_cast<const PathAggregateExpr*>(cmp->right().get());
    other = cmp->left();
    switch (op) {
      case CompareOp::kLt: op = CompareOp::kGt; break;
      case CompareOp::kLe: op = CompareOp::kGe; break;
      case CompareOp::kGt: op = CompareOp::kLt; break;
      case CompareOp::kGe: op = CompareOp::kLe; break;
      default: break;
    }
  }
  if (agg == nullptr || agg->slot() != slot ||
      agg->func() != AggFunc::kSum ||
      agg->attr().kind != PathElementKind::kEdges) {
    return false;
  }
  if (op == CompareOp::kNe) return false;
  out->attr = agg->attr();
  out->op = op;
  out->bound = std::move(other);
  return true;
}

/// True when any node is a relational aggregate call (COUNT(*), SUM(col),
/// COUNT(P), ... — everything except the per-path SUM(PS.Edges.attr) form).
StatusOr<bool> HasRelationalAgg(const ParsedExpr& expr, const Binder& binder) {
  if (expr.kind == ParsedExpr::Kind::kFunc &&
      AggFuncFromName(expr.func_name).has_value()) {
    if (expr.star_arg || expr.children.empty()) return true;
    GRF_ASSIGN_OR_RETURN(auto ref, binder.ClassifyPathRef(*expr.children[0]));
    if (ref.has_value() &&
        ref->kind == Binder::PathRef::Kind::kElementsNoIndex) {
      return false;  // Path aggregate: a plain scalar.
    }
    return true;
  }
  for (const ParsedExprPtr& child : expr.children) {
    GRF_ASSIGN_OR_RETURN(bool has, HasRelationalAgg(*child, binder));
    if (has) return true;
  }
  return false;
}

/// Collects the distinct relational aggregate calls of an expression tree,
/// keyed by their printed form.
Status CollectAggCalls(const ParsedExpr& expr, const Binder& binder,
                       std::unordered_map<std::string, size_t>* index,
                       std::vector<AggregateSpec>* specs) {
  if (expr.kind == ParsedExpr::Kind::kFunc &&
      AggFuncFromName(expr.func_name).has_value()) {
    bool path_agg = false;
    if (!expr.star_arg && !expr.children.empty()) {
      GRF_ASSIGN_OR_RETURN(auto ref,
                           binder.ClassifyPathRef(*expr.children[0]));
      path_agg = ref.has_value() &&
                 ref->kind == Binder::PathRef::Kind::kElementsNoIndex;
    }
    if (!path_agg) {
      std::string key = expr.ToString();
      if (index->count(key) == 0) {
        AggregateSpec spec;
        spec.func = *AggFuncFromName(expr.func_name);
        spec.output_name = key;
        if (!expr.star_arg) {
          if (expr.children.size() != 1) {
            return Status::InvalidArgument(expr.func_name +
                                           " takes exactly one argument");
          }
          GRF_ASSIGN_OR_RETURN(spec.arg, binder.Bind(*expr.children[0]));
        }
        index->emplace(std::move(key), specs->size());
        specs->push_back(std::move(spec));
      }
      return Status::OK();
    }
  }
  for (const ParsedExprPtr& child : expr.children) {
    GRF_RETURN_IF_ERROR(CollectAggCalls(*child, binder, index, specs));
  }
  return Status::OK();
}

/// Rebinds a select/order expression of an aggregate query against the
/// aggregate operator's output (group keys at [0, n), aggregates after).
StatusOr<ExprPtr> TransformPostAgg(
    const ParsedExpr& expr, const Binder& binder,
    const std::vector<std::string>& group_texts,
    const std::unordered_map<std::string, size_t>& agg_index,
    const Schema& agg_schema) {
  std::string text = expr.ToString();
  for (size_t i = 0; i < group_texts.size(); ++i) {
    if (EqualsIgnoreCase(group_texts[i], text)) {
      return ExprPtr(std::make_shared<ColumnRefExpr>(
          i, agg_schema.column(i).type, agg_schema.column(i).name));
    }
  }
  auto it = agg_index.find(text);
  if (it != agg_index.end()) {
    size_t col = group_texts.size() + it->second;
    return ExprPtr(std::make_shared<ColumnRefExpr>(
        col, agg_schema.column(col).type, agg_schema.column(col).name));
  }
  // Recurse through composite nodes, rebuilding each over the transformed
  // children.
  auto recurse = [&](size_t i) {
    return TransformPostAgg(*expr.children[i], binder, group_texts, agg_index,
                            agg_schema);
  };
  switch (expr.kind) {
    case ParsedExpr::Kind::kLiteral:
      return ExprPtr(std::make_shared<ConstantExpr>(expr.literal));
    case ParsedExpr::Kind::kArith: {
      GRF_ASSIGN_OR_RETURN(ExprPtr left, recurse(0));
      GRF_ASSIGN_OR_RETURN(ExprPtr right, recurse(1));
      return ExprPtr(std::make_shared<ArithmeticExpr>(
          expr.arith_op, std::move(left), std::move(right)));
    }
    case ParsedExpr::Kind::kNegate: {
      GRF_ASSIGN_OR_RETURN(ExprPtr child, recurse(0));
      return ExprPtr(std::make_shared<NegateExpr>(std::move(child)));
    }
    case ParsedExpr::Kind::kNot: {
      GRF_ASSIGN_OR_RETURN(ExprPtr child, recurse(0));
      return ExprPtr(std::make_shared<NotExpr>(std::move(child)));
    }
    case ParsedExpr::Kind::kCompare: {
      GRF_ASSIGN_OR_RETURN(ExprPtr left, recurse(0));
      GRF_ASSIGN_OR_RETURN(ExprPtr right, recurse(1));
      return ExprPtr(std::make_shared<CompareExpr>(
          expr.compare_op, std::move(left), std::move(right)));
    }
    case ParsedExpr::Kind::kAnd:
    case ParsedExpr::Kind::kOr: {
      std::vector<ExprPtr> children;
      for (size_t i = 0; i < expr.children.size(); ++i) {
        GRF_ASSIGN_OR_RETURN(ExprPtr child, recurse(i));
        children.push_back(std::move(child));
      }
      return ExprPtr(std::make_shared<ConjunctionExpr>(
          expr.kind == ParsedExpr::Kind::kAnd ? ConjunctionExpr::Kind::kAnd
                                              : ConjunctionExpr::Kind::kOr,
          std::move(children)));
    }
    case ParsedExpr::Kind::kIsNull: {
      GRF_ASSIGN_OR_RETURN(ExprPtr child, recurse(0));
      return ExprPtr(std::make_shared<IsNullExpr>(std::move(child),
                                                  expr.negated));
    }
    case ParsedExpr::Kind::kIn: {
      GRF_ASSIGN_OR_RETURN(ExprPtr child, recurse(0));
      std::vector<ExprPtr> list;
      for (size_t i = 1; i < expr.children.size(); ++i) {
        GRF_ASSIGN_OR_RETURN(ExprPtr item, recurse(i));
        list.push_back(std::move(item));
      }
      return ExprPtr(std::make_shared<InListExpr>(std::move(child),
                                                  std::move(list),
                                                  expr.negated));
    }
    case ParsedExpr::Kind::kLike: {
      GRF_ASSIGN_OR_RETURN(ExprPtr child, recurse(0));
      GRF_ASSIGN_OR_RETURN(ExprPtr pattern, recurse(1));
      return ExprPtr(std::make_shared<LikeExpr>(std::move(child),
                                                std::move(pattern),
                                                expr.negated));
    }
    default:
      return Status::InvalidArgument(
          "expression '" + text +
          "' must appear in GROUP BY or be an aggregate");
  }
}

std::string SelectItemName(const SelectItem& item) {
  if (!item.alias.empty()) return item.alias;
  if (item.expr->kind == ParsedExpr::Kind::kRef) {
    return item.expr->ref.back().name;
  }
  return item.expr->ToString();
}

}  // namespace

// --- Scope -----------------------------------------------------------------------

StatusOr<BindingScope> Planner::BuildScope(const SelectStmt& stmt) const {
  BindingScope scope;
  for (const FromItem& item : stmt.from) {
    if (scope.FindBinding(item.alias) >= 0) {
      return Status::InvalidArgument("duplicate alias '" + item.alias + "'");
    }
    TableBinding binding;
    binding.alias = item.alias;
    binding.hint = item.hint;
    binding.hint_attribute = item.hint_attribute;
    if (item.accessor == GraphAccessor::kNone) {
      const Table* table = catalog_->FindTable(item.source);
      if (table != nullptr) {
        binding.kind = TableBinding::Kind::kTable;
        binding.table = table;
        binding.visible = table->schema();
      } else if (const VirtualTable* vtable =
                     catalog_->FindVirtualTable(item.source);
                 vtable != nullptr) {
        binding.kind = TableBinding::Kind::kVirtual;
        binding.vtable = vtable;
        binding.visible = vtable->schema();
      } else {
        return Status::NotFound("table '" + item.source + "' does not exist");
      }
    } else {
      const GraphView* gv = catalog_->FindGraphView(item.source);
      if (gv == nullptr) {
        return Status::NotFound("graph view '" + item.source +
                                "' does not exist");
      }
      binding.gv = gv;
      switch (item.accessor) {
        case GraphAccessor::kVertexes:
          binding.kind = TableBinding::Kind::kVertexes;
          binding.visible = gv->ExposedVertexSchema();
          break;
        case GraphAccessor::kEdges:
          binding.kind = TableBinding::Kind::kEdges;
          binding.visible = gv->ExposedEdgeSchema();
          break;
        case GraphAccessor::kPaths:
          binding.kind = TableBinding::Kind::kPaths;
          break;
        default:
          return Status::Internal("bad accessor");
      }
    }
    if (binding.kind != TableBinding::Kind::kPaths &&
        item.hint != TraversalHint::kNone) {
      return Status::InvalidArgument(
          "traversal hints only apply to <graph view>.PATHS items");
    }
    scope.AddBinding(std::move(binding));
  }
  if (scope.NumBindings() == 0) {
    return Status::InvalidArgument("FROM clause is empty");
  }
  if (scope.NumBindings() > 64) {
    return Status::Unsupported("more than 64 FROM items");
  }
  return scope;
}

OperatorPtr Planner::MakeScanLeaf(const TableBinding& binding, ExprPtr qualifier,
                                  ExprPtr index_key, const HashIndex* index,
                                  const RowLayout& layout,
                                  ExprPtr vertex_probe) const {
  switch (binding.kind) {
    case TableBinding::Kind::kTable:
      if (index != nullptr) {
        return std::make_unique<IndexScanOp>(binding.table, index,
                                             std::move(index_key),
                                             std::move(qualifier), layout,
                                             binding.offset);
      }
      return std::make_unique<SeqScanOp>(binding.table, std::move(qualifier),
                                         layout, binding.offset);
    case TableBinding::Kind::kVertexes:
      return std::make_unique<VertexScanOp>(binding.gv, std::move(qualifier),
                                            layout, binding.offset,
                                            std::move(vertex_probe));
    case TableBinding::Kind::kEdges:
      return std::make_unique<EdgeScanOp>(binding.gv, std::move(qualifier),
                                          layout, binding.offset);
    case TableBinding::Kind::kVirtual:
      return std::make_unique<VirtualScanOp>(binding.vtable,
                                             std::move(qualifier), layout,
                                             binding.offset);
    case TableBinding::Kind::kPaths:
      break;
  }
  return nullptr;
}

// --- PlanSelect ------------------------------------------------------------------

StatusOr<PlannedQuery> Planner::PlanSelect(const SelectStmt& stmt,
                                           ParamSet* params) const {
  GRF_ASSIGN_OR_RETURN(BindingScope scope, BuildScope(stmt));
  Binder binder(&scope, params);
  RowLayout layout{scope.combined_schema(), scope.path_slots()};

  // ---- 1. Gather and analyze WHERE conjuncts.
  std::vector<const ParsedExpr*> parsed_conjuncts;
  FlattenParsedConjuncts(stmt.where.get(), &parsed_conjuncts);
  std::vector<Conjunct> conjuncts;
  conjuncts.reserve(parsed_conjuncts.size());
  for (const ParsedExpr* parsed : parsed_conjuncts) {
    Conjunct c;
    c.parsed = parsed;
    GRF_ASSIGN_OR_RETURN(c.info, binder.Analyze(*parsed));
    conjuncts.push_back(std::move(c));
  }

  // ---- 2. Per-binding plan state.
  const size_t n = scope.NumBindings();
  std::vector<std::vector<ExprPtr>> local_quals(n);
  std::vector<ExprPtr> index_keys(n);
  std::vector<const HashIndex*> index_choices(n);
  std::vector<ExprPtr> vertex_probes(n);  ///< V.ID = const fast path.
  std::vector<PathPlan> path_plans(n);
  for (size_t i = 0; i < n; ++i) {
    const TableBinding& b = scope.binding(i);
    if (!b.is_path()) continue;
    path_plans[i].spec = std::make_shared<TraversalSpec>();
    path_plans[i].spec->gv = b.gv;
    path_plans[i].spec->path_slot = b.path_slot;
    path_plans[i].spec->push_filters = options_.enable_filter_pushdown;
  }

  // Index of the latest path binding a conjunct's path_mask mentions (its
  // probe happens last, so mixed path predicates evaluate there).
  auto latest_path = [&](uint64_t path_mask) -> size_t {
    size_t latest = 0;
    for (size_t i = 0; i < n; ++i) {
      if (path_mask & (1ull << i)) latest = i;
    }
    return latest;
  };

  // ---- 3. Classify conjuncts.
  for (Conjunct& c : conjuncts) {
    if (c.info.HasPaths()) {
      size_t p = latest_path(c.info.path_mask);
      PathPlan& plan = path_plans[p];
      TraversalSpec& spec = *plan.spec;
      const bool single_path = c.info.SinglePath() == static_cast<int>(p);

      GRF_ASSIGN_OR_RETURN(ExprPtr bound, binder.Bind(*c.parsed));

      // Start / end vertex binding: PS.StartVertex.Id = <probe expr>, where
      // the probe side may reference relations and EARLIER path aliases
      // (their slots are already populated in the outer row when this path
      // is probed) — this is how paths self-join efficiently.
      if (const auto* cmp = dynamic_cast<const CompareExpr*>(bound.get());
          cmp != nullptr && cmp->op() == CompareOp::kEq) {
        const Expression* sides[2] = {cmp->left().get(), cmp->right().get()};
        const ParsedExpr* parsed_sides[2] = {c.parsed->children[0].get(),
                                             c.parsed->children[1].get()};
        const uint64_t later_mask = ~((1ull << p) - 1);  // p and beyond.
        bool matched = false;
        for (int s = 0; s < 2 && !matched; ++s) {
          const auto* prop = dynamic_cast<const PathPropertyExpr*>(sides[s]);
          if (prop == nullptr || prop->slot() != spec.path_slot) continue;
          GRF_ASSIGN_OR_RETURN(Binder::RefInfo other_info,
                               binder.Analyze(*parsed_sides[1 - s]));
          if ((other_info.path_mask & later_mask) != 0) continue;
          ExprPtr other = s == 0 ? cmp->right() : cmp->left();
          if (prop->property() == PathProperty::kStartVertexId &&
              spec.start_vertex_expr == nullptr) {
            spec.start_vertex_expr = std::move(other);
            matched = true;
          } else if (prop->property() == PathProperty::kEndVertexId &&
                     spec.end_vertex_expr == nullptr) {
            spec.end_vertex_expr = std::move(other);
            matched = true;
          }
        }
        if (matched) {
          c.consumed = true;
          continue;
        }
      }

      if (single_path) {
        // Length window inference (§6.1).
        if (options_.enable_length_inference &&
            MatchLengthBound(*bound, spec.path_slot, &spec.min_length,
                             &spec.max_length)) {
          plan.has_length_bound = true;
          c.consumed = true;
          continue;
        }
        // Pushed-down sum bounds (§6.2).
        TraversalSpec::SumBound sum_bound;
        if (MatchSumBound(*bound, spec.path_slot, &sum_bound)) {
          spec.sum_bounds.push_back(std::move(sum_bound));
          c.consumed = true;
          continue;
        }
        // Quantified / single-element predicates, pushed ahead of the scan
        // (§6.2).
        GRF_ASSIGN_OR_RETURN(auto element_pred,
                             binder.TryBindElementPredicate(*c.parsed));
        if (element_pred != nullptr &&
            element_pred->slot() == spec.path_slot) {
          if (options_.enable_length_inference) {
            // Implicit length inference from the predicate's window.
            size_t lo = element_pred->lo();
            size_t hi = element_pred->hi();
            size_t min_needed =
                element_pred->attr().kind == PathElementKind::kEdges ? lo + 1
                                                                     : lo;
            if (hi != PathRangePredicateExpr::kOpenEnd) {
              size_t closed_needed =
                  element_pred->attr().kind == PathElementKind::kEdges
                      ? hi + 1
                      : hi;
              min_needed = std::max(min_needed, closed_needed);
            }
            if (min_needed > spec.min_length) spec.min_length = min_needed;
          }
          spec.element_preds.push_back(std::move(element_pred));
          c.consumed = true;
          continue;
        }
      }
      // Anything else referencing paths: residual on the latest path probe.
      path_plans[p].residual.push_back(std::move(bound));
      c.consumed = true;
    }
  }

  // Length predicates were diverted to residual when inference is disabled;
  // without a window the traversal still needs a depth cap to terminate.
  for (size_t i = 0; i < n; ++i) {
    if (!scope.binding(i).is_path()) continue;
    TraversalSpec& spec = *path_plans[i].spec;
    if (!options_.enable_length_inference &&
        spec.max_length == kNoMaxLength) {
      spec.max_length = options_.fallback_max_length;
    }
  }

  // ---- 4. Local (single relational binding) conjuncts -> scan qualifiers,
  //          with index selection for `column = constant`.
  for (Conjunct& c : conjuncts) {
    if (c.consumed || c.info.HasPaths()) continue;
    int b = c.info.SingleRelational();
    if (b < 0) continue;
    const TableBinding& binding = scope.binding(static_cast<size_t>(b));
    // Try `col = constant` as an index probe (tables) or as a topology
    // hash-map probe (`V.ID = constant` on a vertex scan).
    if (options_.enable_index_scan && index_choices[b] == nullptr &&
        vertex_probes[b] == nullptr &&
        (binding.kind == TableBinding::Kind::kTable ||
         binding.kind == TableBinding::Kind::kVertexes) &&
        c.parsed->kind == ParsedExpr::Kind::kCompare &&
        c.parsed->compare_op == CompareOp::kEq) {
      for (int s = 0; s < 2; ++s) {
        const ParsedExpr& ref_side = *c.parsed->children[s];
        const ParsedExpr& other_side = *c.parsed->children[1 - s];
        if (ref_side.kind != ParsedExpr::Kind::kRef) continue;
        GRF_ASSIGN_OR_RETURN(Binder::RefInfo other_info,
                             binder.Analyze(other_side));
        if (!other_info.Empty()) continue;
        GRF_ASSIGN_OR_RETURN(ExprPtr ref_bound, binder.Bind(ref_side));
        const auto* col = dynamic_cast<const ColumnRefExpr*>(ref_bound.get());
        if (col == nullptr) continue;
        size_t local = col->index() - binding.offset;
        if (binding.kind == TableBinding::Kind::kVertexes) {
          if (local != 0) continue;  // Only ID (exposed column 0) is mapped.
          GRF_ASSIGN_OR_RETURN(vertex_probes[b], binder.Bind(other_side));
          binder.InferParamType(vertex_probes[b], ref_bound);
          break;
        }
        const HashIndex* index = binding.table->FindIndexOnColumn(local);
        if (index == nullptr) continue;
        GRF_ASSIGN_OR_RETURN(index_keys[b], binder.Bind(other_side));
        binder.InferParamType(index_keys[b], ref_bound);
        index_choices[b] = index;
        break;
      }
      if (index_choices[b] != nullptr || vertex_probes[b] != nullptr) {
        c.consumed = true;
        continue;
      }
    }
    GRF_ASSIGN_OR_RETURN(ExprPtr bound, binder.Bind(*c.parsed));
    local_quals[static_cast<size_t>(b)].push_back(std::move(bound));
    c.consumed = true;
  }

  // ---- 5. Relational join tree (left-deep, FROM order; §5.3 step 1).
  OperatorPtr tree;
  uint64_t bound_mask = 0;

  auto sweep_filters = [&](OperatorPtr current) -> StatusOr<OperatorPtr> {
    std::vector<ExprPtr> applicable;
    for (Conjunct& c : conjuncts) {
      if (c.consumed || c.info.HasPaths()) continue;
      if ((c.info.relational_mask & ~bound_mask) != 0) continue;
      GRF_ASSIGN_OR_RETURN(ExprPtr bound_expr, binder.Bind(*c.parsed));
      applicable.push_back(std::move(bound_expr));
      c.consumed = true;
    }
    if (applicable.empty()) return current;
    return OperatorPtr(std::make_unique<FilterOp>(
        std::move(current), CombineConjuncts(std::move(applicable))));
  };

  for (size_t i = 0; i < n; ++i) {
    const TableBinding& binding = scope.binding(i);
    if (binding.is_path()) continue;
    OperatorPtr leaf = MakeScanLeaf(
        binding, CombineConjuncts(std::move(local_quals[i])),
        std::move(index_keys[i]), index_choices[i], layout,
        std::move(vertex_probes[i]));
    if (tree == nullptr) {
      tree = std::move(leaf);
    } else {
      // Find equi-join conjuncts usable at this step.
      std::vector<ExprPtr> left_keys;
      std::vector<ExprPtr> right_keys;
      for (Conjunct& c : conjuncts) {
        if (c.consumed || c.info.HasPaths()) continue;
        if (c.parsed->kind != ParsedExpr::Kind::kCompare ||
            c.parsed->compare_op != CompareOp::kEq) {
          continue;
        }
        GRF_ASSIGN_OR_RETURN(Binder::RefInfo li,
                             binder.Analyze(*c.parsed->children[0]));
        GRF_ASSIGN_OR_RETURN(Binder::RefInfo ri,
                             binder.Analyze(*c.parsed->children[1]));
        if (li.HasPaths() || ri.HasPaths()) continue;
        uint64_t lmask = li.relational_mask;
        uint64_t rmask = ri.relational_mask;
        uint64_t self = 1ull << i;
        bool left_is_outer = lmask != 0 && (lmask & ~bound_mask) == 0 &&
                             rmask == self;
        bool right_is_outer = rmask != 0 && (rmask & ~bound_mask) == 0 &&
                              lmask == self;
        if (!left_is_outer && !right_is_outer) continue;
        GRF_ASSIGN_OR_RETURN(ExprPtr lb, binder.Bind(*c.parsed->children[0]));
        GRF_ASSIGN_OR_RETURN(ExprPtr rb, binder.Bind(*c.parsed->children[1]));
        if (left_is_outer) {
          left_keys.push_back(std::move(lb));
          right_keys.push_back(std::move(rb));
        } else {
          left_keys.push_back(std::move(rb));
          right_keys.push_back(std::move(lb));
        }
        c.consumed = true;
      }
      size_t width = binding.visible.NumColumns();
      if (!left_keys.empty()) {
        tree = std::make_unique<HashJoinOp>(
            std::move(tree), std::move(leaf), std::move(left_keys),
            std::move(right_keys), nullptr, binding.offset, width);
      } else {
        // Nested loop with whatever predicates become fully bound here.
        std::vector<ExprPtr> preds;
        for (Conjunct& c : conjuncts) {
          if (c.consumed || c.info.HasPaths()) continue;
          uint64_t total = bound_mask | (1ull << i);
          if ((c.info.relational_mask & ~total) != 0) continue;
          if ((c.info.relational_mask & (1ull << i)) == 0) continue;
          GRF_ASSIGN_OR_RETURN(ExprPtr bound_expr, binder.Bind(*c.parsed));
          preds.push_back(std::move(bound_expr));
          c.consumed = true;
        }
        tree = std::make_unique<NestedLoopJoinOp>(
            std::move(tree), std::move(leaf),
            CombineConjuncts(std::move(preds)), binding.offset, width);
      }
    }
    bound_mask |= 1ull << i;
    GRF_ASSIGN_OR_RETURN(tree, sweep_filters(std::move(tree)));
  }
  if (tree == nullptr) tree = std::make_unique<SingleRowOp>(layout);
  GRF_ASSIGN_OR_RETURN(tree, sweep_filters(std::move(tree)));

  // ---- 6. Decide whether this is an aggregate query (needed before the
  //          reachability fast-path decision).
  bool is_agg = !stmt.group_by.empty() || stmt.having != nullptr;
  for (const SelectItem& item : stmt.items) {
    if (is_agg) break;
    GRF_ASSIGN_OR_RETURN(bool has, HasRelationalAgg(*item.expr, binder));
    is_agg = is_agg || has;
  }

  // ---- 7. Finalize traversal specs and attach path probes (§5.3 step 2).
  const bool limit_one = (stmt.limit == 1 || stmt.top == 1) &&
                         stmt.order_by.empty() && !stmt.distinct && !is_agg;
  for (size_t i = 0; i < n; ++i) {
    const TableBinding& binding = scope.binding(i);
    if (!binding.is_path()) continue;
    PathPlan& plan = path_plans[i];
    TraversalSpec& spec = *plan.spec;
    spec.residual = CombineConjuncts(std::move(plan.residual));

    // Logical -> physical mapping (§6.3).
    if (binding.hint == TraversalHint::kShortestPath) {
      spec.physical = TraversalSpec::Physical::kShortestPath;
      GRF_ASSIGN_OR_RETURN(
          spec.sp_attr,
          binder.ResolveEdgeAttr(*binding.gv, binding.hint_attribute));
      int64_t k = stmt.top >= 0 ? stmt.top : stmt.limit;
      if (k > 0) spec.sp_expansion_cap = static_cast<size_t>(k);
    } else if (binding.hint == TraversalHint::kDfs) {
      spec.physical = TraversalSpec::Physical::kDfs;
    } else if (binding.hint == TraversalHint::kBfs) {
      spec.physical = TraversalSpec::Physical::kBfs;
    } else if (options_.default_traversal == PlannerOptions::Traversal::kDfs) {
      spec.physical = TraversalSpec::Physical::kDfs;
    } else if (options_.default_traversal == PlannerOptions::Traversal::kBfs) {
      spec.physical = TraversalSpec::Physical::kBfs;
    } else {
      // kAuto: DFS frontier ~ F*L entries vs BFS frontier ~ F^L; pick BFS
      // only when F^(L-1) < L (tiny fan-out), per §6.3.
      spec.physical = TraversalSpec::Physical::kDfs;
      if (spec.max_length != kNoMaxLength && spec.max_length >= 1) {
        double fan_out = binding.gv->AverageFanOut();
        double lhs = std::pow(fan_out,
                              static_cast<double>(spec.max_length - 1));
        if (lhs < static_cast<double>(spec.max_length)) {
          spec.physical = TraversalSpec::Physical::kBfs;
        }
      }
    }

    // Reachability fast path (visited-once traversal) — only when it cannot
    // change the LIMIT-1 answer.
    if (options_.enable_reachability_fastpath && limit_one &&
        spec.end_vertex_expr != nullptr && spec.residual == nullptr &&
        spec.sum_bounds.empty() && spec.min_length <= 1 &&
        spec.physical != TraversalSpec::Physical::kShortestPath) {
      bool uniform = true;
      for (const auto& pred : spec.element_preds) {
        if (pred->lo() != 0 ||
            pred->hi() != PathRangePredicateExpr::kOpenEnd) {
          uniform = false;
          break;
        }
      }
      // Positional pruning must also be active for subgraph-selection
      // semantics to hold under visited-once search.
      if (uniform && (spec.element_preds.empty() || spec.push_filters)) {
        if (spec.max_length == kNoMaxLength) {
          spec.global_visited = true;
          // With no hint forcing DFS, prefer BFS for reachability (§7.1):
          // same existence answer, but the witness path is minimum-hop.
          if (binding.hint == TraversalHint::kNone &&
              options_.default_traversal == PlannerOptions::Traversal::kAuto) {
            spec.physical = TraversalSpec::Physical::kBfs;
          }
        } else if (spec.physical == TraversalSpec::Physical::kBfs) {
          // BFS finds a minimum-hop path first, so a depth cap stays sound.
          spec.global_visited = true;
        }
      }
    }

    // Parallel-safety (morsel-driven multi-source fan-out, DFS and SPScan
    // only — BFS never fans out per start): DFS streams results in
    // interleave-dependent order, so any LIMIT/TOP — where *which* rows
    // survive can depend on emission order (directly, through first-seen
    // DISTINCT/group order, or through ORDER BY ties) — pins the probe to
    // serial execution. Queries that consume the full stream are
    // order-insensitive: the emitted multiset is identical for any
    // interleaving. SPScan stays eligible even under TOP k: its parallel
    // merge reproduces the serial (cost, path) total order exactly. The
    // visited-once fast path shares one visited set across starts and never
    // fans out.
    if (spec.physical != TraversalSpec::Physical::kShortestPath &&
        (stmt.limit >= 0 || stmt.top >= 0)) {
      spec.parallel_safe = false;
    }
    if (spec.global_visited) spec.parallel_safe = false;

    // Frontier kernel (§6.3 extension): BFS with a frontier expected to
    // reach frontier_min_batch runs level-synchronously — whole levels are
    // qualified before expansion (LIMIT-k early exit) and expanded in
    // batches, morsel-parallel when large. Estimate: a visited-once or
    // unbounded traversal eventually touches O(V); otherwise the deepest
    // level holds ~F^L candidates. Result-identical to the per-path BFS
    // engine at any worker count, so the data-dependent estimate only moves
    // a physical knob (same contract as the kAuto fan-out rule above).
    if (options_.enable_frontier_bfs &&
        spec.physical == TraversalSpec::Physical::kBfs) {
      const double v = static_cast<double>(binding.gv->NumVertexes());
      double estimate = v;
      if (!spec.global_visited && spec.max_length != kNoMaxLength) {
        const double fan_out = std::max(binding.gv->AverageFanOut(), 1.0);
        estimate = std::min(
            v, std::pow(fan_out, static_cast<double>(spec.max_length)));
      }
      if (estimate >= static_cast<double>(options_.frontier_min_batch)) {
        spec.frontier = true;
      }
    }

    tree = std::make_unique<PathProbeJoinOp>(std::move(tree), plan.spec);
  }

  // Any conjunct still unconsumed is a bug in classification.
  for (const Conjunct& c : conjuncts) {
    if (!c.consumed) {
      GRF_ASSIGN_OR_RETURN(ExprPtr bound_expr, binder.Bind(*c.parsed));
      tree = std::make_unique<FilterOp>(std::move(tree),
                                        std::move(bound_expr));
    }
  }

  // ---- 8. SELECT list, aggregation, ordering, distinct, limits.
  PlannedQuery planned;
  for (const FromItem& item : stmt.from) {
    if (item.source.size() >= 4 &&
        EqualsIgnoreCase(std::string_view(item.source).substr(0, 4), "SYS.")) {
      planned.reads_system_tables = true;
    }
  }

  // Expand stars.
  struct OutputItem {
    const ParsedExpr* parsed = nullptr;  ///< Null for star-expanded items.
    ExprPtr pre_bound;                   ///< Set for star-expanded items.
    std::string name;
  };
  std::vector<OutputItem> outputs;
  for (const SelectItem& item : stmt.items) {
    if (item.expr->kind == ParsedExpr::Kind::kStar) {
      for (size_t b = 0; b < n; ++b) {
        const TableBinding& binding = scope.binding(b);
        if (binding.is_path()) {
          OutputItem out;
          out.pre_bound = std::make_shared<PathPropertyExpr>(
              binding.path_slot, PathProperty::kPathString, binding.alias);
          out.name = binding.alias;
          outputs.push_back(std::move(out));
          continue;
        }
        for (size_t c = 0; c < binding.visible.NumColumns(); ++c) {
          OutputItem out;
          out.pre_bound = std::make_shared<ColumnRefExpr>(
              binding.offset + c, binding.visible.column(c).type,
              binding.alias + "." + binding.visible.column(c).name);
          out.name = binding.visible.column(c).name;
          outputs.push_back(std::move(out));
        }
      }
      continue;
    }
    OutputItem out;
    out.parsed = item.expr.get();
    out.name = SelectItemName(item);
    outputs.push_back(std::move(out));
  }

  std::vector<ExprPtr> select_exprs;
  Schema project_schema;
  std::vector<ExprPtr> order_exprs;

  // ORDER BY may name a SELECT-list alias (standard SQL); resolve those to
  // the already-bound select expression.
  auto match_output_alias = [&](const ParsedExpr& e) -> int {
    if (e.kind != ParsedExpr::Kind::kRef || e.ref.size() != 1) return -1;
    for (size_t i = 0; i < outputs.size(); ++i) {
      if (EqualsIgnoreCase(outputs[i].name, e.ref[0].name)) {
        return static_cast<int>(i);
      }
    }
    return -1;
  };

  if (is_agg) {
    // Group-by keys.
    std::vector<ExprPtr> group_exprs;
    std::vector<std::string> group_names;
    std::vector<std::string> group_texts;
    for (const ParsedExprPtr& g : stmt.group_by) {
      GRF_ASSIGN_OR_RETURN(ExprPtr bound, binder.Bind(*g));
      group_exprs.push_back(std::move(bound));
      group_texts.push_back(g->ToString());
      group_names.push_back(g->kind == ParsedExpr::Kind::kRef
                                ? g->ref.back().name
                                : g->ToString());
    }
    // Aggregate calls from SELECT and ORDER BY.
    std::unordered_map<std::string, size_t> agg_index;
    std::vector<AggregateSpec> agg_specs;
    for (const OutputItem& out : outputs) {
      if (out.parsed != nullptr) {
        GRF_RETURN_IF_ERROR(
            CollectAggCalls(*out.parsed, binder, &agg_index, &agg_specs));
      } else {
        return Status::InvalidArgument(
            "SELECT * cannot be combined with aggregates");
      }
    }
    for (const OrderByItem& ob : stmt.order_by) {
      GRF_RETURN_IF_ERROR(
          CollectAggCalls(*ob.expr, binder, &agg_index, &agg_specs));
    }
    if (stmt.having != nullptr) {
      GRF_RETURN_IF_ERROR(
          CollectAggCalls(*stmt.having, binder, &agg_index, &agg_specs));
    }
    auto agg_op = std::make_unique<AggregateOp>(
        std::move(tree), std::move(group_exprs), group_names,
        std::move(agg_specs));
    const Schema& agg_schema = agg_op->schema();

    for (const OutputItem& out : outputs) {
      GRF_ASSIGN_OR_RETURN(ExprPtr expr,
                           TransformPostAgg(*out.parsed, binder, group_texts,
                                            agg_index, agg_schema));
      project_schema.AddColumn(Column(out.name, expr->result_type()));
      select_exprs.push_back(std::move(expr));
    }
    for (const OrderByItem& ob : stmt.order_by) {
      if (int alias = match_output_alias(*ob.expr); alias >= 0) {
        order_exprs.push_back(select_exprs[static_cast<size_t>(alias)]);
        continue;
      }
      GRF_ASSIGN_OR_RETURN(ExprPtr expr,
                           TransformPostAgg(*ob.expr, binder, group_texts,
                                            agg_index, agg_schema));
      order_exprs.push_back(std::move(expr));
    }
    tree = std::move(agg_op);
    if (stmt.having != nullptr) {
      GRF_ASSIGN_OR_RETURN(ExprPtr having,
                           TransformPostAgg(*stmt.having, binder, group_texts,
                                            agg_index, agg_schema));
      tree = std::make_unique<FilterOp>(std::move(tree), std::move(having));
    }
  } else {
    for (const OutputItem& out : outputs) {
      ExprPtr expr = out.pre_bound;
      if (expr == nullptr) {
        GRF_ASSIGN_OR_RETURN(expr, binder.Bind(*out.parsed));
      }
      project_schema.AddColumn(Column(out.name, expr->result_type()));
      select_exprs.push_back(std::move(expr));
    }
    for (const OrderByItem& ob : stmt.order_by) {
      if (int alias = match_output_alias(*ob.expr); alias >= 0) {
        order_exprs.push_back(select_exprs[static_cast<size_t>(alias)]);
        continue;
      }
      GRF_ASSIGN_OR_RETURN(ExprPtr expr, binder.Bind(*ob.expr));
      order_exprs.push_back(std::move(expr));
    }
  }

  const size_t visible_count = select_exprs.size();
  std::vector<SortOp::SortKey> sort_keys;
  for (size_t i = 0; i < order_exprs.size(); ++i) {
    project_schema.AddColumn(Column("$sort" + std::to_string(i),
                                    order_exprs[i]->result_type()));
    sort_keys.push_back(SortOp::SortKey{visible_count + i,
                                        stmt.order_by[i].descending});
    select_exprs.push_back(order_exprs[i]);
  }

  tree = std::make_unique<ProjectOp>(std::move(tree), std::move(select_exprs),
                                     std::move(project_schema));
  if (!sort_keys.empty()) {
    tree = std::make_unique<SortOp>(std::move(tree), std::move(sort_keys));
    tree = std::make_unique<StripColumnsOp>(std::move(tree), visible_count);
  }
  if (stmt.distinct) {
    tree = std::make_unique<DistinctOp>(std::move(tree));
  }
  if (stmt.top >= 0) {
    tree = std::make_unique<LimitOp>(std::move(tree), stmt.top);
  }
  if (stmt.limit >= 0) {
    tree = std::make_unique<LimitOp>(std::move(tree), stmt.limit);
  }

  planned.root = std::move(tree);
  for (size_t i = 0; i < visible_count; ++i) {
    planned.output_names.push_back(planned.root->schema().column(i).name);
  }
  return planned;
}

}  // namespace grfusion
