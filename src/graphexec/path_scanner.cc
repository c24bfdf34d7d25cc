#include "graphexec/path_scanner.h"

#include <algorithm>

#include "common/string_util.h"
#include "graphexec/dfs_scanner.h"
#include "graphexec/frontier_scanner.h"
#include "graphexec/shortest_path_scanner.h"

namespace grfusion {

std::string TraversalSpec::DebugString() const {
  std::string out = "PathScan(";
  out += gv == nullptr ? "?" : gv->name();
  switch (physical) {
    case Physical::kDfs: out += ", DFScan"; break;
    case Physical::kBfs:
      out += point_to_point ? ", BFScan(visited-once, bidir)" : ", BFScan";
      break;
    case Physical::kShortestPath:
      out += point_to_point ? ", SPScan(bidir)" : ", SPScan";
      break;
  }
  if (start_vertex_expr != nullptr) {
    out += ", start: " + start_vertex_expr->ToString();
  }
  if (end_vertex_expr != nullptr) {
    out += ", end: " + end_vertex_expr->ToString();
  }
  out += StrFormat(", len: [%zu, ", min_length);
  out += max_length == kNoMaxLength ? "*]" : StrFormat("%zu]", max_length);
  if (!element_preds.empty()) {
    out += StrFormat(", pushed: %zu", element_preds.size());
  }
  if (!sum_bounds.empty()) {
    out += StrFormat(", sum-bounds: %zu", sum_bounds.size());
  }
  if (!push_filters) out += ", NO-PUSHDOWN";
  if (global_visited && !point_to_point) out += ", visited-once";
  return out + ")";
}

PathScanner::PathScanner(std::shared_ptr<const TraversalSpec> spec,
                         QueryContext* ctx)
    : spec_(std::move(spec)), ctx_(ctx) {
  for (const auto& pred : spec_->element_preds) {
    const bool vertex = pred->attr().kind == PathElementKind::kVertexes;
    has_vertex_preds_ = has_vertex_preds_ || vertex;
    has_edge_preds_ = has_edge_preds_ || !vertex;
  }
}

std::unique_ptr<PathScanner> MakePathScanner(
    std::shared_ptr<const TraversalSpec> spec, QueryContext* ctx) {
  if (spec->physical == TraversalSpec::Physical::kShortestPath) {
    return std::make_unique<ShortestPathScanner>(std::move(spec), ctx);
  }
  if (spec->physical == TraversalSpec::Physical::kBfs &&
      spec->global_visited) {
    return std::make_unique<FrontierScanner>(std::move(spec), ctx);
  }
  return std::make_unique<DfsScanner>(std::move(spec), ctx);
}

StatusOr<std::vector<VertexId>> PathScanner::ArmProbe(
    std::vector<VertexId> starts, std::optional<VertexId> target,
    const ExecRow* outer_row) {
  ReleaseCharge();
  bound_.Uncharge(ctx_);
  bounded_ = false;
  outer_row_ = outer_row;
  target_ = target;

  // Evaluate sum-bound right-hand sides once per probe.
  sum_bound_values_.clear();
  static const ExecRow kEmptyRow;
  const ExecRow& row = outer_row_ == nullptr ? kEmptyRow : *outer_row_;
  for (const TraversalSpec::SumBound& bound : spec_->sum_bounds) {
    GRF_ASSIGN_OR_RETURN(Value v, bound.bound->Eval(row));
    if (v.is_null() ||
        (v.type() != ValueType::kBigInt && v.type() != ValueType::kDouble)) {
      return Status::InvalidArgument(
          "path aggregate bound must evaluate to a number");
    }
    sum_bound_values_.push_back(v.AsNumeric());
  }

  // Flat columns for the edge attributes this traversal reads per edge,
  // built on first use from this statement's snapshot.
  const GraphView& gv = *spec_->gv;
  auto column_of = [&gv](const ElementAttr& attr) -> const EdgeAttrColumn* {
    return attr.kind == PathElementKind::kEdges &&
                   attr.field == ElementField::kSourceColumn
               ? gv.EdgeColumn(attr.column)
               : nullptr;
  };
  pred_columns_.clear();
  sum_columns_.clear();
  has_columns_ = false;
  for (const auto& pred : spec_->element_preds) {
    pred_columns_.push_back(spec_->push_filters ? column_of(pred->attr())
                                                : nullptr);
    has_columns_ = has_columns_ || pred_columns_.back() != nullptr;
  }
  for (const TraversalSpec::SumBound& bound : spec_->sum_bounds) {
    sum_columns_.push_back(column_of(bound.attr));
    has_columns_ = has_columns_ || sum_columns_.back() != nullptr;
  }
  weight_column_ = spec_->physical == TraversalSpec::Physical::kShortestPath
                       ? column_of(spec_->sp_attr)
                       : nullptr;
  has_columns_ = has_columns_ || weight_column_ != nullptr;

  // Deduplicate starts (a probe may legitimately produce repeats).
  std::sort(starts.begin(), starts.end());
  starts.erase(std::unique(starts.begin(), starts.end()), starts.end());

  std::vector<VertexId> seeds;
  seeds.reserve(starts.size());
  for (VertexId start : starts) {
    const VertexEntry* v = spec_->gv->FindVertex(start);
    if (v == nullptr) continue;
    if (spec_->push_filters) {
      GRF_ASSIGN_OR_RETURN(bool ok, VertexAdmissible(*v, 0));
      if (!ok) {
        ++ctx_->stats().paths_pruned;
        continue;
      }
    }
    seeds.push_back(start);
  }
  return seeds;
}

bool PathScanner::PointProbe(const std::vector<VertexId>& seeds, size_t* s,
                             size_t* t) const {
  const GraphView& gv = *spec_->gv;
  if (seeds.size() != 1 || !target_.has_value() || *target_ == seeds[0] ||
      !gv.PureCsr()) {
    return false;
  }
  *s = gv.csr()->IndexOf(seeds[0]);
  *t = gv.csr()->IndexOf(*target_);
  return true;
}

StatusOr<bool> PathScanner::EdgeAdmissible(const EdgeEntry& edge,
                                           size_t slot, size_t edge_index,
                                           bool columns, QueryContext* ctx) {
  static const ExecRow kEmptyRow;
  const ExecRow& row = outer_row_ == nullptr ? kEmptyRow : *outer_row_;
  for (size_t p = 0; p < spec_->element_preds.size(); ++p) {
    const auto& pred = spec_->element_preds[p];
    if (pred->attr().kind != PathElementKind::kEdges) continue;
    if (edge_index < pred->lo()) continue;
    if (pred->hi() != PathRangePredicateExpr::kOpenEnd &&
        edge_index > pred->hi()) {
      continue;
    }
    GRF_ASSIGN_OR_RETURN(
        Value v, ReadEdgeValue(edge, slot, columns ? pred_columns_[p] : nullptr,
                               pred->attr(), ctx));
    GRF_ASSIGN_OR_RETURN(bool pass, pred->TestElement(v, row));
    if (!pass) return false;
  }
  return true;
}

StatusOr<bool> PathScanner::VertexAdmissible(const VertexEntry& vertex,
                                             size_t vertex_index) {
  static const ExecRow kEmptyRow;
  const ExecRow& row = outer_row_ == nullptr ? kEmptyRow : *outer_row_;
  for (const auto& pred : spec_->element_preds) {
    if (pred->attr().kind != PathElementKind::kVertexes) continue;
    if (vertex_index < pred->lo()) continue;
    if (pred->hi() != PathRangePredicateExpr::kOpenEnd &&
        vertex_index > pred->hi()) {
      continue;
    }
    GRF_ASSIGN_OR_RETURN(Value v, ExtractVertexValue(*spec_->gv, vertex,
                                                     pred->attr()));
    GRF_ASSIGN_OR_RETURN(bool pass, pred->TestElement(v, row));
    if (!pass) return false;
  }
  return true;
}

PathScanner::Admit PathScanner::AdmitAttrs(const Expansion& x,
                                           const EdgeEntry& edge, size_t slot,
                                           QueryContext* ctx,
                                           const VertexEntry* nv,
                                           const double* prefix_sums,
                                           double* sums, double* cost,
                                           Status* status) {
  std::copy_n(prefix_sums, x.bounds, sums);
  if (spec_->push_filters) {
    if (has_edge_preds_) {
      auto edge_ok = EdgeAdmissible(edge, slot, x.edge_index, x.columns, ctx);
      if (!edge_ok.ok()) {
        *status = edge_ok.status();
        return Admit::kFail;
      }
      if (!*edge_ok) {
        ++ctx->stats().paths_pruned;
        return Admit::kSkip;
      }
    }
    if (nv != nullptr) {
      auto vertex_ok = VertexAdmissible(*nv, x.edge_index + 1);
      if (!vertex_ok.ok()) {
        *status = vertex_ok.status();
        return Admit::kFail;
      }
      if (!*vertex_ok) {
        ++ctx->stats().paths_pruned;
        return Admit::kSkip;
      }
    }
    // Accumulate sum bounds and prune monotone upper bounds early.
    for (size_t i = 0; i < x.bounds; ++i) {
      if (!AddEdgeNumber(edge, slot, SumColumn(i, x.columns),
                         spec_->sum_bounds[i].attr, ctx, &sums[i], status)) {
        return Admit::kFail;
      }
      CompareOp op = spec_->sum_bounds[i].op;
      double bound = sum_bound_values_[i];
      bool prune = (op == CompareOp::kLt && sums[i] >= bound) ||
                   (op == CompareOp::kLe && sums[i] > bound);
      if (prune) {
        ++ctx->stats().paths_pruned;
        return Admit::kSkip;
      }
    }
  } else {
    // Pushdown disabled (ablation / paper §7.1 control): still accumulate
    // sums so emission checks stay exact.
    for (size_t i = 0; i < x.bounds; ++i) {
      if (!AddEdgeNumber(edge, slot, SumColumn(i, x.columns),
                         spec_->sum_bounds[i].attr, ctx, &sums[i], status)) {
        return Admit::kFail;
      }
    }
  }

  if (spec_->physical == TraversalSpec::Physical::kShortestPath) {
    double w = 0.0;
    bool is_null = false;
    Status read =
        ReadEdgeNumber(edge, slot, x.columns ? weight_column_ : nullptr,
                       spec_->sp_attr, ctx, &w, &is_null);
    if (!read.ok()) {
      *status = std::move(read);
      return Admit::kFail;
    }
    if (is_null || w < 0) {
      *status = Status::InvalidArgument(
          "SHORTESTPATH requires a non-null, non-negative edge attribute");
      return Admit::kFail;
    }
    *cost += w;
  }
  return Admit::kAdmit;
}

StatusOr<bool> PathScanner::Qualifies(const PathData& path,
                                      const double* sums) {
  const size_t len = path.Length();
  if (len < spec_->min_length || len > spec_->max_length) return false;
  if (target_.has_value() && path.EndVertex() != *target_) return false;
  // A range predicate whose window the path never reached fails (its Eval
  // semantics); enforce the structural requirement without re-evaluating.
  for (const auto& pred : spec_->element_preds) {
    size_t count =
        pred->attr().kind == PathElementKind::kEdges ? len : len + 1;
    if (pred->lo() >= count) return false;
    if (pred->hi() != PathRangePredicateExpr::kOpenEnd &&
        pred->hi() >= count) {
      return false;
    }
  }
  // Exact sum-bound checks.
  for (size_t i = 0; i < spec_->sum_bounds.size(); ++i) {
    GRF_ASSIGN_OR_RETURN(
        Value v, EvalCompare(spec_->sum_bounds[i].op, Value::Double(sums[i]),
                             Value::Double(sum_bound_values_[i])));
    if (v.is_null() || !v.AsBoolean()) return false;
  }

  const bool needs_row_eval =
      spec_->residual != nullptr || !spec_->push_filters;
  if (needs_row_eval) {
    ExecRow row = outer_row_ == nullptr ? ExecRow() : *outer_row_;
    if (row.paths.size() <= spec_->path_slot) {
      row.paths.resize(spec_->path_slot + 1);
    }
    row.paths[spec_->path_slot] = std::make_shared<const PathData>(path);
    if (!spec_->push_filters) {
      for (const auto& pred : spec_->element_preds) {
        GRF_ASSIGN_OR_RETURN(bool pass, EvalPredicate(*pred, row));
        if (!pass) return false;
      }
    }
    if (spec_->residual != nullptr) {
      GRF_ASSIGN_OR_RETURN(bool pass, EvalPredicate(*spec_->residual, row));
      if (!pass) return false;
    }
  }
  return true;
}

}  // namespace grfusion
