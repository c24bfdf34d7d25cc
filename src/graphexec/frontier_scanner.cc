#include "graphexec/frontier_scanner.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace grfusion {

FrontierScanner::TreePrefix::TreePrefix(const FrontierScanner& s, uint32_t u,
                                        size_t len)
    : root_(s.PageOf(u).root[u & (kPageSize - 1)]),
      parent_edge_(s.PageOf(u).edge[u & (kPageSize - 1)]),
      start_(s.IdOf(root_)),
      end_(s.IdOf(u)),
      len_(len) {}

Status FrontierScanner::Reset(std::vector<VertexId> starts,
                              std::optional<VertexId> target,
                              const ExecRow* outer_row) {
  current_.clear();
  next_.clear();
  level_ = 0;
  qualify_cursor_ = 0;
  expand_cursor_ = 0;
  edge_cursor_ = 0;
  overflow_.clear();
  overflow_ids_.clear();
  GRF_ASSIGN_OR_RETURN(std::vector<VertexId> seeds,
                       ArmProbe(std::move(starts), target, outer_row));
  GRF_DCHECK(spec_->sum_bounds.empty());
  const GraphView& gv = *spec_->gv;
  csr_ = gv.csr();
  csr_size_ = csr_ != nullptr ? csr_->NumVertexes() : 0;
  pure_csr_ = gv.PureCsr();
  ResetForest();
  if (spec_->point_to_point) {
    GRF_ASSIGN_OR_RETURN(bool reachable, ArmBound(seeds));
    if (!reachable) seeds.clear();
  }
  // The seeds are level 0's claim events, qualified before any expansion.
  for (VertexId start : seeds) {
    const size_t i = IndexOf(start);
    Claim(i, kRoot, static_cast<uint32_t>(i), 0);
    Event ev;
    ev.vertex = static_cast<uint32_t>(i);
    next_.push_back(ev);
  }
  Charge(pages_.directory_bytes() + next_.size() * sizeof(Event));
  return Status::OK();
}

StatusOr<bool> FrontierScanner::ArmBound(const std::vector<VertexId>& seeds) {
  size_t s = 0, t = 0;
  if (!PointProbe(seeds, &s, &t) || has_vertex_preds_) return true;
  // The planner admits only uniform edge predicates; each must be answered
  // by a flat column.
  const bool preds = !spec_->element_preds.empty();
  if (preds && !ColumnsUsable()) return true;
  for (const EdgeAttrColumn* column : pred_columns_) {
    if (column == nullptr) return true;
  }
  if (t == CsrTopology::kAbsent) return false;
  static const ExecRow kEmptyRow;
  const ExecRow& row = outer_row_ == nullptr ? kEmptyRow : *outer_row_;
  const PointBound::EdgeTest test = [&](size_t slot) {
    for (size_t p = 0; p < spec_->element_preds.size(); ++p) {
      Value v;
      if (pred_columns_[p]->Read(slot, &v) == EdgeAttrColumn::Cell::kTuple) {
        return -1;
      }
      StatusOr<bool> pass = spec_->element_preds[p]->TestElement(v, row);
      if (!pass.ok()) return -1;
      if (!*pass) return 0;
    }
    return 1;
  };
  GRF_ASSIGN_OR_RETURN(
      PointBound::Outcome outcome,
      bound_.RunHops(*csr_, spec_->gv->directed(), s, t,
                     preds ? &test : nullptr, ctx_));
  bounded_ = outcome == PointBound::Outcome::kBound;
  return outcome != PointBound::Outcome::kUnreachable;
}

void FrontierScanner::Release() {
  csr_ = nullptr;
  csr_size_ = 0;
  level_ = 0;
  current_.clear();
  next_.clear();
  pages_.Clear();
  overflow_.clear();
  overflow_ids_.clear();
  PathScanner::Release();
}

void FrontierScanner::ResetForest() {
  // Each overflow index names a distinct live vertex, so the overflow range
  // stays below the view's vertex count.
  const size_t indexes =
      csr_size_ + (pure_csr_ ? 0 : spec_->gv->NumVertexes());
  GRF_DCHECK(indexes < static_cast<size_t>(kRoot));
  pages_.Reset(indexes);
}

size_t FrontierScanner::IndexOf(VertexId id) {
  if (csr_ != nullptr) {
    const size_t i = csr_->IndexOf(id);
    if (i != CsrTopology::kAbsent) return i;
  }
  // Only a view the CSR does not fully describe has vertexes outside it.
  GRF_DCHECK(!pure_csr_);
  const auto [it, fresh] = overflow_.try_emplace(
      id, static_cast<uint32_t>(csr_size_ + overflow_ids_.size()));
  if (fresh) {
    overflow_ids_.push_back(id);
    // The map node and bucket, and the id.
    Charge(sizeof(*it) + 2 * sizeof(void*) + sizeof(VertexId));
  }
  return it->second;
}

void FrontierScanner::Claim(size_t i, uint32_t parent, uint32_t root,
                            EdgeId edge) {
  bool fresh = false;
  ForestPage& page = pages_.Map(i, &fresh);
  if (fresh) {
    // First claim in this page this probe: every vertex starts unclaimed.
    std::fill(std::begin(page.parent), std::end(page.parent), kUnclaimed);
    Charge(sizeof(ForestPage));
  }
  const size_t k = i & (kPageSize - 1);
  page.parent[k] = parent;
  page.root[k] = root;
  page.edge[k] = edge;
}

StatusOr<bool> FrontierScanner::Next(PathPtr* out) {
  while (true) {
    // Qualify the claims of level level_ in claim order, each before the
    // next edge is examined: LIMIT 1 stops at the target's claim.
    while (qualify_cursor_ < next_.size()) {
      GRF_RETURN_IF_ERROR(ctx_->CheckInterrupt());
      const Event& ev = next_[qualify_cursor_];
      ++qualify_cursor_;
      ++ctx_->stats().vertexes_expanded;
      // Cheap pre-filters replicating Qualifies' first two rejections, so a
      // path is materialized only for plausible emissions (a reachability
      // probe materializes exactly one).
      const size_t len = level_;
      if (len < spec_->min_length || len > spec_->max_length) continue;
      if (target_.has_value()) {
        const size_t end =
            ev.closing ? PageOf(ev.vertex).root[ev.vertex & (kPageSize - 1)]
                       : ev.vertex;
        if (IdOf(end) != *target_) continue;
      }
      PathData path = Materialize(ev);
      GRF_ASSIGN_OR_RETURN(bool qualifies, Qualifies(path, nullptr));
      if (qualifies) {
        ++ctx_->stats().paths_emitted;
        ctx_->stats().NoteFrontier(current_.size() + next_.size());
        *out = std::make_shared<const PathData>(std::move(path));
        return true;
      }
    }
    if (expand_cursor_ < current_.size()) {
      GRF_RETURN_IF_ERROR(ExpandStep());
      continue;
    }
    // Level level_ is complete and qualified: retire its parents and
    // expand it next.
    ctx_->stats().NoteFrontier(current_.size() + next_.size());
    Uncharge(current_.size() * sizeof(Event));
    current_.swap(next_);
    next_.clear();
    qualify_cursor_ = 0;
    expand_cursor_ = 0;
    edge_cursor_ = 0;
    if (current_.empty()) return false;
    ++level_;
  }
}

void FrontierScanner::Append(uint32_t u, const EdgeEntry& edge, size_t j,
                             bool closing, uint32_t root) {
  Event next;
  if (closing) {
    next.vertex = u;
    next.closing = true;
    next.closing_edge = edge.id;
  } else {
    Claim(j, u, root, edge.id);
    next.vertex = static_cast<uint32_t>(j);
  }
  Charge(sizeof(Event));
  next_.push_back(next);
}

Status FrontierScanner::ExpandStep() {
  const uint32_t u = current_[expand_cursor_].vertex;
  if (edge_cursor_ == 0) {
    // A new parent.
    const size_t edge_index = level_ - 1;  // Its length.
    if (current_[expand_cursor_].closing || edge_index >= spec_->max_length) {
      ++expand_cursor_;
      return Status::OK();
    }
    GRF_RETURN_IF_ERROR(ctx_->CheckInterrupt());
    parent_ = TreePrefix(*this, u, edge_index);
    if (!pure_csr_) return ExpandWhole(u);
    expansion_ = ExpansionOf(parent_.start(), edge_index);
  }
  if (expansion_.attrs) {
    return bounded_ ? WalkSlices<true, true>(u) : WalkSlices<true, false>(u);
  }
  return bounded_ ? WalkSlices<false, true>(u) : WalkSlices<false, false>(u);
}

template <bool kAttrs, bool kBound>
Status FrontierScanner::WalkSlices(uint32_t u) {
  // A pure-CSR vertex's neighbors are exactly its slices: enumerate them in
  // ForEachNeighborSlot's order (out, then in for an undirected view) by a
  // position that survives a return to the caller.
  const GraphView& gv = *spec_->gv;
  const CsrTopology& c = *csr_;
  GRF_DCHECK(gv.CsrVertex(u).out_edges.empty() &&
             gv.CsrVertex(u).in_edges.empty() &&
             gv.CsrVertex(u).out_removed.empty() &&
             gv.CsrVertex(u).in_removed.empty());
  const size_t out_begin = c.OutBegin(u);
  const size_t out_degree = c.OutEnd(u) - out_begin;
  const size_t degree =
      out_degree + (gv.directed() ? 0 : c.InEnd(u) - c.InBegin(u));
  // Locals, so the per-edge counter stores cannot force reloads.
  const TreePrefix prefix = parent_;
  const Expansion x = expansion_;
  // The bound's claim test: a claim at level_ survives while h <= slack.
  const double slack = kBound ? bound_.Hops() - static_cast<double>(level_)
                              : 0.0;
  bool closing = false;
  double sums = 0.0;  // No sum bounds: never written.
  double cost = 0.0;
  Status status;
  for (size_t k = edge_cursor_; k < degree; ++k) {
    size_t slot;
    size_t pos;
    VertexId nbr;
    if (k < out_degree) {
      slot = out_begin + k;
      pos = c.out_edge_pos[slot];
      nbr = c.out_nbr[slot];
    } else {
      const size_t i = c.InBegin(u) + (k - out_degree);
      slot = c.NumEdges() + i;
      pos = c.in_edge_pos[i];
      nbr = c.in_nbr[i];
    }
    const EdgeEntry& edge = gv.CsrEdge(pos);
    const size_t j = c.IndexOf(nbr);
    GRF_DCHECK(j != CsrTopology::kAbsent);
    const Admit admit = AdmitEdge<kAttrs>(
        prefix, x, edge, nbr, slot, ctx_,
        [&] { return Claimed(j) || (kBound && bound_.ToGo(j) > slack); },
        [&] { return &gv.CsrVertex(j); }, &closing, &sums, &cost, &status);
    if (admit == Admit::kSkip) continue;
    edge_cursor_ = k + 1;
    if (admit == Admit::kFail) return status;
    // Return, so the claim is qualified before the next edge is examined.
    Append(u, edge, j, closing, prefix.root());
    return Status::OK();
  }
  ++expand_cursor_;
  edge_cursor_ = 0;
  return CheckMemoryCap();
}

Status FrontierScanner::ExpandWhole(uint32_t u) {
  size_t j = 0;  // The index the claim test resolved for the edge.
  GRF_RETURN_IF_ERROR(ExpandCore(
      parent_, ctx_,
      [&](VertexId nbr) {
        j = IndexOf(nbr);
        return Claimed(j);
      },
      [&](const EdgeEntry& edge, VertexId /*nbr*/, bool closing,
          const double* /*sums*/, double /*cost*/) {
        Append(u, edge, j, closing, parent_.root());
      }));
  ++expand_cursor_;
  return CheckMemoryCap();
}

PathData FrontierScanner::Materialize(const Event& ev) const {
  PathData path;
  std::vector<VertexId>& vs = path.vertexes;
  std::vector<EdgeId>& es = path.edges;
  uint32_t root = 0;
  for (uint32_t v = ev.vertex;;) {
    vs.push_back(IdOf(v));
    const ForestPage& page = PageOf(v);
    const size_t k = v & (kPageSize - 1);
    root = page.root[k];
    if (page.parent[k] == kRoot) break;
    es.push_back(page.edge[k]);
    v = page.parent[k];
  }
  std::reverse(vs.begin(), vs.end());
  std::reverse(es.begin(), es.end());
  if (ev.closing) {
    es.push_back(ev.closing_edge);
    vs.push_back(IdOf(root));
  }
  return path;
}

}  // namespace grfusion
