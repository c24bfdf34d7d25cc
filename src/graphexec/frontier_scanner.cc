#include "graphexec/frontier_scanner.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "common/task_pool.h"

namespace grfusion {

Status FrontierScanner::Reset(std::vector<VertexId> starts,
                              std::optional<VertexId> target,
                              const ExecRow* outer_row) {
  current_.clear();
  next_.clear();
  qualify_cursor_ = 0;
  fast_ = false;
  fast_current_.clear();
  fast_next_.clear();
  GRF_RETURN_IF_ERROR(
      PathScanner::Reset(std::move(starts), target, outer_row));
  // The base Reset seeded the BFS deque (and, in global_visited mode, the
  // hash set); adopt the seeds as level 0.
  current_.assign(std::make_move_iterator(frontier_.begin()),
                  std::make_move_iterator(frontier_.end()));
  frontier_.clear();
  if (spec_->global_visited && spec_->sum_bounds.empty() &&
      spec_->gv->PureCsr() &&
      spec_->gv->csr()->NumVertexes() < static_cast<size_t>(kRoot)) {
    // Arm the BFS forest: seeds become level-0 claim events (qualified
    // before any expansion), the Candidate buffer and the hash set are
    // retired, and forest pages replace per-candidate path prefixes in the
    // memory charge.
    csr_ = spec_->gv->csr();
    fast_ = true;
    fast_level_ = 0;
    expand_cursor_ = 0;
    edge_cursor_ = 0;
    ResetForest();
    for (const Candidate& seed : current_) {
      const size_t i = csr_->IndexOf(seed.path.StartVertex());
      if (i == CsrTopology::kAbsent) continue;
      Claim(i, kRoot, static_cast<uint32_t>(i), 0);
      FastEvent ev;
      ev.vertex = static_cast<uint32_t>(i);
      fast_next_.push_back(ev);
    }
    for (const Candidate& seed : current_) Uncharge(CandidateBytes(seed.path));
    current_.clear();
    visited_.clear();
    Charge(pages_.size() * sizeof(ForestPage*) +
           fast_next_.size() * sizeof(FastEvent));
  }
  return Status::OK();
}

void FrontierScanner::Release() {
  current_.clear();
  next_.clear();
  qualify_cursor_ = 0;
  csr_ = nullptr;
  fast_ = false;
  fast_level_ = 0;
  fast_current_.clear();
  fast_next_.clear();
  pages_.clear();
  page_store_.clear();
  mapped_slots_.clear();
  PathScanner::Release();
}

StatusOr<bool> FrontierScanner::Next(PathPtr* out) {
  if (fast_) return FastNext(out);
  while (true) {
    // Phase A: qualify and emit the current level, in frontier order, before
    // any deeper expansion. A LIMIT-k consumer that stops pulling here never
    // pays for the next level.
    while (qualify_cursor_ < current_.size()) {
      GRF_RETURN_IF_ERROR(ctx_->CheckInterrupt());
      Candidate& candidate = current_[qualify_cursor_];
      ++qualify_cursor_;
      ++ctx_->stats().vertexes_expanded;
      GRF_ASSIGN_OR_RETURN(bool qualifies,
                           Qualifies(candidate.path, candidate.sums.data()));
      if (qualifies) {
        ++ctx_->stats().paths_emitted;
        if (candidate.closing ||
            candidate.path.Length() >= spec_->max_length) {
          // Phase B never touches this candidate again — hand the path over
          // instead of copying it, and settle its charge now (retirement
          // releases the empty husk's 64 bytes).
          const size_t bytes = CandidateBytes(candidate.path);
          *out = std::make_shared<const PathData>(std::move(candidate.path));
          candidate.path = PathData();
          candidate.closing = true;  // Keep it out of Phase B expansion.
          Uncharge(bytes - CandidateBytes(candidate.path));
        } else {
          *out = std::make_shared<const PathData>(candidate.path);
        }
        return true;
      }
    }
    if (current_.empty()) return false;

    // Phase B: batch-expand the whole level, then retire it.
    GRF_RETURN_IF_ERROR(ExpandLevel());
    for (const Candidate& candidate : current_) {
      Uncharge(CandidateBytes(candidate.path));
    }
    current_ = std::move(next_);
    next_.clear();
    qualify_cursor_ = 0;
  }
}

Status FrontierScanner::ExpandLevel() {
  next_.clear();
  // Morsel-parallel expansion pays task dispatch plus a merge; small levels
  // run serially. The switch never changes results (the merge reproduces
  // the serial claim order), so the threshold is purely a cost knob.
  if (ctx_->parallel_enabled() &&
      current_.size() >= std::max<size_t>(2, ctx_->parallel_min_starts())) {
    return ExpandLevelParallel();
  }
  return ExpandLevelSerial();
}

Status FrontierScanner::ExpandLevelSerial() {
  for (const Candidate& candidate : current_) {
    if (candidate.closing || candidate.path.Length() >= spec_->max_length) {
      continue;
    }
    GRF_RETURN_IF_ERROR(ctx_->CheckInterrupt());
    GRF_RETURN_IF_ERROR(ExpandCore(
        CandidatePrefix(candidate), ctx_,
        [this](VertexId nbr) { return visited_.count(nbr) > 0; },
        [&](const EdgeEntry& edge, VertexId nbr, bool closing,
            const double* sums, double cost) {
          if (spec_->global_visited && !closing) visited_.insert(nbr);
          Candidate next = Extend(candidate, edge, nbr, closing, sums, cost);
          Charge(CandidateBytes(next.path));
          next_.push_back(std::move(next));
        }));
    GRF_RETURN_IF_ERROR(CheckMemoryCap());
  }
  ctx_->stats().NoteFrontier(current_.size() + next_.size());
  return Status::OK();
}

Status FrontierScanner::ExpandLevelParallel() {
  const size_t n = current_.size();
  const size_t k = ctx_->max_parallelism();
  // ~4 morsels per worker so stealing can rebalance degree skew, capped so
  // small levels still split.
  const size_t morsel_size =
      std::max<size_t>(1, std::min<size_t>(64, (n + 4 * k - 1) / (4 * k)));
  const size_t num_morsels = (n + morsel_size - 1) / morsel_size;

  std::vector<std::vector<Candidate>> children(n);
  std::vector<Status> statuses(num_morsels, Status::OK());
  std::vector<ExecStats> worker_stats(num_morsels);
  std::vector<size_t> worker_peaks(num_morsels, 0);
  std::atomic<bool> abort{false};
  // Workers charge against the query's remaining headroom so the memory cap
  // stays a per-query guarantee (same protocol as the parallel scans).
  SharedMemoryBudget budget(ctx_->remaining_budget());

  Status submitted = ParallelFor(
      ctx_->task_pool(), n, morsel_size, [&](size_t begin, size_t end) {
        const size_t m = begin / morsel_size;
        QueryContext wctx(ctx_->memory_cap());
        wctx.set_shared_budget(&budget);
        wctx.set_trace(ctx_->trace());
        wctx.set_cancellation(ctx_->cancellation());
        wctx.set_snapshot_epoch(ctx_->snapshot_epoch());
        wctx.set_include_open(ctx_->include_open());
        // Pin the pool thread to the statement's MVCC snapshot
        // (GraphReadScope is thread-local and does not propagate here).
        GraphReadScope graph_scope(ctx_->snapshot_epoch(),
                                   ctx_->include_open());
        for (size_t i = begin;
             i < end && !abort.load(std::memory_order_relaxed); ++i) {
          const Candidate& candidate = current_[i];
          if (candidate.closing ||
              candidate.path.Length() >= spec_->max_length) {
            continue;
          }
          Status st = wctx.CheckInterrupt();
          if (st.ok()) {
            // The shared visited state is frozen for the level; `local`
            // replicates the serial rule that the candidate's own earlier
            // extension already claimed the vertex. Cross-candidate claims
            // are resolved deterministically at merge time.
            std::vector<VertexId> local;
            Status charge_failure;
            st = ExpandCore(
                CandidatePrefix(candidate), &wctx,
                [&](VertexId nbr) {
                  return visited_.count(nbr) > 0 ||
                         std::find(local.begin(), local.end(), nbr) !=
                             local.end();
                },
                [&](const EdgeEntry& edge, VertexId nbr, bool closing,
                    const double* sums, double cost) {
                  if (spec_->global_visited && !closing) {
                    local.push_back(nbr);
                  }
                  Candidate next =
                      Extend(candidate, edge, nbr, closing, sums, cost);
                  Status charge =
                      wctx.ChargeBytes(CandidateBytes(next.path));
                  if (!charge.ok() && charge_failure.ok()) {
                    charge_failure = charge;
                  }
                  children[i].push_back(std::move(next));
                });
            if (st.ok()) st = charge_failure;
          }
          if (!st.ok()) {
            statuses[m] = st;
            abort.store(true, std::memory_order_relaxed);
            break;
          }
        }
        worker_stats[m] = wctx.stats();
        worker_peaks[m] = wctx.peak_bytes();
      });
  for (const ExecStats& s : worker_stats) ctx_->stats().MergeFrom(s);
  for (size_t p : worker_peaks) ctx_->FoldChildPeak(p);
  GRF_RETURN_IF_ERROR(submitted);
  for (const Status& st : statuses) GRF_RETURN_IF_ERROR(st);

  // Deterministic merge: apply visited claims in (candidate, neighbor)
  // order — exactly the order the serial loop would have claimed them — so
  // the surviving set and its sequence do not depend on the worker count.
  for (size_t i = 0; i < n; ++i) {
    for (Candidate& next : children[i]) {
      if (spec_->global_visited && !next.closing &&
          !visited_.insert(next.path.EndVertex()).second) {
        continue;
      }
      Charge(CandidateBytes(next.path));
      next_.push_back(std::move(next));
    }
  }
  ctx_->stats().NoteFrontier(current_.size() + next_.size());
  return CheckMemoryCap();
}

// --- BFS forest ------------------------------------------------------------

void FrontierScanner::ResetForest() {
  for (size_t slot : mapped_slots_) pages_[slot] = nullptr;
  mapped_slots_.clear();
  const size_t slots = (csr_->NumVertexes() + kPageSize - 1) >> kPageShift;
  if (pages_.size() != slots) pages_.assign(slots, nullptr);
}

void FrontierScanner::Claim(size_t i, uint32_t parent, uint32_t root,
                            EdgeId edge) {
  ForestPage*& page = pages_[i >> kPageShift];
  if (page == nullptr) {
    // First claim in this page this probe: map a page (reusing one an
    // earlier probe allocated) with every vertex unclaimed.
    if (mapped_slots_.size() == page_store_.size()) {
      page_store_.push_back(std::make_unique<ForestPage>());
    }
    page = page_store_[mapped_slots_.size()].get();
    mapped_slots_.push_back(i >> kPageShift);
    std::fill(std::begin(page->parent), std::end(page->parent), kUnclaimed);
    Charge(sizeof(ForestPage));
  }
  const size_t k = i & (kPageSize - 1);
  page->parent[k] = parent;
  page->root[k] = root;
  page->edge[k] = edge;
}

StatusOr<bool> FrontierScanner::FastNext(PathPtr* out) {
  while (true) {
    // Qualify the claims of level fast_level_ in claim order, each before
    // the next edge is examined: LIMIT 1 stops at the target's claim.
    while (qualify_cursor_ < fast_next_.size()) {
      GRF_RETURN_IF_ERROR(ctx_->CheckInterrupt());
      const FastEvent& ev = fast_next_[qualify_cursor_];
      ++qualify_cursor_;
      ++ctx_->stats().vertexes_expanded;
      // Cheap pre-filters replicating Qualifies' first two rejections, so a
      // path is materialized only for plausible emissions (a reachability
      // probe materializes exactly one).
      const size_t len = fast_level_;
      if (len < spec_->min_length || len > spec_->max_length) continue;
      if (target_.has_value()) {
        const size_t end =
            ev.closing ? PageOf(ev.vertex).root[ev.vertex & (kPageSize - 1)]
                       : ev.vertex;
        if (csr_->vertex_ids[end] != *target_) continue;
      }
      PathData path = FastMaterialize(ev);
      GRF_ASSIGN_OR_RETURN(bool qualifies, Qualifies(path, nullptr));
      if (qualifies) {
        ++ctx_->stats().paths_emitted;
        ctx_->stats().NoteFrontier(fast_current_.size() + fast_next_.size());
        *out = std::make_shared<const PathData>(std::move(path));
        return true;
      }
    }
    if (expand_cursor_ < fast_current_.size()) {
      GRF_RETURN_IF_ERROR(FastExpandStep());
      continue;
    }
    // Level fast_level_ is complete and qualified: retire its parents and
    // expand it next.
    ctx_->stats().NoteFrontier(fast_current_.size() + fast_next_.size());
    Uncharge(fast_current_.size() * sizeof(FastEvent));
    fast_current_.swap(fast_next_);
    fast_next_.clear();
    qualify_cursor_ = 0;
    expand_cursor_ = 0;
    edge_cursor_ = 0;
    if (fast_current_.empty()) return false;
    ++fast_level_;
  }
}

Status FrontierScanner::FastExpandStep() {
  const FastEvent& ev = fast_current_[expand_cursor_];
  const size_t edge_index = fast_level_ - 1;  // The parent's length.
  if (ev.closing || edge_index >= spec_->max_length) {
    ++expand_cursor_;
    return Status::OK();
  }
  const GraphView& gv = *spec_->gv;
  const CsrTopology& c = *csr_;
  const uint32_t u = ev.vertex;
  // A pure-CSR vertex's neighbors are exactly its slices: enumerate them in
  // ForEachNeighborSlot's order (out, then in for an undirected view) by a
  // position that survives a return to the caller.
  const size_t out_begin = c.OutBegin(u);
  const size_t out_degree = c.OutEnd(u) - out_begin;
  const size_t degree =
      out_degree + (gv.directed() ? 0 : c.InEnd(u) - c.InBegin(u));
  if (edge_cursor_ == 0) {
    const VertexEntry& v = gv.CsrVertex(u);
    GRF_DCHECK(v.out_edges.empty() && v.in_edges.empty() &&
               v.out_removed.empty() && v.in_removed.empty());
    (void)v;
    GRF_RETURN_IF_ERROR(ctx_->CheckInterrupt());
    fast_columns_ = ColumnsUsable();
  }
  const ForestPage& page = PageOf(u);
  const uint32_t root = page.root[u & (kPageSize - 1)];
  const EdgeId parent_edge = page.edge[u & (kPageSize - 1)];

  while (edge_cursor_ < degree) {
    const size_t k = edge_cursor_++;
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
    ++ctx_->stats().edges_examined;

    // The admission pipeline below mirrors ExpandCore under the forest's
    // preconditions. Edge-simple and vertex-simple collapse: every vertex
    // on a tree path is globally claimed, so any edge already on the path
    // leads to a claimed vertex; the one edge the claim test cannot see is
    // a depth-1 cycle reusing the claiming edge itself, rejected explicitly.
    const size_t j = c.IndexOf(nbr);
    const bool closing = j == root && edge_index >= 1;
    if (closing) {
      if (edge_index == 1 && parent_edge == edge.id) continue;
    } else if (j == CsrTopology::kAbsent || Claimed(j)) {
      continue;
    }
    if (spec_->push_filters) {
      if (has_edge_preds_) {
        GRF_ASSIGN_OR_RETURN(
            bool edge_ok,
            EdgeAdmissible(edge, slot, edge_index, fast_columns_, ctx_));
        if (!edge_ok) {
          ++ctx_->stats().paths_pruned;
          continue;
        }
      }
      if (has_vertex_preds_ && j != CsrTopology::kAbsent) {
        GRF_ASSIGN_OR_RETURN(
            bool vertex_ok, VertexAdmissible(gv.CsrVertex(j), edge_index + 1));
        if (!vertex_ok) {
          ++ctx_->stats().paths_pruned;
          continue;
        }
      }
    }

    FastEvent next;
    if (closing) {
      next.vertex = u;
      next.closing = true;
      next.closing_edge = edge.id;
    } else {
      Claim(j, u, root, edge.id);
      next.vertex = static_cast<uint32_t>(j);
    }
    Charge(sizeof(FastEvent));
    fast_next_.push_back(next);
    return Status::OK();
  }
  ++expand_cursor_;
  edge_cursor_ = 0;
  return CheckMemoryCap();
}

PathData FrontierScanner::FastMaterialize(const FastEvent& ev) const {
  PathData path;
  std::vector<VertexId>& vs = path.vertexes;
  std::vector<EdgeId>& es = path.edges;
  uint32_t root = 0;
  for (uint32_t v = ev.vertex;;) {
    vs.push_back(csr_->vertex_ids[v]);
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
    vs.push_back(csr_->vertex_ids[root]);
  }
  return path;
}

}  // namespace grfusion
