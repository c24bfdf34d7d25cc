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
  csr_ = nullptr;
  visited_map_.clear();
  fast_ = false;
  fast_level_ = 0;
  fast_current_.clear();
  fast_next_.clear();
  GRF_RETURN_IF_ERROR(
      PathScanner::Reset(std::move(starts), target, outer_row));
  // The base Reset seeded the BFS deque (and, in global_visited mode, the
  // hash set); adopt the seeds as level 0.
  current_.assign(std::make_move_iterator(frontier_.begin()),
                  std::make_move_iterator(frontier_.end()));
  frontier_.clear();
  if (spec_->global_visited && spec_->gv->PureCsr() &&
      spec_->gv->csr()->NumVertexes() < static_cast<size_t>(kNoParent)) {
    csr_ = spec_->gv->csr();
    visited_map_.assign(csr_->NumVertexes(), 0);
    for (VertexId id : visited_) {
      const size_t i = csr_->IndexOf(id);
      if (i != CsrTopology::kAbsent) visited_map_[i] = 1;
    }
    visited_.clear();

    // Arm the BFS-forest fast path: seeds become level-0 claim events, the
    // Candidate buffer is retired, and the per-vertex parent/root/sum arrays
    // replace per-candidate path prefixes in the memory charge.
    fast_ = true;
    fast_level_ = 0;
    const size_t v_count = csr_->NumVertexes();
    const size_t bounds = spec_->sum_bounds.size();
    fast_parent_.assign(v_count, kNoParent);
    fast_parent_edge_.assign(v_count, 0);
    fast_root_.assign(v_count, 0);
    fast_sums_.assign(v_count * bounds, 0.0);
    fast_current_.clear();
    fast_next_.clear();
    for (const Candidate& seed : current_) {
      const size_t i = csr_->IndexOf(seed.path.StartVertex());
      if (i == CsrTopology::kAbsent) continue;
      fast_root_[i] = seed.path.StartVertex();
      for (size_t b = 0; b < bounds; ++b) {
        fast_sums_[i * bounds + b] = seed.sums[b];
      }
      FastEvent ev;
      ev.vertex = static_cast<uint32_t>(i);
      fast_current_.push_back(std::move(ev));
    }
    for (const Candidate& seed : current_) Uncharge(CandidateBytes(seed.path));
    current_.clear();
    const size_t array_bytes =
        v_count * (sizeof(uint32_t) + sizeof(EdgeId) + sizeof(VertexId) + 1 +
                   bounds * sizeof(double)) +
        fast_current_.size() * FastEventBytes(bounds);
    Charge(array_bytes);
  }
  return Status::OK();
}

void FrontierScanner::Release() {
  current_.clear();
  next_.clear();
  qualify_cursor_ = 0;
  csr_ = nullptr;
  visited_map_.clear();
  fast_ = false;
  fast_level_ = 0;
  fast_current_.clear();
  fast_next_.clear();
  fast_parent_.clear();
  fast_parent_edge_.clear();
  fast_root_.clear();
  fast_sums_.clear();
  PathScanner::Release();
}

bool FrontierScanner::AlreadyVisited(VertexId id) const {
  if (csr_ != nullptr) {
    const size_t i = csr_->IndexOf(id);
    return i != CsrTopology::kAbsent && visited_map_[i] != 0;
  }
  return visited_.count(id) > 0;
}

bool FrontierScanner::ClaimVisited(VertexId id) {
  if (csr_ != nullptr) {
    const size_t i = csr_->IndexOf(id);
    if (i == CsrTopology::kAbsent) return true;
    char& bit = visited_map_[i];
    if (bit != 0) return false;
    bit = 1;
    return true;
  }
  return visited_.insert(id).second;
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
        [this](VertexId nbr) { return AlreadyVisited(nbr); },
        [&](const EdgeEntry& edge, VertexId nbr, bool closing,
            const double* sums, double cost) {
          if (spec_->global_visited && !closing) ClaimVisited(nbr);
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
                  return AlreadyVisited(nbr) ||
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
          !ClaimVisited(next.path.EndVertex())) {
        continue;
      }
      Charge(CandidateBytes(next.path));
      next_.push_back(std::move(next));
    }
  }
  ctx_->stats().NoteFrontier(current_.size() + next_.size());
  return CheckMemoryCap();
}

// --- BFS-forest fast path --------------------------------------------------

StatusOr<bool> FrontierScanner::FastNext(PathPtr* out) {
  while (true) {
    while (qualify_cursor_ < fast_current_.size()) {
      GRF_RETURN_IF_ERROR(ctx_->CheckInterrupt());
      const FastEvent& ev = fast_current_[qualify_cursor_];
      ++qualify_cursor_;
      ++ctx_->stats().vertexes_expanded;
      // Cheap pre-filters replicating Qualifies' first two rejections, so a
      // path is materialized only for plausible emissions (a reachability
      // probe materializes exactly one).
      const size_t len = fast_level_;
      if (len < spec_->min_length || len > spec_->max_length) continue;
      if (target_.has_value()) {
        const VertexId endv = ev.closing ? fast_root_[ev.vertex]
                                         : csr_->vertex_ids[ev.vertex];
        if (endv != *target_) continue;
      }
      Candidate candidate = FastMaterialize(ev);
      GRF_ASSIGN_OR_RETURN(bool qualifies,
                           Qualifies(candidate.path, candidate.sums.data()));
      if (qualifies) {
        ++ctx_->stats().paths_emitted;
        *out = std::make_shared<const PathData>(std::move(candidate.path));
        return true;
      }
    }
    if (fast_current_.empty()) return false;

    GRF_RETURN_IF_ERROR(FastExpandLevel());
    const size_t bounds = spec_->sum_bounds.size();
    const size_t retired = fast_current_.size() * FastEventBytes(bounds);
    Uncharge(retired);
    fast_current_ = std::move(fast_next_);
    fast_next_.clear();
    qualify_cursor_ = 0;
    ++fast_level_;
  }
}

Status FrontierScanner::FastExpandLevel() {
  fast_next_.clear();
  const size_t bounds = spec_->sum_bounds.size();
  std::vector<double> sums(bounds);
  for (const FastEvent& ev : fast_current_) {
    if (ev.closing || fast_level_ >= spec_->max_length) continue;
    GRF_RETURN_IF_ERROR(ctx_->CheckInterrupt());
    const uint32_t u = ev.vertex;
    const VertexId root = fast_root_[u];
    const size_t edge_index = fast_level_;
    const bool columns = ColumnsUsable();
    Status status = Status::OK();
    spec_->gv->ForEachNeighborSlot(
        spec_->gv->CsrVertex(u),
        [&](const EdgeEntry& edge, VertexId nbr, size_t slot) {
          ++ctx_->stats().edges_examined;

          // The admission pipeline below mirrors ExpandCore under the fast
          // path's preconditions. Edge-simple and vertex-simple collapse:
          // every vertex on a tree path is globally claimed, so any edge
          // already on the path leads to a claimed vertex; the one edge the
          // visited test cannot see is a depth-1 cycle reusing the claiming
          // edge itself, rejected explicitly.
          const bool closing = nbr == root && fast_level_ >= 1;
          size_t j = CsrTopology::kAbsent;
          if (closing) {
            if (fast_level_ == 1 && fast_parent_edge_[u] == edge.id) {
              return true;
            }
          } else {
            j = csr_->IndexOf(nbr);
            if (j == CsrTopology::kAbsent || visited_map_[j] != 0) {
              return true;
            }
          }

          for (size_t b = 0; b < bounds; ++b) {
            sums[b] = fast_sums_[u * bounds + b];
          }
          if (spec_->push_filters) {
            if (has_edge_preds_) {
              auto edge_ok =
                  EdgeAdmissible(edge, slot, edge_index, columns, ctx_);
              if (!edge_ok.ok()) {
                status = edge_ok.status();
                return false;
              }
              if (!*edge_ok) {
                ++ctx_->stats().paths_pruned;
                return true;
              }
            }
            const size_t nj = closing ? csr_->IndexOf(nbr) : j;
            if (has_vertex_preds_ && nj != CsrTopology::kAbsent) {
              auto vertex_ok =
                  VertexAdmissible(spec_->gv->CsrVertex(nj), edge_index + 1);
              if (!vertex_ok.ok()) {
                status = vertex_ok.status();
                return false;
              }
              if (!*vertex_ok) {
                ++ctx_->stats().paths_pruned;
                return true;
              }
            }
            for (size_t b = 0; b < bounds; ++b) {
              if (!AddEdgeNumber(edge, slot, SumColumn(b, columns),
                                 spec_->sum_bounds[b].attr, ctx_, &sums[b],
                                 &status)) {
                return false;
              }
              const CompareOp op = spec_->sum_bounds[b].op;
              const double bound = sum_bound_values_[b];
              const bool prune =
                  (op == CompareOp::kLt && sums[b] >= bound) ||
                  (op == CompareOp::kLe && sums[b] > bound);
              if (prune) {
                ++ctx_->stats().paths_pruned;
                return true;
              }
            }
          } else {
            for (size_t b = 0; b < bounds; ++b) {
              if (!AddEdgeNumber(edge, slot, SumColumn(b, columns),
                                 spec_->sum_bounds[b].attr, ctx_, &sums[b],
                                 &status)) {
                return false;
              }
            }
          }

          FastEvent next;
          if (closing) {
            next.vertex = u;
            next.closing_edge = edge.id;
            next.closing = true;
            next.sums.assign(sums.begin(), sums.end());
          } else {
            visited_map_[j] = 1;
            fast_parent_[j] = u;
            fast_parent_edge_[j] = edge.id;
            fast_root_[j] = root;
            for (size_t b = 0; b < bounds; ++b) {
              fast_sums_[j * bounds + b] = sums[b];
            }
            next.vertex = static_cast<uint32_t>(j);
          }
          Charge(FastEventBytes(bounds));
          fast_next_.push_back(std::move(next));
          return true;
        });
    GRF_RETURN_IF_ERROR(status);
    GRF_RETURN_IF_ERROR(CheckMemoryCap());
  }
  ctx_->stats().NoteFrontier(fast_current_.size() + fast_next_.size());
  return Status::OK();
}

PathScanner::Candidate FrontierScanner::FastMaterialize(
    const FastEvent& ev) const {
  Candidate candidate;
  candidate.closing = ev.closing;
  std::vector<VertexId>& vs = candidate.path.vertexes;
  std::vector<EdgeId>& es = candidate.path.edges;
  for (uint32_t v = ev.vertex;;) {
    vs.push_back(csr_->vertex_ids[v]);
    const uint32_t parent = fast_parent_[v];
    if (parent == kNoParent) break;
    es.push_back(fast_parent_edge_[v]);
    v = parent;
  }
  std::reverse(vs.begin(), vs.end());
  std::reverse(es.begin(), es.end());
  const size_t bounds = spec_->sum_bounds.size();
  if (ev.closing) {
    es.push_back(ev.closing_edge);
    vs.push_back(fast_root_[ev.vertex]);
    candidate.sums = ev.sums;
  } else {
    candidate.sums.assign(
        fast_sums_.begin() +
            static_cast<std::ptrdiff_t>(ev.vertex * bounds),
        fast_sums_.begin() +
            static_cast<std::ptrdiff_t>((ev.vertex + 1) * bounds));
  }
  return candidate;
}

}  // namespace grfusion
