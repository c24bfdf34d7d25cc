#include "graphexec/dfs_scanner.h"

#include <algorithm>

#include "common/logging.h"

namespace grfusion {

/// ExpandCore's view of the path buffer (see PathScanner::AdmitEdge).
class DfsScanner::BufferPrefix {
 public:
  explicit BufferPrefix(const DfsScanner& scanner) : s_(scanner) {}

  VertexId start() const { return s_.path_.StartVertex(); }
  VertexId end() const { return s_.path_.EndVertex(); }
  size_t len() const { return s_.path_.Length(); }
  Touch Screen(VertexId, size_t) const { return Touch::kMay; }
  bool HasEdge(EdgeId e) const {
    const std::vector<EdgeId>& edges = s_.path_.edges;
    return std::find(edges.begin(), edges.end(), e) != edges.end();
  }
  bool HasVertex(VertexId v) const {
    const std::vector<VertexId>& vertexes = s_.path_.vertexes;
    return std::find(vertexes.begin(), vertexes.end(), v) != vertexes.end();
  }
  const double* sums() const { return s_.sums_.data(); }
  double cost() const { return 0.0; }

 private:
  const DfsScanner& s_;
};

DfsScanner::DfsScanner(std::shared_ptr<const TraversalSpec> spec,
                       QueryContext* ctx)
    : PathScanner(std::move(spec), ctx),
      deepening_(spec_->physical == TraversalSpec::Physical::kBfs) {
  // Visited-once BFS runs on FrontierScanner (MakePathScanner).
  GRF_DCHECK(!deepening_ || !spec_->global_visited);
}

Status DfsScanner::Reset(std::vector<VertexId> starts,
                         std::optional<VertexId> target,
                         const ExecRow* outer_row) {
  ClearStack();
  visited_.clear();
  GRF_ASSIGN_OR_RETURN(seeds_, ArmProbe(std::move(starts), target, outer_row));
  sums_.assign(spec_->sum_bounds.size(), 0.0);
  if (deepening_) {
    pass_ = spec_->min_length;
    // The seeds are pass 0's depth-0 records.
    pass_extendable_ = pass_ == 0;
    if (pass_ > spec_->max_length) seeds_.clear();  // Empty length window.
    if (!seeds_.empty()) ++passes_;
  } else {
    std::reverse(seeds_.begin(), seeds_.end());
    if (spec_->global_visited) visited_.insert(seeds_.begin(), seeds_.end());
    // Qualifies then reads nothing of a path but its length.
    whole_runs_ = !target_.has_value() && spec_->sum_bounds.empty() &&
                  spec_->residual == nullptr &&
                  (spec_->push_filters || spec_->element_preds.empty());
  }
  Charge(seeds_.size() * sizeof(VertexId));
  return Status::OK();
}

void DfsScanner::Release() {
  ClearStack();
  visited_.clear();
  emitted_.reset();
  PathScanner::Release();
}

void DfsScanner::ClearStack() {
  stack_.clear();
  stack_sums_.clear();
  ClearRun();
  path_.edges.clear();
  path_.vertexes.clear();
  seeds_.clear();
  next_seed_ = 0;
}

void DfsScanner::Push(const Hop& hop, const double* sums) {
  stack_.push_back(hop);
  stack_sums_.insert(stack_sums_.end(), sums,
                     sums + spec_->sum_bounds.size());
  Charge(HopBytes());
  ctx_->stats().NoteFrontier(stack_.size());
}

DfsScanner::Hop DfsScanner::Pop() {
  const Hop hop = stack_.back();
  stack_.pop_back();
  const size_t bounds = spec_->sum_bounds.size();
  std::copy(stack_sums_.end() - static_cast<std::ptrdiff_t>(bounds),
            stack_sums_.end(), sums_.begin());
  stack_sums_.resize(stack_sums_.size() - bounds);
  Uncharge(HopBytes());

  // The buffer's first `depth` vertexes are the parent's path (class
  // comment); replace whatever lies past them with this hop.
  path_.vertexes.resize(hop.depth);
  path_.vertexes.push_back(hop.vertex);
  path_.edges.resize(hop.depth - 1);
  path_.edges.push_back(hop.edge);
  return hop;
}

DfsScanner::Hop DfsScanner::LoadSeed() {
  Hop hop;
  hop.vertex = seeds_[next_seed_++];
  path_.vertexes.assign(1, hop.vertex);
  path_.edges.clear();
  std::fill(sums_.begin(), sums_.end(), 0.0);
  return hop;
}

void DfsScanner::PopLeaf() {
  const size_t at = run_vertexes_.size() - 1 - run_popped_;
  if (run_popped_++ == 0) {
    // The buffer holds the run's parent: append the hop slot the leaves
    // rewrite.
    path_.vertexes.push_back(run_vertexes_[at]);
    path_.edges.push_back(run_edges_[at]);
  } else {
    path_.vertexes.back() = run_vertexes_[at];
    path_.edges.back() = run_edges_[at];
  }
  const size_t bounds = spec_->sum_bounds.size();
  std::copy(run_sums_.begin() + static_cast<std::ptrdiff_t>(at * bounds),
            run_sums_.begin() + static_cast<std::ptrdiff_t>((at + 1) * bounds),
            sums_.begin());
  Uncharge(HopBytes());
}

LeafRun DfsScanner::TakeRun() {
  LeafRun run;
  run.path = &path_;
  run.vertexes = run_vertexes_.data();
  run.edges = run_edges_.data();
  run.size = run_vertexes_.size();
  PopLeaf();
  return run;
}

void DfsScanner::EndRun(size_t taken, bool emitted) {
  ctx_->stats().vertexes_expanded += taken;
  if (emitted) ctx_->stats().paths_emitted += taken;
  Uncharge((taken - 1) * HopBytes());
  run_popped_ = run_vertexes_.size();
}

void DfsScanner::ClearRun() {
  run_vertexes_.clear();
  run_edges_.clear();
  run_sums_.clear();
  run_popped_ = 0;
}

template <bool kDeepen>
Status DfsScanner::Expand() {
  const uint32_t depth = static_cast<uint32_t>(path_.Length()) + 1;
  const size_t first = stack_.size();
  // Children at max_length are leaves: they form the run.
  const bool leaves = !kDeepen && depth == spec_->max_length;
  if (leaves) ClearRun();
  GRF_RETURN_IF_ERROR(ExpandCore(
      BufferPrefix(*this), ctx_,
      [this](VertexId nbr) { return visited_.count(nbr) > 0; },
      [&](const EdgeEntry& edge, VertexId nbr, bool closing,
          const double* sums, double /*cost*/) {
        if constexpr (kDeepen) {
          // A closing record is emitted only by the pass of its depth.
          if (closing && depth != pass_) return;
          if (!closing && depth == pass_) pass_extendable_ = true;
        } else if (spec_->global_visited && !closing) {
          visited_.insert(nbr);
        }
        if (leaves) {
          run_vertexes_.push_back(nbr);
          run_edges_.push_back(edge.id);
          run_sums_.insert(run_sums_.end(), sums,
                           sums + spec_->sum_bounds.size());
          return;
        }
        Hop hop;
        hop.vertex = nbr;
        hop.edge = edge.id;
        hop.depth = depth;
        hop.closing = closing;
        Push(hop, sums);
      }));
  if (leaves && !run_vertexes_.empty()) {
    // Charged and noted as the stack records would have been.
    Charge(run_vertexes_.size() * HopBytes());
    ctx_->stats().NoteFrontier(stack_.size() + run_vertexes_.size());
    ++leaf_runs_;
  }
  if constexpr (kDeepen) {
    // Pop the children in neighbor order (class comment).
    std::reverse(stack_.begin() + static_cast<std::ptrdiff_t>(first),
                 stack_.end());
    const size_t bounds = spec_->sum_bounds.size();
    for (size_t i = first, j = stack_.size(); bounds > 0 && i + 1 < j;
         ++i, --j) {
      std::swap_ranges(stack_sums_.begin() + i * bounds,
                       stack_sums_.begin() + (i + 1) * bounds,
                       stack_sums_.begin() + (j - 1) * bounds);
    }
  }
  return Status::OK();
}

bool DfsScanner::NextPass() {
  if (!pass_extendable_ || pass_ >= spec_->max_length) return false;
  ++pass_;
  ++passes_;
  pass_extendable_ = false;
  next_seed_ = 0;
  return true;
}

PathPtr DfsScanner::Emit() {
  if (emitted_ == nullptr || emitted_.use_count() != 1) {
    emitted_ = std::make_shared<PathData>(path_);
  } else {
    emitted_->edges.assign(path_.edges.begin(), path_.edges.end());
    emitted_->vertexes.assign(path_.vertexes.begin(), path_.vertexes.end());
  }
  return emitted_;
}

template <bool kDeepen>
StatusOr<DfsScanner::Step> DfsScanner::AdvanceImpl(bool runs) {
  while (true) {
    if (!kDeepen && run_popped_ < run_vertexes_.size()) {
      // The run sits on top of the stack.
      if (runs) return Step::kRun;
      PopLeaf();
      ++ctx_->stats().vertexes_expanded;
      GRF_ASSIGN_OR_RETURN(bool qualifies, Qualifies(path_, sums_.data()));
      if (qualifies) {
        ++ctx_->stats().paths_emitted;
        return Step::kPath;
      }
      continue;
    }
    Hop hop;
    if (!stack_.empty()) {
      hop = Pop();
    } else if (next_seed_ < seeds_.size()) {
      hop = LoadSeed();
    } else if (kDeepen && NextPass()) {
      continue;
    } else {
      return Step::kDone;
    }
    // Path enumeration can be combinatorially unbounded, so a runaway
    // traversal must notice cancellation/deadline per expansion, not only at
    // the operator boundary (which it may never reach before emitting).
    GRF_RETURN_IF_ERROR(ctx_->CheckInterrupt());
    ++ctx_->stats().vertexes_expanded;
    if constexpr (kDeepen) {
      // Shallower than the pass (never closing): expand, emit nothing.
      if (hop.depth < pass_) {
        GRF_RETURN_IF_ERROR(Expand<true>());
        GRF_RETURN_IF_ERROR(CheckMemoryCap());
        continue;
      }
    } else if (!hop.closing && hop.depth < spec_->max_length) {
      GRF_RETURN_IF_ERROR(Expand<false>());
      // Stack growth may have tripped the memory cap.
      GRF_RETURN_IF_ERROR(CheckMemoryCap());
    }
    GRF_ASSIGN_OR_RETURN(bool qualifies, Qualifies(path_, sums_.data()));
    if (qualifies) {
      ++ctx_->stats().paths_emitted;
      return Step::kPath;
    }
  }
}

StatusOr<DfsScanner::Step> DfsScanner::Advance(bool runs) {
  return deepening_ ? AdvanceImpl<true>(false) : AdvanceImpl<false>(runs);
}

StatusOr<bool> DfsScanner::Next(PathPtr* out) {
  GRF_ASSIGN_OR_RETURN(Step step, Advance(/*runs=*/false));
  if (step == Step::kDone) return false;
  *out = Emit();
  return true;
}

}  // namespace grfusion
