#include "graphexec/dfs_scanner.h"

#include <algorithm>

namespace grfusion {

/// ExpandCore's view of the path buffer (see PathScanner::ExpandCore).
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

Status DfsScanner::Reset(std::vector<VertexId> starts,
                         std::optional<VertexId> target,
                         const ExecRow* outer_row) {
  ClearStack();
  visited_.clear();
  GRF_ASSIGN_OR_RETURN(std::vector<VertexId> seeds,
                       ArmProbe(std::move(starts), target, outer_row));
  sums_.assign(spec_->sum_bounds.size(), 0.0);
  for (VertexId start : seeds) {
    Hop root;
    root.vertex = start;
    if (spec_->global_visited) visited_.insert(start);
    Push(root, sums_.data());
  }
  return Status::OK();
}

void DfsScanner::Release() {
  ClearStack();
  emitted_.reset();
  PathScanner::Release();
}

void DfsScanner::ClearStack() {
  stack_.clear();
  stack_sums_.clear();
  path_.edges.clear();
  path_.vertexes.clear();
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
  if (hop.depth == 0) {
    path_.edges.clear();
  } else {
    path_.edges.resize(hop.depth - 1);
    path_.edges.push_back(hop.edge);
  }
  return hop;
}

Status DfsScanner::Expand() {
  const uint32_t depth = static_cast<uint32_t>(path_.Length()) + 1;
  return ExpandCore(
      BufferPrefix(*this), ctx_,
      [this](VertexId nbr) { return visited_.count(nbr) > 0; },
      [&](const EdgeEntry& edge, VertexId nbr, bool closing,
          const double* sums, double /*cost*/) {
        if (spec_->global_visited && !closing) visited_.insert(nbr);
        Hop hop;
        hop.vertex = nbr;
        hop.edge = edge.id;
        hop.depth = depth;
        hop.closing = closing;
        Push(hop, sums);
      });
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

StatusOr<bool> DfsScanner::Advance() {
  while (!stack_.empty()) {
    const Hop hop = Pop();
    // Path enumeration can be combinatorially unbounded, so a runaway
    // traversal must notice cancellation/deadline per expansion, not only at
    // the operator boundary (which it may never reach before emitting).
    GRF_RETURN_IF_ERROR(ctx_->CheckInterrupt());
    ++ctx_->stats().vertexes_expanded;
    if (!hop.closing && hop.depth < spec_->max_length) {
      GRF_RETURN_IF_ERROR(Expand());
      // Stack growth may have tripped the memory cap.
      GRF_RETURN_IF_ERROR(CheckMemoryCap());
    }
    GRF_ASSIGN_OR_RETURN(bool qualifies, Qualifies(path_, sums_.data()));
    if (qualifies) {
      ++ctx_->stats().paths_emitted;
      return true;
    }
  }
  return false;
}

StatusOr<bool> DfsScanner::Next(PathPtr* out) {
  GRF_ASSIGN_OR_RETURN(bool found, Advance());
  if (found) *out = Emit();
  return found;
}

}  // namespace grfusion
