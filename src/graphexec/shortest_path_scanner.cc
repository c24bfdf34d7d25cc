#include "graphexec/shortest_path_scanner.h"

#include <algorithm>

namespace grfusion {

/// ExpandCore's view of an arena record (see PathScanner::ExpandCore).
class ShortestPathScanner::RecordPrefix {
 public:
  RecordPrefix(const ShortestPathScanner& scanner, uint32_t r)
      : s_(scanner),
        r_(r),
        rec_(scanner.records_[r]),
        drop_(scanner.early_drop_spec_ && scanner.target_.has_value() &&
              scanner.weight_column_ != nullptr && scanner.ColumnsUsable()),
        bounded_(drop_ && scanner.bounded_) {}

  VertexId start() const { return rec_.start; }
  VertexId end() const { return rec_.vertex; }
  size_t len() const { return rec_.len; }
  /// Looks up (start, v) once; the sink reuses the position (found()).
  /// Every vertex on the prefix has been popped for expansion (its end just
  /// now), so a count of 0 proves v is off the prefix. A count at the cap
  /// means the sink drops the extension (rule (a)) unless v is the target;
  /// with no pushed filter or sum bound the only check before the sink that
  /// can fail is the weight's, so a column cell holding a valid weight lets
  /// the edge go before the prefix walks and the rest of the pipeline.
  /// Under the point-to-point bound, the same holds for an extension the
  /// bound rules off every optimal path; every cell is then a valid weight.
  Touch Screen(VertexId v, size_t slot) const {
    if (bounded_) {
      double w = 0.0;
      s_.weight_column_->Numeric(slot, &w);
      const size_t j = s_.spec_->gv->csr()->IndexOf(v);
      if ((rec_.cost + w) + s_.bound_.ToGo(j) > s_.bound_.CostLimit()) {
        return Touch::kDrop;
      }
    }
    found_ = s_.FindSlot(rec_.start, v);
    const ExpansionSlot& entry = s_.slots_[found_];
    if (!entry.used || entry.count == 0) return Touch::kOff;
    if (drop_ && entry.count >= s_.spec_->sp_expansion_cap &&
        v != *s_.target_) {
      double w = 0.0;
      if (s_.weight_column_->Numeric(slot, &w) ==
              EdgeAttrColumn::Cell::kValue &&
          !(w < 0)) {
        return Touch::kDrop;
      }
    }
    return Touch::kMay;
  }
  bool HasEdge(EdgeId e) const {
    for (uint32_t i = r_; s_.records_[i].parent != kNoRecord;
         i = s_.records_[i].parent) {
      if (s_.records_[i].edge == e) return true;
    }
    return false;
  }
  bool HasVertex(VertexId v) const {
    for (uint32_t i = r_; i != kNoRecord; i = s_.records_[i].parent) {
      if (s_.records_[i].vertex == v) return true;
    }
    return false;
  }
  const double* sums() const { return s_.SumsOf(r_); }
  double cost() const { return rec_.cost; }
  /// The slot-table position the last Screen found.
  size_t found() const { return found_; }

 private:
  const ShortestPathScanner& s_;
  uint32_t r_;
  Record rec_;    ///< A copy: the sink appends to records_.
  bool drop_;     ///< Early drops allowed for this expansion.
  bool bounded_;  ///< The bound's drops too.
  mutable size_t found_ = 0;
};

Status ShortestPathScanner::Reset(std::vector<VertexId> starts,
                                  std::optional<VertexId> target,
                                  const ExecRow* outer_row) {
  ClearArena();
  GRF_ASSIGN_OR_RETURN(std::vector<VertexId> seeds,
                       ArmProbe(std::move(starts), target, outer_row));
  if (spec_->point_to_point) {
    GRF_ASSIGN_OR_RETURN(bool reachable, ArmBound(seeds));
    if (!reachable) return Status::OK();
  }

  const std::vector<double> zeros(spec_->sum_bounds.size(), 0.0);
  for (VertexId start : seeds) {
    Record root;
    root.vertex = start;
    root.start = start;
    Push(root, zeros.data());
  }
  return Status::OK();
}

StatusOr<bool> ShortestPathScanner::ArmBound(
    const std::vector<VertexId>& seeds) {
  size_t s = 0, t = 0;
  if (!PointProbe(seeds, &s, &t) || weight_column_ == nullptr ||
      !ColumnsUsable() || !weight_column_->AllNonNegative()) {
    return true;
  }
  if (t == CsrTopology::kAbsent) return false;
  const GraphView& gv = *spec_->gv;
  GRF_ASSIGN_OR_RETURN(PointBound::Outcome outcome,
                       bound_.RunDijkstra(*gv.csr(), gv.directed(), s, t,
                                          *weight_column_, ctx_));
  bounded_ = outcome == PointBound::Outcome::kBound;
  return outcome != PointBound::Outcome::kUnreachable;
}

void ShortestPathScanner::Release() {
  ClearArena();
  PathScanner::Release();
}

void ShortestPathScanner::ClearArena() {
  records_.clear();
  record_sums_.clear();
  queue_.clear();
  slots_.clear();
  slots_used_ = 0;
  arena_full_ = false;
}

size_t ShortestPathScanner::FindSlot(VertexId start, VertexId v) const {
  const uint64_t hash = (static_cast<uint64_t>(start) * 0x9E3779B97F4A7C15ull +
                         static_cast<uint64_t>(v)) *
                        0xC2B2AE3D27D4EB4Full;
  const size_t mask = slots_.size() - 1;
  size_t pos = static_cast<size_t>(hash >> 32) & mask;
  while (slots_[pos].used &&
         (slots_[pos].vertex != v || slots_[pos].start != start)) {
    pos = (pos + 1) & mask;
  }
  return pos;
}

ShortestPathScanner::ExpansionSlot& ShortestPathScanner::SlotAt(
    size_t pos, VertexId start, VertexId v) {
  if (slots_[pos].used) return slots_[pos];
  // Grow at a 1/2 load, so probe runs stay short.
  if (2 * (slots_used_ + 1) > slots_.size()) {
    const std::vector<ExpansionSlot> old = std::move(slots_);
    slots_.assign(2 * old.size(), ExpansionSlot{});
    Charge(old.size() * sizeof(ExpansionSlot));  // The table doubled.
    for (const ExpansionSlot& entry : old) {
      if (entry.used) slots_[FindSlot(entry.start, entry.vertex)] = entry;
    }
    pos = FindSlot(start, v);
  }
  ExpansionSlot& entry = slots_[pos];
  entry.start = start;
  entry.vertex = v;
  entry.used = true;
  ++slots_used_;
  return entry;
}

ShortestPathScanner::ExpansionSlot& ShortestPathScanner::Slot(VertexId start,
                                                              VertexId v) {
  if (slots_.empty()) {
    slots_.assign(kInitialSlots, ExpansionSlot{});
    Charge(slots_.size() * sizeof(ExpansionSlot));
  }
  return SlotAt(FindSlot(start, v), start, v);
}

int ShortestPathScanner::CompareChains(uint32_t a, uint32_t b) const {
  // Lift the longer path to the shorter one's length. If the lifted prefix
  // equals the shorter path's vertexes, the shorter (a proper prefix) orders
  // first.
  int length_order = 0;
  while (records_[a].len > records_[b].len) {
    a = records_[a].parent;
    length_order = 1;
  }
  while (records_[b].len > records_[a].len) {
    b = records_[b].parent;
    length_order = -1;
  }
  // Walk both chains up to their common ancestor (or past two roots); the
  // last difference seen is the one nearest the start, which decides.
  int vertex_order = 0;
  int edge_order = 0;
  while (a != b) {
    const Record& ra = records_[a];
    const Record& rb = records_[b];
    if (ra.vertex != rb.vertex) vertex_order = ra.vertex < rb.vertex ? -1 : 1;
    if (ra.edge != rb.edge) edge_order = ra.edge < rb.edge ? -1 : 1;
    a = ra.parent;
    b = rb.parent;
  }
  if (vertex_order != 0) return vertex_order;
  return length_order != 0 ? length_order : edge_order;
}

PathData ShortestPathScanner::Materialize(uint32_t r) const {
  PathData path;
  for (uint32_t i = r; i != kNoRecord; i = records_[i].parent) {
    const Record& rec = records_[i];
    path.vertexes.push_back(rec.vertex);
    if (rec.parent != kNoRecord) path.edges.push_back(rec.edge);
  }
  std::reverse(path.vertexes.begin(), path.vertexes.end());
  std::reverse(path.edges.begin(), path.edges.end());
  path.accumulated_cost = records_[r].cost;
  return path;
}

void ShortestPathScanner::Push(const Record& record, const double* sums) {
  if (records_.size() >= kNoRecord) {
    arena_full_ = true;
    return;
  }
  const uint32_t r = static_cast<uint32_t>(records_.size());
  records_.push_back(record);
  record_sums_.insert(record_sums_.end(), sums,
                      sums + spec_->sum_bounds.size());
  queue_.push_back({record.cost, r});
  std::push_heap(queue_.begin(), queue_.end(),
                 [this](const QueueEntry& a, const QueueEntry& b) {
                   return PopsAfter(a, b);
                 });
  Charge(RecordBytes());
  ctx_->stats().NoteFrontier(queue_.size());
}

Status ShortestPathScanner::Expand(uint32_t r) {
  const Record parent = records_[r];
  const size_t cap = spec_->sp_expansion_cap;
  const RecordPrefix prefix(*this, r);
  return ExpandCore(
      prefix, ctx_, [](VertexId) { return false; },
      [&](const EdgeEntry& edge, VertexId nbr, bool closing,
          const double* sums, double cost) {
        Record next;
        next.parent = r;
        next.len = parent.len + 1;
        next.vertex = nbr;
        next.edge = edge.id;
        next.start = parent.start;
        next.cost = cost;
        next.closing = closing;
        // Push-time drops. A path ending off the bound target is never
        // emitted, so such a record matters only if it will be expanded.
        if (target_.has_value() && nbr != *target_) {
          // (b) A closing or length-capped record is never expanded.
          if (closing || next.len >= spec_->max_length) return;
          ExpansionSlot& slot = SlotAt(prefix.found(), parent.start, nbr);
          // (a) Counts only grow, so a (start, nbr) already at the cap
          // refuses every later expansion.
          if (slot.count >= cap) return;
          // (c) With cap 1, a strictly cheaper expandable record to nbr
          // pops first and uses up the cap (or already has).
          if (cap == 1) {
            if (slot.best < cost) return;
            slot.best = cost;
          }
        }
        Push(next, sums);
      });
}

StatusOr<bool> ShortestPathScanner::Next(PathPtr* out) {
  while (!queue_.empty()) {
    std::pop_heap(queue_.begin(), queue_.end(),
                  [this](const QueueEntry& a, const QueueEntry& b) {
                    return PopsAfter(a, b);
                  });
    const uint32_t r = queue_.back().record;
    queue_.pop_back();
    // Path enumeration can be combinatorially unbounded, so a runaway
    // traversal must notice cancellation/deadline per expansion, not only at
    // the operator boundary (which it may never reach before emitting).
    GRF_RETURN_IF_ERROR(ctx_->CheckInterrupt());
    ++ctx_->stats().vertexes_expanded;
    const Record rec = records_[r];
    if (!rec.closing && rec.len < spec_->max_length) {
      // K-shortest-paths expansion cap (classic pruning), counted per
      // (start, vertex) so every start enumerates its own k shortest paths
      // independently — identical under serial and per-morsel parallel
      // execution. Counted without a cap too, for RecordPrefix::Screen.
      if (++Slot(rec.start, rec.vertex).count <= spec_->sp_expansion_cap) {
        GRF_RETURN_IF_ERROR(Expand(r));
      }
      if (arena_full_) {
        return Status::ResourceExhausted(
            "shortest-path arena exceeded its record index space");
      }
      // Arena growth may have tripped the memory cap.
      GRF_RETURN_IF_ERROR(CheckMemoryCap());
    }
    // Cheap pre-filters ahead of Qualifies, so a path is materialized only
    // for plausible emissions.
    if (rec.len < spec_->min_length || rec.len > spec_->max_length) continue;
    if (target_.has_value() && rec.vertex != *target_) continue;
    PathData path = Materialize(r);
    GRF_ASSIGN_OR_RETURN(bool qualifies, Qualifies(path, SumsOf(r)));
    if (qualifies) {
      ++ctx_->stats().paths_emitted;
      *out = std::make_shared<const PathData>(std::move(path));
      return true;
    }
  }
  return false;
}

}  // namespace grfusion
