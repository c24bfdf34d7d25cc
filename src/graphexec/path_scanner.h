#ifndef GRFUSION_GRAPHEXEC_PATH_SCANNER_H_
#define GRFUSION_GRAPHEXEC_PATH_SCANNER_H_

#include <algorithm>
#include <deque>
#include <memory>
#include <optional>
#include <unordered_set>
#include <utility>
#include <vector>

#include "exec/query_context.h"
#include "expr/row.h"
#include "graph/path.h"
#include "graphexec/traversal_spec.h"

namespace grfusion {

/// Lazy traversal engine behind the PathScan operator: enumerates simple
/// paths from a set of start vertexes, on demand, under a TraversalSpec.
///
/// The scanner is re-armed per probe row via Reset() — this is how an outer
/// relational join tuple "probes" the traversal (paper Fig. 6). Between
/// Reset() calls it holds the traversal frontier and yields one qualifying
/// path per Next(). This class itself is the per-path BFS engine: a FIFO
/// queue of Candidates, each a copied prefix.
///
/// Three engines derive from this one and share its per-edge admission
/// pipeline (ExpandCore): DfsScanner runs DFScan over a one-hop stack and a
/// single path buffer, FrontierScanner runs BFS level-synchronously over
/// whole frontiers, and ShortestPathScanner runs SPScan over a
/// prefix-sharing path arena. The virtual surface is exactly the
/// operator-facing triple Reset/Next/Release; MakePathScanner picks the
/// engine for a spec.
class PathScanner {
 public:
  PathScanner(std::shared_ptr<const TraversalSpec> spec, QueryContext* ctx);
  virtual ~PathScanner() = default;

  /// Arms the scanner for a new probe. `starts` may be empty (yields no
  /// paths). `target`, when set, restricts emission to paths ending there.
  /// `outer_row` is kept (borrowed) to evaluate predicate right-hand sides
  /// that reference outer columns; it must outlive the pulls.
  virtual Status Reset(std::vector<VertexId> starts,
                       std::optional<VertexId> target,
                       const ExecRow* outer_row);

  /// Produces the next qualifying path, or false when the traversal space is
  /// exhausted.
  virtual StatusOr<bool> Next(PathPtr* out);

  /// Drops frontier state and releases its memory charge (operator Close).
  virtual void Release() {
    frontier_.clear();
    visited_.clear();
    has_columns_ = false;
    ReleaseCharge();
  }

 protected:
  /// A partial (or complete) candidate path on the frontier.
  struct Candidate {
    PathData path;
    std::vector<double> sums;  ///< Running totals, one per spec sum-bound.
    bool closing = false;      ///< Cycle back to start: emit but never extend.
  };

  /// What a prefix accessor's Screen(v, slot) knows about extending the
  /// prefix to neighbor `v` over the edge at CSR `slot` (see ExpandCore).
  enum class Touch : uint8_t {
    kOff,   ///< v, and so every edge into v, is certainly off the prefix.
    kMay,   ///< v or the edge may be on the prefix: walk it.
    kDrop,  ///< The sink would drop the extension, and no check before it
            ///< could fail or count: skip the edge now.
  };

  /// ExpandCore's view of a Candidate prefix (see ExpandCore for the
  /// accessor contract).
  class CandidatePrefix {
   public:
    explicit CandidatePrefix(const Candidate& c) : c_(c) {}
    VertexId start() const { return c_.path.StartVertex(); }
    VertexId end() const { return c_.path.EndVertex(); }
    size_t len() const { return c_.path.Length(); }
    Touch Screen(VertexId, size_t) const { return Touch::kMay; }
    bool HasEdge(EdgeId e) const {
      return std::find(c_.path.edges.begin(), c_.path.edges.end(), e) !=
             c_.path.edges.end();
    }
    bool HasVertex(VertexId v) const {
      return std::find(c_.path.vertexes.begin(), c_.path.vertexes.end(), v) !=
             c_.path.vertexes.end();
    }
    const double* sums() const { return c_.sums.data(); }
    double cost() const { return c_.path.accumulated_cost; }

   private:
    const Candidate& c_;
  };

  /// Frontier-entry footprint for the query-memory accountant.
  static size_t CandidateBytes(const PathData& path) {
    return 64 + path.vertexes.size() * sizeof(VertexId) +
           path.edges.size() * sizeof(EdgeId);
  }

  /// Per-probe setup shared by every engine: drops the previous probe's
  /// charge, evaluates the sum bounds, and returns the sorted, deduplicated
  /// starts that exist and pass the pushed position-0 vertex filters (the
  /// seeds of the traversal).
  StatusOr<std::vector<VertexId>> ArmProbe(std::vector<VertexId> starts,
                                           std::optional<VertexId> target,
                                           const ExecRow* outer_row);

  /// Adds `bytes` to the frontier charge. A failed charge is recorded by the
  /// context (peak accounting); engines check current_bytes() against the
  /// cap after each expansion and abort there.
  void Charge(size_t bytes) {
    charged_ += bytes;
    (void)ctx_->ChargeBytes(bytes);
  }
  void Uncharge(size_t bytes) {
    ctx_->ReleaseBytes(bytes);
    charged_ -= std::min(charged_, bytes);
  }
  void ReleaseCharge() {
    if (charged_ > 0) {
      ctx_->ReleaseBytes(charged_);
      charged_ = 0;
    }
  }
  Status CheckMemoryCap() const {
    if (ctx_->over_budget()) {
      return Status::ResourceExhausted(
          "traversal frontier exceeded the query memory cap");
    }
    return Status::OK();
  }

  /// Pops the next candidate in BFS queue order.
  bool PopCandidate(Candidate* out);
  void PushCandidate(Candidate candidate);

  /// True when the path may be emitted (length window, target, pushed
  /// filters when running un-pushed, residual predicates, exact sum bounds).
  /// `sums` holds one running total per spec sum-bound.
  StatusOr<bool> Qualifies(const PathData& path, const double* sums);

  /// Expands `candidate` by every admissible incident edge, pushing the
  /// extensions onto the frontier.
  Status Expand(const Candidate& candidate);

  /// The Candidate for one admitted extension of `prefix` (the arguments
  /// ExpandCore hands its sink).
  Candidate Extend(const Candidate& prefix, const EdgeEntry& edge,
                   VertexId nbr, bool closing, const double* sums,
                   double cost) const;

  /// The per-edge admission pipeline shared by every engine: edge-simple /
  /// vertex-simple / closing-cycle rules, pushed element filters, sum-bound
  /// accumulation and monotone pruning, SPScan weight validation.
  ///
  /// `prefix` is an accessor over the path being extended:
  ///   start() / end() / len()       endpoints and length in edges;
  ///   HasEdge(e) / HasVertex(v)     membership (may walk the prefix);
  ///   Screen(v, slot)               the Touch of the extension to v over
  ///                                 the edge at `slot`: kOff skips both
  ///                                 walks, kDrop the whole edge;
  ///   sums() / cost()               running sum-bound totals and SPScan
  ///                                 cost. sums() is re-read per edge, so an
  ///                                 engine whose sink grows the storage
  ///                                 behind it stays valid.
  /// `already_visited(nbr)` implements the global_visited claim check
  /// (consulted only in that mode, and only for non-closing extensions).
  /// `sink(edge, nbr, closing, sums, cost)` receives each admissible
  /// extension in neighbor-enumeration order, after every check that can
  /// fail the statement, and owns visited marking.
  ///
  /// Edge attributes are read from the probe's flat columns (ArmProbe)
  /// when the edge sits in the CSR slice and no attribute write has landed
  /// since the columns' boundary, else through the tuple pointer.
  ///
  /// Thread-safety: reads only const state (spec_, outer_row_,
  /// sum_bound_values_, the probe's columns) plus whatever `prefix` reads,
  /// so concurrent workers may invoke this on a shared scanner as long as
  /// each passes its own `ctx` (stats, cancellation) and the visited set is
  /// frozen for the duration.
  template <typename Prefix, typename Visited, typename Sink>
  Status ExpandCore(const Prefix& prefix, QueryContext* ctx,
                    Visited&& already_visited, Sink&& sink) {
    const VertexEntry* end = spec_->gv->FindVertex(prefix.end());
    if (end == nullptr) return Status::OK();  // Vertex deleted mid-query.

    const VertexId start = prefix.start();
    const size_t edge_index = prefix.len();
    const size_t bounds = spec_->sum_bounds.size();
    const bool shortest =
        spec_->physical == TraversalSpec::Physical::kShortestPath;
    const bool columns = ColumnsUsable();
    std::vector<double> sums(bounds);
    Status status = Status::OK();

    spec_->gv->ForEachNeighborSlot(*end, [&](const EdgeEntry& edge,
                                             VertexId nbr, size_t slot) {
      ++ctx->stats().edges_examined;

      const Touch touch = prefix.Screen(nbr, slot);
      if (touch == Touch::kDrop) return true;
      // Edge-simple: never reuse an edge within one path.
      const bool touches = touch == Touch::kMay;
      if (touches && prefix.HasEdge(edge.id)) return true;
      // Vertex-simple, with one exception: an edge closing a cycle back to
      // the start vertex is emitted (that is how sub-graph patterns like
      // triangles are matched, paper Listing 4) but never extended.
      const bool closing = nbr == start && edge_index >= 1;
      if (!closing) {
        if (touches && prefix.HasVertex(nbr)) return true;
        if (spec_->global_visited && already_visited(nbr)) return true;
      }

      std::copy_n(prefix.sums(), bounds, sums.begin());
      if (spec_->push_filters) {
        if (has_edge_preds_) {
          auto edge_ok = EdgeAdmissible(edge, slot, edge_index, columns, ctx);
          if (!edge_ok.ok()) {
            status = edge_ok.status();
            return false;
          }
          if (!*edge_ok) {
            ++ctx->stats().paths_pruned;
            return true;
          }
        }
        if (has_vertex_preds_) {
          const VertexEntry* nv = spec_->gv->FindVertex(nbr);
          if (nv != nullptr) {
            auto vertex_ok = VertexAdmissible(*nv, edge_index + 1);
            if (!vertex_ok.ok()) {
              status = vertex_ok.status();
              return false;
            }
            if (!*vertex_ok) {
              ++ctx->stats().paths_pruned;
              return true;
            }
          }
        }
        // Accumulate sum bounds and prune monotone upper bounds early.
        for (size_t i = 0; i < bounds; ++i) {
          if (!AddEdgeNumber(edge, slot, SumColumn(i, columns),
                             spec_->sum_bounds[i].attr, ctx, &sums[i],
                             &status)) {
            return false;
          }
          CompareOp op = spec_->sum_bounds[i].op;
          double bound = sum_bound_values_[i];
          bool prune = (op == CompareOp::kLt && sums[i] >= bound) ||
                       (op == CompareOp::kLe && sums[i] > bound);
          if (prune) {
            ++ctx->stats().paths_pruned;
            return true;
          }
        }
      } else {
        // Pushdown disabled (ablation / paper §7.1 control): still
        // accumulate sums so emission checks stay exact.
        for (size_t i = 0; i < bounds; ++i) {
          if (!AddEdgeNumber(edge, slot, SumColumn(i, columns),
                             spec_->sum_bounds[i].attr, ctx, &sums[i],
                             &status)) {
            return false;
          }
        }
      }

      double cost = prefix.cost();
      if (shortest) {
        double w = 0.0;
        bool is_null = false;
        Status read =
            ReadEdgeNumber(edge, slot, columns ? weight_column_ : nullptr,
                           spec_->sp_attr, ctx, &w, &is_null);
        if (!read.ok()) {
          status = std::move(read);
          return false;
        }
        if (is_null || w < 0) {
          status = Status::InvalidArgument(
              "SHORTESTPATH requires a non-null, non-negative edge attribute");
          return false;
        }
        cost += w;
      }

      sink(edge, nbr, closing, sums.data(), cost);
      return true;
    });
    return status;
  }

  /// Incremental checks for appending `edge` (CSR `slot`) at position
  /// `edge_index`; false means the branch is pruned. `columns` is the
  /// expansion's ColumnsUsable(); tuple reads are counted in `ctx`.
  StatusOr<bool> EdgeAdmissible(const EdgeEntry& edge, size_t slot,
                                size_t edge_index, bool columns,
                                QueryContext* ctx);
  StatusOr<bool> VertexAdmissible(const VertexEntry& vertex,
                                  size_t vertex_index);

  /// Whether this expansion may read the probe's flat columns: one was
  /// resolved, and no edge attribute write has landed since (tested after
  /// the statement took its snapshot, once per expansion).
  bool ColumnsUsable() const {
    return has_columns_ && !spec_->gv->EdgeColumnsStale();
  }
  const EdgeAttrColumn* SumColumn(size_t i, bool columns) const {
    return columns ? sum_columns_[i] : nullptr;
  }

  /// Edge attribute `attr` of `edge` at CSR `slot`: from `column` when it
  /// describes the slot, else through the tuple pointer (source-column
  /// reads counted as attr_tuple_reads in `ctx`).
  StatusOr<Value> ReadEdgeValue(const EdgeEntry& edge, size_t slot,
                                const EdgeAttrColumn* column,
                                const ElementAttr& attr,
                                QueryContext* ctx) const {
    if (column != nullptr) {
      Value v;
      if (column->Read(slot, &v) != EdgeAttrColumn::Cell::kTuple) return v;
    }
    if (attr.field == ElementField::kSourceColumn) {
      ++ctx->stats().attr_tuple_reads;
    }
    return ExtractEdgeValue(*spec_->gv, edge, attr);
  }

  /// ReadEdgeValue for arithmetic (sum bounds, SPScan weights): the value
  /// as Value::AsNumeric into `*out`, or `*is_null`.
  Status ReadEdgeNumber(const EdgeEntry& edge, size_t slot,
                        const EdgeAttrColumn* column, const ElementAttr& attr,
                        QueryContext* ctx, double* out, bool* is_null) const {
    if (column != nullptr) {
      const EdgeAttrColumn::Cell cell = column->Numeric(slot, out);
      if (cell != EdgeAttrColumn::Cell::kTuple) {
        *is_null = cell == EdgeAttrColumn::Cell::kNull;
        return Status::OK();
      }
    }
    GRF_ASSIGN_OR_RETURN(Value v,
                         ReadEdgeValue(edge, slot, nullptr, attr, ctx));
    *is_null = v.is_null();
    if (!*is_null) *out = v.AsNumeric();
    return Status::OK();
  }

  /// Adds `attr` of `edge` (unless NULL) to `*sum`; on a failed read stores
  /// the error in `*status` and returns false.
  bool AddEdgeNumber(const EdgeEntry& edge, size_t slot,
                     const EdgeAttrColumn* column, const ElementAttr& attr,
                     QueryContext* ctx, double* sum, Status* status) const {
    double x = 0.0;
    bool is_null = false;
    Status read = ReadEdgeNumber(edge, slot, column, attr, ctx, &x, &is_null);
    if (!read.ok()) {
      *status = std::move(read);
      return false;
    }
    if (!is_null) *sum += x;
    return true;
  }

  std::shared_ptr<const TraversalSpec> spec_;
  QueryContext* ctx_;
  /// Whether any pushed element predicate tests vertexes (edges); without
  /// one the per-edge neighbor lookup for VertexAdmissible (the per-edge
  /// EdgeAdmissible call) is skipped.
  bool has_vertex_preds_ = false;
  bool has_edge_preds_ = false;

  const ExecRow* outer_row_ = nullptr;
  std::optional<VertexId> target_;
  std::vector<double> sum_bound_values_;  ///< Bounds evaluated per probe.

  /// Flat edge-attribute columns resolved per probe (nullptr: read tuples):
  /// one per element predicate, one per sum bound, the SPScan weight.
  std::vector<const EdgeAttrColumn*> pred_columns_;
  std::vector<const EdgeAttrColumn*> sum_columns_;
  const EdgeAttrColumn* weight_column_ = nullptr;
  bool has_columns_ = false;  ///< Any of the above is non-null.

  std::deque<Candidate> frontier_;  ///< BFS queue.
  std::unordered_set<VertexId> visited_;      ///< global_visited mode.
  size_t charged_ = 0;  ///< Bytes currently charged for the frontier.
};

/// The engine for `spec`: ShortestPathScanner for SPScan, DfsScanner for
/// DFScan, FrontierScanner for the level-synchronous BFS kernel, PathScanner
/// for per-path BFS.
std::unique_ptr<PathScanner> MakePathScanner(
    std::shared_ptr<const TraversalSpec> spec, QueryContext* ctx);

}  // namespace grfusion

#endif  // GRFUSION_GRAPHEXEC_PATH_SCANNER_H_
