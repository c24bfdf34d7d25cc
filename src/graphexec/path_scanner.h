#ifndef GRFUSION_GRAPHEXEC_PATH_SCANNER_H_
#define GRFUSION_GRAPHEXEC_PATH_SCANNER_H_

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "exec/query_context.h"
#include "expr/row.h"
#include "graph/path.h"
#include "graphexec/point_bound.h"
#include "graphexec/traversal_spec.h"

namespace grfusion {

/// Lazy traversal engine behind the PathScan operator: enumerates simple
/// paths from a set of start vertexes, on demand, under a TraversalSpec.
///
/// The scanner is re-armed per probe row via Reset() — this is how an outer
/// relational join tuple "probes" the traversal (paper Fig. 6). Between
/// Reset() calls it holds the traversal state and yields one qualifying
/// path per Next().
///
/// Three engines derive from this base and share its per-edge admission
/// rules (AdmitEdge, which ExpandCore runs over a vertex's neighbors):
/// DfsScanner runs DFScan, and BFScan as iterative deepening, over a
/// one-hop stack and a single path buffer; FrontierScanner runs the
/// visited-once BFS forest; ShortestPathScanner runs SPScan over a
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
                       const ExecRow* outer_row) = 0;

  /// Produces the next qualifying path, or false when the traversal space is
  /// exhausted.
  virtual StatusOr<bool> Next(PathPtr* out) = 0;

  /// Drops traversal state and releases its memory charge (operator Close).
  virtual void Release() {
    has_columns_ = false;
    bounded_ = false;
    bound_.Release(ctx_);
    ReleaseCharge();
  }

 protected:
  /// What a prefix accessor's Screen(v, slot) knows about extending the
  /// prefix to neighbor `v` over the edge at CSR `slot` (see AdmitEdge).
  enum class Touch : uint8_t {
    kOff,   ///< v, and so every edge into v, is certainly off the prefix.
    kMay,   ///< v or the edge may be on the prefix: walk it.
    kDrop,  ///< The sink would drop the extension, and no check before it
            ///< could fail or count: skip the edge now.
  };

  /// AdmitEdge's verdict on one edge.
  enum class Admit : uint8_t {
    kSkip,   ///< No extension: a path rule or a pushed filter rejects it.
    kAdmit,  ///< An admissible extension.
    kFail,   ///< A read or a predicate failed the statement.
  };

  /// The constants of one expansion that AdmitEdge reads for every edge,
  /// copied out of the spec so a per-edge counter store cannot force their
  /// reload.
  struct Expansion {
    VertexId start = 0;         ///< The prefix's first vertex.
    size_t edge_index = 0;      ///< The prefix's length: the new edge's index.
    size_t bounds = 0;          ///< spec_->sum_bounds.size().
    bool columns = false;       ///< ColumnsUsable() for this expansion.
    bool visited_once = false;  ///< spec_->global_visited.
    /// Pushed element filters, sum bounds or an SPScan weight: an admitted
    /// edge's attributes must be read (AdmitAttrs).
    bool attrs = false;
  };

  /// The Expansion of a prefix from `start`, `len` edges long.
  Expansion ExpansionOf(VertexId start, size_t len) const {
    Expansion x;
    x.start = start;
    x.edge_index = len;
    x.bounds = spec_->sum_bounds.size();
    x.columns = ColumnsUsable();
    x.visited_once = spec_->global_visited;
    x.attrs = x.bounds > 0 ||
              spec_->physical == TraversalSpec::Physical::kShortestPath ||
              (spec_->push_filters && (has_edge_preds_ || has_vertex_preds_));
    return x;
  }

  /// Per-probe setup shared by every engine: drops the previous probe's
  /// charge and bound, evaluates the sum bounds, and returns the sorted,
  /// deduplicated starts that exist and pass the pushed position-0 vertex
  /// filters (the seeds of the traversal).
  StatusOr<std::vector<VertexId>> ArmProbe(std::vector<VertexId> starts,
                                           std::optional<VertexId> target,
                                           const ExecRow* outer_row);

  /// The run-time rules of a point-to-point bound, past the planner's
  /// (TraversalSpec::point_to_point): one seed, a target other than it,
  /// and a pure-CSR view. On true, `*s` and `*t` are their CSR indexes;
  /// `*t` is CsrTopology::kAbsent when the target is not a vertex.
  bool PointProbe(const std::vector<VertexId>& seeds, size_t* s,
                  size_t* t) const;

  /// Adds `bytes` to the traversal's charge. A failed charge is recorded by
  /// the context (peak accounting); engines check current_bytes() against
  /// the cap after each expansion and abort there.
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

  /// True when the path may be emitted (length window, target, pushed
  /// filters when running un-pushed, residual predicates, exact sum bounds).
  /// `sums` holds one running total per spec sum-bound.
  StatusOr<bool> Qualifies(const PathData& path, const double* sums);

  /// The per-edge admission rules shared by every engine: edge-simple /
  /// vertex-simple / closing-cycle rules, the global_visited claim test,
  /// then (AdmitAttrs) pushed element filters, sum-bound accumulation and
  /// monotone pruning, SPScan weight validation. Counts the edge in
  /// edges_examined and each pushed-filter cut in paths_pruned.
  ///
  /// `prefix` is an accessor over the path being extended:
  ///   HasEdge(e) / HasVertex(v)     membership (may walk the prefix);
  ///   Screen(v, slot)               the Touch of the extension to v over
  ///                                 the edge at `slot`: kOff skips both
  ///                                 walks, kDrop the whole edge;
  ///   sums() / cost()               running sum-bound totals and SPScan
  ///                                 cost.
  /// The caller resolves the neighbor: `visited()` is the global_visited
  /// claim test (asked only in that mode, and only for a non-closing
  /// extension) and `entry()` its VertexEntry, or nullptr, for pushed vertex
  /// predicates. Each is called at most once, so a caller that resolves the
  /// neighbor once looks it up once.
  ///
  /// On kAdmit, `*closing`, `sums` (one total per sum bound) and `*cost`
  /// describe the extension; on kFail, `*status` holds the error.
  ///
  /// The path rules are always inlined: they run once per edge examined,
  /// and a call per edge cost the DFS path pipeline about 10% of its
  /// throughput. The attribute checks stay out of line, so the traversal
  /// loops that inline this keep their registers. A loop whose expansion
  /// reads no attributes (!x.attrs) may instantiate kAttrs = false, which
  /// compiles the AdmitAttrs branch out.
  template <bool kAttrs = true, typename Prefix, typename Visited,
            typename Entry>
  [[gnu::always_inline]] Admit AdmitEdge(
      const Prefix& prefix, const Expansion& x, const EdgeEntry& edge,
      VertexId nbr, size_t slot, QueryContext* ctx, Visited&& visited,
      Entry&& entry, bool* closing, double* sums, double* cost,
      Status* status) {
    ++ctx->stats().edges_examined;

    const Touch touch = prefix.Screen(nbr, slot);
    if (touch == Touch::kDrop) return Admit::kSkip;
    // Edge-simple: never reuse an edge within one path.
    const bool touches = touch == Touch::kMay;
    if (touches && prefix.HasEdge(edge.id)) return Admit::kSkip;
    // Vertex-simple, with one exception: an edge closing a cycle back to
    // the start vertex is emitted (that is how sub-graph patterns like
    // triangles are matched, paper Listing 4) but never extended.
    const bool closes = nbr == x.start && x.edge_index >= 1;
    if (!closes) {
      if (touches && prefix.HasVertex(nbr)) return Admit::kSkip;
      if (x.visited_once && visited()) return Admit::kSkip;
    }
    *closing = closes;
    *cost = prefix.cost();
    if (!kAttrs || !x.attrs) return Admit::kAdmit;
    return AdmitAttrs(x, edge, slot, ctx,
                      spec_->push_filters && has_vertex_preds_ ? entry()
                                                               : nullptr,
                      prefix.sums(), sums, cost, status);
  }

  /// AdmitEdge's attribute checks for an edge that passed the path rules:
  /// pushed edge and vertex filters (`nv` is the neighbor's entry, or
  /// nullptr), sum-bound accumulation from `prefix_sums` into `sums` with
  /// monotone pruning, and the SPScan weight added to `*cost`. Edge
  /// attributes are read from the probe's flat columns (ArmProbe) when
  /// `x.columns` holds and the edge sits in the CSR slice, else through
  /// the tuple pointer.
  Admit AdmitAttrs(const Expansion& x, const EdgeEntry& edge, size_t slot,
                   QueryContext* ctx, const VertexEntry* nv,
                   const double* prefix_sums, double* sums, double* cost,
                   Status* status);

  /// Runs AdmitEdge over every neighbor of the prefix's end vertex, in
  /// ForEachNeighborSlot order, calling `sink(edge, nbr, closing, sums,
  /// cost)` for each admissible extension, after every check that can fail
  /// the statement. The sink owns visited marking. Beyond AdmitEdge's
  /// accessors, `prefix` provides start() / end() / len() (endpoints and
  /// length in edges); its sums() are re-read per edge, so an engine whose
  /// sink grows the storage behind them stays valid. `already_visited(nbr)`
  /// is the global_visited claim test.
  ///
  /// Thread-safety: reads only const state (spec_, outer_row_,
  /// sum_bound_values_, the probe's columns) plus whatever `prefix` reads,
  /// so concurrent workers may invoke this on a shared scanner as long as
  /// each passes its own `ctx` (stats, cancellation).
  template <typename Prefix, typename Visited, typename Sink>
  Status ExpandCore(const Prefix& prefix, QueryContext* ctx,
                    Visited&& already_visited, Sink&& sink) {
    const GraphView& gv = *spec_->gv;
    const VertexEntry* end = gv.FindVertex(prefix.end());
    if (end == nullptr) return Status::OK();  // Vertex deleted mid-query.

    const Expansion x = ExpansionOf(prefix.start(), prefix.len());
    std::vector<double> sums(x.bounds);
    Status status = Status::OK();
    gv.ForEachNeighborSlot(*end, [&](const EdgeEntry& edge, VertexId nbr,
                                     size_t slot) {
      bool closing = false;
      double cost = 0.0;
      const Admit admit = AdmitEdge(
          prefix, x, edge, nbr, slot, ctx,
          [&] { return already_visited(nbr); },
          [&] { return gv.FindVertex(nbr); }, &closing, sums.data(), &cost,
          &status);
      if (admit == Admit::kAdmit) sink(edge, nbr, closing, sums.data(), cost);
      return admit != Admit::kFail;
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

  size_t charged_ = 0;  ///< Bytes currently charged for traversal state.

  /// The point-to-point bound (PointProbe), and whether it describes the
  /// current probe.
  PointBound bound_;
  bool bounded_ = false;
};

/// The engine for `spec`: ShortestPathScanner for SPScan, FrontierScanner
/// for visited-once BFS, DfsScanner for DFScan and every other BFScan.
std::unique_ptr<PathScanner> MakePathScanner(
    std::shared_ptr<const TraversalSpec> spec, QueryContext* ctx);

}  // namespace grfusion

#endif  // GRFUSION_GRAPHEXEC_PATH_SCANNER_H_
