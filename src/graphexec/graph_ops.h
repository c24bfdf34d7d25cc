#ifndef GRFUSION_GRAPHEXEC_GRAPH_OPS_H_
#define GRFUSION_GRAPHEXEC_GRAPH_OPS_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "exec/morsel.h"
#include "exec/operator.h"
#include "exec/row_layout.h"
#include "expr/expression.h"
#include "graph/graph_view.h"
#include "graphexec/path_scanner.h"
#include "graphexec/traversal_spec.h"

namespace grfusion {

/// Scans the vertexes of a graph view through the in-memory topology,
/// exposing each as a relational row (ID, attrs..., FANOUT, FANIN) — the
/// paper's VertexScan operator (§5.1.1). Fan-in/fan-out come from the
/// adjacency lists in O(1); attributes are fetched through tuple pointers.
class VertexScanOp : public PhysicalOperator {
 public:
  /// `id_probe`, when set, is a row-independent expression whose value
  /// selects a single vertex through the topology's id hash map in O(1)
  /// (chosen by the planner for `V.ID = <constant>` predicates).
  VertexScanOp(const GraphView* gv, ExprPtr qualifier, RowLayout layout,
               size_t offset, ExprPtr id_probe = nullptr);
  const Schema& schema() const override { return *layout_.schema; }
  std::string name() const override;
  std::string AnalyzeExtra() const override;

 protected:
  Status OpenImpl(QueryContext* ctx) override;
  StatusOr<bool> NextImpl(ExecRow* out) override;
  void CloseImpl() override;

 private:
  /// Evaluates the qualifier over id morsels on the task pool, materializing
  /// passing rows in morsel order (= serial scan order). Used when the scan
  /// is large enough and the context enables parallelism.
  Status ParallelFilterOpen();
  /// Builds the exposed row for `id` and applies the qualifier; false means
  /// "no row" (tombstoned id or filtered out). Stats go to `ctx`, which is a
  /// private worker context on the parallel path.
  StatusOr<bool> MakeRow(VertexId id, ExecRow* out, QueryContext* ctx);

  const GraphView* gv_;
  ExprPtr qualifier_;
  RowLayout layout_;
  size_t offset_;
  ExprPtr id_probe_;
  Schema exposed_;
  std::vector<int> attr_columns_;  ///< Source columns of exposed attributes.

  QueryContext* ctx_ = nullptr;
  std::vector<VertexId> ids_;
  size_t cursor_ = 0;
  /// Parallel-filter mode: rows pre-materialized in Open.
  bool materialized_ = false;
  std::vector<ExecRow> buffered_;
  size_t buffered_bytes_ = 0;
  size_t parallel_morsels_ = 0;
};

/// Scans the edges of a graph view (ID, FROM, TO, attrs...) — the paper's
/// EdgeScan operator.
class EdgeScanOp : public PhysicalOperator {
 public:
  EdgeScanOp(const GraphView* gv, ExprPtr qualifier, RowLayout layout,
             size_t offset);
  const Schema& schema() const override { return *layout_.schema; }
  std::string name() const override;
  std::string AnalyzeExtra() const override;

 protected:
  Status OpenImpl(QueryContext* ctx) override;
  StatusOr<bool> NextImpl(ExecRow* out) override;
  void CloseImpl() override;

 private:
  Status ParallelFilterOpen();
  StatusOr<bool> MakeRow(EdgeId id, ExecRow* out, QueryContext* ctx);

  const GraphView* gv_;
  ExprPtr qualifier_;
  RowLayout layout_;
  size_t offset_;
  Schema exposed_;
  std::vector<int> attr_columns_;

  QueryContext* ctx_ = nullptr;
  std::vector<EdgeId> ids_;
  size_t cursor_ = 0;
  bool materialized_ = false;
  std::vector<ExecRow> buffered_;
  size_t buffered_bytes_ = 0;
  size_t parallel_morsels_ = 0;
};

/// The cross-data-model join of paper Fig. 6: each row of the relational
/// outer child probes the PathScan — the outer row's start/end bindings are
/// evaluated, the traversal is re-armed, and each lazily produced path is
/// attached to a copy of the outer row at the path's slot. The copy is
/// assigned into the caller's row, whose path slot is released before each
/// pull, so a pipeline that reuses its row allocates no row per path.
///
/// The paths of one outer row form a run. A caller in the run protocol
/// (PhysicalOperator::Next) gets the outer row copied once per run; every
/// later path of the run only swaps the path slot and reports the columns
/// unchanged. A new outer row, a re-Open, or a call outside the protocol
/// ends the run.
///
/// A DFS probe without visited-once search is a morsel source: under an
/// AggregateOp, Open buffers the outer rows (and, for an unbound start, the
/// view's vertexes in the order DFS visits them) and readers probe one
/// morsel each (DESIGN.md §20).
///
/// With no relational FROM items the planner supplies a SingleRowOp outer,
/// making this the plain PathScan of a pure graph query.
class PathProbeJoinOp : public PhysicalOperator, public MorselSource {
 public:
  PathProbeJoinOp(OperatorPtr outer, std::shared_ptr<const TraversalSpec> spec);
  const Schema& schema() const override {
    return source_ != nullptr ? source_->schema() : outer_->schema();
  }
  std::string name() const override;
  std::string AnalyzeExtra() const override;
  std::vector<const PhysicalOperator*> children() const override {
    if (outer_ == nullptr) return {};
    return {outer_.get()};
  }

  MorselSource* morsel_source() override;
  void set_morsel_mode(bool on) override { morsel_mode_ = on; }
  size_t morsel_count() const override { return morsel_count_; }
  OperatorPtr NewReader() const override;
  void SelectMorsel(PhysicalOperator* reader, size_t morsel) const override;
  void FinishMorsels(const std::vector<const PhysicalOperator*>& readers,
                     std::vector<uint64_t> worker_ns) override;

 protected:
  Status OpenImpl(QueryContext* ctx) override;
  StatusOr<bool> NextImpl(ExecRow* out) override;
  void CloseImpl() override;

 private:
  /// A reader of `source`'s morsels (NewReader).
  explicit PathProbeJoinOp(const PathProbeJoinOp* source);

  /// Computes the start set for one outer row: the bound start expression's
  /// value, or every vertex of the graph view when unbound (paper §5.1.2) —
  /// a reader's share of them.
  StatusOr<std::vector<VertexId>> StartsFor(const ExecRow& outer_row);
  /// Points probe_row_ at the next outer row: pulled from the outer child,
  /// or a reader's next buffered row.
  StatusOr<bool> NextOuterRow();
  /// Morsel-mode Open: drains the outer child into the buffer, charged to
  /// the statement, and cuts the morsels.
  Status BufferMorsels();

  OperatorPtr outer_;  ///< Null for a reader.
  std::shared_ptr<const TraversalSpec> spec_;
  QueryContext* ctx_ = nullptr;
  std::unique_ptr<PathScanner> scanner_;
  ExecRow outer_row_;
  /// The outer row being probed: outer_row_, or a reader's buffered row.
  const ExecRow* probe_row_ = nullptr;
  bool outer_valid_ = false;
  /// The caller row that holds the current outer row's columns under the
  /// run protocol's promise; null when no run is open. Cleared whenever a
  /// new outer row is pulled (so a re-Open starts a fresh run) and on every
  /// call outside the protocol.
  const ExecRow* run_row_ = nullptr;
  /// Copies of the outer row into a caller row (EXPLAIN ANALYZE). A reader
  /// accumulates these across its morsels; FinishMorsels folds them.
  uint64_t outer_copies_ = 0;
  /// Edge-attribute reads this operator's traversals served from tuples
  /// rather than flat columns (EXPLAIN ANALYZE).
  uint64_t attr_tuple_reads_ = 0;

  // Morsel source (set_morsel_mode).
  bool morsel_mode_ = false;
  std::vector<ExecRow> buffered_rows_;
  /// Unbound start: the view's vertexes by descending id, the order a
  /// multi-source DFS pops its roots in, so morsel order is serial order.
  std::vector<VertexId> morsel_starts_;
  size_t buffered_bytes_ = 0;
  size_t morsel_count_ = 0;
  std::vector<uint64_t> worker_ns_;  ///< Busy time per worker of the run.

  // Reader: `source_`'s rows [row_next_, row_end_) and, for an unbound
  // start, its starts [start_begin_, start_end_).
  const PathProbeJoinOp* source_ = nullptr;
  size_t row_next_ = 0;
  size_t row_end_ = 0;
  size_t start_begin_ = 0;
  size_t start_end_ = 0;
};

}  // namespace grfusion

#endif  // GRFUSION_GRAPHEXEC_GRAPH_OPS_H_
