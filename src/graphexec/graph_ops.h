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
/// Every probe is a morsel source: under an AggregateOp, Open buffers the
/// outer rows (and, for an unbound DFScan start, the view's vertexes in the
/// order DFS visits them), and workers drain one morsel at a time straight
/// into the aggregate's sink, which sees one copy of each outer row
/// (DESIGN.md §20). The planner never puts a visited-once probe under an
/// aggregate (visited-once search needs a LIMIT 1 statement), so morsels
/// never split a visited set.
///
/// With no relational FROM items the planner supplies a SingleRowOp outer,
/// making this the plain PathScan of a pure graph query.
class PathProbeJoinOp : public PhysicalOperator, public MorselSource {
 public:
  PathProbeJoinOp(OperatorPtr outer, std::shared_ptr<const TraversalSpec> spec);
  const Schema& schema() const override { return outer_->schema(); }
  std::string name() const override;
  std::string AnalyzeExtra() const override;
  std::vector<const PhysicalOperator*> children() const override {
    return {outer_.get()};
  }

  MorselSource* morsel_source() override { return this; }
  void set_morsel_mode(bool on) override { morsel_mode_ = on; }
  size_t morsel_count() const override { return morsel_count_; }
  std::unique_ptr<MorselReader> NewReader() const override;
  /// Per outer row of the morsel: re-arms the reader's scanner, copies the
  /// outer row into the reader's row once (at its first path), and hands the
  /// sink that row with the path slot pointing, without ownership, at each
  /// path: per path, or, from DFScan, once per leaf run when the sink takes
  /// runs.
  Status DrainMorsel(MorselReader* reader, size_t morsel, QueryContext* ctx,
                     const MorselSink& sink) const override;
  void FinishMorsels(const std::vector<const MorselReader*>& readers,
                     std::vector<uint64_t> worker_ns) override;

 protected:
  Status OpenImpl(QueryContext* ctx) override;
  StatusOr<bool> NextImpl(ExecRow* out) override;
  void CloseImpl() override;

 private:
  class Reader;

  /// Computes the start set for one outer row: the bound start expression's
  /// value, or every vertex of the graph view when unbound (paper §5.1.2).
  StatusOr<std::vector<VertexId>> StartsFor(const ExecRow& outer_row) const;
  /// Re-arms `scanner` for `outer_row` from `starts`; false when the row
  /// joins nothing (a NULL end vertex).
  StatusOr<bool> Arm(PathScanner* scanner, const ExecRow& outer_row,
                     std::vector<VertexId> starts) const;
  /// Morsel-mode Open: drains the outer child into the buffer, charged to
  /// the statement, and cuts the morsels.
  Status BufferMorsels();
  /// Whether an unbound start's starts are cut into slices of kMorselSize:
  /// only DFScan without visited-once search runs start by start, so only
  /// its slices, taken in order, keep the serial row order.
  bool SlicesStarts() const;

  OperatorPtr outer_;
  std::shared_ptr<const TraversalSpec> spec_;
  QueryContext* ctx_ = nullptr;
  std::unique_ptr<PathScanner> scanner_;
  ExecRow outer_row_;  ///< The outer row being probed.
  bool outer_valid_ = false;
  /// Copies of the outer row into a caller row (EXPLAIN ANALYZE), readers'
  /// included (FinishMorsels).
  uint64_t outer_copies_ = 0;
  /// Leaf runs and iterative-deepening passes of a morsel-mode probe's
  /// readers (FinishMorsels; EXPLAIN ANALYZE); a streaming probe asks its
  /// scanner.
  uint64_t leaf_runs_ = 0;
  uint64_t passes_ = 0;
  /// Edge-attribute reads this operator's traversals served from tuples
  /// rather than flat columns (EXPLAIN ANALYZE).
  uint64_t attr_tuple_reads_ = 0;
  /// Edges this operator's point-to-point bounds examined (EXPLAIN
  /// ANALYZE; a part of edges_examined).
  uint64_t bound_edges_ = 0;

  // Morsel source (set_morsel_mode).
  bool morsel_mode_ = false;
  std::vector<ExecRow> buffered_rows_;
  /// Unbound start sliced (SlicesStarts): the view's vertexes by descending
  /// id, the order a multi-source DFS pops its roots in, so morsel order is
  /// serial order.
  std::vector<VertexId> morsel_starts_;
  size_t buffered_bytes_ = 0;
  size_t morsel_count_ = 0;
  std::vector<uint64_t> worker_ns_;  ///< Busy time per worker of the run.
};

}  // namespace grfusion

#endif  // GRFUSION_GRAPHEXEC_GRAPH_OPS_H_
