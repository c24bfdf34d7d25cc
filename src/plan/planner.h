#ifndef GRFUSION_PLAN_PLANNER_H_
#define GRFUSION_PLAN_PLANNER_H_

#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "exec/operator.h"
#include "exec/query_context.h"
#include "exec/row_layout.h"
#include "graphexec/traversal_spec.h"
#include "parser/ast.h"
#include "plan/binder.h"

namespace grfusion {

/// Optimizer switches. Defaults match the paper's full system; benches flip
/// individual flags for the §6 ablations.
struct PlannerOptions {
  /// Push per-element path filters into the traversal (§6.2).
  bool enable_filter_pushdown = true;

  /// Infer the admissible path-length window from predicates (§6.1). When
  /// disabled, Length predicates are evaluated per emitted path and the
  /// traversal depth is capped at `fallback_max_length`.
  bool enable_length_inference = true;

  /// Traversal depth cap when no length bound is inferable (safety net for
  /// the ablation mode; the full system leaves unbounded queries unbounded).
  size_t fallback_max_length = 12;

  /// Use hash indexes for `column = constant` scans.
  bool enable_index_scan = true;

  /// Allow the visited-once reachability fast path (LIMIT 1 + bound target).
  bool enable_reachability_fastpath = true;

  /// Allow the level-synchronous frontier kernel for BFS path scans whose
  /// estimated frontier reaches frontier_min_batch. The kernel's batched
  /// level expansion (morsel-parallel when large) yields results identical
  /// to the serial BFS engine, so this is purely a physical choice.
  bool enable_frontier_bfs = true;

  /// Estimated frontier size (vertexes per level) below which BFS stays on
  /// the per-path engine: batching tiny frontiers only adds overhead.
  size_t frontier_min_batch = 32;

  /// Physical traversal when no hint is given and the §6.3 rule does not
  /// apply: kAuto applies the F-vs-L rule when a length is inferred and
  /// falls back to DFS; kDfs / kBfs force one operator.
  enum class Traversal { kAuto, kDfs, kBfs };
  Traversal default_traversal = Traversal::kAuto;

  /// Intermediate-result memory cap for executing queries.
  size_t memory_cap = QueryContext::kDefaultMemoryCap;

  /// Queries slower than this emit one structured JSON trace line with the
  /// SQL, latency, and per-operator breakdown. -1 disables tracing; 0 traces
  /// every query. When armed, per-operator wall-time collection is on for
  /// all queries.
  int64_t slow_query_threshold_us = -1;

  /// Destination for slow-query trace lines; empty means stderr.
  std::string slow_query_log_path;

  /// Worker fan-out ceiling for morsel-driven parallel execution (parallel
  /// multi-source PathScan, parallel Vertex/EdgeScan qualifier evaluation,
  /// parallel graph-view construction). 1 reproduces the single-threaded
  /// engine exactly; 0 means "use hardware_concurrency".
  size_t max_parallelism = 0;

  /// Inputs below this row count stay on the serial path even when
  /// parallelism is enabled (fan-out overhead dominates tiny inputs).
  /// Tests lower it to exercise parallel execution on small graphs.
  /// Governs per-row work: parallel scans and graph-view builds.
  size_t parallel_min_rows = 2048;

  /// Multi-source path probes fan out only with at least this many distinct
  /// start vertices (never fewer than 2). A separate, much lower threshold
  /// than parallel_min_rows because each start seeds a whole traversal;
  /// raising it arbitrarily high disables probe fan-out, like
  /// max_parallelism = 1 does globally.
  size_t parallel_min_starts = 8;

  /// Statement timeout in microseconds. Every statement gets a monotonic
  /// deadline this far in the future and returns DeadlineExceeded once the
  /// cooperative checks observe it. -1 disables; 0 expires at the first
  /// check (tests).
  int64_t statement_timeout_us = -1;

  /// Arms a CancellationToken on every statement so Database::interrupt_
  /// handle() can stop it from another thread. Disabling this AND the
  /// timeout leaves the context's token null, reducing every cooperative
  /// check to a single null test — the bench baseline for measuring the
  /// disarmed-path overhead.
  bool enable_interrupts = true;

  /// Resolves max_parallelism = 0 to the hardware default.
  size_t effective_parallelism() const;

  /// Serializes the options that change plan shape (optimizer switches and
  /// parallelism thresholds) into a stable string, used as part of the
  /// plan-cache key. Execution-only knobs (memory cap, timeouts, tracing)
  /// are deliberately excluded: plans compiled under different values of
  /// those are interchangeable.
  std::string PlanShapeKey() const;
};

/// A compiled query: the physical operator tree plus result column names.
struct PlannedQuery {
  OperatorPtr root;
  std::vector<std::string> output_names;

  /// True when any FROM item reads a SYS.* virtual table. Cached so the
  /// session layer can decide (without re-walking the AST) whether running
  /// this plan may not overwrite the published SYS.LAST_QUERY profile.
  bool reads_system_tables = false;
};

/// Translates a parsed SELECT into a cross-data-model physical plan
/// (paper §5.2/§5.3): relational FROM items join first (left-deep, hash join
/// on equi-predicates), then each GV.PATHS alias becomes a PathProbeJoin
/// whose TraversalSpec carries the start/end bindings, inferred length
/// window, pushed filters, and the logical→physical PathScan mapping (§6).
class Planner {
 public:
  Planner(const Catalog* catalog, const PlannerOptions& options)
      : catalog_(catalog), options_(options) {}

  /// `params` is non-null when planning a prepared statement; placeholder
  /// expressions bind into it (see Binder).
  StatusOr<PlannedQuery> PlanSelect(const SelectStmt& stmt,
                                    ParamSet* params = nullptr) const;

 private:
  struct Conjunct {
    const ParsedExpr* parsed = nullptr;
    Binder::RefInfo info;
    bool consumed = false;
  };

  /// Mutable per-path planning state, evolved into a TraversalSpec.
  struct PathPlan {
    std::shared_ptr<TraversalSpec> spec;
    std::vector<ExprPtr> residual;  ///< Path-referencing, unpushable.
    bool has_length_bound = false;
  };

  StatusOr<BindingScope> BuildScope(const SelectStmt& stmt) const;

  OperatorPtr MakeScanLeaf(const TableBinding& binding, ExprPtr qualifier,
                           ExprPtr index_key, const HashIndex* index,
                           const RowLayout& layout,
                           ExprPtr vertex_probe) const;

  const Catalog* catalog_;
  PlannerOptions options_;
};

}  // namespace grfusion

#endif  // GRFUSION_PLAN_PLANNER_H_
