#ifndef GRFUSION_GRAPHEXEC_TRAVERSAL_SPEC_H_
#define GRFUSION_GRAPHEXEC_TRAVERSAL_SPEC_H_

#include <cstddef>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "expr/expression.h"
#include "graph/graph_view.h"

namespace grfusion {

inline constexpr size_t kNoMaxLength = std::numeric_limits<size_t>::max();

/// Everything the optimizer decides about one GV.PATHS alias, handed to the
/// PathScan physical operator (paper §5.1.2, §6):
///
///  - start/end vertex bindings extracted from the WHERE clause
///    (`PS.StartVertex.Id = <expr>` probes the traversal; §5.1.2);
///  - the inferred path-length window (§6.1);
///  - filters pushed ahead of the scan, checkable incrementally while
///    extending a partial path (§6.2);
///  - aggregate bounds pushed into the traversal (§6.2, `Sum(...) < c`);
///  - the logical-to-physical mapping DFS/BFS/Dijkstra (§6.3).
struct TraversalSpec {
  enum class Physical { kDfs, kBfs, kShortestPath };

  const GraphView* gv = nullptr;
  size_t path_slot = 0;

  /// Evaluated against the outer (probe) row; nullptr means "traverse from
  /// every vertex of the graph view".
  ExprPtr start_vertex_expr;
  /// Optional target binding; nullptr means unconstrained end.
  ExprPtr end_vertex_expr;

  /// Inferred admissible path lengths, in edges (inclusive).
  size_t min_length = 1;
  size_t max_length = kNoMaxLength;

  /// Quantified per-element predicates pushed into the traversal. Each is
  /// tested incrementally as edges/vertexes join the partial path.
  std::vector<std::shared_ptr<const PathRangePredicateExpr>> element_preds;

  /// SUM(PS.Edges.attr) <op> bound — checked exactly at emission; upper
  /// bounds (< / <=) additionally prune partial paths early assuming the
  /// attribute is non-negative (documented engine restriction, same as the
  /// paper's SPScan requirement).
  struct SumBound {
    ElementAttr attr;
    CompareOp op = CompareOp::kLt;
    ExprPtr bound;  ///< Evaluated once per probe.
  };
  std::vector<SumBound> sum_bounds;

  /// Path-referencing predicates that could not be pushed (evaluated on each
  /// candidate path before it is emitted).
  ExprPtr residual;

  Physical physical = Physical::kDfs;
  /// Cost attribute for SPScan (HINT(SHORTESTPATH(attr))).
  ElementAttr sp_attr;
  /// K-shortest-path expansion cap: a vertex is expanded at most this many
  /// times by SPScan (from SELECT TOP k / LIMIT k). kNoMaxLength = unlimited.
  size_t sp_expansion_cap = kNoMaxLength;

  /// Optimizer/ablation switches (§6 / §7.1 "we do not push the predicates
  /// ahead of the path scan operator ... for all the reachability-queries").
  bool push_filters = true;

  /// Reachability fast path: when the end vertex is bound and the query only
  /// asks whether *a* path exists (LIMIT 1, no per-path output beyond
  /// existence), a traversal may mark vertexes globally visited, turning the
  /// exponential all-simple-paths enumeration into O(V+E) search.
  bool global_visited = false;

  /// Point-to-point probe (DESIGN.md §14, §16): the statement reads only
  /// the first path of a single probe with a bound start and end (one
  /// path FROM item, LIMIT/TOP 1 with no ORDER BY, DISTINCT, aggregate,
  /// residual or outer filter; no sum or length bound), on SPScan with no
  /// pushed element predicate or on the visited-once forest with only
  /// uniform pushed edge predicates. The probe then runs a bidirectional
  /// bound first and re-runs the kernel over the vertexes that can lie on
  /// the answer, when the probe meets the run-time rules too (one start
  /// other than the target, a pure-CSR view, flat columns).
  bool point_to_point = false;

  std::string DebugString() const;
};

}  // namespace grfusion

#endif  // GRFUSION_GRAPHEXEC_TRAVERSAL_SPEC_H_
