#ifndef GRFUSION_GRAPH_PATH_H_
#define GRFUSION_GRAPH_PATH_H_

#include <memory>
#include <string>
#include <vector>

#include "common/ids.h"
#include "graph/graph_view.h"

namespace grfusion {

/// A simple path produced by a PathScan operator: an ordered list of edges
/// plus the vertex sequence they visit (paper §4 / §5.2 — the Path data type
/// that extends the relational Tuple interface).
///
/// Paths reference topology entries by id; attribute access goes through the
/// owning GraphView's tuple pointers, so a PathData stays small regardless of
/// how wide the vertex/edge rows are.
struct PathData {
  std::vector<EdgeId> edges;        ///< Ordered edge ids; Length == edges.size().
  std::vector<VertexId> vertexes;   ///< Visited vertexes; size == Length + 1.
  double accumulated_cost = 0.0;    ///< Dijkstra cost when produced by SPScan.

  size_t Length() const { return edges.size(); }
  VertexId StartVertex() const { return vertexes.front(); }
  VertexId EndVertex() const { return vertexes.back(); }
};

/// Shared handle to an immutable path flowing through a query pipeline.
using PathPtr = std::shared_ptr<const PathData>;

/// Renders the paper's PS.PathString property:
///   "v0 -[e0]-> v1 -[e1]-> v2".
std::string PathToString(const PathData& path);

}  // namespace grfusion

#endif  // GRFUSION_GRAPH_PATH_H_
