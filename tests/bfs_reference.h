// The ordered BFS and DFS references of the path tests: a FIFO (BFS) or
// LIFO (DFS) of copied candidate paths with the engine's path semantics, so
// a test can compare a BFScan's or DFScan's exact row sequence against it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "expr/expression.h"
#include "graph/graph_view.h"

namespace grfusion {

/// A view's adjacency in its own neighbor order: (edge id, neighbor) lists.
using RefAdjacency =
    std::map<int64_t, std::vector<std::pair<int64_t, int64_t>>>;

/// `gv`'s adjacency of `vertexes`, in its own neighbor order. Read without
/// a snapshot scope, so a quiesced view shows its newest state.
inline RefAdjacency ViewAdjacencyOf(const GraphView& gv,
                                    const std::vector<int64_t>& vertexes) {
  RefAdjacency adj;
  for (int64_t v : vertexes) {
    auto& list = adj[v];
    const VertexEntry* entry = gv.FindVertex(v);
    if (entry == nullptr) continue;
    gv.ForEachNeighbor(*entry, [&](const EdgeEntry& e, VertexId nbr) {
      list.emplace_back(e.id, nbr);
      return true;
    });
  }
  return adj;
}

/// The PathString of the path through `vs` over `es`.
inline std::string RefPathString(const std::vector<int64_t>& vs,
                                 const std::vector<int64_t>& es) {
  std::string out = std::to_string(vs[0]);
  for (size_t i = 0; i < es.size(); ++i) {
    out += StrFormat(" -[%lld]-> %lld", static_cast<long long>(es[i]),
                     static_cast<long long>(vs[i + 1]));
  }
  return out;
}

/// One probe for BfsReference or DfsReference.
struct BfsRefQuery {
  std::vector<int64_t> starts;  ///< Deduplicated and sorted by the reference.
  size_t min_len = 1;
  size_t max_len = std::numeric_limits<size_t>::max();  ///< Unbounded.
  std::optional<int64_t> target;  ///< P.EndVertex.Id = target.
  /// A uniform edge predicate (P.Edges[0..*] ...), or null.
  std::function<bool(int64_t edge)> edge_ok;
  /// SUM(P.Edges.<attr>) <w_op> w_bound, with `weight` reading the attr.
  std::optional<CompareOp> w_op;
  double w_bound = 0.0;
  std::function<double(int64_t edge)> weight;
  /// Pushed: the edge predicate and upper sum bounds prune extensions.
  /// Not pushed: both are tested on whole paths only.
  bool pushdown = true;
  /// The planner's LIMIT 1 reachability search: every vertex is claimed by
  /// the first extension that reaches it.
  bool visited_once = false;
  size_t limit = std::numeric_limits<size_t>::max();
};

/// Per-path search with the engine's semantics: edge-simple, vertex-simple
/// except that an edge closing a cycle back to the start is emitted and
/// never extended. Each popped candidate is expanded (extensions appended
/// in neighbor order) and then emitted if it qualifies. BFS pops the oldest
/// candidate; DFS the newest, so its starts go by descending id and each
/// expansion's last neighbor first. Rows are "<start>|<PathString>|", in
/// emission order, at most `q.limit` of them.
inline std::vector<std::string> CopyPrefixReference(const RefAdjacency& adj,
                                                    const BfsRefQuery& q,
                                                    bool dfs) {
  struct RefPath {
    std::vector<int64_t> vs, es;
    double wsum = 0.0;
    bool closing = false;
  };
  auto prunes = [&](double wsum) {
    return q.w_op == CompareOp::kLt   ? wsum >= q.w_bound
           : q.w_op == CompareOp::kLe ? wsum > q.w_bound
                                      : false;
  };
  auto passes = [&](double wsum) {
    if (!q.w_op.has_value()) return true;
    switch (*q.w_op) {
      case CompareOp::kLt: return wsum < q.w_bound;
      case CompareOp::kLe: return wsum <= q.w_bound;
      case CompareOp::kGe: return wsum >= q.w_bound;
      default: return wsum > q.w_bound;
    }
  };
  std::set<int64_t> visited;
  std::deque<RefPath> queue;
  for (int64_t s : std::set<int64_t>(q.starts.begin(), q.starts.end())) {
    if (q.visited_once) visited.insert(s);
    queue.push_back(RefPath{{s}, {}, 0.0, false});
  }
  std::vector<std::string> out;
  while (!queue.empty() && out.size() < q.limit) {
    const RefPath p = std::move(dfs ? queue.back() : queue.front());
    if (dfs) {
      queue.pop_back();
    } else {
      queue.pop_front();
    }
    if (!p.closing && p.es.size() < q.max_len) {
      for (auto [eid, nbr] : adj.at(p.vs.back())) {
        if (std::find(p.es.begin(), p.es.end(), eid) != p.es.end()) continue;
        const bool closing = nbr == p.vs.front() && !p.es.empty();
        if (!closing) {
          if (std::find(p.vs.begin(), p.vs.end(), nbr) != p.vs.end()) {
            continue;
          }
          if (q.visited_once && visited.count(nbr) > 0) continue;
        }
        const double wsum =
            q.w_op.has_value() ? p.wsum + q.weight(eid) : p.wsum;
        if (q.pushdown) {
          if (q.edge_ok != nullptr && !q.edge_ok(eid)) continue;
          if (prunes(wsum)) continue;
        }
        if (q.visited_once && !closing) visited.insert(nbr);
        RefPath next = p;
        next.vs.push_back(nbr);
        next.es.push_back(eid);
        next.wsum = wsum;
        next.closing = closing;
        queue.push_back(std::move(next));
      }
    }
    const size_t len = p.es.size();
    if (len < q.min_len || len > q.max_len) continue;
    if (q.target.has_value() && p.vs.back() != *q.target) continue;
    if (!passes(p.wsum)) continue;
    if (!q.pushdown && q.edge_ok != nullptr &&
        !std::all_of(p.es.begin(), p.es.end(), q.edge_ok)) {
      continue;
    }
    out.push_back(std::to_string(p.vs.front()) + "|" +
                  RefPathString(p.vs, p.es) + "|");
  }
  return out;
}

inline std::vector<std::string> BfsReference(const RefAdjacency& adj,
                                             const BfsRefQuery& q) {
  return CopyPrefixReference(adj, q, /*dfs=*/false);
}

inline std::vector<std::string> DfsReference(const RefAdjacency& adj,
                                             const BfsRefQuery& q) {
  return CopyPrefixReference(adj, q, /*dfs=*/true);
}

}  // namespace grfusion
