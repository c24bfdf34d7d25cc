#ifndef GRFUSION_GRAPHEXEC_POINT_BOUND_H_
#define GRFUSION_GRAPHEXEC_POINT_BOUND_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "common/status.h"
#include "exec/query_context.h"
#include "graph/csr_topology.h"
#include "graph/edge_attr_column.h"
#include "graphexec/first_touch_pages.h"

namespace grfusion {

/// The bound of a point-to-point probe (one start s, one target t on a
/// pure-CSR view; DESIGN.md §14, §16): a bidirectional search between s and
/// t that yields μ, the answer's cost (Dijkstra) or hop count (BFS), and a
/// lower bound h(v) on the remaining distance from any vertex v to t. The
/// probe's kernel then re-runs unchanged, except that it drops every
/// extension that cannot lie on an optimal path: SPScan one of cost c to v
/// when c + h(v) > CostLimit(), the BFS forest a claim of v at level l when
/// l + h(v) > Hops().
///
/// h(v) is the exact backward distance for every vertex the backward search
/// settled, and for every other the least distance the backward search
/// had not settled when it stopped: the head of its heap (Dijkstra), or
/// its radius plus 1 (BFS); infinity once it has settled everything that
/// reaches t.
///
/// Vertexes are CSR indexes. Per-vertex state lives in first-touch pages,
/// reused across probes; their memory, the heaps and the frontiers are
/// charged to the statement. Each edge the search examines counts in
/// bound_edges and in edges_examined.
class PointBound {
 public:
  enum class Outcome : uint8_t {
    kBound,        ///< μ and h describe the probe.
    kUnreachable,  ///< No path leads from s to t.
    kNone,         ///< The search gave up: run the kernel unbounded.
  };

  /// The hop search's edge test for the edge at column slot `slot` (see
  /// EdgeAttrColumn): 1 admits it, 0 rejects it, and -1 gives the search
  /// up (a value the flat columns cannot answer, or a failing predicate;
  /// the unbounded kernel then meets it as it always did).
  using EdgeTest = std::function<int(size_t slot)>;

  /// Bidirectional Dijkstra over `weight`, whose every cell must hold a
  /// valid weight (EdgeAttrColumn::AllNonNegative). Fails only on an
  /// interrupt or the memory cap.
  StatusOr<Outcome> RunDijkstra(const CsrTopology& c, bool directed, size_t s,
                                size_t t, const EdgeAttrColumn& weight,
                                QueryContext* ctx);

  /// Bidirectional BFS, level by level, expanding the side whose frontier
  /// has fewer edges; `test`, when set, filters edges on both sides.
  StatusOr<Outcome> RunHops(const CsrTopology& c, bool directed, size_t s,
                            size_t t, const EdgeTest* test,
                            QueryContext* ctx);

  /// SPScan's limit μ·(1 + δ): δ covers the rounding of the sums compared
  /// against it (DESIGN.md §16).
  double CostLimit() const { return cost_limit_; }
  /// The BFS answer's hop count.
  double Hops() const { return mu_; }
  /// h(i) for CSR index `i`.
  double ToGo(size_t i) const {
    const Page* page = pages_.Find(i);
    if (page == nullptr) return beyond_;
    const size_t k = i & Pages::kMask;
    return (page->state[k] & kBwdSettled) != 0 ? page->bwd[k] : beyond_;
  }

  /// Returns the charge, keeping the memory for the next probe (re-arm).
  void Uncharge(QueryContext* ctx) {
    if (charged_ > 0) {
      ctx->ReleaseBytes(charged_);
      charged_ = 0;
    }
  }
  /// Returns the charge and frees the memory (Close).
  void Release(QueryContext* ctx);

 private:
  static constexpr size_t kShift = 6;
  static constexpr uint8_t kFwdReached = 1;
  static constexpr uint8_t kFwdSettled = 2;
  static constexpr uint8_t kBwdReached = 4;
  static constexpr uint8_t kBwdSettled = 8;

  /// Search state of 64 consecutive indexes. Only `state` is initialized
  /// on mapping: the other fields are read only under its flags.
  struct Page {
    uint8_t state[size_t{1} << kShift];
    double fwd[size_t{1} << kShift];   ///< Distance from s.
    double bwd[size_t{1} << kShift];   ///< Distance to t.
    uint32_t next[size_t{1} << kShift];  ///< Dijkstra: one edge nearer t,
    size_t slot[size_t{1} << kShift];    ///< over the edge at this slot.
  };
  using Pages = FirstTouchPages<Page, kShift>;

  /// A heap entry; the heaps pop the smallest distance.
  struct Entry {
    double dist;
    uint32_t index;
  };

  /// Clears the previous probe's state and charge.
  void Begin(size_t vertexes, QueryContext* ctx);
  /// The page of `i`, mapped (and charged) on first touch.
  Page& Touch(size_t i, QueryContext* ctx);
  void Charge(size_t bytes, QueryContext* ctx) {
    charged_ += bytes;
    (void)ctx->ChargeBytes(bytes);
  }
  /// One edge examined by the search.
  static void Count(QueryContext* ctx) {
    ++ctx->stats().bound_edges;
    ++ctx->stats().edges_examined;
  }
  static Status CheckMemoryCap(QueryContext* ctx);

  Pages pages_;
  std::vector<Entry> fwd_heap_, bwd_heap_;
  std::vector<uint32_t> frontier_[2], next_;
  double mu_ = 0.0;
  double cost_limit_ = 0.0;
  double beyond_ = 0.0;  ///< h of a vertex the backward side did not settle.
  size_t charged_ = 0;
};

}  // namespace grfusion

#endif  // GRFUSION_GRAPHEXEC_POINT_BOUND_H_
