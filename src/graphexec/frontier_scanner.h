#ifndef GRFUSION_GRAPHEXEC_FRONTIER_SCANNER_H_
#define GRFUSION_GRAPHEXEC_FRONTIER_SCANNER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "graphexec/first_touch_pages.h"
#include "graphexec/path_scanner.h"

namespace grfusion {

/// Visited-once BFS (the planner's reachability search, global_visited):
/// every vertex is claimed at most once, so the traversal is a BFS forest.
/// A level is a flat array of claim events carrying parent pointers through
/// per-vertex forest state, not materialized path prefixes.
///
/// The forest expands level d-1 one parent at a time and qualifies each
/// claim event of level d in claim order as soon as it is appended: every
/// event of the parents' level was qualified before the first of them was
/// expanded, so the emission sequence is BFS order, and a reachability
/// probe (LIMIT 1) returns at its target's claim. A path is reconstructed
/// from the parent chain only when an event survives the cheap
/// length/target pre-filters; the reachability probe reconstructs exactly
/// one.
///
/// Vertexes are keyed by index: the CSR index for a vertex in the view's
/// snapshot, and an overflow index after the CSR's, assigned on first
/// sight, for one inserted since. On a pure-CSR view a parent's neighbors
/// are exactly its CSR slices, which the forest walks itself, one edge per
/// step, so it qualifies a claim before it examines the next edge. On a
/// view with a delta overlay or a dirty CSR it expands a whole parent
/// through ExpandCore. Both apply the shared AdmitEdge rules, so results
/// match a per-path BFS with a visited set. The per-vertex state lives in
/// fixed-size pages of indexes, allocated and charged when a probe first
/// claims a vertex in them, so a probe's memory follows the region it
/// explores, not the view's size.
///
/// A point-to-point probe (TraversalSpec::point_to_point, PointProbe)
/// first runs a bidirectional BFS bound, then skips claiming any vertex
/// whose claim level plus its bound on the hops left exceeds the answer's
/// hop count: only vertexes on no shortest path go, so the claim order of
/// the rest, and the emitted path, are unchanged (DESIGN.md §14).
///
/// The planner never combines global_visited with sum bounds, so events
/// carry no sums.
class FrontierScanner : public PathScanner {
 public:
  FrontierScanner(std::shared_ptr<const TraversalSpec> spec, QueryContext* ctx)
      : PathScanner(std::move(spec), ctx) {}

  Status Reset(std::vector<VertexId> starts, std::optional<VertexId> target,
               const ExecRow* outer_row) override;
  StatusOr<bool> Next(PathPtr* out) override;
  void Release() override;

 private:
  /// One frontier slot: a vertex claimed at this depth, or a cycle closing
  /// back to its tree root (emitted, never expanded).
  struct Event {
    uint32_t vertex = 0;      ///< Index: claimed vertex / closing's source.
    bool closing = false;
    EdgeId closing_edge = 0;  ///< The cycle-closing edge (closing only).
  };

  /// Forest state of kPageSize consecutive indexes. A vertex is claimed iff
  /// its parent is not kUnclaimed; a tree root's parent is kRoot.
  static constexpr size_t kPageShift = 8;
  static constexpr size_t kPageSize = size_t{1} << kPageShift;
  static constexpr uint32_t kUnclaimed = static_cast<uint32_t>(-1);
  static constexpr uint32_t kRoot = kUnclaimed - 1;
  struct ForestPage {
    uint32_t parent[kPageSize];  ///< Index, kRoot or kUnclaimed.
    uint32_t root[kPageSize];    ///< Index of the tree root.
    EdgeId edge[kPageSize];      ///< Tree edge that claimed it.
  };
  using ForestPages = FirstTouchPages<ForestPage, kPageShift>;

  /// AdmitEdge's view of a tree path: the forest path from its root to a
  /// parent. Every vertex on it is claimed, so for any neighbor but the root
  /// the claim test answers both prefix walks (Screen is kOff). Of the
  /// path's edges only the first touches the root, so the one edge a cycle
  /// back to the root could reuse is the claiming edge of a depth-1 parent.
  class TreePrefix {
   public:
    TreePrefix() = default;
    /// The path to claimed index `u`, `len` edges long.
    TreePrefix(const FrontierScanner& s, uint32_t u, size_t len);

    uint32_t root() const { return root_; }
    VertexId start() const { return start_; }
    VertexId end() const { return end_; }
    size_t len() const { return len_; }
    Touch Screen(VertexId v, size_t) const {
      return v == start_ ? Touch::kMay : Touch::kOff;
    }
    bool HasEdge(EdgeId e) const { return len_ == 1 && e == parent_edge_; }
    bool HasVertex(VertexId v) const { return v == start_; }
    /// The forest carries no sum bounds (class comment).
    const double* sums() const { return &kNoSums; }
    double cost() const { return 0.0; }

   private:
    static constexpr double kNoSums = 0.0;
    uint32_t root_ = 0;
    EdgeId parent_edge_ = 0;
    VertexId start_ = 0;
    VertexId end_ = 0;
    size_t len_ = 0;
  };

  bool Claimed(size_t i) const {
    const ForestPage* page = pages_.Find(i);
    return page != nullptr &&
           page->parent[i & (kPageSize - 1)] != kUnclaimed;
  }
  /// The page holding index `i` (claimed, so mapped).
  const ForestPage& PageOf(size_t i) const { return *pages_.Find(i); }
  /// Claims index `i`, mapping (and charging) its page on first touch.
  void Claim(size_t i, uint32_t parent, uint32_t root, EdgeId edge);
  /// Unmaps the previous probe's pages and sizes the page directory to the
  /// current snapshot (plus the overflow range on a non-pure-CSR view).
  void ResetForest();

  /// The index of vertex `id`: its CSR index, else (non-pure-CSR views
  /// only) its overflow index, assigned and charged on first sight.
  size_t IndexOf(VertexId id);
  /// The vertex id behind index `i`.
  VertexId IdOf(size_t i) const {
    return i < csr_size_ ? csr_->vertex_ids[i] : overflow_ids_[i - csr_size_];
  }

  /// Appends the claim event of extending parent `u` over `edge` to index
  /// `j` (unused when closing), for the caller to qualify before it
  /// examines another edge.
  void Append(uint32_t u, const EdgeEntry& edge, size_t j, bool closing,
              uint32_t root);
  /// Runs the point-to-point bound when the probe meets its rules; false
  /// when it proves the target unreachable.
  StatusOr<bool> ArmBound(const std::vector<VertexId>& seeds);
  /// Expands the current parent: on a pure-CSR view from the edge cursor
  /// until one claim event is appended (then returns) or the parent is
  /// done; otherwise whole, through ExpandCore.
  Status ExpandStep();
  /// ExpandStep's pure-CSR slice walk of parent `u`. kAttrs instantiates
  /// AdmitEdge's attribute checks (expansion_.attrs); kBound the bound's
  /// claim test.
  template <bool kAttrs, bool kBound>
  Status WalkSlices(uint32_t u);
  /// Expands parent `u` whole through ExpandCore (non-pure-CSR views).
  Status ExpandWhole(uint32_t u);
  /// The event's path (parent-chain walk).
  PathData Materialize(const Event& ev) const;

  const CsrTopology* csr_ = nullptr;  ///< The snapshot the indexes use.
  size_t csr_size_ = 0;               ///< Its vertex count (0 without one).
  bool pure_csr_ = false;  ///< The CSR arrays alone describe the view.
  size_t level_ = 0;       ///< Depth (= path length) of next_.
  /// current_ (depth level_ - 1) is expanded into next_.
  std::vector<Event> current_, next_;
  size_t qualify_cursor_ = 0;  ///< The next event of next_ to qualify.
  size_t expand_cursor_ = 0;   ///< The parent in current_.
  size_t edge_cursor_ = 0;     ///< Its next slice slot (0: not started).
  TreePrefix parent_;          ///< That parent's path,
  Expansion expansion_;        ///< and its AdmitEdge constants.

  ForestPages pages_;

  /// Overflow indexes of this probe: vertexes outside the snapshot.
  std::unordered_map<VertexId, uint32_t> overflow_;
  std::vector<VertexId> overflow_ids_;
};

}  // namespace grfusion

#endif  // GRFUSION_GRAPHEXEC_FRONTIER_SCANNER_H_
