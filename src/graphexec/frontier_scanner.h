#ifndef GRFUSION_GRAPHEXEC_FRONTIER_SCANNER_H_
#define GRFUSION_GRAPHEXEC_FRONTIER_SCANNER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "graphexec/path_scanner.h"

namespace grfusion {

/// Level-synchronous BFS engine (the "frontier" physical kernel): instead of
/// popping one candidate at a time, it holds a whole depth level in a
/// double-buffered frontier and alternates two phases:
///
///  - Phase A walks the current level in order, qualifying and emitting
///    paths. Because a level is fully emitted *before* any deeper expansion
///    happens, a LIMIT-k consumer stops the traversal without paying for the
///    next level.
///  - Phase B expands the whole level through the shared ExpandCore
///    admission pipeline into the next-level buffer. When the level is large
///    enough and a task pool is available, expansion runs morsel-parallel
///    over the frontier array; per-candidate child lists are then merged on
///    the coordinating thread in (candidate, neighbor) order, applying
///    global_visited claims first-occurrence-wins. That merge order equals
///    the serial claim order, so the kernel returns byte-identical results
///    at any worker count, global_visited mode included.
///
/// In global_visited mode over a pure-CSR topology (without sum bounds,
/// which the planner never combines with global_visited) the kernel drops
/// the Candidate machinery entirely: because every vertex is claimed at most
/// once, the traversal is a BFS forest, so levels are flat arrays of claim
/// events carrying parent pointers (CSR indexes) instead of materialized
/// path prefixes. The forest expands one parent event, and one edge, at a
/// time, and qualifies each claim event the moment it is appended: every
/// event of the parents' level was qualified before the first of them was
/// expanded, and claims are qualified in claim order, so the emission
/// sequence equals Phase A/B's, but a reachability probe (LIMIT 1) returns
/// as soon as its target is claimed. A path is reconstructed from the parent
/// chain only when an event survives the cheap length/target pre-filters —
/// the reachability probe reconstructs exactly one. Admission per edge
/// (pushed filters, the closing-cycle rule) mirrors ExpandCore statement for
/// statement, so results stay byte-identical with the per-path engine. The
/// per-vertex forest state lives in fixed-size pages of CSR indexes,
/// allocated and charged when a probe first claims a vertex in them, so a
/// probe's memory follows the region it explores, not the view's size.
class FrontierScanner : public PathScanner {
 public:
  FrontierScanner(std::shared_ptr<const TraversalSpec> spec, QueryContext* ctx)
      : PathScanner(std::move(spec), ctx) {}

  Status Reset(std::vector<VertexId> starts, std::optional<VertexId> target,
               const ExecRow* outer_row) override;
  StatusOr<bool> Next(PathPtr* out) override;
  void Release() override;

 private:
  /// Expands every extendable candidate of `current_` into `next_`.
  Status ExpandLevel();
  Status ExpandLevelSerial();
  Status ExpandLevelParallel();

  std::vector<Candidate> current_;   ///< The level being emitted/expanded.
  std::vector<Candidate> next_;      ///< The level under construction.
  /// Phase-A resume point in current_ (in fast_next_ on the forest path).
  size_t qualify_cursor_ = 0;

  // --- Index-addressed BFS forest (global_visited + pure CSR) --------------

  /// One frontier slot: a vertex claimed at this depth, or a cycle closing
  /// back to its tree root (emitted, never expanded).
  struct FastEvent {
    uint32_t vertex = 0;      ///< CSR index: claimed vertex / closing's source.
    bool closing = false;
    EdgeId closing_edge = 0;  ///< The cycle-closing edge (closing only).
  };

  /// Forest state of kPageSize consecutive CSR indexes. A vertex is claimed
  /// iff its parent is not kUnclaimed; a tree root's parent is kRoot.
  static constexpr size_t kPageShift = 8;
  static constexpr size_t kPageSize = size_t{1} << kPageShift;
  static constexpr uint32_t kUnclaimed = static_cast<uint32_t>(-1);
  static constexpr uint32_t kRoot = kUnclaimed - 1;
  struct ForestPage {
    uint32_t parent[kPageSize];  ///< CSR index, kRoot or kUnclaimed.
    uint32_t root[kPageSize];    ///< CSR index of the tree root.
    EdgeId edge[kPageSize];      ///< Tree edge that claimed it.
  };

  bool Claimed(size_t i) const {
    const ForestPage* page = pages_[i >> kPageShift];
    return page != nullptr &&
           page->parent[i & (kPageSize - 1)] != kUnclaimed;
  }
  /// The page holding CSR index `i` (claimed, so mapped).
  const ForestPage& PageOf(size_t i) const { return *pages_[i >> kPageShift]; }
  /// Claims CSR index `i`, mapping (and charging) its page on first touch.
  void Claim(size_t i, uint32_t parent, uint32_t root, EdgeId edge);
  /// Unmaps the previous probe's pages and sizes the page directory to the
  /// current snapshot.
  void ResetForest();

  StatusOr<bool> FastNext(PathPtr* out);
  /// Examines the current parent's edges from the cursor until one claim
  /// event is appended to fast_next_ (then returns, so the event is
  /// qualified before the next edge is examined) or the parent is done.
  Status FastExpandStep();
  /// The event's path (parent-chain walk).
  PathData FastMaterialize(const FastEvent& ev) const;

  const CsrTopology* csr_ = nullptr;  ///< The snapshot the forest indexes.
  bool fast_ = false;          ///< Forest path armed by Reset.
  size_t fast_level_ = 0;      ///< Depth (= path length) of fast_next_.
  /// fast_current_ (depth fast_level_ - 1) is expanded into fast_next_.
  std::vector<FastEvent> fast_current_, fast_next_;
  size_t expand_cursor_ = 0;   ///< The parent in fast_current_.
  size_t edge_cursor_ = 0;     ///< Its next neighbor (0: not started).
  bool fast_columns_ = false;  ///< ColumnsUsable() for that parent.

  std::vector<ForestPage*> pages_;  ///< Directory: CSR index >> kPageShift.
  /// Every page this scanner allocated. This probe mapped page_store_[k]
  /// at directory slot mapped_slots_[k], for each k < mapped_slots_.size().
  std::vector<std::unique_ptr<ForestPage>> page_store_;
  std::vector<size_t> mapped_slots_;
};

}  // namespace grfusion

#endif  // GRFUSION_GRAPHEXEC_FRONTIER_SCANNER_H_
