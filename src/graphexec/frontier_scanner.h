#ifndef GRFUSION_GRAPHEXEC_FRONTIER_SCANNER_H_
#define GRFUSION_GRAPHEXEC_FRONTIER_SCANNER_H_

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
///    next level — the common reachability probe (LIMIT 1) touches exactly
///    the levels up to the witness path.
///  - Phase B expands the whole level through the shared ExpandCore
///    admission pipeline into the next-level buffer. When the level is large
///    enough and a task pool is available, expansion runs morsel-parallel
///    over the frontier array; per-candidate child lists are then merged on
///    the coordinating thread in (candidate, neighbor) order, applying
///    global_visited claims first-occurrence-wins. That merge order equals
///    the serial claim order, so the kernel returns byte-identical results
///    at any worker count, global_visited mode included.
///
/// In global_visited mode over a pure-CSR topology the visited set is a
/// dense bitmap indexed by CSR position rather than a hash set — and the
/// kernel drops the Candidate machinery entirely: because every vertex is
/// claimed at most once, the traversal is a BFS forest, so levels are flat
/// arrays of claim events carrying parent pointers (CSR indexes) instead of
/// materialized path prefixes. A path is reconstructed from the parent
/// chain only when an event survives the cheap length/target pre-filters —
/// the reachability probe reconstructs exactly one. Admission per edge
/// (pushed filters, sum bounds, the closing-cycle rule) mirrors ExpandCore
/// statement for statement, so results stay byte-identical with the
/// per-path engine.
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

  /// Visited bookkeeping, bitmap-backed when the view is pure CSR.
  bool AlreadyVisited(VertexId id) const;
  /// Marks `id`; returns false when it was already claimed.
  bool ClaimVisited(VertexId id);

  std::vector<Candidate> current_;   ///< The level being emitted/expanded.
  std::vector<Candidate> next_;      ///< The level under construction.
  size_t qualify_cursor_ = 0;        ///< Phase-A resume point in current_.

  /// Dense visited bitmap over CSR positions; active only when the view was
  /// pure CSR at Reset time (csr_ != nullptr) and the spec runs
  /// global_visited. Otherwise the inherited visited_ hash set is used.
  const CsrTopology* csr_ = nullptr;
  std::vector<char> visited_map_;

  // --- Index-addressed BFS-forest fast path (global_visited + pure CSR) ---

  /// One frontier slot: a vertex claimed at this depth, or a cycle closing
  /// back to its tree root (emitted, never expanded).
  struct FastEvent {
    uint32_t vertex = 0;        ///< CSR index: claimed vertex / closing's source.
    EdgeId closing_edge = 0;    ///< The cycle-closing edge (closing only).
    bool closing = false;
    std::vector<double> sums;   ///< Closing-path sums (closing only).
  };
  static constexpr uint32_t kNoParent = static_cast<uint32_t>(-1);

  /// Accounting footprint of one frontier event.
  static size_t FastEventBytes(size_t bounds) {
    return sizeof(FastEvent) + bounds * sizeof(double);
  }

  StatusOr<bool> FastNext(PathPtr* out);
  Status FastExpandLevel();
  /// Materializes the event's path (parent-chain walk) and its sums as a
  /// Candidate, for the shared Qualifies pipeline and emission.
  Candidate FastMaterialize(const FastEvent& ev) const;

  bool fast_ = false;          ///< Fast path armed by Reset.
  size_t fast_level_ = 0;      ///< Depth (= path length) of fast_current_.
  std::vector<FastEvent> fast_current_, fast_next_;
  std::vector<uint32_t> fast_parent_;     ///< Per CSR index; kNoParent = root.
  std::vector<EdgeId> fast_parent_edge_;  ///< Tree edge that claimed it.
  std::vector<VertexId> fast_root_;       ///< Tree root (the path's start).
  std::vector<double> fast_sums_;         ///< Vertex-major, B per vertex.
};

}  // namespace grfusion

#endif  // GRFUSION_GRAPHEXEC_FRONTIER_SCANNER_H_
