#ifndef GRFUSION_GRAPHEXEC_DFS_SCANNER_H_
#define GRFUSION_GRAPHEXEC_DFS_SCANNER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_set>
#include <vector>

#include "exec/morsel.h"
#include "graphexec/path_scanner.h"

namespace grfusion {

/// DFScan (paper §5.1.2): depth-first enumeration of simple paths, emitting
/// each qualifying path in pre-order, one per Next() or, without emitting
/// anything, one per ForEachPath sink call. The same stack also runs BFScan
/// without visited-once search, as iterative deepening (below).
///
/// The stack holds one-hop records {vertex, edge, depth, closing} instead of
/// copied prefixes, with the sum-bound totals in a flat side array, and the
/// scanner keeps one current-path buffer. Popping a record truncates the
/// buffer to the record's depth and appends its hop. A record is pushed
/// while its parent's path is the buffer, and everything pushed after it
/// (its siblings and their descendants) only rewrites buffer positions at
/// or past its depth, so LIFO order guarantees the buffer then holds exactly
/// the popped record's path. That buffer is ExpandCore's prefix and the
/// input to Qualifies, so extension and emission allocate nothing per path.
///
/// The seeds are kept in a list and loaded into the buffer one at a time,
/// when the stack runs empty: DFScan takes them by descending id (the order
/// of a stack the ascending seeds were pushed onto). The list is charged to
/// the query budget for the probe, and each stack record from its push until
/// it is popped or Release() runs.
///
/// Leaf runs (DFScan): the children of a record at depth max_length - 1
/// can only be leaves, since nothing at max_length is expanded. Their
/// admitted extensions go into one run array instead of onto the stack,
/// charged once, as the stack records would have been, and the frontier is
/// noted as if they were pushed. A run sits on top of the stack: the leaves
/// pop before anything below it, last neighbor first, as stack records
/// would. Next() pops them leaf by leaf; ForEachPath can hand the whole run
/// to its sink in one call (below). Interrupts are checked once per run,
/// at its parent's pop.
///
/// Iterative deepening (BFScan): pass d, for d from min_length up, walks the
/// seeds by ascending id and reverses each expansion's pushed records, so
/// children pop in neighbor order. It expands records shallower than d,
/// pushes closing hops only at depth d (the only pass that can emit them),
/// and emits only depth-d records. Pushing children in reverse pops them in
/// neighbor order, so the pre-order of a pass restricted to depth d is the
/// lexicographic (seed, neighbor slot...) order, which is the order in
/// which a FIFO BFS emits its level d: the passes reproduce BFS row for row
/// with the stack's memory. After a pass that pushed no non-closing depth-d
/// record, or at max_length, the probe ends. Each pass re-expands the
/// levels above it; edges_examined and vertexes_expanded count that work.
///
/// Emission recycles: the scanner keeps the PathData it last emitted and,
/// when it holds the only reference, refills that object in place instead of
/// allocating a new one. A consumer that keeps a path (Sort, a hash-join
/// build side, a held PathPtr) keeps a reference, so it is never
/// overwritten; it just costs the next emission a fresh object.
class DfsScanner : public PathScanner {
 public:
  DfsScanner(std::shared_ptr<const TraversalSpec> spec, QueryContext* ctx);

  Status Reset(std::vector<VertexId> starts, std::optional<VertexId> target,
               const ExecRow* outer_row) override;
  StatusOr<bool> Next(PathPtr* out) override;
  void Release() override;

  /// Runs the armed probe to its end, calling `sink(const PathData&)` (which
  /// returns Status) for each qualifying path in Next()'s order. The sink
  /// sees the scanner's own path buffer: nothing is emitted, so there is no
  /// PathData copy and no shared_ptr traffic per path. The reference is
  /// valid only during the call. Stops at the first error of the traversal
  /// or of the sink.
  ///
  /// With `runs`, a leaf run whose leaves qualify on their length alone (the
  /// probe has no target, sum bound, residual or unpushed filter) goes to
  /// `sink(LeafRun&)` in one call instead, in the same place in the order.
  /// If the sink fails, the leaves it took (LeafRun::taken) are the ones
  /// counted.
  template <typename Sink>
  Status ForEachPath(Sink&& sink, bool runs = false) {
    runs = runs && whole_runs_;
    while (true) {
      GRF_ASSIGN_OR_RETURN(Step step, Advance(runs));
      if (step == Step::kDone) return Status::OK();
      if (step == Step::kPath) {
        GRF_RETURN_IF_ERROR(sink(static_cast<const PathData&>(path_)));
        continue;
      }
      LeafRun run = TakeRun();
      GRF_ASSIGN_OR_RETURN(bool qualifies, Qualifies(path_, sums_.data()));
      Status status = qualifies ? sink(run) : Status::OK();
      EndRun(status.ok() ? run.size : run.taken, qualifies);
      GRF_RETURN_IF_ERROR(status);
    }
  }

  /// Iterative-deepening passes started since construction, over every
  /// probe (EXPLAIN ANALYZE); always 0 for DFScan.
  uint64_t passes() const { return passes_; }

  /// Leaf runs held since construction, over every probe (EXPLAIN
  /// ANALYZE); always 0 for BFScan.
  uint64_t leaf_runs() const { return leaf_runs_; }

 private:
  /// One stack entry: the hop by `edge` to `vertex` that extends its
  /// parent's path to `depth` edges (a seed, loaded from the list, is the
  /// depth-0 hop with no edge).
  struct Hop {
    VertexId vertex = 0;
    EdgeId edge = kInvalidEdgeId;
    uint32_t depth = 0;
    bool closing = false;  ///< Cycle back to start: emit but never extend.
  };

  class BufferPrefix;

  /// What Advance() stopped at.
  enum class Step : uint8_t {
    kDone,  ///< The traversal is exhausted.
    kPath,  ///< The buffer holds a qualifying path.
    kRun,   ///< A leaf run is due (only when asked for whole runs).
  };

  /// Accounting footprint of one stack record: entry plus its sums.
  size_t HopBytes() const {
    return sizeof(Hop) + spec_->sum_bounds.size() * sizeof(double);
  }

  void Push(const Hop& hop, const double* sums);
  /// Pops the top record into the path buffer and `sums_`.
  Hop Pop();
  /// Loads the next seed into the path buffer as a depth-0 hop.
  Hop LoadSeed();
  /// Pushes every admissible extension of the buffered path; under
  /// kDeepen, only those pass_ needs, reversed. DFScan puts the extensions
  /// of a record at depth max_length - 1 into the leaf run instead.
  template <bool kDeepen>
  Status Expand();
  /// Pops the run's next leaf into the path buffer and `sums_`.
  void PopLeaf();
  /// The pending run, its first leaf popped.
  LeafRun TakeRun();
  /// Ends the run TakeRun handed out after `taken` leaves were popped,
  /// counting them (as emitted when `emitted`) and uncharging the rest.
  void EndRun(size_t taken, bool emitted);
  void ClearRun();
  /// Starts the next iterative-deepening pass, or returns false when the
  /// last one found nothing to deepen.
  bool NextPass();
  /// Pops (or loads a seed), checks for interrupts, expands and checks the
  /// memory cap until the buffer holds a qualifying path or the traversal
  /// is exhausted: the body of Next() and ForEachPath(). With `runs`, a
  /// pending leaf run stops it instead of being popped.
  StatusOr<Step> Advance(bool runs);
  /// Advance() for one engine, inlined into it so the pass check costs
  /// DFScan no call.
  template <bool kDeepen>
  [[gnu::always_inline]] inline StatusOr<Step> AdvanceImpl(bool runs);
  /// The emission handle for the buffered path (see the class comment).
  PathPtr Emit();
  void ClearStack();

  const bool deepening_;  ///< BFScan: iterative deepening.
  std::vector<Hop> stack_;
  std::vector<double> stack_sums_;  ///< sum_bounds.size() per stack record.
  PathData path_;                   ///< The last popped record's path.
  std::vector<double> sums_;        ///< The last popped record's sums.
  std::shared_ptr<PathData> emitted_;  ///< The last emitted path.

  /// The leaf run: the admitted last hops in neighbor order, with their
  /// sums (sum_bounds.size() per leaf), and how many have popped (it is
  /// pending until all have).
  std::vector<VertexId> run_vertexes_;
  std::vector<EdgeId> run_edges_;
  std::vector<double> run_sums_;
  size_t run_popped_ = 0;
  /// This probe's leaves qualify on their length alone (ForEachPath).
  bool whole_runs_ = false;
  uint64_t leaf_runs_ = 0;

  /// The probe's seeds in load order, and the next one to load.
  std::vector<VertexId> seeds_;
  size_t next_seed_ = 0;
  std::unordered_set<VertexId> visited_;  ///< global_visited mode (DFScan).

  size_t pass_ = 0;  ///< The depth the current pass emits.
  /// Whether the current pass pushed a non-closing depth-pass_ record.
  bool pass_extendable_ = false;
  uint64_t passes_ = 0;
};

}  // namespace grfusion

#endif  // GRFUSION_GRAPHEXEC_DFS_SCANNER_H_
