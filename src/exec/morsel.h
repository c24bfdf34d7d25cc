#ifndef GRFUSION_EXEC_MORSEL_H_
#define GRFUSION_EXEC_MORSEL_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "exec/operator.h"

namespace grfusion {

/// A worker's private state for draining a MorselSource's morsels (its
/// traversal engine and counters); opaque to the consumer.
class MorselReader {
 public:
  virtual ~MorselReader() = default;
};

/// The leaves of one final DFS expansion (DESIGN.md §17): `size` paths
/// that share every hop but the last. `path` is the scanner's path buffer,
/// and Select(i) rewrites only its last hop, making it leaf i's path.
/// Leaves are numbered in the order the scanner would emit them, which is
/// the reverse of the admitted arrays' neighbor order. The buffer holds
/// leaf 0 when the run is handed over.
struct LeafRun {
  PathData* path = nullptr;
  const VertexId* vertexes = nullptr;  ///< Each leaf's last vertex.
  const EdgeId* edges = nullptr;       ///< Each leaf's last edge.
  size_t size = 0;
  /// Leaves taken so far: through the last selected one. A consumer that
  /// fails has taken exactly these, so the source counts only them.
  size_t taken = 1;

  void Select(size_t i) {
    const size_t at = size - 1 - i;
    path->vertexes.back() = vertexes[at];
    path->edges.back() = edges[at];
    taken = i + 1;
  }
};

/// Receives a morsel's rows. `new_run` is true for the first row of each
/// outer row, so false promises that `row.columns` equal the previous row's.
/// The row, and any path it holds, is valid only during the call: nothing
/// may keep a reference to it or a copy of its path slots.
struct MorselSink {
  /// One row.
  std::function<Status(const ExecRow& row, bool new_run)> row;
  /// Optional: `run.size` rows at once, every leaf of `run` (the row's path
  /// slot aliases `run.path`, which holds leaf 0). A source that has a run
  /// of leaves which all qualify hands it over here when this is set, and
  /// through `row`, leaf by leaf, when it is not.
  std::function<Status(const ExecRow& row, bool new_run, LeafRun& run)>
      leaves;
};

/// The source of a morsel drain (DESIGN.md §20): an operator whose input is
/// cut into fixed morsels that workers drain, in any order, straight into a
/// consumer's sink. A morsel holds kMorselSize input rows, kMorselSize
/// starts of an unbound DFScan probe, or one input row of another unbound
/// path probe. The boundaries depend only on the input, never on the worker
/// count, so a consumer that merges per-morsel results in morsel order gets
/// the same answer at any worker count.
///
/// The interface lets AggregateOp (exec) drive PathProbeJoinOp (graphexec),
/// which sits a layer above it. The consumer drives it:
///  1. set_morsel_mode(true), then Open the operator: it runs its input once
///     on the calling thread and buffers it under the statement budget;
///  2. one NewReader() per worker;
///  3. per morsel, DrainMorsel under the worker's context;
///  4. FinishMorsels once every worker is done, then Close the operator.
class MorselSource {
 public:
  /// Input rows (or unbound starts) per morsel. A constant, so a statement's
  /// morsels are the same whatever its worker count.
  static constexpr size_t kMorselSize = 16;

  virtual ~MorselSource() = default;

  /// Whether the next Open buffers the input into morsels instead of
  /// streaming it.
  virtual void set_morsel_mode(bool on) = 0;

  /// Morsels cut by the last Open in morsel mode.
  virtual size_t morsel_count() const = 0;

  /// A worker's reader. It reads this operator's buffer, which must stay
  /// open while the reader runs; readers may run concurrently.
  virtual std::unique_ptr<MorselReader> NewReader() const = 0;

  /// Feeds every row of morsel `morsel` to `sink`, in the order the
  /// operator would stream them, with `ctx` (the worker's context) charged
  /// and checked for interrupts. Stops at the first error of the source or
  /// of the sink.
  virtual Status DrainMorsel(MorselReader* reader, size_t morsel,
                             QueryContext* ctx,
                             const MorselSink& sink) const = 0;

  /// Folds the finished readers' counters into this operator and records
  /// each worker's busy time (EXPLAIN ANALYZE). Called on the calling
  /// thread after every worker has joined.
  virtual void FinishMorsels(const std::vector<const MorselReader*>& readers,
                             std::vector<uint64_t> worker_ns) = 0;
};

}  // namespace grfusion

#endif  // GRFUSION_EXEC_MORSEL_H_
