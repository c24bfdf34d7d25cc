#ifndef GRFUSION_GRAPHEXEC_PARALLEL_PATH_PROBE_H_
#define GRFUSION_GRAPHEXEC_PARALLEL_PATH_PROBE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "common/status.h"
#include "common/task_pool.h"
#include "exec/query_context.h"
#include "expr/row.h"
#include "graph/path.h"
#include "graphexec/traversal_spec.h"

namespace grfusion {

/// Morsel-driven parallel multi-source PathScan (the fig7/fig8 shape): the
/// sorted start-vertex set is cut into morsels, worker tasks claim morsels
/// from a shared cursor and run an independent PathScanner per morsel
/// against the immutable GraphView topology, and results flow back into the
/// pull-based Next() stream of PathProbeJoinOp.
///
/// Two merge protocols, chosen by the physical operator:
///  - DFS: a bounded MPSC queue; workers stream paths as they are found and
///    the consumer pulls. Arrival order is interleave-dependent, so the
///    planner only allows this for order-insensitive queries (see
///    TraversalSpec::parallel_safe); the emitted *multiset* equals serial.
///    BFS never fans out here: it runs serially or in the frontier kernel,
///    whose level expansion keeps the serial order.
///  - SPScan: workers buffer each morsel's output (already emitted in
///    ComparePathOrder order), then the consumer k-way-merges the runs with
///    the same comparator. Because that order is a strict total order, the
///    merged sequence is byte-identical to serial emission for any worker
///    count or morsel partition.
///
/// Each worker owns a private QueryContext (never shared between threads)
/// whose charges additionally flow into a SharedMemoryBudget seeded with the
/// parent's remaining headroom under its cap, so aggregate worker memory
/// respects the query-level cap instead of multiplying it by the worker
/// count. Worker ExecStats and peak bytes are folded into the parent on the
/// query thread after workers join.
class ParallelPathProbe {
 public:
  struct WorkerReport {
    uint64_t morsels = 0;  ///< Morsels this worker claimed.
    uint64_t paths = 0;    ///< Paths this worker produced.
    uint64_t ns = 0;       ///< Wall time of the worker task.
  };

  ParallelPathProbe(std::shared_ptr<const TraversalSpec> spec,
                    QueryContext* parent);
  ~ParallelPathProbe();

  /// True when this probe should fan out: parallelism is enabled on the
  /// context, the traversal is DFS or SPScan (never BFS), the planner marked
  /// the spec order-safe, and there are enough
  /// starts to be worth splitting (>= max(2, parallel_min_starts)).
  static bool Eligible(const TraversalSpec& spec, const QueryContext& ctx,
                       size_t num_starts);

  /// Launches the workers for one probe. For SPScan this blocks until the
  /// workers finish (buffered-merge protocol); for DFS it returns once
  /// tasks are queued and paths stream through Next(). `outer_row` is
  /// borrowed and must outlive the pulls.
  Status Start(std::vector<VertexId> starts, std::optional<VertexId> target,
               const ExecRow* outer_row);

  /// Next merged path, or false when all workers are drained. Folds worker
  /// stats into the parent context exactly once, when the stream ends.
  StatusOr<bool> Next(PathPtr* out);

  /// Cancels in-flight workers, joins them, and folds their stats (operator
  /// Close / early destruction). Safe to call repeatedly.
  void Cancel();

  /// Per-worker fan-out for EXPLAIN ANALYZE; stable after the stream ends or
  /// Cancel(). Slots of workers that claimed no morsel report zeros.
  const std::vector<WorkerReport>& reports() const { return reports_; }
  size_t workers() const { return reports_.size(); }

 private:
  /// Bounded MPSC channel for the streaming (DFS) protocol. Producers
  /// hand over whole batches of paths so the mutex/condvar cost is amortized
  /// over many results instead of paid per path.
  class Channel {
   public:
    explicit Channel(size_t capacity) : capacity_(capacity) {}
    void SetProducers(size_t n);
    bool Push(std::vector<PathPtr> batch);   ///< False once cancelled.
    bool Pop(std::vector<PathPtr>* out);     ///< False when drained/cancelled.
    void ProducerDone();
    void Cancel();

   private:
    std::mutex mu_;
    std::condition_variable not_full_;
    std::condition_variable not_empty_;
    std::deque<std::vector<PathPtr>> batches_;
    size_t capacity_;  ///< Maximum queued batches.
    size_t producers_ = 0;
    bool cancelled_ = false;
  };

  struct WorkerSlot {
    ExecStats stats;
    size_t peak_bytes = 0;
    WorkerReport report;
  };

  void WorkerBody(size_t widx, bool ordered);
  void RecordError(const Status& status);
  /// Joins workers and folds stats/reports into the parent (idempotent).
  void FinishAndMerge();

  std::shared_ptr<const TraversalSpec> spec_;
  QueryContext* parent_;

  std::vector<VertexId> starts_;
  std::vector<std::pair<size_t, size_t>> morsels_;  ///< [begin, end) ranges.
  std::optional<VertexId> target_;
  const ExecRow* outer_row_ = nullptr;

  std::unique_ptr<TaskGroup> group_;
  /// Cross-worker byte budget for this one fan-out (parent's remaining
  /// headroom at Start); outlives the workers, dies with the probe.
  std::unique_ptr<SharedMemoryBudget> budget_;
  std::atomic<size_t> morsel_cursor_{0};
  std::atomic<bool> cancel_{false};
  Channel channel_;
  /// Consumer-side batch being drained by Next() (streaming protocol).
  std::vector<PathPtr> pop_batch_;
  size_t pop_pos_ = 0;

  std::mutex error_mu_;
  Status first_error_ = Status::OK();

  std::vector<WorkerSlot> slots_;
  std::vector<WorkerReport> reports_;

  /// Ordered (SPScan) protocol state: one sorted run per morsel plus a
  /// cursor, merged lazily by ComparePathOrder.
  std::vector<std::vector<PathPtr>> runs_;
  std::vector<size_t> run_pos_;
  size_t buffered_bytes_ = 0;  ///< Charged to the parent context.

  bool started_ = false;
  bool finished_ = false;
};

}  // namespace grfusion

#endif  // GRFUSION_GRAPHEXEC_PARALLEL_PATH_PROBE_H_
