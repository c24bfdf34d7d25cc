#ifndef GRFUSION_EXEC_QUERY_CONTEXT_H_
#define GRFUSION_EXEC_QUERY_CONTEXT_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

#include "common/cancellation.h"
#include "common/failpoint.h"
#include "common/logging.h"
#include "common/status.h"
#include "storage/epoch.h"

namespace grfusion {

class TaskPool;
class QueryTrace;

/// Thread-safe byte budget shared by the worker contexts of one parallel
/// fan-out. Seeded with the parent query's *remaining* headroom under its
/// memory cap, it makes the cap a per-query guarantee: W workers charging
/// concurrently can never hold more than the budget in aggregate, instead of
/// up to W x cap with per-worker caps only. Charge-then-check semantics match
/// QueryContext::ChargeBytes; every Charge must be paired with a Release (or
/// the budget discarded) — the budget is scoped to a single fan-out.
class SharedMemoryBudget {
 public:
  explicit SharedMemoryBudget(size_t limit) : limit_(limit) {}

  Status Charge(size_t bytes) {
    size_t prev = used_.fetch_add(bytes, std::memory_order_relaxed);
    size_t used = prev + bytes;
    // `used < bytes` detects unsigned wraparound: a huge `bytes` must not be
    // able to lap the counter past `limit_` and slip through the check. The
    // charge stays recorded either way so the caller's paired Release keeps
    // the counter consistent (mod-2^64 arithmetic makes sub undo add even
    // across a wrap).
    if (used < bytes || used > limit_) {
      return Status::ResourceExhausted(
          "parallel workers exceeded the query's remaining memory budget (" +
          std::to_string(used) + " > " + std::to_string(limit_) + " bytes)");
    }
    return Status::OK();
  }

  void Release(size_t bytes) {
    used_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  size_t used() const { return used_.load(std::memory_order_relaxed); }
  size_t limit() const { return limit_; }

 private:
  const size_t limit_;
  std::atomic<size_t> used_{0};
};

/// Execution statistics collected per query. Benches read these to report
/// the *work* an approach performs (e.g., vertexes expanded by a traversal
/// vs. rows joined by the relational baseline).
struct ExecStats {
  uint64_t rows_scanned = 0;        ///< Rows pulled from base tables.
  uint64_t rows_joined = 0;         ///< Rows emitted by join operators.
  /// Traversal records popped (or claims qualified); an iterative-deepening
  /// BFScan counts each pass's re-expansions.
  uint64_t vertexes_expanded = 0;
  /// Edges considered by traversals: the kernels' and the point-to-point
  /// bounds' (bound_edges) together.
  uint64_t edges_examined = 0;
  /// Edges a point-to-point bound's bidirectional search examined (a part
  /// of edges_examined).
  uint64_t bound_edges = 0;
  uint64_t paths_emitted = 0;       ///< Paths produced by PathScan.
  uint64_t paths_pruned = 0;        ///< Branches cut by pushed-down filters.
  uint64_t max_frontier = 0;        ///< Peak traversal stack/level size.
  /// Traversal-time edge-attribute reads served by the tuple pointer rather
  /// than a flat column (appended edges, stale or undescribed slots).
  uint64_t attr_tuple_reads = 0;
  /// DFS leaf runs a morsel aggregate took in one call (DESIGN.md §20);
  /// runs taken leaf by leaf are not counted.
  uint64_t runs_folded = 0;

  void NoteFrontier(uint64_t size) {
    if (size > max_frontier) max_frontier = size;
  }

  /// Folds a parallel worker's counters into this one. Called on the query
  /// thread after the worker has finished (never concurrently).
  void MergeFrom(const ExecStats& other) {
    rows_scanned += other.rows_scanned;
    rows_joined += other.rows_joined;
    vertexes_expanded += other.vertexes_expanded;
    edges_examined += other.edges_examined;
    bound_edges += other.bound_edges;
    paths_emitted += other.paths_emitted;
    paths_pruned += other.paths_pruned;
    attr_tuple_reads += other.attr_tuple_reads;
    runs_folded += other.runs_folded;
    NoteFrontier(other.max_frontier);
  }
};

/// Per-query execution context: memory accounting for intermediate results
/// (hash-join build sides, aggregation tables, sort buffers, traversal
/// frontiers) and execution statistics.
///
/// The memory cap reproduces the paper's §7.2 observation: multi-hop
/// relational self-joins blow up their intermediate memory (SQLGraph on the
/// Twitter graph exceeded 16 GB past 4 joins), while native traversal stays
/// small. Operators charge what they materialize; exceeding the cap aborts
/// the query with ResourceExhausted.
class QueryContext {
 public:
  /// Default cap mirrors VoltDB's temp-table limit scaled for tests: 256 MB.
  static constexpr size_t kDefaultMemoryCap = 256ull << 20;

  explicit QueryContext(size_t memory_cap = kDefaultMemoryCap)
      : memory_cap_(memory_cap) {}

  Status ChargeBytes(size_t bytes) {
    // Refuse a charge that would wrap the counter *before* accounting it:
    // call sites that pass attacker-sized values always check the status, and
    // not recording the charge means their (absent) release can't underflow.
    if (current_bytes_ + bytes < current_bytes_) {
      return Status::ResourceExhausted(
          "intermediate-result charge overflows the byte counter (" +
          std::to_string(bytes) + " bytes)");
    }
    current_bytes_ += bytes;
    if (current_bytes_ > peak_bytes_) peak_bytes_ = current_bytes_;
    if (current_bytes_ > memory_cap_) {
      return Status::ResourceExhausted(
          "intermediate-result memory exceeded cap (" +
          std::to_string(current_bytes_) + " > " +
          std::to_string(memory_cap_) + " bytes)");
    }
    if (shared_budget_ != nullptr && current_bytes_ > reserved_bytes_) {
      GRF_RETURN_IF_ERROR(Reserve());
    }
    // Fires after accounting so an injected failure looks exactly like a cap
    // trip (charge-then-check): ignore-status callers stay balanced on
    // release, status-checking callers exercise their unwind path.
    GRF_FAILPOINT("exec.charge_bytes");
    return Status::OK();
  }

  void ReleaseBytes(size_t bytes) {
    // Releasing more than was charged means an operator double-released or
    // under-charged; the release-build clamp hides the bug, so trap it here.
    GRF_DCHECK(bytes <= current_bytes_);
    current_bytes_ = bytes > current_bytes_ ? 0 : current_bytes_ - bytes;
    if (shared_budget_ != nullptr &&
        reserved_bytes_ > current_bytes_ + 2 * reserve_step_) {
      // Keep one step in hand, so charges that oscillate around a step
      // boundary do not touch the shared counter each time.
      const size_t keep = current_bytes_ + reserve_step_;
      shared_budget_->Release(reserved_bytes_ - keep);
      reserved_bytes_ = keep;
    }
  }

  /// Headroom left under the cap; a parallel fan-out seeds its workers'
  /// SharedMemoryBudget with this so aggregate worker usage stays within the
  /// query-level cap.
  size_t remaining_budget() const {
    return current_bytes_ >= memory_cap_ ? 0 : memory_cap_ - current_bytes_;
  }

  /// Worker contexts of a parallel fan-out additionally charge/release
  /// against this cross-worker budget (not owned; must outlive the context's
  /// last charge/release). With `step` 0 every charge and release reaches
  /// the budget. A positive `step` batches them for workers whose hot loops
  /// charge a few bytes at a time (traversal stacks): the context reserves
  /// the budget in multiples of `step` and hands back only what lies more
  /// than two steps above its usage, so at most 2 x `step` per context is
  /// reserved but unused. A reservation the budget cannot grant in whole
  /// steps falls back to the exact bytes needed.
  void set_shared_budget(SharedMemoryBudget* budget, size_t step = 0) {
    shared_budget_ = budget;
    reserve_step_ = step;
  }

  /// Whether this context, or the fan-out budget it shares, holds more than
  /// its limit. Callers that charge without checking each status (traversal
  /// stacks) test this after a batch of charges.
  bool over_budget() const {
    return current_bytes_ > memory_cap_ ||
           (shared_budget_ != nullptr &&
            shared_budget_->used() > shared_budget_->limit());
  }

  size_t current_bytes() const { return current_bytes_; }
  size_t peak_bytes() const { return peak_bytes_; }
  size_t memory_cap() const { return memory_cap_; }

  /// Statement-wide cancellation/deadline token (not owned; null disables
  /// all interrupt checks). Shared with every worker context of a parallel
  /// fan-out so one trip stops all threads.
  void set_cancellation(CancellationToken* token) {
    cancel_token_ = token;
    deadline_skip_ = 0;
  }
  CancellationToken* cancellation() const { return cancel_token_; }

  /// Cooperative interrupt check, called from operator Next() wrappers,
  /// traversal expansion loops, and parallel-worker morsel loops. Fast path
  /// (no token, or token armed-and-unfired with the deadline not yet due) is
  /// a null test plus one relaxed atomic load; the monotonic clock is only
  /// read every kDeadlineStride calls once a deadline is armed.
  Status CheckInterrupt() {
    if (cancel_token_ == nullptr) return Status::OK();
    uint32_t state = cancel_token_->state();
    if (state == 0) return Status::OK();
    return CheckInterruptSlow(state);
  }

  /// Clock reads per deadline check are amortized over this many calls; one
  /// morsel/expansion batch is far more work than 32 Next() calls, so the
  /// "prompt within one batch" latency bound still holds.
  static constexpr int kDeadlineStride = 32;

  ExecStats& stats() { return stats_; }
  const ExecStats& stats() const { return stats_; }

  /// When set, PhysicalOperator wrappers collect wall-clock time per
  /// Open/Next/Close in addition to the always-on call/row counters.
  /// Enabled for EXPLAIN ANALYZE and when a slow-query threshold is armed.
  void set_profile_timing(bool enabled) { profile_timing_ = enabled; }
  bool profile_timing() const { return profile_timing_; }

  /// Armed span trace of the executing statement (not owned; null when the
  /// statement is untraced — the overwhelmingly common case, which every
  /// span site reduces to a single null test). Shared with the worker
  /// contexts of a parallel fan-out so worker threads contribute spans.
  void set_trace(QueryTrace* trace) { trace_ = trace; }
  QueryTrace* trace() const { return trace_; }

  /// Parallel-execution knobs. QueryContext (and ExecStats) are NOT
  /// thread-safe: parallel operators give each worker its own QueryContext
  /// and fold results back on the query thread (stats via
  /// ExecStats::MergeFrom, memory via FoldChildPeak) once workers have
  /// joined. `max_parallelism <= 1` or a null pool disables all parallel
  /// paths and reproduces single-threaded execution exactly.
  void set_task_pool(TaskPool* pool) { task_pool_ = pool; }
  TaskPool* task_pool() const { return task_pool_; }
  void set_max_parallelism(size_t n) { max_parallelism_ = n == 0 ? 1 : n; }
  size_t max_parallelism() const { return max_parallelism_; }

  /// Inputs smaller than this are not worth fanning out; parallel scans and
  /// parallel graph-view builds fall back to the serial path below it.
  /// Tests lower it to force parallel execution on tiny inputs.
  void set_parallel_min_rows(size_t n) { parallel_min_rows_ = n; }
  size_t parallel_min_rows() const { return parallel_min_rows_; }

  bool parallel_enabled() const {
    return task_pool_ != nullptr && max_parallelism_ > 1;
  }

  /// MVCC snapshot this statement reads at. The default kEpochLatest (with
  /// include_open) reproduces the classic non-versioned behavior for
  /// directly-constructed contexts (tests, standalone tools); Session sets a
  /// fixed committed epoch for readers and the writer's own epoch for DML.
  void set_snapshot_epoch(Epoch e) { snapshot_epoch_ = e; }
  Epoch snapshot_epoch() const { return snapshot_epoch_; }

  /// Whether graph-view reads under this context see the writer's open
  /// (unpublished) delta. True only for the writing session's own
  /// statements; snapshot readers resolve the published delta chain.
  void set_include_open(bool v) { include_open_ = v; }
  bool include_open() const { return include_open_; }

  /// Records a finished worker context's peak as if it were still resident
  /// on top of the parent's current usage, so SYS.LAST_QUERY's peak-bytes
  /// reflects parallel materialization.
  void FoldChildPeak(size_t child_peak) {
    size_t combined = current_bytes_ + child_peak;
    if (combined > peak_bytes_) peak_bytes_ = combined;
  }

 private:
  /// Takes from the shared budget what current_bytes_ needs beyond the
  /// reservation, rounded up to whole steps when they fit.
  Status Reserve() {
    const size_t need = current_bytes_ - reserved_bytes_;
    size_t grant = need;
    if (reserve_step_ > 0) {
      grant = (need + reserve_step_ - 1) / reserve_step_ * reserve_step_;
    }
    Status status = shared_budget_->Charge(grant);
    reserved_bytes_ += grant;
    if (!status.ok() && grant > need) {
      // The rounding may be what tipped the budget: keep only the need.
      shared_budget_->Release(grant - need);
      reserved_bytes_ -= grant - need;
      if (shared_budget_->used() <= shared_budget_->limit()) {
        status = Status::OK();
      }
    }
    return status;
  }

  Status CheckInterruptSlow(uint32_t state) {
    if (state & CancellationToken::kDeadlineExceededBit) {
      return Status::DeadlineExceeded("statement deadline exceeded");
    }
    if (state & CancellationToken::kCancelledBit) {
      return Status::Cancelled("statement cancelled");
    }
    // Deadline armed but not yet observed as exceeded: read the clock on the
    // first check and then every kDeadlineStride-th one.
    if (deadline_skip_ > 0) {
      --deadline_skip_;
      return Status::OK();
    }
    deadline_skip_ = kDeadlineStride - 1;
    if (CancellationToken::NowNs() >= cancel_token_->deadline_ns()) {
      // Latch so sibling workers stop without re-reading the clock and every
      // thread reports the same terminal code.
      cancel_token_->NoteDeadlineExceeded();
      return Status::DeadlineExceeded("statement deadline exceeded");
    }
    return Status::OK();
  }

  size_t memory_cap_;
  size_t current_bytes_ = 0;
  size_t peak_bytes_ = 0;
  bool profile_timing_ = false;
  TaskPool* task_pool_ = nullptr;
  size_t max_parallelism_ = 1;
  size_t parallel_min_rows_ = 2048;
  SharedMemoryBudget* shared_budget_ = nullptr;
  size_t reserve_step_ = 0;
  size_t reserved_bytes_ = 0;  ///< Held in shared_budget_ for this context.
  QueryTrace* trace_ = nullptr;
  CancellationToken* cancel_token_ = nullptr;
  int deadline_skip_ = 0;
  Epoch snapshot_epoch_ = kEpochLatest;
  bool include_open_ = true;
  ExecStats stats_;
};

}  // namespace grfusion

#endif  // GRFUSION_EXEC_QUERY_CONTEXT_H_
