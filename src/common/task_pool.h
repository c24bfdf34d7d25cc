#ifndef GRFUSION_COMMON_TASK_POOL_H_
#define GRFUSION_COMMON_TASK_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"

namespace grfusion {

class Counter;
class Gauge;

/// Work-stealing worker pool shared by all morsel-driven parallel paths in
/// the engine (DFS path aggregation morsels, parallel Vertex/EdgeScan,
/// parallel graph-view construction).
///
/// Design (Leis et al., "Morsel-Driven Parallelism", SIGMOD 2014):
///  - each worker owns a deque; it pops its own work LIFO (cache-hot) and
///    steals FIFO from victims when its deque runs dry, so the oldest —
///    typically largest-remaining — work migrates first;
///  - external `Submit` calls distribute round-robin across worker deques,
///    and `SubmitTo` pins a task to one worker (used by tests to force
///    steals, and by callers that want deliberate imbalance);
///  - the destructor drains every queued task before joining the workers, so
///    shutdown-while-busy never drops work on the floor.
///
/// Tasks must be noexcept from the pool's point of view; use `TaskGroup` to
/// run tasks whose exceptions/status must propagate to the waiter.
///
/// The pool exports `taskpool_*` counters/gauges through the global
/// MetricsRegistry (visible in SYS.METRICS).
class TaskPool {
 public:
  explicit TaskPool(size_t num_workers);
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  size_t num_workers() const { return workers_.size(); }

  /// Enqueues `fn` on the next worker (round-robin). `fn` must not throw;
  /// an escaped exception terminates the process by design.
  void Submit(std::function<void()> fn);

  /// Enqueues `fn` on worker `worker % num_workers()`'s deque. Other workers
  /// may still steal it.
  void SubmitTo(size_t worker, std::function<void()> fn);

  struct Stats {
    uint64_t submitted = 0;  ///< Tasks ever enqueued.
    uint64_t executed = 0;   ///< Tasks that finished running.
    uint64_t stolen = 0;     ///< Tasks executed by a non-home worker.
  };
  Stats stats() const;

  /// Tasks enqueued but not yet claimed by any worker.
  size_t queue_depth() const { return pending_.load(std::memory_order_relaxed); }

  /// Process-wide pool used by query execution. Sized
  /// max(hardware_concurrency, 4) so parallel plans exercise real
  /// concurrency even on small containers; intentionally leaked so worker
  /// threads never race static destruction.
  static TaskPool& Shared();

 private:
  struct Worker {
    std::mutex mu;
    std::deque<std::function<void()>> tasks;
  };

  void WorkerLoop(size_t self);
  /// Pops from own deque (back) or steals from a victim (front). Returns an
  /// empty function when no work is available anywhere.
  std::function<void()> ClaimTask(size_t self);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  std::mutex idle_mu_;
  std::condition_variable idle_cv_;
  std::atomic<size_t> pending_{0};
  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> next_worker_{0};

  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> executed_{0};
  std::atomic<uint64_t> stolen_{0};

  // Global-registry handles (never null once constructed).
  Counter* tasks_metric_;
  Counter* steals_metric_;
  Gauge* depth_metric_;
};

/// Groups tasks submitted to a TaskPool and lets one thread wait for all of
/// them, rethrowing the first captured exception (concurrent failures after
/// the first are dropped). `Cancelled()` turns true as soon as any task
/// throws so sibling tasks can bail out early.
class TaskGroup {
 public:
  explicit TaskGroup(TaskPool* pool) : pool_(pool) {}
  ~TaskGroup() { WaitNoThrow(); }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Schedules `fn` on the pool (round-robin).
  void Run(std::function<void()> fn);

  /// Blocks until every task launched through Run has finished, then
  /// rethrows the first captured exception, if any.
  void Wait();

  /// Wait without rethrowing (used by the destructor).
  void WaitNoThrow();

  bool Cancelled() const { return cancelled_.load(std::memory_order_acquire); }

 private:
  TaskPool* pool_;
  std::mutex mu_;
  std::condition_variable cv_;
  size_t outstanding_ = 0;
  std::exception_ptr first_error_;
  std::atomic<bool> cancelled_{false};
};

/// Runs `fn(begin, end)` over [0, n) split into chunks of at most
/// `morsel_size`, fanning chunks out across the pool and blocking until all
/// complete. The chunk decomposition depends only on (n, morsel_size) — never
/// on the worker count — so any order-sensitive merge done by the caller is
/// deterministic. Rethrows the first task exception. The returned Status is
/// OK except when the `taskpool.submit` failpoint injects a submission
/// failure (callers must treat it as "no morsel ran").
Status ParallelFor(TaskPool* pool, size_t n, size_t morsel_size,
                   const std::function<void(size_t, size_t)>& fn);

}  // namespace grfusion

#endif  // GRFUSION_COMMON_TASK_POOL_H_
