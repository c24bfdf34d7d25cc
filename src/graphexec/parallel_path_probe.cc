#include "graphexec/parallel_path_probe.h"

#include <algorithm>
#include <chrono>

#include "common/failpoint.h"
#include "common/tracer.h"
#include "graphexec/path_scanner.h"

namespace grfusion {

namespace {

constexpr size_t kChannelCapacity = 32;  ///< Queued batches, not paths.
constexpr size_t kStreamBatch = 256;     ///< Paths per producer batch.

/// Accounting footprint of a buffered result path (ordered-merge protocol).
size_t PathBytes(const PathData& path) {
  return 64 + path.vertexes.size() * sizeof(VertexId) +
         path.edges.size() * sizeof(EdgeId);
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

// --- Channel ----------------------------------------------------------------------

void ParallelPathProbe::Channel::SetProducers(size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  producers_ = n;
}

bool ParallelPathProbe::Channel::Push(std::vector<PathPtr> batch) {
  if (batch.empty()) return true;
  std::unique_lock<std::mutex> lock(mu_);
  not_full_.wait(lock, [this] {
    return cancelled_ || batches_.size() < capacity_;
  });
  if (cancelled_) return false;
  batches_.push_back(std::move(batch));
  not_empty_.notify_one();
  return true;
}

bool ParallelPathProbe::Channel::Pop(std::vector<PathPtr>* out) {
  std::unique_lock<std::mutex> lock(mu_);
  not_empty_.wait(lock, [this] {
    return cancelled_ || !batches_.empty() || producers_ == 0;
  });
  if (cancelled_ || batches_.empty()) return false;
  *out = std::move(batches_.front());
  batches_.pop_front();
  not_full_.notify_one();
  return true;
}

void ParallelPathProbe::Channel::ProducerDone() {
  std::lock_guard<std::mutex> lock(mu_);
  if (producers_ > 0 && --producers_ == 0) not_empty_.notify_all();
}

void ParallelPathProbe::Channel::Cancel() {
  std::lock_guard<std::mutex> lock(mu_);
  cancelled_ = true;
  not_full_.notify_all();
  not_empty_.notify_all();
}

// --- ParallelPathProbe ------------------------------------------------------------

ParallelPathProbe::ParallelPathProbe(std::shared_ptr<const TraversalSpec> spec,
                                     QueryContext* parent)
    : spec_(std::move(spec)), parent_(parent), channel_(kChannelCapacity) {}

ParallelPathProbe::~ParallelPathProbe() { Cancel(); }

bool ParallelPathProbe::Eligible(const TraversalSpec& spec,
                                 const QueryContext& ctx, size_t num_starts) {
  if (!ctx.parallel_enabled()) return false;
  // BFS never fans out per start: the streamed arrival order would differ
  // from serial BFS. It runs serially or in the frontier kernel, whose
  // level expansion keeps the serial order.
  if (spec.physical == TraversalSpec::Physical::kBfs) return false;
  if (!spec.parallel_safe || spec.global_visited) return false;
  // Fanning out a probe costs task dispatch + a merge; require enough starts
  // to split. Probe eligibility is governed by parallel_min_starts (each
  // start seeds a whole traversal, so the useful threshold is far lower than
  // parallel_min_rows); tests lower it to parallelize tiny probes, and
  // raising it — like max_parallelism=1 — disables probe fan-out entirely.
  return num_starts >= std::max<size_t>(2, ctx.parallel_min_starts());
}

Status ParallelPathProbe::Start(std::vector<VertexId> starts,
                                std::optional<VertexId> target,
                                const ExecRow* outer_row) {
  GRF_FAILPOINT("parallel_probe.start");
  started_ = true;
  target_ = target;
  outer_row_ = outer_row;
  // All workers charge against the parent's remaining headroom, so the
  // memory cap stays a per-query guarantee (not per-worker: W workers could
  // otherwise hold up to W x cap in aggregate).
  budget_ = std::make_unique<SharedMemoryBudget>(parent_->remaining_budget());

  // Sort + dedupe once, up front: the morsel partition is then a pure
  // function of the start set (PathScanner::Reset re-sorts per morsel, but
  // contiguous slices of a sorted whole are already sorted).
  std::sort(starts.begin(), starts.end());
  starts.erase(std::unique(starts.begin(), starts.end()), starts.end());
  starts_ = std::move(starts);

  const size_t k = parent_->max_parallelism();
  // Aim for ~4 morsels per worker so stealing can rebalance skewed
  // traversals, capped so tiny probes still produce >= 2 morsels. The
  // partition never affects results: DFS mode is restricted to
  // order-insensitive queries and SPScan re-merges into a total order.
  size_t morsel_size = std::max<size_t>(
      1, std::min<size_t>(64, (starts_.size() + 4 * k - 1) / (4 * k)));
  for (size_t begin = 0; begin < starts_.size(); begin += morsel_size) {
    morsels_.emplace_back(begin,
                          std::min(starts_.size(), begin + morsel_size));
  }

  const size_t workers = std::min(k, morsels_.size());
  slots_.resize(workers);
  reports_.resize(workers);
  runs_.resize(morsels_.size());

  group_ = std::make_unique<TaskGroup>(parent_->task_pool());
  const bool ordered =
      spec_->physical == TraversalSpec::Physical::kShortestPath;
  if (!ordered) channel_.SetProducers(workers);
  for (size_t i = 0; i < workers; ++i) {
    group_->Run([this, i, ordered] { WorkerBody(i, ordered); });
  }
  if (!ordered) return Status::OK();

  // Ordered protocol: block until every morsel's run is buffered, then
  // account for the buffered results and arm the k-way merge.
  FinishAndMerge();
  if (!first_error_.ok()) {
    runs_.clear();
    return first_error_;
  }
  size_t total = 0;
  for (const auto& run : runs_) {
    for (const PathPtr& p : run) total += PathBytes(*p);
  }
  buffered_bytes_ = total;
  Status charge = parent_->ChargeBytes(total);
  if (!charge.ok()) {
    runs_.clear();
    return charge;
  }
  run_pos_.assign(runs_.size(), 0);
  return Status::OK();
}

void ParallelPathProbe::WorkerBody(size_t widx, bool ordered) {
  const uint64_t t0 = NowNs();
  WorkerSlot& slot = slots_[widx];
  // Runs on the worker thread, so the span lands under the worker's tid;
  // Start()'s TaskGroup is joined before the trace is rendered.
  TraceSpan worker_span(parent_->trace(), "worker",
                        "probe.worker." + std::to_string(widx));
  QueryContext wctx(parent_->memory_cap());
  wctx.set_shared_budget(budget_.get());
  wctx.set_trace(parent_->trace());
  // Workers observe the statement's token (PathScanner checks it per
  // expansion), so a deadline/interrupt stops every thread of the fan-out.
  wctx.set_cancellation(parent_->cancellation());
  // Pin this worker thread to the statement's MVCC snapshot (GraphReadScope
  // is thread-local and does not propagate into the pool).
  wctx.set_snapshot_epoch(parent_->snapshot_epoch());
  wctx.set_include_open(parent_->include_open());
  GraphReadScope graph_scope(parent_->snapshot_epoch(),
                             parent_->include_open());
  {
    std::unique_ptr<PathScanner> scanner = MakePathScanner(spec_, &wctx);
    std::vector<PathPtr> batch;  // Streaming protocol: flushed every
    batch.reserve(kStreamBatch);  // kStreamBatch paths and at worker exit.
    bool abort = false;
    while (!abort && !cancel_.load(std::memory_order_acquire)) {
      const size_t m = morsel_cursor_.fetch_add(1, std::memory_order_relaxed);
      if (m >= morsels_.size()) break;
      ++slot.report.morsels;
      const auto [begin, end] = morsels_[m];
      Status reset = scanner->Reset(
          {starts_.begin() + static_cast<ptrdiff_t>(begin),
           starts_.begin() + static_cast<ptrdiff_t>(end)},
          target_, outer_row_);
      if (!reset.ok()) {
        RecordError(reset);
        break;
      }
      while (true) {
        PathPtr path;
        StatusOr<bool> has = scanner->Next(&path);
        if (!has.ok()) {
          RecordError(has.status());
          abort = true;
          break;
        }
        if (!*has) break;
        ++slot.report.paths;
        if (ordered) {
          // Sole writer of runs_[m]; keep the bytes charged so the worker's
          // peak reflects the buffered run.
          Status charge = wctx.ChargeBytes(PathBytes(*path));
          runs_[m].push_back(std::move(path));
          if (!charge.ok()) {
            RecordError(charge);
            abort = true;
            break;
          }
        } else {
          batch.push_back(std::move(path));
          if (batch.size() >= kStreamBatch) {
            if (!channel_.Push(std::move(batch))) {
              abort = true;  // Consumer cancelled.
              break;
            }
            batch.clear();
            batch.reserve(kStreamBatch);
          }
        }
      }
    }
    if (!ordered && !abort) channel_.Push(std::move(batch));
    scanner->Release();
  }
  slot.stats = wctx.stats();
  slot.peak_bytes = wctx.peak_bytes();
  slot.report.ns = NowNs() - t0;
  worker_span.AddArg("morsels", std::to_string(slot.report.morsels));
  worker_span.AddArg("paths", std::to_string(slot.report.paths));
  worker_span.End();
  if (!ordered) channel_.ProducerDone();
}

void ParallelPathProbe::RecordError(const Status& status) {
  {
    std::lock_guard<std::mutex> lock(error_mu_);
    if (first_error_.ok()) first_error_ = status;
  }
  cancel_.store(true, std::memory_order_release);
  channel_.Cancel();
}

void ParallelPathProbe::FinishAndMerge() {
  if (finished_) return;
  if (group_ != nullptr) {
    try {
      group_->Wait();
    } catch (const std::exception& e) {
      RecordError(Status::Internal(std::string("parallel worker threw: ") +
                                   e.what()));
    }
  }
  for (size_t i = 0; i < slots_.size(); ++i) {
    parent_->stats().MergeFrom(slots_[i].stats);
    parent_->FoldChildPeak(slots_[i].peak_bytes);
    reports_[i] = slots_[i].report;
  }
  finished_ = true;
}

StatusOr<bool> ParallelPathProbe::Next(PathPtr* out) {
  if (spec_->physical == TraversalSpec::Physical::kShortestPath) {
    // K-way merge of the per-morsel runs by the SPScan total order — equals
    // serial emission for any partition.
    size_t best = runs_.size();
    for (size_t i = 0; i < runs_.size(); ++i) {
      if (run_pos_[i] >= runs_[i].size()) continue;
      if (best == runs_.size() ||
          ComparePathOrder(*runs_[i][run_pos_[i]],
                           *runs_[best][run_pos_[best]]) < 0) {
        best = i;
      }
    }
    if (best == runs_.size()) return false;
    *out = runs_[best][run_pos_[best]++];
    return true;
  }

  while (true) {
    if (pop_pos_ < pop_batch_.size()) {
      *out = std::move(pop_batch_[pop_pos_++]);
      return true;
    }
    pop_batch_.clear();
    pop_pos_ = 0;
    if (!channel_.Pop(&pop_batch_)) break;
  }
  FinishAndMerge();
  if (!first_error_.ok()) return first_error_;
  return false;
}

void ParallelPathProbe::Cancel() {
  if (!started_) return;
  cancel_.store(true, std::memory_order_release);
  channel_.Cancel();
  FinishAndMerge();
  if (buffered_bytes_ > 0) {
    parent_->ReleaseBytes(buffered_bytes_);
    buffered_bytes_ = 0;
  }
  runs_.clear();
  run_pos_.clear();
}

}  // namespace grfusion
