#include "graphexec/graph_ops.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <type_traits>

#include "common/logging.h"
#include "common/string_util.h"
#include "common/task_pool.h"
#include "common/tracer.h"
#include "graphexec/dfs_scanner.h"

namespace grfusion {

namespace {

/// Morsel size for parallel scan-filter evaluation: ~4 morsels per worker so
/// stealing can rebalance, capped at 1024 ids per task.
size_t ScanMorselSize(size_t n, size_t workers) {
  return std::max<size_t>(
      1, std::min<size_t>(1024, (n + 4 * workers - 1) / (4 * workers)));
}

}  // namespace

// --- VertexScanOp -----------------------------------------------------------------

VertexScanOp::VertexScanOp(const GraphView* gv, ExprPtr qualifier,
                           RowLayout layout, size_t offset, ExprPtr id_probe)
    : gv_(gv), qualifier_(std::move(qualifier)), layout_(std::move(layout)),
      offset_(offset), id_probe_(std::move(id_probe)),
      exposed_(gv->ExposedVertexSchema()) {
  for (const AttributeMapping& m : gv->def().vertex_attributes) {
    attr_columns_.push_back(
        gv->vertex_table()->schema().FindColumn(m.source_column));
  }
}

Status VertexScanOp::OpenImpl(QueryContext* ctx) {
  ctx_ = ctx;
  cursor_ = 0;
  ids_.clear();
  buffered_.clear();
  materialized_ = false;
  parallel_morsels_ = 0;
  GRF_DCHECK(buffered_bytes_ == 0);
  if (id_probe_ != nullptr) {
    // O(1) point access through the topology's id hash map.
    ExecRow empty;
    GRF_ASSIGN_OR_RETURN(Value v, id_probe_->Eval(empty));
    if (!v.is_null()) {
      GRF_ASSIGN_OR_RETURN(Value id, v.CastTo(ValueType::kBigInt));
      if (gv_->FindVertex(id.AsBigInt()) != nullptr) {
        ids_.push_back(id.AsBigInt());
      }
    }
    return Status::OK();
  }
  // Snapshot ids so iteration over the deque stays simple; attribute reads
  // still go through live tuple pointers.
  ids_.reserve(gv_->NumVertexes());
  gv_->ForEachVertex([&](const VertexEntry& v) {
    ids_.push_back(v.id);
    return true;
  });
  if (qualifier_ != nullptr && ctx_->parallel_enabled() &&
      ids_.size() >= ctx_->parallel_min_rows()) {
    Status parallel = ParallelFilterOpen();
    if (parallel.ok() ||
        parallel.code() != StatusCode::kResourceExhausted) {
      return parallel;
    }
    // Buffering the passing rows does not fit under the memory cap. The
    // serial path streams one row at a time and materializes nothing, so
    // fall back to it instead of failing a query that fits serially.
    buffered_.clear();
    buffered_bytes_ = 0;
    materialized_ = false;
    parallel_morsels_ = 0;
  }
  return Status::OK();
}

StatusOr<bool> VertexScanOp::MakeRow(VertexId id, ExecRow* out,
                                     QueryContext* ctx) {
  const VertexEntry* v = gv_->FindVertex(id);
  if (v == nullptr) return false;
  const Tuple* tuple = gv_->VertexTuple(*v);
  if (tuple == nullptr) return false;
  ++ctx->stats().rows_scanned;
  ExecRow row = layout_.MakeRow();
  size_t c = offset_;
  row.columns[c++] = Value::BigInt(v->id);
  for (int col : attr_columns_) {
    row.columns[c++] = tuple->value(static_cast<size_t>(col));
  }
  row.columns[c++] = Value::BigInt(static_cast<int64_t>(gv_->FanOut(*v)));
  row.columns[c++] = Value::BigInt(static_cast<int64_t>(gv_->FanIn(*v)));
  if (qualifier_ != nullptr) {
    GRF_ASSIGN_OR_RETURN(bool pass, EvalPredicate(*qualifier_, row));
    if (!pass) return false;
  }
  *out = std::move(row);
  return true;
}

Status VertexScanOp::ParallelFilterOpen() {
  const size_t n = ids_.size();
  const size_t morsel_size = ScanMorselSize(n, ctx_->max_parallelism());
  const size_t num_morsels = (n + morsel_size - 1) / morsel_size;
  // Per-morsel outputs are concatenated in morsel-index order, which equals
  // the serial scan order; workers get private stats contexts. Every buffered
  // row is charged against the parent's remaining headroom *as it is
  // materialized*, so the memory cap stops the allocation while it happens —
  // not after — and aggregate worker usage respects the query-level cap.
  std::vector<std::vector<ExecRow>> results(num_morsels);
  std::vector<Status> statuses(num_morsels, Status::OK());
  std::vector<uint64_t> scanned(num_morsels, 0);
  SharedMemoryBudget budget(ctx_->remaining_budget());
  std::atomic<bool> abort{false};
  GRF_RETURN_IF_ERROR(ParallelFor(
      ctx_->task_pool(), n, morsel_size, [&](size_t begin, size_t end) {
    if (abort.load(std::memory_order_relaxed)) return;
    const size_t m = begin / morsel_size;
    // Runs on the pool worker, so the span carries the worker's tid;
    // ParallelFor joins every morsel before the trace is rendered.
    TraceSpan morsel_span(ctx_->trace(), "worker",
                          "scan.morsel." + std::to_string(m));
    QueryContext wctx(ctx_->memory_cap());
    wctx.set_shared_budget(&budget);
    wctx.set_cancellation(ctx_->cancellation());
    // Pin the worker to the statement's MVCC snapshot: the GraphReadScope is
    // thread-local, so each pool thread re-installs it for its morsels.
    wctx.set_snapshot_epoch(ctx_->snapshot_epoch());
    wctx.set_include_open(ctx_->include_open());
    GraphReadScope graph_scope(ctx_->snapshot_epoch(), ctx_->include_open());
    for (size_t i = begin; i < end; ++i) {
      if (abort.load(std::memory_order_relaxed)) break;
      ExecRow row;
      Status status = wctx.CheckInterrupt();
      StatusOr<bool> made = status.ok() ? MakeRow(ids_[i], &row, &wctx)
                                        : StatusOr<bool>(status);
      if (status.ok()) status = made.status();
      if (status.ok() && *made) status = wctx.ChargeBytes(row.ByteSize());
      if (!status.ok()) {
        statuses[m] = status;
        abort.store(true, std::memory_order_relaxed);
        break;
      }
      if (*made) results[m].push_back(std::move(row));
    }
    scanned[m] = wctx.stats().rows_scanned;
    morsel_span.AddArg("rows", std::to_string(results[m].size()));
  }));
  // Merge nothing on failure: the caller may fall back to the serial path,
  // which rescans from scratch (stats would double-count otherwise).
  for (const Status& s : statuses) GRF_RETURN_IF_ERROR(s);
  materialized_ = true;
  parallel_morsels_ = num_morsels;
  size_t rows = 0, bytes = 0;
  for (size_t m = 0; m < num_morsels; ++m) {
    ctx_->stats().rows_scanned += scanned[m];
    rows += results[m].size();
    for (const ExecRow& row : results[m]) bytes += row.ByteSize();
  }
  buffered_.reserve(rows);
  for (auto& chunk : results) {
    for (ExecRow& row : chunk) buffered_.push_back(std::move(row));
  }
  buffered_bytes_ = bytes;
  // `budget` validated bytes <= remaining_budget during the build, so the
  // parent-level charge below cannot newly exceed the cap.
  return ctx_->ChargeBytes(bytes);
}

StatusOr<bool> VertexScanOp::NextImpl(ExecRow* out) {
  if (materialized_) {
    if (cursor_ >= buffered_.size()) return false;
    *out = std::move(buffered_[cursor_++]);
    return true;
  }
  while (cursor_ < ids_.size()) {
    GRF_ASSIGN_OR_RETURN(bool made, MakeRow(ids_[cursor_++], out, ctx_));
    if (made) return true;
  }
  return false;
}

void VertexScanOp::CloseImpl() {
  ids_.clear();
  buffered_.clear();
  if (buffered_bytes_ > 0) {
    ctx_->ReleaseBytes(buffered_bytes_);
    buffered_bytes_ = 0;
  }
  materialized_ = false;
}

std::string VertexScanOp::name() const {
  std::string out = "VertexScan(" + gv_->name();
  if (id_probe_ != nullptr) out += ", id-probe: " + id_probe_->ToString();
  if (qualifier_ != nullptr) out += ", filter: " + qualifier_->ToString();
  return out + ")";
}

std::string VertexScanOp::AnalyzeExtra() const {
  if (parallel_morsels_ == 0) return "";
  return StrFormat(" parallel_morsels=%zu", parallel_morsels_);
}

// --- EdgeScanOp -------------------------------------------------------------------

EdgeScanOp::EdgeScanOp(const GraphView* gv, ExprPtr qualifier, RowLayout layout,
                       size_t offset)
    : gv_(gv), qualifier_(std::move(qualifier)), layout_(std::move(layout)),
      offset_(offset), exposed_(gv->ExposedEdgeSchema()) {
  for (const AttributeMapping& m : gv->def().edge_attributes) {
    attr_columns_.push_back(
        gv->edge_table()->schema().FindColumn(m.source_column));
  }
}

Status EdgeScanOp::OpenImpl(QueryContext* ctx) {
  ctx_ = ctx;
  cursor_ = 0;
  ids_.clear();
  buffered_.clear();
  materialized_ = false;
  parallel_morsels_ = 0;
  GRF_DCHECK(buffered_bytes_ == 0);
  ids_.reserve(gv_->NumEdges());
  gv_->ForEachEdge([&](const EdgeEntry& e) {
    ids_.push_back(e.id);
    return true;
  });
  if (qualifier_ != nullptr && ctx_->parallel_enabled() &&
      ids_.size() >= ctx_->parallel_min_rows()) {
    Status parallel = ParallelFilterOpen();
    if (parallel.ok() ||
        parallel.code() != StatusCode::kResourceExhausted) {
      return parallel;
    }
    // See VertexScanOp::OpenImpl: stream serially instead of failing a
    // query whose only oversized materialization was the parallel buffer.
    buffered_.clear();
    buffered_bytes_ = 0;
    materialized_ = false;
    parallel_morsels_ = 0;
  }
  return Status::OK();
}

StatusOr<bool> EdgeScanOp::MakeRow(EdgeId id, ExecRow* out,
                                   QueryContext* ctx) {
  const EdgeEntry* e = gv_->FindEdge(id);
  if (e == nullptr) return false;
  const Tuple* tuple = gv_->EdgeTuple(*e);
  if (tuple == nullptr) return false;
  ++ctx->stats().rows_scanned;
  ExecRow row = layout_.MakeRow();
  size_t c = offset_;
  row.columns[c++] = Value::BigInt(e->id);
  row.columns[c++] = Value::BigInt(e->from);
  row.columns[c++] = Value::BigInt(e->to);
  for (int col : attr_columns_) {
    row.columns[c++] = tuple->value(static_cast<size_t>(col));
  }
  if (qualifier_ != nullptr) {
    GRF_ASSIGN_OR_RETURN(bool pass, EvalPredicate(*qualifier_, row));
    if (!pass) return false;
  }
  *out = std::move(row);
  return true;
}

Status EdgeScanOp::ParallelFilterOpen() {
  // Mirrors VertexScanOp::ParallelFilterOpen: per-row charging against the
  // parent's remaining headroom during the build, sibling abort on error.
  const size_t n = ids_.size();
  const size_t morsel_size = ScanMorselSize(n, ctx_->max_parallelism());
  const size_t num_morsels = (n + morsel_size - 1) / morsel_size;
  std::vector<std::vector<ExecRow>> results(num_morsels);
  std::vector<Status> statuses(num_morsels, Status::OK());
  std::vector<uint64_t> scanned(num_morsels, 0);
  SharedMemoryBudget budget(ctx_->remaining_budget());
  std::atomic<bool> abort{false};
  GRF_RETURN_IF_ERROR(ParallelFor(
      ctx_->task_pool(), n, morsel_size, [&](size_t begin, size_t end) {
    if (abort.load(std::memory_order_relaxed)) return;
    const size_t m = begin / morsel_size;
    TraceSpan morsel_span(ctx_->trace(), "worker",
                          "scan.morsel." + std::to_string(m));
    QueryContext wctx(ctx_->memory_cap());
    wctx.set_shared_budget(&budget);
    wctx.set_cancellation(ctx_->cancellation());
    // Pin the worker to the statement's MVCC snapshot: the GraphReadScope is
    // thread-local, so each pool thread re-installs it for its morsels.
    wctx.set_snapshot_epoch(ctx_->snapshot_epoch());
    wctx.set_include_open(ctx_->include_open());
    GraphReadScope graph_scope(ctx_->snapshot_epoch(), ctx_->include_open());
    for (size_t i = begin; i < end; ++i) {
      if (abort.load(std::memory_order_relaxed)) break;
      ExecRow row;
      Status status = wctx.CheckInterrupt();
      StatusOr<bool> made = status.ok() ? MakeRow(ids_[i], &row, &wctx)
                                        : StatusOr<bool>(status);
      if (status.ok()) status = made.status();
      if (status.ok() && *made) status = wctx.ChargeBytes(row.ByteSize());
      if (!status.ok()) {
        statuses[m] = status;
        abort.store(true, std::memory_order_relaxed);
        break;
      }
      if (*made) results[m].push_back(std::move(row));
    }
    scanned[m] = wctx.stats().rows_scanned;
  }));
  for (const Status& s : statuses) GRF_RETURN_IF_ERROR(s);
  materialized_ = true;
  parallel_morsels_ = num_morsels;
  size_t rows = 0, bytes = 0;
  for (size_t m = 0; m < num_morsels; ++m) {
    ctx_->stats().rows_scanned += scanned[m];
    rows += results[m].size();
    for (const ExecRow& row : results[m]) bytes += row.ByteSize();
  }
  buffered_.reserve(rows);
  for (auto& chunk : results) {
    for (ExecRow& row : chunk) buffered_.push_back(std::move(row));
  }
  buffered_bytes_ = bytes;
  return ctx_->ChargeBytes(bytes);
}

StatusOr<bool> EdgeScanOp::NextImpl(ExecRow* out) {
  if (materialized_) {
    if (cursor_ >= buffered_.size()) return false;
    *out = std::move(buffered_[cursor_++]);
    return true;
  }
  while (cursor_ < ids_.size()) {
    GRF_ASSIGN_OR_RETURN(bool made, MakeRow(ids_[cursor_++], out, ctx_));
    if (made) return true;
  }
  return false;
}

void EdgeScanOp::CloseImpl() {
  ids_.clear();
  buffered_.clear();
  if (buffered_bytes_ > 0) {
    ctx_->ReleaseBytes(buffered_bytes_);
    buffered_bytes_ = 0;
  }
  materialized_ = false;
}

std::string EdgeScanOp::name() const {
  std::string out = "EdgeScan(" + gv_->name();
  if (qualifier_ != nullptr) out += ", filter: " + qualifier_->ToString();
  return out + ")";
}

std::string EdgeScanOp::AnalyzeExtra() const {
  if (parallel_morsels_ == 0) return "";
  return StrFormat(" parallel_morsels=%zu", parallel_morsels_);
}

// --- PathProbeJoinOp ----------------------------------------------------------------

PathProbeJoinOp::PathProbeJoinOp(OperatorPtr outer,
                                 std::shared_ptr<const TraversalSpec> spec)
    : outer_(std::move(outer)), spec_(std::move(spec)) {}

Status PathProbeJoinOp::OpenImpl(QueryContext* ctx) {
  outer_valid_ = false;
  ctx_ = ctx;
  attr_tuple_reads_ = 0;
  bound_edges_ = 0;
  outer_copies_ = 0;
  leaf_runs_ = 0;
  passes_ = 0;
  morsel_count_ = 0;
  worker_ns_.clear();
  // In morsel mode only the readers traverse.
  scanner_ = morsel_mode_ ? nullptr : MakePathScanner(spec_, ctx);
  GRF_RETURN_IF_ERROR(outer_->Open(ctx));
  return morsel_mode_ ? BufferMorsels() : Status::OK();
}

Status PathProbeJoinOp::BufferMorsels() {
  ExecRow row;
  while (true) {
    GRF_ASSIGN_OR_RETURN(bool has, outer_->Next(&row));
    if (!has) break;
    const size_t bytes = row.ByteSize();
    buffered_bytes_ += bytes;
    GRF_RETURN_IF_ERROR(ctx_->ChargeBytes(bytes));
    buffered_rows_.push_back(std::move(row));
    row = ExecRow();
  }
  constexpr size_t kSize = kMorselSize;
  if (spec_->start_vertex_expr != nullptr) {
    morsel_count_ = (buffered_rows_.size() + kSize - 1) / kSize;
    return Status::OK();
  }
  if (!SlicesStarts()) {
    // One outer row per morsel: the scanner takes all starts in one probe.
    morsel_count_ = buffered_rows_.size();
    return Status::OK();
  }
  spec_->gv->ForEachVertex([&](const VertexEntry& v) {
    morsel_starts_.push_back(v.id);
    return true;
  });
  std::sort(morsel_starts_.begin(), morsel_starts_.end(),
            std::greater<VertexId>());
  const size_t bytes = morsel_starts_.size() * sizeof(VertexId);
  buffered_bytes_ += bytes;
  GRF_RETURN_IF_ERROR(ctx_->ChargeBytes(bytes));
  morsel_count_ =
      buffered_rows_.size() * ((morsel_starts_.size() + kSize - 1) / kSize);
  return Status::OK();
}

bool PathProbeJoinOp::SlicesStarts() const {
  return spec_->physical == TraversalSpec::Physical::kDfs &&
         !spec_->global_visited;
}

/// A worker's traversal engine, the row it hands the sink, and its counters
/// across its morsels.
class PathProbeJoinOp::Reader : public MorselReader {
 public:
  std::unique_ptr<PathScanner> scanner;
  QueryContext* ctx = nullptr;  ///< The context `scanner` charges.
  ExecRow row;
  uint64_t outer_copies = 0;
  uint64_t attr_tuple_reads = 0;
  uint64_t leaf_runs = 0;
  uint64_t passes = 0;
};

std::unique_ptr<MorselReader> PathProbeJoinOp::NewReader() const {
  return std::make_unique<Reader>();
}

Status PathProbeJoinOp::DrainMorsel(MorselReader* base, size_t morsel,
                                    QueryContext* ctx,
                                    const MorselSink& sink) const {
  auto* reader = static_cast<Reader*>(base);
  if (reader->scanner == nullptr || reader->ctx != ctx) {
    reader->scanner = MakePathScanner(spec_, ctx);
    reader->ctx = ctx;
  }
  PathScanner& scanner = *reader->scanner;
  // DFScan, or BFScan by iterative deepening, drains through ForEachPath.
  auto* dfs = dynamic_cast<DfsScanner*>(&scanner);
  constexpr size_t kSize = kMorselSize;
  const bool sliced = spec_->start_vertex_expr == nullptr && SlicesStarts();
  size_t row_begin = morsel * kSize;
  size_t row_end = std::min(buffered_rows_.size(), row_begin + kSize);
  size_t start_begin = 0, start_end = 0;
  if (sliced) {
    // One outer row, one slice of its starts.
    const size_t per_row = (morsel_starts_.size() + kSize - 1) / kSize;
    row_begin = morsel / per_row;
    row_end = row_begin + 1;
    start_begin = (morsel % per_row) * kSize;
    start_end = std::min(morsel_starts_.size(), start_begin + kSize);
  } else if (spec_->start_vertex_expr == nullptr) {
    // One outer row, every start.
    row_begin = morsel;
    row_end = row_begin + 1;
  }
  const size_t slot = spec_->path_slot;
  ExecRow& row = reader->row;
  const uint64_t reads_before = ctx->stats().attr_tuple_reads;
  const uint64_t runs_before = dfs != nullptr ? dfs->leaf_runs() : 0;
  const uint64_t passes_before = dfs != nullptr ? dfs->passes() : 0;
  Status status = Status::OK();
  for (size_t r = row_begin; r < row_end && status.ok(); ++r) {
    const ExecRow& outer = buffered_rows_[r];
    StatusOr<std::vector<VertexId>> starts =
        sliced ? std::vector<VertexId>(morsel_starts_.begin() + start_begin,
                                       morsel_starts_.begin() + start_end)
               : StartsFor(outer);
    StatusOr<bool> armed = starts.ok()
                               ? Arm(&scanner, outer, std::move(*starts))
                               : StatusOr<bool>(starts.status());
    if (!armed.ok() || !*armed) {
      status = armed.status();
      continue;
    }
    bool copied = false;
    // Points the row's path slot at `path`; true at the outer row's first.
    auto alias = [&](const PathData& path) {
      const bool first = !copied;
      if (first) {
        // Copy-assignment reuses the row's buffers across outer rows.
        row = outer;
        if (row.paths.size() <= slot) row.paths.resize(slot + 1);
        ++reader->outer_copies;
        copied = true;
      }
      // Aliasing an empty owner: a non-owning handle, no reference count.
      row.paths[slot] = PathPtr(PathPtr(), &path);
      return first;
    };
    auto one = [&](const PathData& path) -> Status {
      const bool first = alias(path);
      ++ctx->stats().rows_joined;
      return sink.row(row, first);
    };
    if (dfs != nullptr) {
      status = dfs->ForEachPath(
          [&](auto& item) -> Status {
            if constexpr (std::is_same_v<std::decay_t<decltype(item)>,
                                         LeafRun>) {
              // One alias for the run: its leaves rewrite the buffer's last
              // hop.
              const bool first = alias(*item.path);
              ++ctx->stats().runs_folded;
              Status folded = sink.leaves(row, first, item);
              ctx->stats().rows_joined += folded.ok() ? item.size : item.taken;
              return folded;
            } else {
              return one(item);
            }
          },
          /*runs=*/sink.leaves != nullptr);
    } else {
      // SPScan (or the visited-once forest) emits each path; `path` keeps
      // it alive while the row aliases it.
      PathPtr path;
      while (status.ok()) {
        path.reset();
        StatusOr<bool> has = scanner.Next(&path);
        status = has.status();
        if (!status.ok() || !*has) break;
        status = one(*path);
      }
    }
    // The path changes once the sink returns: drop the alias.
    if (copied) row.paths[slot].reset();
  }
  scanner.Release();
  reader->attr_tuple_reads += ctx->stats().attr_tuple_reads - reads_before;
  if (dfs != nullptr) {
    reader->leaf_runs += dfs->leaf_runs() - runs_before;
    reader->passes += dfs->passes() - passes_before;
  }
  return status;
}

void PathProbeJoinOp::FinishMorsels(
    const std::vector<const MorselReader*>& readers,
    std::vector<uint64_t> worker_ns) {
  for (const MorselReader* base : readers) {
    const auto* reader = static_cast<const Reader*>(base);
    outer_copies_ += reader->outer_copies;
    attr_tuple_reads_ += reader->attr_tuple_reads;
    leaf_runs_ += reader->leaf_runs;
    passes_ += reader->passes;
  }
  worker_ns_ = std::move(worker_ns);
}

StatusOr<std::vector<VertexId>> PathProbeJoinOp::StartsFor(
    const ExecRow& outer_row) const {
  std::vector<VertexId> starts;
  if (spec_->start_vertex_expr != nullptr) {
    GRF_ASSIGN_OR_RETURN(Value v, spec_->start_vertex_expr->Eval(outer_row));
    if (v.is_null()) return starts;  // NULL start joins nothing.
    GRF_ASSIGN_OR_RETURN(Value id, v.CastTo(ValueType::kBigInt));
    starts.push_back(id.AsBigInt());
    return starts;
  }
  // Unbound start: all vertexes of the view (paper §5.1.2).
  starts.reserve(spec_->gv->NumVertexes());
  spec_->gv->ForEachVertex([&](const VertexEntry& v) {
    starts.push_back(v.id);
    return true;
  });
  return starts;
}

StatusOr<bool> PathProbeJoinOp::Arm(PathScanner* scanner,
                                    const ExecRow& outer_row,
                                    std::vector<VertexId> starts) const {
  std::optional<VertexId> target;
  if (spec_->end_vertex_expr != nullptr) {
    GRF_ASSIGN_OR_RETURN(Value v, spec_->end_vertex_expr->Eval(outer_row));
    if (v.is_null()) return false;  // NULL target joins nothing.
    GRF_ASSIGN_OR_RETURN(Value id, v.CastTo(ValueType::kBigInt));
    target = id.AsBigInt();
  }
  GRF_RETURN_IF_ERROR(scanner->Reset(std::move(starts), target, &outer_row));
  return true;
}

StatusOr<bool> PathProbeJoinOp::NextImpl(ExecRow* out) {
  if (morsel_mode_) {
    return Status::Internal("a morsel-mode probe is drained through readers");
  }
  while (true) {
    if (outer_valid_) {
      // Drop the caller's hold on the previous path first, so a scanner that
      // recycles its emitted PathData can refill it in place.
      if (out->paths.size() > spec_->path_slot) {
        out->paths[spec_->path_slot].reset();
      }
      PathPtr path;
      const uint64_t reads_before = ctx_->stats().attr_tuple_reads;
      StatusOr<bool> next = scanner_->Next(&path);
      attr_tuple_reads_ += ctx_->stats().attr_tuple_reads - reads_before;
      GRF_ASSIGN_OR_RETURN(bool has, std::move(next));
      if (has) {
        // Copy-assignment reuses the caller's row buffers.
        *out = outer_row_;
        ++outer_copies_;
        if (out->paths.size() <= spec_->path_slot) {
          out->paths.resize(spec_->path_slot + 1);
        }
        out->paths[spec_->path_slot] = std::move(path);
        ++ctx_->stats().rows_joined;
        return true;
      }
      outer_valid_ = false;
    }
    GRF_ASSIGN_OR_RETURN(bool has_outer, outer_->Next(&outer_row_));
    if (!has_outer) return false;
    GRF_ASSIGN_OR_RETURN(std::vector<VertexId> starts, StartsFor(outer_row_));
    const uint64_t bound_before = ctx_->stats().bound_edges;
    StatusOr<bool> armed = Arm(scanner_.get(), outer_row_, std::move(starts));
    bound_edges_ += ctx_->stats().bound_edges - bound_before;
    GRF_ASSIGN_OR_RETURN(outer_valid_, std::move(armed));
  }
}

void PathProbeJoinOp::CloseImpl() {
  outer_->Close();
  if (scanner_ != nullptr) scanner_->Release();
  outer_valid_ = false;
  buffered_rows_.clear();
  morsel_starts_.clear();
  if (buffered_bytes_ > 0) {
    ctx_->ReleaseBytes(buffered_bytes_);
    buffered_bytes_ = 0;
  }
}

std::string PathProbeJoinOp::name() const {
  return "PathProbeJoin[" + spec_->DebugString() + "]";
}

std::string PathProbeJoinOp::AnalyzeExtra() const {
  std::string out = StrFormat(" outer_copies=%llu",
                              static_cast<unsigned long long>(outer_copies_));
  if (attr_tuple_reads_ > 0) {
    out += StrFormat(" attr_tuple_reads=%llu",
                     static_cast<unsigned long long>(attr_tuple_reads_));
  }
  if (spec_->point_to_point) {
    out += StrFormat(" bound_edges=%llu",
                     static_cast<unsigned long long>(bound_edges_));
  }
  // DFScan and iterative-deepening BFScan run on a DfsScanner
  // (MakePathScanner); in morsel mode the readers' counts were summed in.
  const auto* dfs = dynamic_cast<const DfsScanner*>(scanner_.get());
  if (spec_->physical == TraversalSpec::Physical::kDfs) {
    const uint64_t runs = dfs != nullptr ? dfs->leaf_runs() : leaf_runs_;
    out += StrFormat(" leaf_runs=%llu", static_cast<unsigned long long>(runs));
  }
  if (spec_->physical == TraversalSpec::Physical::kBfs &&
      !spec_->global_visited) {
    // Summed over the probes.
    const uint64_t passes = dfs != nullptr ? dfs->passes() : passes_;
    out += StrFormat(" passes=%llu", static_cast<unsigned long long>(passes));
  }
  if (!morsel_mode_) return out;
  out += StrFormat(" morsels=%zu", morsel_count_);
  // One worker runs its morsels inline; nothing fanned out.
  if (worker_ns_.size() <= 1) return out;
  out += " workers=[";
  for (size_t i = 0; i < worker_ns_.size(); ++i) {
    if (i > 0) out += " ";
    out += StrFormat("time_ms=%.3f", static_cast<double>(worker_ns_[i]) / 1e6);
  }
  return out + "]";
}

}  // namespace grfusion
