#include "exec/agg_ops.h"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "common/failpoint.h"
#include "common/string_util.h"
#include "common/task_pool.h"
#include "common/tracer.h"

namespace grfusion {

// --- AggregateOp ------------------------------------------------------------------

AggregateOp::AggregateOp(OperatorPtr child, std::vector<ExprPtr> group_by,
                         std::vector<std::string> group_names,
                         std::vector<AggregateSpec> aggs,
                         std::vector<bool> path_free_keys)
    : child_(std::move(child)), group_by_(std::move(group_by)),
      aggs_(std::move(aggs)),
      reuse_group_(!group_by_.empty() &&
                   path_free_keys.size() == group_by_.size() &&
                   std::all_of(path_free_keys.begin(), path_free_keys.end(),
                               [](bool free) { return free; })) {
  for (size_t i = 0; i < group_by_.size(); ++i) {
    schema_.AddColumn(Column(group_names[i], group_by_[i]->result_type()));
  }
  // Morsel-eligible input: a morsel source under filters only.
  PhysicalOperator* op = child_.get();
  while (auto* filter = dynamic_cast<FilterOp*>(op)) {
    morsel_stages_.push_back(filter);
    op = filter->input();
  }
  morsel_source_ = op->morsel_source();
  if (morsel_source_ != nullptr) {
    morsel_op_ = op;
  } else {
    morsel_stages_.clear();
  }
  for (const AggregateSpec& spec : aggs_) {
    ValueType type;
    switch (spec.func) {
      case AggFunc::kCount:
        type = ValueType::kBigInt;
        break;
      case AggFunc::kAvg:
        type = ValueType::kDouble;
        break;
      default:
        type = spec.arg == nullptr ? ValueType::kDouble
                                   : spec.arg->result_type();
        break;
    }
    schema_.AddColumn(Column(spec.output_name, type));
  }
}

namespace {

/// Shared-budget reservation step of a morsel worker's context: its DFS
/// stack charges a few bytes per hop, which would otherwise contend on the
/// budget's counter.
constexpr size_t kWorkerBudgetStep = 8 << 10;

/// `interval` less `overhead` (the clock reads it includes), at least 0.
uint64_t NetOf(uint64_t interval, uint64_t overhead) {
  return interval > overhead ? interval - overhead : 0;
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Whether rows [first, first + n) hold a multiple of kTimingStride.
bool CrossesStride(uint64_t first, uint64_t n) {
  return (first + kTimingStride - 1) / kTimingStride * kTimingStride <
         first + n;
}

Status SumOverflow(AggFunc func) {
  return Status::OutOfRange(std::string(AggFuncToString(func)) +
                            " overflows BIGINT");
}

/// Folds `v` into a MIN (`min`) or MAX `*best`: only a strictly better
/// value replaces it, so a tie keeps the value seen first (or the earlier
/// morsel's, when merging partials).
Status MergeBest(const Value& v, bool min, Value* best) {
  if (v.is_null()) return Status::OK();
  if (!best->is_null()) {
    GRF_ASSIGN_OR_RETURN(int cmp, v.Compare(*best));
    if (min ? cmp >= 0 : cmp <= 0) return Status::OK();
  }
  *best = v;
  return Status::OK();
}

/// MergeBest for a non-NULL `n`. A number of the best's own type compares
/// in place: for two BIGINTs or two DOUBLEs, `<` and `>` are
/// Value::Compare's outcome.
Status MergeBest(const NumericValue& n, bool min, Value* best) {
  if (n.kind == NumericValue::Kind::kInt &&
      best->type() == ValueType::kBigInt) {
    if (min ? n.i < best->AsBigInt() : n.i > best->AsBigInt()) {
      *best = Value::BigInt(n.i);
    }
    return Status::OK();
  }
  if (n.kind == NumericValue::Kind::kDouble &&
      best->type() == ValueType::kDouble) {
    if (min ? n.d < best->AsDouble() : n.d > best->AsDouble()) {
      *best = Value::Double(n.d);
    }
    return Status::OK();
  }
  return MergeBest(n.ToValue(), min, best);
}

}  // namespace

Status AggregateOp::AccumulateArg(const AggregateSpec& spec,
                                  const ExecRow& row, NumericValue* scratch,
                                  AggState* state) const {
  if (spec.func == AggFunc::kCount) {
    GRF_ASSIGN_OR_RETURN(bool counted, spec.arg->EvalIsNotNull(row));
    if (counted) ++state->count;
    return Status::OK();
  }
  NumericValue& n = *scratch;
  GRF_RETURN_IF_ERROR(spec.arg->EvalNumeric(row, &n));
  // Aggregates skip NULLs.
  if (n.kind == NumericValue::Kind::kNull) return Status::OK();
  ++state->count;
  switch (spec.func) {
    case AggFunc::kMin:
    case AggFunc::kMax: {
      const bool min = spec.func == AggFunc::kMin;
      return MergeBest(n, min, min ? &state->min : &state->max);
    }
    default:  // SUM, AVG.
      if (n.kind == NumericValue::Kind::kInt) {
        if (__builtin_add_overflow(state->int_sum, n.i, &state->int_sum)) {
          return SumOverflow(spec.func);
        }
      } else if (n.kind == NumericValue::Kind::kDouble) {
        state->integral = false;
        state->double_sum += n.d;
      } else {
        return Status::InvalidArgument(
            "cannot " + std::string(AggFuncToString(spec.func)) +
            " non-numeric value " + n.other.ToString());
      }
      return Status::OK();
  }
}

Status AggregateOp::Accumulate(Group* group, const ExecRow& row) const {
  NumericValue n;
  for (size_t a = 0; a < aggs_.size(); ++a) {
    if (aggs_[a].arg == nullptr) {
      ++group->states[a].count;
    } else {
      GRF_RETURN_IF_ERROR(
          AccumulateArg(aggs_[a], row, &n, &group->states[a]));
    }
  }
  return Status::OK();
}

Status AggregateOp::AccumulateRun(Group* group, const ExecRow& row,
                                  LeafRun& run) const {
  NumericValue n;
  bool args = false;
  for (size_t a = 0; a < aggs_.size(); ++a) {
    if (aggs_[a].arg == nullptr) {
      group->states[a].count += static_cast<int64_t>(run.size);
    } else {
      args = true;
    }
  }
  // The arguments leaf by leaf, in row order: sums add in the same order,
  // and MIN/MAX keep the same first of equals.
  for (size_t i = 0; args && i < run.size; ++i) {
    run.Select(i);
    for (size_t a = 0; a < aggs_.size(); ++a) {
      if (aggs_[a].arg == nullptr) continue;
      GRF_RETURN_IF_ERROR(
          AccumulateArg(aggs_[a], row, &n, &group->states[a]));
    }
  }
  return Status::OK();
}

StatusOr<Value> AggregateOp::Finalize(const AggregateSpec& spec,
                                      const AggState& state) const {
  switch (spec.func) {
    case AggFunc::kCount:
      return Value::BigInt(state.count);
    case AggFunc::kSum:
      if (state.count == 0) return Value::Null();
      return state.integral
                 ? Value::BigInt(state.int_sum)
                 : Value::Double(static_cast<double>(state.int_sum) +
                                 state.double_sum);
    case AggFunc::kAvg:
      if (state.count == 0) return Value::Null();
      return Value::Double(
          (static_cast<double>(state.int_sum) + state.double_sum) /
          static_cast<double>(state.count));
    case AggFunc::kMin:
      return state.min;
    case AggFunc::kMax:
      return state.max;
  }
  return Status::Internal("bad aggregate function");
}

Status AggregateOp::AddGroup(std::vector<Value> keys, QueryContext* ctx,
                             Table* table) const {
  Group group;
  group.keys = std::move(keys);
  group.states.resize(aggs_.size());
  const size_t bytes = 64 + group.keys.size() * sizeof(Value) +
                       group.states.size() * sizeof(AggState);
  table->charged += bytes;
  GRF_RETURN_IF_ERROR(ctx->ChargeBytes(bytes));
  if (!group_by_.empty()) {
    table->index.emplace(group.keys, table->groups.size());
  }
  table->groups.push_back(std::move(group));
  return Status::OK();
}

StatusOr<size_t> AggregateOp::GroupFor(const ExecRow& row, QueryContext* ctx,
                                       Table* table) const {
  // A scalar aggregate has one group and no key.
  if (group_by_.empty() && !table->groups.empty()) return 0;
  if (!group_by_.empty()) ++table->lookups;
  table->key.resize(group_by_.size());
  for (size_t i = 0; i < group_by_.size(); ++i) {
    GRF_ASSIGN_OR_RETURN(table->key[i], group_by_[i]->Eval(row));
  }
  if (!group_by_.empty()) {
    auto it = table->index.find(table->key);
    if (it != table->index.end()) return it->second;
  }
  GRF_RETURN_IF_ERROR(AddGroup(table->key, ctx, table));
  return table->groups.size() - 1;
}

Status AggregateOp::Drain() {
  ExecRow row;
  while (true) {
    GRF_ASSIGN_OR_RETURN(bool has, child_->Next(&row));
    if (!has) return Status::OK();
    GRF_ASSIGN_OR_RETURN(size_t group, GroupFor(row, ctx_, &table_));
    GRF_RETURN_IF_ERROR(Accumulate(&table_.groups[group], row));
  }
}

Status AggregateOp::Merge(const Table& partial) {
  table_.lookups += partial.lookups;
  for (const Group& part : partial.groups) {
    size_t g = 0;
    if (group_by_.empty()) {
      if (table_.groups.empty()) {
        GRF_RETURN_IF_ERROR(AddGroup({}, ctx_, &table_));
      }
    } else {
      auto it = table_.index.find(part.keys);
      if (it != table_.index.end()) {
        g = it->second;
      } else {
        GRF_RETURN_IF_ERROR(AddGroup(part.keys, ctx_, &table_));
        g = table_.groups.size() - 1;
      }
    }
    for (size_t i = 0; i < aggs_.size(); ++i) {
      AggState& into = table_.groups[g].states[i];
      const AggState& from = part.states[i];
      into.count += from.count;
      if (__builtin_add_overflow(into.int_sum, from.int_sum, &into.int_sum)) {
        return SumOverflow(aggs_[i].func);
      }
      into.double_sum += from.double_sum;
      into.integral = into.integral && from.integral;
      GRF_RETURN_IF_ERROR(MergeBest(from.min, /*min=*/true, &into.min));
      GRF_RETURN_IF_ERROR(MergeBest(from.max, /*min=*/false, &into.max));
    }
  }
  return Status::OK();
}

Status AggregateOp::RunMorsels() {
  MorselSource* source = morsel_source_;
  const size_t n = source->morsel_count();
  size_t workers = 1;
  if (ctx_->parallel_enabled()) {
    workers = std::max<size_t>(
        1, std::min({ctx_->max_parallelism(),
                     ctx_->task_pool()->num_workers(), n}));
  }
  // The filters top-down, then the source: the operators whose work the
  // drain does, and whose EXPLAIN ANALYZE counters it keeps.
  std::vector<PhysicalOperator*> ops(morsel_stages_.begin(),
                                     morsel_stages_.end());
  ops.push_back(morsel_op_);
  const size_t stages = morsel_stages_.size();
  const bool timed = ctx_->profile_timing();
  // Leaf runs fold in one call unless a row must be seen alone: by a
  // filter, a key that reads the path or a failpoint.
  const bool fold = stages == 0 && (group_by_.empty() || reuse_group_) &&
                    !FailpointRegistry::AnyArmed();

  struct Worker {
    std::unique_ptr<MorselReader> reader;
    /// Mirrors `ops`: rows each passed up over this worker's morsels and,
    /// when timed, its self time (predicate time of a filter, traversal
    /// time of the source).
    std::vector<OperatorProfile> profiles;
    uint64_t morsels = 0;
    ExecStats stats;  ///< Sums (and a max) over its morsels: any order.
    uint64_t ns = 0;
    size_t peak = 0;
  };
  struct Morsel {
    Table partial;
    Status status = Status::OK();
  };
  while (true) {
    std::vector<Worker> pipelines(workers);
    std::vector<const MorselReader*> readers;
    for (Worker& w : pipelines) {
      w.reader = source->NewReader();
      readers.push_back(w.reader.get());
      w.profiles.resize(ops.size());
    }

    std::vector<Morsel> morsels(n);
    SharedMemoryBudget budget(ctx_->remaining_budget());
    std::atomic<size_t> next{0};
    std::atomic<bool> failed{false};
    Status result = ParallelFor(
        workers > 1 ? ctx_->task_pool() : nullptr, workers, 1,
        [&](size_t w, size_t) {
          const uint64_t t0 = NowNs();
          Worker& worker = pipelines[w];
          TraceSpan span(ctx_->trace(), "worker",
                         "morsels.worker." + std::to_string(w));
          QueryContext wctx(ctx_->memory_cap());
          wctx.set_shared_budget(&budget, kWorkerBudgetStep);
          wctx.set_cancellation(ctx_->cancellation());
          wctx.set_profile_timing(ctx_->profile_timing());
          wctx.set_snapshot_epoch(ctx_->snapshot_epoch());
          wctx.set_include_open(ctx_->include_open());
          // The graph snapshot scope is thread-local: pin this thread to the
          // statement's snapshot for its morsels.
          GraphReadScope graph_scope(ctx_->snapshot_epoch(),
                                     ctx_->include_open());
          std::vector<OperatorProfile>& profiles = worker.profiles;
          OperatorProfile& probe = profiles[stages];
          Table* partial = nullptr;
          size_t group = 0;
          bool grouped = false;  // `group` is the current outer row's.
          // Timed: the morsels' drain time, and the sink's time (and each
          // filter's) over the sampled rows only, less the cost of the clock
          // reads inside them (one per interval; without this the scaled-up
          // sink time would take a clock read per row from the traversal).
          uint64_t drain_ns = 0;
          uint64_t sink_sampled_ns = 0;
          uint64_t sampled = 0;
          const uint64_t clock_ns = timed ? ClockOverheadNs() : 0;
          MorselSink sink;
          sink.row = [&](const ExecRow& row, bool new_run) -> Status {
            GRF_FAILPOINT("exec.next");
            const bool sample =
                timed && probe.rows_emitted % kTimingStride == 0;
            ++probe.rows_emitted;
            uint64_t entered = 0;
            uint64_t reads = 0;  // Clock reads since `entered`.
            if (sample) {
              entered = NowNs();
              ++sampled;
            }
            uint64_t t = entered;
            if (new_run) grouped = false;
            // The filters bottom-up, as the operator tree applies them.
            for (size_t k = stages; k-- > 0;) {
              GRF_ASSIGN_OR_RETURN(
                  bool pass, EvalPredicate(morsel_stages_[k]->predicate(), row));
              if (sample) {
                const uint64_t now = NowNs();
                ++reads;
                profiles[k].next_ns += NetOf(now - t, clock_ns);
                t = now;
              }
              if (!pass) {
                sink_sampled_ns += NetOf(t - entered, reads * clock_ns);
                return Status::OK();
              }
              ++profiles[k].rows_emitted;
            }
            // The same outer row means the same path-free keys.
            if (!reuse_group_ || !grouped) {
              GRF_ASSIGN_OR_RETURN(group, GroupFor(row, &wctx, partial));
              grouped = true;
            }
            GRF_RETURN_IF_ERROR(Accumulate(&partial->groups[group], row));
            if (sample) {
              sink_sampled_ns +=
                  NetOf(NowNs() - entered, (reads + 1) * clock_ns);
            }
            return Status::OK();
          };
          if (fold) {
            // A leaf run is one outer row's: one group, COUNT(*) by the
            // run's size, the arguments per leaf.
            sink.leaves = [&](const ExecRow& row, bool new_run,
                              LeafRun& run) -> Status {
              // Timed, a run is sampled whole when its rows cross a
              // multiple of kTimingStride, and counts as run.size rows.
              const bool sample =
                  timed && CrossesStride(probe.rows_emitted, run.size);
              const uint64_t entered = sample ? NowNs() : 0;
              if (new_run) grouped = false;
              Status status = Status::OK();
              if (!reuse_group_ || !grouped) {
                StatusOr<size_t> found = GroupFor(row, &wctx, partial);
                status = found.status();
                if (found.ok()) group = *found;
                grouped = found.ok();
              }
              if (status.ok()) {
                status = AccumulateRun(&partial->groups[group], row, run);
              }
              // The rows the run delivered: those the fold took.
              const size_t rows = status.ok() ? run.size : run.taken;
              probe.rows_emitted += rows;
              if (sample) {
                sink_sampled_ns += NetOf(NowNs() - entered, clock_ns);
                sampled += rows;
              }
              return status;
            };
          }
          while (!failed.load(std::memory_order_relaxed)) {
            const size_t m = next.fetch_add(1, std::memory_order_relaxed);
            if (m >= n) break;
            Morsel& morsel = morsels[m];
            partial = &morsel.partial;
            const uint64_t started = timed ? NowNs() : 0;
            Status status =
                source->DrainMorsel(worker.reader.get(), m, &wctx, sink);
            if (timed) drain_ns += NowNs() - started;
            ++worker.morsels;
            if (!status.ok()) {
              morsel.status = std::move(status);
              failed.store(true, std::memory_order_relaxed);
            }
          }
          if (timed) {
            // Scale the samples to every row; the traversal's self time is
            // the drain time the sink did not take.
            const double scale =
                sampled == 0 ? 0.0
                             : static_cast<double>(probe.rows_emitted) /
                                   static_cast<double>(sampled);
            for (size_t k = 0; k < stages; ++k) {
              profiles[k].next_ns = static_cast<uint64_t>(
                  static_cast<double>(profiles[k].next_ns) * scale);
            }
            const auto sink_ns = static_cast<uint64_t>(
                static_cast<double>(sink_sampled_ns) * scale);
            probe.next_ns = drain_ns > sink_ns ? drain_ns - sink_ns : 0;
          }
          span.AddArg("morsels", std::to_string(worker.morsels));
          worker.stats = wctx.stats();
          worker.peak = wctx.peak_bytes();
          worker.ns = NowNs() - t0;
        });

    // Statuses and partials are taken in morsel order, so the outcome does
    // not depend on which worker ran which morsel.
    for (const Morsel& morsel : morsels) {
      if (result.ok()) result = morsel.status;
    }
    if (workers > 1 && result.code() == StatusCode::kResourceExhausted) {
      // Concurrent workers hold more at once than one does. As with the
      // parallel scans, a statement that fits at one worker must not fail
      // at more: rerun the same morsels inline. Nothing was merged yet.
      workers = 1;
      continue;
    }
    for (Morsel& morsel : morsels) {
      if (result.ok()) result = Merge(morsel.partial);
      morsel.partial = Table{};
    }
    std::vector<uint64_t> worker_ns;
    for (Worker& w : pipelines) {
      ctx_->stats().MergeFrom(w.stats);
      // Bottom-up: inclusive times, and the calls a pull pipeline makes,
      // one per row passed up plus one per morsel to end it.
      for (size_t k = ops.size(); k-- > 0;) {
        OperatorProfile& profile = w.profiles[k];
        profile.next_calls = profile.rows_emitted + w.morsels;
        if (k < stages) profile.next_ns += w.profiles[k + 1].next_ns;
        ops[k]->AddProfile(profile);
      }
      worker_ns.push_back(w.ns);
      ctx_->FoldChildPeak(w.peak);
    }
    source->FinishMorsels(readers, std::move(worker_ns));
    return result;
  }
}

Status AggregateOp::OpenImpl(QueryContext* ctx) {
  ctx_ = ctx;
  table_ = Table{};
  cursor_ = 0;
  materialized_ = false;

  if (morsel_source_ != nullptr) morsel_source_->set_morsel_mode(true);
  Status result = child_->Open(ctx);
  if (result.ok()) {
    result = morsel_source_ != nullptr ? RunMorsels() : Drain();
  }
  child_->Close();
  group_lookups_ = table_.lookups;
  GRF_RETURN_IF_ERROR(result);

  // Scalar aggregate over empty input still yields one row.
  if (group_by_.empty() && table_.groups.empty()) {
    table_.groups.emplace_back().states.resize(aggs_.size());
  }
  materialized_ = true;
  return Status::OK();
}

StatusOr<bool> AggregateOp::NextImpl(ExecRow* out) {
  if (!materialized_ || cursor_ >= table_.groups.size()) return false;
  const Group& group = table_.groups[cursor_++];
  ExecRow row;
  row.columns = group.keys;
  for (size_t i = 0; i < aggs_.size(); ++i) {
    GRF_ASSIGN_OR_RETURN(Value v, Finalize(aggs_[i], group.states[i]));
    row.columns.push_back(std::move(v));
  }
  *out = std::move(row);
  return true;
}

void AggregateOp::CloseImpl() {
  if (ctx_ != nullptr) ctx_->ReleaseBytes(table_.charged);
  table_ = Table{};
  materialized_ = false;
}

std::string AggregateOp::name() const {
  std::string out = "Aggregate(";
  for (size_t i = 0; i < aggs_.size(); ++i) {
    if (i > 0) out += ", ";
    out += AggFuncToString(aggs_[i].func);
    out += "(";
    out += aggs_[i].arg == nullptr ? "*" : aggs_[i].arg->ToString();
    out += ")";
  }
  if (!group_by_.empty()) {
    out += " GROUP BY ";
    for (size_t i = 0; i < group_by_.size(); ++i) {
      if (i > 0) out += ", ";
      out += group_by_[i]->ToString();
    }
  }
  return out + ")";
}

std::string AggregateOp::AnalyzeExtra() const {
  if (group_by_.empty()) return "";
  return StrFormat(" group_lookups=%llu",
                   static_cast<unsigned long long>(group_lookups_));
}

// --- SortOp -----------------------------------------------------------------------

Status SortOp::OpenImpl(QueryContext* ctx) {
  ctx_ = ctx;
  rows_.clear();
  charged_ = 0;
  cursor_ = 0;

  GRF_RETURN_IF_ERROR(child_->Open(ctx));
  ExecRow row;
  Status result = Status::OK();
  while (true) {
    auto has = child_->Next(&row);
    if (!has.ok()) {
      result = has.status();
      break;
    }
    if (!*has) break;
    size_t bytes = row.ByteSize();
    charged_ += bytes;
    result = ctx->ChargeBytes(bytes);
    if (!result.ok()) break;
    rows_.push_back(std::move(row));
  }
  child_->Close();
  GRF_RETURN_IF_ERROR(result);

  std::stable_sort(rows_.begin(), rows_.end(),
                   [this](const ExecRow& a, const ExecRow& b) {
                     for (const SortKey& key : keys_) {
                       const Value& va = a.columns[key.column];
                       const Value& vb = b.columns[key.column];
                       // NULLs first (SQL NULLS FIRST on ASC).
                       if (va.is_null() || vb.is_null()) {
                         if (va.is_null() == vb.is_null()) continue;
                         bool less = va.is_null();
                         return key.descending ? !less : less;
                       }
                       auto cmp = va.Compare(vb);
                       int c = cmp.ok() ? *cmp : 0;
                       if (c != 0) return key.descending ? c > 0 : c < 0;
                     }
                     return false;
                   });
  return Status::OK();
}

StatusOr<bool> SortOp::NextImpl(ExecRow* out) {
  if (cursor_ >= rows_.size()) return false;
  *out = std::move(rows_[cursor_++]);
  return true;
}

void SortOp::CloseImpl() {
  rows_.clear();
  if (ctx_ != nullptr) ctx_->ReleaseBytes(charged_);
  charged_ = 0;
}

std::string SortOp::name() const {
  std::string out = "Sort(";
  for (size_t i = 0; i < keys_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "#" + std::to_string(keys_[i].column);
    if (keys_[i].descending) out += " DESC";
  }
  return out + ")";
}

}  // namespace grfusion
