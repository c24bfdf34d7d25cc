#include "exec/operator.h"

#include <chrono>

#include "common/failpoint.h"
#include "common/string_util.h"
#include "common/tracer.h"

namespace grfusion {

namespace {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

Status PhysicalOperator::Open(QueryContext* ctx) {
  // A re-open starts a fresh execution; drop the previous run's counters.
  profile_ = OperatorProfile{};
  profile_.open_calls = 1;
  timed_ = ctx->profile_timing();
  exec_ctx_ = ctx;
  trace_ = ctx->trace();
  if (trace_ != nullptr) trace_start_us_ = trace_->NowUs();
  if (!timed_) return OpenImpl(ctx);
  uint64_t t0 = NowNs();
  Status status = OpenImpl(ctx);
  profile_.open_ns += NowNs() - t0;
  return status;
}

StatusOr<bool> PhysicalOperator::Next(ExecRow* out, bool* unchanged) {
  ++profile_.next_calls;
  run_flag_ = unchanged;
  if (unchanged != nullptr) *unchanged = false;
  // Every operator in the tree passes through this wrapper, which makes it
  // the one choke point for cooperative cancellation: a pipelined plan of
  // any shape observes an interrupt or deadline within a handful of rows.
  if (exec_ctx_ != nullptr) {
    GRF_RETURN_IF_ERROR(exec_ctx_->CheckInterrupt());
  }
  GRF_FAILPOINT("exec.next");
  if (!timed_) {
    StatusOr<bool> has = NextImpl(out);
    if (has.ok() && *has) ++profile_.rows_emitted;
    return has;
  }
  uint64_t t0 = NowNs();
  StatusOr<bool> has = NextImpl(out);
  profile_.next_ns += NowNs() - t0;
  if (has.ok() && *has) ++profile_.rows_emitted;
  return has;
}

void PhysicalOperator::Close() {
  if (!timed_) {
    CloseImpl();
  } else {
    uint64_t t0 = NowNs();
    CloseImpl();
    profile_.close_ns += NowNs() - t0;
  }
  if (trace_ != nullptr) {
    // One span per operator lifetime (Open..Close), inclusive of children —
    // the timestamps nest the plan tree naturally in the trace viewer.
    trace_->AddComplete(
        "operator", name(), trace_start_us_,
        trace_->NowUs() - trace_start_us_,
        {{"rows", std::to_string(profile_.rows_emitted)},
         {"next_calls", std::to_string(profile_.next_calls)}});
    trace_ = nullptr;
  }
}

std::string PhysicalOperator::ToString(int indent) const {
  std::string out(static_cast<size_t>(indent) * 2, ' ');
  out += name();
  out += "\n";
  for (const PhysicalOperator* child : children()) {
    out += child->ToString(indent + 1);
  }
  return out;
}

std::string PhysicalOperator::ToAnalyzedString(int indent,
                                               uint64_t total_ns) const {
  if (total_ns == 0) total_ns = profile_.total_ns();
  double time_ms = static_cast<double>(profile_.total_ns()) / 1e6;
  double pct = total_ns == 0
                   ? 0.0
                   : 100.0 * static_cast<double>(profile_.total_ns()) /
                         static_cast<double>(total_ns);
  std::string out(static_cast<size_t>(indent) * 2, ' ');
  out += name();
  out += StrFormat(
      " (actual_rows=%llu next_calls=%llu time_ms=%.3f pct=%.1f)",
      static_cast<unsigned long long>(profile_.rows_emitted),
      static_cast<unsigned long long>(profile_.next_calls), time_ms, pct);
  out += AnalyzeExtra();
  out += "\n";
  for (const PhysicalOperator* child : children()) {
    out += child->ToAnalyzedString(indent + 1, total_ns);
  }
  return out;
}

}  // namespace grfusion
