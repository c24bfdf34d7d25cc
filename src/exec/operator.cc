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

uint64_t ClockOverheadNs() {
  static const uint64_t clock_ns = [] {
    uint64_t least = 0;
    for (int i = 0; i < 8; ++i) {
      const uint64_t before = NowNs();
      const uint64_t pair = NowNs() - before;
      if (i == 0 || pair < least) least = pair;
    }
    return least;
  }();
  return clock_ns;
}

Status PhysicalOperator::Open(QueryContext* ctx) {
  // A re-open starts a fresh execution; drop the previous run's counters.
  profile_ = OperatorProfile{};
  profile_.open_calls = 1;
  timed_ = ctx->profile_timing();
  timed_calls_ = 0;
  sampled_calls_ = 0;
  sampled_ns_ = 0;
  exec_ctx_ = ctx;
  trace_ = ctx->trace();
  if (trace_ != nullptr) trace_start_us_ = trace_->NowUs();
  if (!timed_) return OpenImpl(ctx);
  uint64_t t0 = NowNs();
  Status status = OpenImpl(ctx);
  profile_.open_ns += NowNs() - t0;
  return status;
}

StatusOr<bool> PhysicalOperator::Next(ExecRow* out) {
  ++profile_.next_calls;
  // Every operator in the tree passes through this wrapper, which makes it
  // the one choke point for cooperative cancellation: a pipelined plan of
  // any shape observes an interrupt or deadline within a handful of rows.
  if (exec_ctx_ != nullptr) {
    GRF_RETURN_IF_ERROR(exec_ctx_->CheckInterrupt());
  }
  GRF_FAILPOINT("exec.next");
  // Timed: the first kTimingStride calls, then every kTimingStride-th.
  const bool sample =
      timed_ && (++timed_calls_ <= kTimingStride ||
                 timed_calls_ % kTimingStride == 0);
  if (!sample) {
    StatusOr<bool> has = NextImpl(out);
    if (has.ok() && *has) ++profile_.rows_emitted;
    return has;
  }
  uint64_t t0 = NowNs();
  StatusOr<bool> has = NextImpl(out);
  const uint64_t ns = NowNs() - t0;
  const uint64_t clock_ns = ClockOverheadNs();
  const uint64_t net = ns > clock_ns ? ns - clock_ns : 0;
  if (timed_calls_ <= kTimingStride) {
    profile_.next_ns += net;  // The first calls are all timed.
  } else {
    sampled_ns_ += net;
    ++sampled_calls_;
  }
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
    if (sampled_calls_ > 0) {
      // Scale the samples to every call past the exactly timed ones.
      profile_.next_ns += static_cast<uint64_t>(
          static_cast<double>(sampled_ns_) *
          static_cast<double>(timed_calls_ - kTimingStride) /
          static_cast<double>(sampled_calls_));
      sampled_calls_ = 0;
      sampled_ns_ = 0;
    }
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
