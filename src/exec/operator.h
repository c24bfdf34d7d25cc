#ifndef GRFUSION_EXEC_OPERATOR_H_
#define GRFUSION_EXEC_OPERATOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "exec/query_context.h"
#include "expr/row.h"
#include "storage/schema.h"

namespace grfusion {

/// Per-operator execution counters, maintained by the PhysicalOperator
/// wrappers around OpenImpl/NextImpl/CloseImpl. Call counters and row counts
/// are always on (one increment per call); wall-time is collected only when
/// the QueryContext asks for profiling (EXPLAIN ANALYZE, or a configured
/// slow-query threshold), so the normal hot path never touches the clock.
/// Next() time is sampled past an operator's first 64 calls and scaled at
/// Close, so it is final only once the operator is closed.
struct OperatorProfile {
  uint64_t open_calls = 0;
  uint64_t next_calls = 0;
  uint64_t rows_emitted = 0;  ///< Next() calls that produced a row.
  uint64_t open_ns = 0;
  uint64_t next_ns = 0;  ///< Inclusive of time spent in child operators.
  uint64_t close_ns = 0;

  uint64_t total_ns() const { return open_ns + next_ns + close_ns; }

  /// Adds another execution's calls, rows and times (not its open_calls).
  void Add(const OperatorProfile& other) {
    next_calls += other.next_calls;
    rows_emitted += other.rows_emitted;
    open_ns += other.open_ns;
    next_ns += other.next_ns;
    close_ns += other.close_ns;
  }
};

class MorselSource;

/// Timed execution reads the clock for one call (or row) in kTimingStride
/// only: two clock reads cost about as much as passing a row up, so
/// reading them every time distorted what was timed. The sampled times are
/// scaled up by calls over samples.
inline constexpr uint64_t kTimingStride = 64;

/// What one timed interval adds by its own clock reads: the least of a few
/// back-to-back steady_clock pairs, measured once per process.
uint64_t ClockOverheadNs();

/// Volcano-model physical operator (paper §5: "the PathScan operator is a
/// lazy operator following the iterator model"). Both relational and graph
/// operators implement this interface, which is what lets them co-exist in
/// one cross-data-model QEP.
///
/// Protocol: Open() once, Next() until it returns false, Close() once.
/// Operators may be re-opened after Close(); re-opening restarts the
/// per-execution profile.
///
/// Subclasses implement OpenImpl/NextImpl/CloseImpl; the public non-virtual
/// Open/Next/Close wrappers instrument every call, which is what feeds
/// EXPLAIN ANALYZE, SYS.LAST_QUERY, and the slow-query trace log.
class PhysicalOperator {
 public:
  virtual ~PhysicalOperator() = default;

  /// Output schema (path-producing operators may expose zero columns — their
  /// payload rides in ExecRow::paths).
  virtual const Schema& schema() const = 0;

  /// One-line description for EXPLAIN trees.
  virtual std::string name() const = 0;

  /// Input operators, in display order. Leaves return {}.
  virtual std::vector<const PhysicalOperator*> children() const { return {}; }

  Status Open(QueryContext* ctx);

  /// Produces the next row into `*out`. Returns false at end of stream.
  StatusOr<bool> Next(ExecRow* out);

  void Close();

  /// Counters of the current (or most recent) execution.
  const OperatorProfile& profile() const { return profile_; }

  /// Renders this operator and its inputs as an indented EXPLAIN tree.
  std::string ToString(int indent = 0) const;

  /// EXPLAIN ANALYZE rendering: the plan tree annotated with actual_rows,
  /// next_calls, time_ms, and each operator's share of `total_ns` (pass 0 at
  /// the root to use the root's own total).
  std::string ToAnalyzedString(int indent = 0, uint64_t total_ns = 0) const;

  /// Extra per-operator detail appended to the EXPLAIN ANALYZE line —
  /// parallel operators report their worker fan-out here (per-worker rows
  /// and wall time). Empty for operators with nothing to add.
  virtual std::string AnalyzeExtra() const { return ""; }

  /// This operator as the source of a morsel drain (exec/morsel.h), or
  /// null when its input cannot run as fixed morsels.
  virtual MorselSource* morsel_source() { return nullptr; }

  /// Adds calls, rows and times that a morsel drain did on this operator's
  /// behalf to its profile, so EXPLAIN ANALYZE shows that work (its times
  /// summed over workers).
  void AddProfile(const OperatorProfile& copy) { profile_.Add(copy); }

 protected:
  virtual Status OpenImpl(QueryContext* ctx) = 0;
  virtual StatusOr<bool> NextImpl(ExecRow* out) = 0;
  virtual void CloseImpl() = 0;

 private:
  OperatorProfile profile_;
  bool timed_ = false;
  /// Timed Next() calls since Open, and the clock time of the sampled ones
  /// past the first kTimingStride (operator.cc), which Close scales up.
  uint64_t timed_calls_ = 0;
  uint64_t sampled_calls_ = 0;
  uint64_t sampled_ns_ = 0;
  /// Stashed by Open() so the Next() wrapper can run the cooperative
  /// interrupt check (cancellation/deadline) on every call. Not owned; valid
  /// between Open() and Close() only.
  QueryContext* exec_ctx_ = nullptr;
  /// Armed statement trace stashed by Open(); Close() emits one span
  /// covering this operator's Open()..Close() lifetime. Null (no per-call
  /// cost beyond one test) unless the statement is traced.
  QueryTrace* trace_ = nullptr;
  uint64_t trace_start_us_ = 0;
};

using OperatorPtr = std::unique_ptr<PhysicalOperator>;

}  // namespace grfusion

#endif  // GRFUSION_EXEC_OPERATOR_H_
