// The benchmark's three workloads (reach, paths, wire) over the engine's
// public API. Each workload generates its inputs from a seed, sets itself up
// (timed as setup), runs a measured segment untraced or traced, and checks
// every answer it gets.
#ifndef GRFUSION_PERFBENCH_WORKLOADS_H_
#define GRFUSION_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "engine/database.h"
#include "measure.h"
#include "workload/datasets.h"

namespace grfusion {
class Server;
}

namespace perfbench {

/// Named metric values in report order, each with its unit.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
  }
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
};

/// Operation counts and answer checks of one measured segment. `failed` are
/// operations the engine refused or failed; `wrong` are answers that came
/// back but disagree with the benchmark's reference (a wrong answer fails
/// the run; it is not an error rate).
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  std::vector<std::string> messages;  ///< First few failures / wrong answers.

  void Fail(const std::string& msg) {
    ++failed;
    Note(msg);
  }
  void Wrong(const std::string& msg) {
    ++wrong;
    Note(msg);
  }
  void Note(const std::string& msg) {
    if (messages.size() < 8) messages.push_back(msg);
  }
  void Merge(const Tally& o) {
    attempted += o.attempted;
    failed += o.failed;
    wrong += o.wrong;
    for (const std::string& m : o.messages) Note(m);
  }
};

/// Current value of a counter in the engine's global MetricsRegistry.
uint64_t CounterValue(const char* name);

/// Snapshot of named engine counters; Delta() reads how much one grew since.
class CounterDelta {
 public:
  explicit CounterDelta(std::vector<const char*> names);
  double Delta(const char* name) const;

 private:
  std::vector<const char*> names_;
  std::vector<uint64_t> start_;
};

/// Peak resident set size of the process so far, in MiB (getrusage).
double PeakRssMb();

// --- reach -------------------------------------------------------------------

/// Ad-hoc reachability, constrained reachability and shortest-path SQL over
/// all four datasets at scale 0.1, from a pool of distinct statements much
/// larger than the plan cache, closed loop.
class ReachWorkload {
 public:
  /// Generates and loads the datasets `setup_reps` times (each timed; the
  /// last database is kept), then builds the statement pool and its expected
  /// answers outside the timed setup.
  grfusion::Status Setup(uint64_t seed, int setup_reps);

  struct Result {
    Tally tally;
    double elapsed_s = 0;
    std::vector<double> latency_us;
    std::vector<double> done_s;  ///< Completion times since the start.
  };
  /// Closed loop, `threads` sessions, for `seconds`; or, when `max_ops` is
  /// set, until the first `max_ops` statements of the seed's order are done.
  Result Run(double seconds, int threads, uint64_t seed, size_t max_ops = 0);

  /// Single-session traced segment; adds per-layer metrics to `out`. The
  /// result's latency_us holds, per request in Run()'s one-thread order, the
  /// traced time of the workload's own call (extra direct calls excluded).
  Result RunTraced(double seconds, uint64_t seed, Report* out,
                   std::vector<Span>* spans);

  const std::vector<double>& setup_s() const { return setup_s_; }
  /// Per-view CREATE GRAPH VIEW time of the kept setup, and topology size.
  const std::map<std::string, double>& build_ms() const { return build_ms_; }
  double topology_mb() const { return topology_mb_; }
  size_t pool_size() const { return pool_.size(); }

 private:
  struct Stmt {
    enum Kind { kReach, kConstrained, kShortest };
    Kind kind = kReach;
    std::string sql;
    size_t hops = 0;    ///< Expected path length (reach, constrained).
    double cost = 0.0;  ///< Expected shortest-path cost.
  };
  bool CheckAnswer(const Stmt& st,
                   const grfusion::StatusOr<grfusion::ResultSet>& r,
                   Tally* tally) const;

  std::unique_ptr<grfusion::Database> db_;
  std::vector<Stmt> pool_;
  std::vector<double> setup_s_;
  std::map<std::string, double> build_ms_;
  double topology_mb_ = 0;
};

// --- paths -------------------------------------------------------------------

/// Multi-source path enumeration and a hybrid relational/graph QEP over the
/// four datasets at scale 0.01, one session, each statement at 1 and 4
/// workers.
class PathsWorkload {
 public:
  grfusion::Status Setup(uint64_t seed, int setup_reps);

  struct Result {
    Tally tally;
    double elapsed_s = 0;
    std::vector<double> latency_us;  ///< Per statement.
    std::vector<double> rate_1w;     ///< Paths per second, per round.
    std::vector<double> rate_4w;
    std::vector<double> stmts_per_s;  ///< Statements per second, per round.
  };
  /// Whole rounds (every statement at 1 and at 4 workers) until `seconds`
  /// have passed; at least `min_rounds` rounds.
  Result Run(double seconds, int min_rounds, SpanLog* log = nullptr);

  /// One EXPLAIN ANALYZE pass plus counter reads; adds per-layer metrics.
  void Profile(Report* out, Tally* tally);

  const std::vector<double>& setup_s() const { return setup_s_; }

 private:
  struct Stmt {
    std::string sql;
    bool hybrid = false;          ///< Join + GROUP BY kind, COUNT in column 1.
    int64_t expected_count = -1;  ///< Paths counted from the adjacency.
  };
  std::unique_ptr<grfusion::Database> db_;
  std::vector<Stmt> stmts_;
  std::vector<double> setup_s_;
};

// --- wire --------------------------------------------------------------------

/// In-process server over a durable database (WAL, group commit) holding
/// the social dataset at scale 0.1; two client connections send an open-loop
/// mix of point reads, edge inserts and 2-hop probes at a fixed rate.
class WireWorkload {
 public:
  explicit WireWorkload(std::string workdir);
  ~WireWorkload();

  grfusion::Status Setup(uint64_t seed, int setup_reps);

  struct Result {
    Tally tally;
    double elapsed_s = 0;
    uint64_t completed = 0;
    std::vector<double> latency_us;  ///< From due time, all ops.
    std::vector<double> by_type_us[3];  ///< read, write, probe.
    std::vector<double> late_us;
    std::vector<double> engine_us[3];  ///< Done.latency_us per type.
    std::vector<double> wire_us;       ///< Client call minus Done.latency_us.
    uint64_t inserts_acked = 0;
  };
  /// Open loop at `rate` ops/s across two connections for `seconds`.
  Result Run(double seconds, double rate, uint64_t seed,
             SpanLog* logs = nullptr);

  /// Checks the table and graph view hold preload + acknowledged inserts,
  /// then stops the server, reopens the database from its directory (timed)
  /// and checks every acknowledged insert was recovered.
  void CheckAndRecover(Tally* tally, double* recovery_s);

  /// Median round trip of `n` pings on a fresh connection.
  double PingRttUs(int n);

  const std::vector<double>& setup_s() const { return setup_s_; }

  static constexpr const char* kOpNames[3] = {"read", "write", "probe"};

 private:
  void Teardown();

  std::string workdir_;
  std::string data_dir_;
  grfusion::Dataset dataset_;
  std::unique_ptr<grfusion::Database> db_;
  std::unique_ptr<grfusion::Server> server_;
  std::vector<double> setup_s_;
  uint64_t inserts_acked_ = 0;
  uint64_t next_key_block_ = 0;
};

}  // namespace perfbench

#endif  // GRFUSION_PERFBENCH_WORKLOADS_H_
