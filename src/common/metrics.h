#ifndef GRFUSION_COMMON_METRICS_H_
#define GRFUSION_COMMON_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace grfusion {

/// Engine-wide observability primitives. All mutation paths are lock-free
/// atomic operations with relaxed ordering — safe to call from traversal
/// inner loops and concurrent statements without serializing them. The
/// registry mutex only guards metric *creation* and export walks.

/// Monotonically increasing event count.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-written (or high-water-mark) instantaneous value.
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  /// Raises the gauge to `v` if it is larger (peak tracking).
  void SetMax(int64_t v) {
    int64_t current = value_.load(std::memory_order_relaxed);
    while (v > current &&
           !value_.compare_exchange_weak(current, v,
                                         std::memory_order_relaxed)) {
    }
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Log2-bucketed histogram: observation v lands in bucket bit_width(v), so
/// bucket i covers [2^(i-1), 2^i). 64 buckets cover the full uint64 range
/// with one relaxed fetch_add per observation. Percentiles are approximate
/// (bucket upper bound), which is plenty for latency triage.
class Histogram {
 public:
  static constexpr size_t kNumBuckets = 65;

  void Observe(uint64_t v);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  double mean() const {
    uint64_t n = count();
    return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
  }
  /// Upper bound of the bucket containing the q-quantile (q in [0, 1]).
  uint64_t PercentileApprox(double q) const;
  uint64_t BucketCount(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  /// Inclusive upper bound of bucket i's value range.
  static uint64_t BucketUpperBound(size_t i);

  void Reset();

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets]{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
};

/// Name -> metric registry with text/JSON exporters. Metric pointers are
/// stable for the registry's lifetime, so callers resolve once and update
/// through the raw pointer afterwards.
class MetricsRegistry {
 public:
  /// The engine-wide registry instance.
  static MetricsRegistry& Global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Finds or creates; never returns nullptr.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// One flattened sample per exported value. Histograms flatten into
  /// name_count / name_sum / name_mean / name_p50 / name_p99 / name_max.
  struct Sample {
    std::string name;
    std::string kind;  ///< "counter" | "gauge" | "histogram".
    double value = 0.0;
  };
  std::vector<Sample> Samples() const;

  /// Prometheus-style `name value` lines, sorted by name.
  std::string ToText() const;
  /// One JSON object: {"counters":{...},"gauges":{...},"histograms":{...}}.
  std::string ToJson() const;

  /// Zeroes every registered metric (tests and bench isolation).
  void ResetAll();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Pre-resolved handles to the engine's well-known metrics in the global
/// registry. Resolving names costs a mutex + map lookup; hot paths go
/// through these pointers instead.
struct EngineMetrics {
  static EngineMetrics& Get();

  // Statement / query flow.
  Counter* queries_total;
  Counter* query_errors_total;
  Counter* slow_queries_total;
  Counter* rows_returned_total;
  Counter* queries_cancelled;          ///< Stopped by InterruptHandle.
  Counter* queries_deadline_exceeded;  ///< Stopped by statement timeout.
  Histogram* query_latency_us;

  // Per-operator work, folded from ExecStats after every SELECT.
  Counter* rows_scanned_total;
  Counter* rows_joined_total;
  Counter* vertexes_expanded_total;
  Counter* edges_examined_total;
  Counter* paths_emitted_total;
  Counter* paths_pruned_total;

  // Memory accounting.
  Gauge* peak_query_bytes;

  // Plan cache (session front-end). A hit means a statement executed
  // without parsing, binding, or planning.
  Counter* plan_cache_hits;
  Counter* plan_cache_misses;
  Counter* plan_cache_evictions;
  Gauge* plan_cache_entries;  ///< Current entry count (insert/evict/clear).

  // Graph-view lifecycle and online maintenance (paper §3.2/§3.3).
  Counter* graph_views_built_total;
  Histogram* graph_view_build_us;
  Counter* graph_view_updates_total;
  Counter* graph_view_vetoes_total;
  /// Compensations applied when a later listener vetoed a DML statement and
  /// this view had to roll its maintenance delta back.
  Counter* graph_view_undo_total;
  /// Bytes held by published-but-unfolded graph-view delta overlays across
  /// all views (fold pressure; drops to 0 when every chain folds).
  Gauge* graph_view_delta_bytes;
  /// Bytes held by flat numeric edge-attribute columns across all views
  /// (built lazily by traversals; released at folds and attribute writes).
  Gauge* graph_view_attr_bytes;

  // Durability: write-ahead log appends on the commit path, checkpoints.
  Counter* wal_records_total;
  Counter* wal_bytes_total;
  Counter* wal_appends_total;
  Counter* wal_fsyncs_total;
  Counter* checkpoints_total;

  // MVCC deferred maintenance (fold/vacuum) pressure. The gauge tracks the
  // EpochManager's pending-change count; the counters accumulate completed
  // fold passes and reclaimed dead versions.
  Gauge* mvcc_pending_changes;
  Counter* mvcc_folds_total;
  Counter* mvcc_vacuumed_versions_total;

  /// Observability sink write failures (trace files, slow-query log) that
  /// would otherwise be swallowed silently.
  Counter* trace_write_errors;

  // Network front-end (src/server). Connection/traffic accounting lives
  // here so SYS.METRICS exposes the server alongside the engine.
  Gauge* server_connections;        ///< Connections currently open.
  Counter* server_connections_total;
  Gauge* server_queries_queued;     ///< Statements waiting in admission.
  Counter* server_queries_total;    ///< Statements the server dispatched.
  Counter* server_queries_rejected; ///< Admission overflow / queue deadline.
  Counter* server_cancels_total;    ///< Wire CancelRequests honored.
  Counter* server_bytes_in;
  Counter* server_bytes_out;

 private:
  EngineMetrics();
};

}  // namespace grfusion

#endif  // GRFUSION_COMMON_METRICS_H_
