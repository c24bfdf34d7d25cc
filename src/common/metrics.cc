#include "common/metrics.h"

#include <algorithm>
#include <bit>

#include "common/string_util.h"

namespace grfusion {

// --- Histogram ---------------------------------------------------------------------

void Histogram::Observe(uint64_t v) {
  size_t bucket = static_cast<size_t>(std::bit_width(v));  // 0 -> bucket 0.
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  uint64_t current = max_.load(std::memory_order_relaxed);
  while (v > current &&
         !max_.compare_exchange_weak(current, v, std::memory_order_relaxed)) {
  }
}

uint64_t Histogram::BucketUpperBound(size_t i) {
  if (i == 0) return 0;
  if (i >= 64) return UINT64_MAX;
  return (1ull << i) - 1;
}

uint64_t Histogram::PercentileApprox(double q) const {
  // `!(q >= 0.0)` also catches NaN, which would otherwise survive both
  // comparisons and produce an undefined float->int cast below.
  if (!(q >= 0.0)) q = 0.0;
  if (q > 1.0) q = 1.0;
  uint64_t total = count();
  if (total == 0) return 0;
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(total - 1));
  uint64_t seen = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    seen += BucketCount(i);
    // Clamp to the observed max: a bucket's upper bound can exceed every
    // value that actually landed in it (q=1.0 would otherwise report 2^i-1
    // for a single observation of, say, 5000).
    if (seen > rank) return std::min(BucketUpperBound(i), max());
  }
  return max();
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

// --- MetricsRegistry ---------------------------------------------------------------

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return slot.get();
}

std::vector<MetricsRegistry::Sample> MetricsRegistry::Samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Sample> out;
  out.reserve(counters_.size() + gauges_.size() + histograms_.size() * 6);
  for (const auto& [name, c] : counters_) {
    out.push_back({name, "counter", static_cast<double>(c->value())});
  }
  for (const auto& [name, g] : gauges_) {
    out.push_back({name, "gauge", static_cast<double>(g->value())});
  }
  for (const auto& [name, h] : histograms_) {
    out.push_back({name + "_count", "histogram",
                   static_cast<double>(h->count())});
    out.push_back({name + "_sum", "histogram", static_cast<double>(h->sum())});
    out.push_back({name + "_mean", "histogram", h->mean()});
    out.push_back({name + "_p50", "histogram",
                   static_cast<double>(h->PercentileApprox(0.50))});
    out.push_back({name + "_p99", "histogram",
                   static_cast<double>(h->PercentileApprox(0.99))});
    out.push_back({name + "_max", "histogram",
                   static_cast<double>(h->max())});
  }
  return out;
}

std::string MetricsRegistry::ToText() const {
  std::string out;
  for (const Sample& s : Samples()) {
    out += StrFormat("%s %.0f\n", s.name.c_str(), s.value);
  }
  return out;
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string MetricsRegistry::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) out += ",";
    first = false;
    out += StrFormat("\"%s\":%llu", JsonEscape(name).c_str(),
                     static_cast<unsigned long long>(c->value()));
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) out += ",";
    first = false;
    out += StrFormat("\"%s\":%lld", JsonEscape(name).c_str(),
                     static_cast<long long>(g->value()));
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out += ",";
    first = false;
    out += StrFormat(
        "\"%s\":{\"count\":%llu,\"sum\":%llu,\"mean\":%.3f,\"p50\":%llu,"
        "\"p90\":%llu,\"p99\":%llu,\"max\":%llu}",
        JsonEscape(name).c_str(), static_cast<unsigned long long>(h->count()),
        static_cast<unsigned long long>(h->sum()), h->mean(),
        static_cast<unsigned long long>(h->PercentileApprox(0.50)),
        static_cast<unsigned long long>(h->PercentileApprox(0.90)),
        static_cast<unsigned long long>(h->PercentileApprox(0.99)),
        static_cast<unsigned long long>(h->max()));
  }
  out += "}}";
  return out;
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

// --- EngineMetrics -----------------------------------------------------------------

EngineMetrics::EngineMetrics() {
  MetricsRegistry& r = MetricsRegistry::Global();
  queries_total = r.GetCounter("queries_total");
  query_errors_total = r.GetCounter("query_errors_total");
  slow_queries_total = r.GetCounter("slow_queries_total");
  rows_returned_total = r.GetCounter("rows_returned_total");
  queries_cancelled = r.GetCounter("queries_cancelled");
  queries_deadline_exceeded = r.GetCounter("queries_deadline_exceeded");
  query_latency_us = r.GetHistogram("query_latency_us");
  rows_scanned_total = r.GetCounter("rows_scanned_total");
  rows_joined_total = r.GetCounter("rows_joined_total");
  vertexes_expanded_total = r.GetCounter("vertexes_expanded_total");
  edges_examined_total = r.GetCounter("edges_examined_total");
  paths_emitted_total = r.GetCounter("paths_emitted_total");
  paths_pruned_total = r.GetCounter("paths_pruned_total");
  peak_query_bytes = r.GetGauge("peak_query_bytes");
  plan_cache_hits = r.GetCounter("plan_cache_hits");
  plan_cache_misses = r.GetCounter("plan_cache_misses");
  plan_cache_evictions = r.GetCounter("plan_cache_evictions");
  plan_cache_entries = r.GetGauge("plan_cache_entries");
  graph_views_built_total = r.GetCounter("graph_views_built_total");
  graph_view_build_us = r.GetHistogram("graph_view_build_us");
  graph_view_updates_total = r.GetCounter("graph_view_updates_total");
  graph_view_vetoes_total = r.GetCounter("graph_view_vetoes_total");
  graph_view_undo_total = r.GetCounter("graph_view_undo_total");
  graph_view_delta_bytes = r.GetGauge("graph_view_delta_bytes");
  graph_view_attr_bytes = r.GetGauge("graph_view_attr_bytes");
  wal_records_total = r.GetCounter("wal_records_total");
  wal_bytes_total = r.GetCounter("wal_bytes_total");
  wal_appends_total = r.GetCounter("wal_appends_total");
  wal_fsyncs_total = r.GetCounter("wal_fsyncs_total");
  checkpoints_total = r.GetCounter("checkpoints_total");
  mvcc_pending_changes = r.GetGauge("mvcc_pending_changes");
  mvcc_folds_total = r.GetCounter("mvcc_folds_total");
  mvcc_vacuumed_versions_total = r.GetCounter("mvcc_vacuumed_versions_total");
  trace_write_errors = r.GetCounter("trace_write_errors");
  server_connections = r.GetGauge("server_connections");
  server_connections_total = r.GetCounter("server_connections_total");
  server_queries_queued = r.GetGauge("server_queries_queued");
  server_queries_total = r.GetCounter("server_queries_total");
  server_queries_rejected = r.GetCounter("server_queries_rejected");
  server_cancels_total = r.GetCounter("server_cancels_total");
  server_bytes_in = r.GetCounter("server_bytes_in");
  server_bytes_out = r.GetCounter("server_bytes_out");
}

EngineMetrics& EngineMetrics::Get() {
  static EngineMetrics* metrics = new EngineMetrics();
  return *metrics;
}

}  // namespace grfusion
