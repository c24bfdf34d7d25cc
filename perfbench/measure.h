// Measurement arithmetic shared by the benchmark driver and its unit test:
// the tail-percentile rule, open-loop due-time latency and generator
// lateness, span self time, and ratios that carry their base. Header-only and
// free of engine dependencies so stats_test.cc can check it in isolation.
#ifndef GRFUSION_PERFBENCH_MEASURE_H_
#define GRFUSION_PERFBENCH_MEASURE_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty input.
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

/// A tail percentile chosen by the rule "the highest percentile, up to the
/// wanted one, that still has at least `kMinBeyond` samples above it".
struct Tail {
  static constexpr size_t kMinBeyond = 10;
  bool ok = false;      ///< False when fewer than kMinBeyond + 1 samples.
  double value = 0.0;   ///< The sample at the chosen rank.
  double quantile = 0;  ///< The quantile actually reported (<= wanted).
  size_t samples = 0;   ///< Sample count the percentile was taken over.
  size_t beyond = 0;    ///< Samples strictly after the chosen rank.
};

/// Nearest-rank percentile of `samples` at quantile `want` (e.g. 0.99),
/// lowered until at least Tail::kMinBeyond samples lie beyond it.
inline Tail TailPercentile(std::vector<double> samples, double want) {
  Tail t;
  t.samples = samples.size();
  if (samples.size() <= Tail::kMinBeyond) return t;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  // Nearest rank: the smallest index i with (i + 1) / n >= want.
  size_t idx = static_cast<size_t>(std::ceil(want * static_cast<double>(n)));
  idx = idx == 0 ? 0 : idx - 1;
  idx = std::min(idx, n - 1 - Tail::kMinBeyond);
  t.ok = true;
  t.value = samples[idx];
  t.quantile = static_cast<double>(idx + 1) / static_cast<double>(n);
  t.beyond = n - 1 - idx;
  return t;
}

/// Completions per second, as the median over `chunks` consecutive runs of
/// equally many completions: a robust rate that a burst of host noise in
/// one stretch of the segment does not move. Chunk i's rate is its
/// completion count over the time from the previous chunk's last completion
/// (the segment start, time 0, for the first) to its own last completion.
/// `done_s` are completion times in seconds since the segment started.
inline double MedianRate(std::vector<double> done_s, size_t chunks) {
  std::sort(done_s.begin(), done_s.end());
  chunks = std::min(chunks, done_s.size());
  if (chunks == 0) return 0.0;
  std::vector<double> rates;
  double prev_end = 0.0;
  size_t prev_idx = 0;
  for (size_t c = 1; c <= chunks; ++c) {
    const size_t idx = done_s.size() * c / chunks;  // One past the chunk.
    const double end = done_s[idx - 1];
    if (end > prev_end) {
      rates.push_back(static_cast<double>(idx - prev_idx) / (end - prev_end));
    }
    prev_end = end;
    prev_idx = idx;
  }
  return Median(std::move(rates));
}

// --- Open loop ---------------------------------------------------------------

/// Fixed-rate schedule: request i of a stream is due at
/// start + offset + i * interval.
struct OpenLoopSchedule {
  int64_t start_ns = 0;
  int64_t interval_ns = 0;
  int64_t offset_ns = 0;

  int64_t Due(uint64_t i) const {
    return start_ns + offset_ns +
           static_cast<int64_t>(i) * interval_ns;
  }
};

/// Latency charged to a request in an open loop: from when it was due, not
/// from when it was sent, so a stall also charges the requests queued
/// behind it.
inline int64_t LatencyFromDue(int64_t due_ns, int64_t done_ns) {
  return done_ns - due_ns;
}

/// How late the generator itself sent a request. A blocking connection can
/// only send once its previous reply arrived, so time spent waiting for the
/// program (prev_done > due) is program latency, not generator lateness.
inline int64_t GeneratorLateness(int64_t due_ns, int64_t sent_ns,
                                 int64_t prev_done_ns) {
  return std::max<int64_t>(0, sent_ns - std::max(due_ns, prev_done_ns));
}

// --- Ratios ------------------------------------------------------------------

/// A ratio reported together with its base (the denominator's count).
struct Ratio {
  double num = 0.0;
  double base = 0.0;
  double value() const { return base > 0 ? num / base : 0.0; }
};

/// Hits over lookups, where lookups = hits + misses is the base.
inline Ratio HitRatio(uint64_t hits, uint64_t misses) {
  return Ratio{static_cast<double>(hits),
               static_cast<double>(hits) + static_cast<double>(misses)};
}

// --- Spans -------------------------------------------------------------------

/// One timed call into the engine, recorded by the benchmark around a public
/// API call. Spans of one request share `request`; `parent` is the id of
/// the enclosing span, 0 for a root.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children count once).
/// Returned in the order of `spans`.
inline std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::vector<int64_t> self;
  self.reserve(spans.size());
  for (const Span& s : spans) {
    int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      int64_t cur_lo = 0;
      int64_t cur_hi = 0;
      bool open = false;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start_ns);
        hi = std::min(hi, s.end_ns);
        if (hi <= lo) continue;
        if (open && lo <= cur_hi) {
          cur_hi = std::max(cur_hi, hi);
          continue;
        }
        if (open) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      }
      if (open) covered += cur_hi - cur_lo;
    }
    self.push_back((s.end_ns - s.start_ns) - covered);
  }
  return self;
}

/// In-memory span recorder for one thread. Ids are unique across logs when
/// each log gets its own `log_index`.
class SpanLog {
 public:
  explicit SpanLog(uint32_t log_index = 0)
      : next_id_((static_cast<uint64_t>(log_index) << 40) + 1) {}

  /// Opens a span and returns its id.
  uint64_t Begin(const char* name, uint64_t parent, uint64_t request) {
    Span s;
    s.id = next_id_++;
    s.parent = parent;
    s.request = request;
    s.name = name;
    s.start_ns = NowNs();
    open_.push_back(spans_.size());
    spans_.push_back(s);
    return s.id;
  }

  /// Closes the most recently opened span (spans nest per thread).
  void End() {
    spans_[open_.back()].end_ns = NowNs();
    open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }
  std::vector<Span>& spans() { return spans_; }

 private:
  uint64_t next_id_;
  std::vector<size_t> open_;
  std::vector<Span> spans_;
};

/// RAII span over a SpanLog; a null log records nothing, so untraced runs
/// share the traced code path at the cost of one pointer test.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t parent,
             uint64_t request)
      : log_(log) {
    if (log_ != nullptr) id_ = log_->Begin(name, parent, request);
  }
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }

 private:
  SpanLog* log_;
  uint64_t id_ = 0;
};

/// Median self time in microseconds of the spans named `name`.
inline double MedianSelfUs(const std::vector<Span>& spans,
                           const std::vector<int64_t>& self,
                           const std::string& name) {
  std::vector<double> v;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (name == spans[i].name) v.push_back(static_cast<double>(self[i]) / 1e3);
  }
  return Median(std::move(v));
}

}  // namespace perfbench

#endif  // GRFUSION_PERFBENCH_MEASURE_H_
