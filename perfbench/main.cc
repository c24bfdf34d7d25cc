// GRFusion benchmark driver.
//
//   grf_perfbench --workload reach|paths|wire --seed N --seconds S
//                 --trace 0|1 [--workdir DIR]
//
// --trace 0 runs the named workload untraced and reports its end-to-end
// metrics. --trace 1 is the separate traced run: it runs every workload's
// traced segment (so each layer is measured whichever workload is named)
// and reports per-layer metrics, plus the tracing overhead on the named
// workload. Human-readable lines go first; the last stdout line is one JSON
// object. A wrong answer makes the exit status non-zero.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "common/string_util.h"
#include "workloads.h"

namespace perfbench {
namespace {

using grfusion::StrFormat;

// Set-ups per run; setup_s is their median. paths sets up in ~0.05 s, so it
// repeats more to keep the median steady.
constexpr int kReachSetupReps = 5;
constexpr int kPathsSetupReps = 9;
constexpr int kWireSetupReps = 5;
constexpr int kReachThreads = 2;
constexpr double kWireRate = 2000.0;  // Offered ops/s across both clients.
// reach reports ops_per_s as the median completion rate over this many
// equal runs of completions (paths: over rounds), so a burst of host noise
// moves it less.
constexpr size_t kRateChunks = 15;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir = ".bench_build/perfbench-work";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* v = argv[i + 1];
    if (key == "--workload") {
      a->workload = v;
    } else if (key == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (key == "--seconds") {
      a->seconds = std::strtod(v, nullptr);
    } else if (key == "--trace") {
      a->trace = std::strcmp(v, "0") != 0;
    } else if (key == "--workdir") {
      a->workdir = v;
    } else {
      return false;
    }
  }
  return (a->workload == "reach" || a->workload == "paths" ||
          a->workload == "wire") &&
         a->seconds > 0;
}

/// Prints one metric line ("name value unit").
void Print(const std::string& name, double value, const std::string& unit) {
  std::printf("%-34s %14.4f %s\n", name.c_str(), value, unit.c_str());
}

/// Adds p50 and the tail percentile of `samples` under `prefix`, and prints
/// the tail's actual quantile and sample count.
void AddLatency(Report* r, const std::string& prefix,
                const std::vector<double>& samples) {
  const Tail p50 = TailPercentile(samples, 0.50);
  const Tail p99 = TailPercentile(samples, 0.99);
  r->Add(prefix + "p50_us", p50.value, "us");
  r->Add(prefix + "p99_us", p99.value, "us");
  std::printf("# %sp99_us is p%.2f over %zu samples (%zu beyond)\n",
              prefix.c_str(), p99.quantile * 100, p99.samples, p99.beyond);
}

double Ops(const Tally& t, double elapsed_s) {
  return elapsed_s > 0 ? static_cast<double>(t.attempted - t.failed) /
                             elapsed_s
                       : 0.0;
}

double ErrorRate(const Tally& t) {
  return t.attempted > 0 ? static_cast<double>(t.failed) /
                               static_cast<double>(t.attempted)
                         : 0.0;
}

void Fail(const grfusion::Status& s) {
  std::fprintf(stderr, "setup failed: %s\n", s.ToString().c_str());
  std::exit(2);
}

/// --trace 0: the named workload, untraced. `e2e` gets the gated metrics,
/// `extra` the workload-specific ones that are printed only.
Tally RunUntraced(const Args& a, Report* e2e, Report* extra) {
  Tally tally;
  std::vector<double> setup;
  double ops = 0;
  std::vector<double> latency;
  if (a.workload == "reach") {
    ReachWorkload w;
    if (auto s = w.Setup(a.seed, kReachSetupReps); !s.ok()) Fail(s);
    std::printf("# reach pool: %zu distinct statements\n", w.pool_size());
    w.Run(std::min(1.0, a.seconds / 10), kReachThreads, a.seed + 1);  // Warm.
    auto r = w.Run(a.seconds, kReachThreads, a.seed);
    setup = w.setup_s();
    tally = r.tally;
    ops = MedianRate(r.done_s, kRateChunks);
    latency = std::move(r.latency_us);
  } else if (a.workload == "paths") {
    PathsWorkload w;
    if (auto s = w.Setup(a.seed, kPathsSetupReps); !s.ok()) Fail(s);
    w.Run(0, 1);  // Warm-up round.
    auto r = w.Run(a.seconds, 3);
    setup = w.setup_s();
    tally = r.tally;
    ops = Median(r.stmts_per_s);
    latency = std::move(r.latency_us);
    extra->Add("paths_per_s_1w", Median(r.rate_1w), "1/s");
    extra->Add("paths_per_s_4w", Median(r.rate_4w), "1/s");
    extra->Add("rounds", static_cast<double>(r.rate_1w.size()), "count");
  } else {
    WireWorkload w(a.workdir);
    if (auto s = w.Setup(a.seed, kWireSetupReps); !s.ok()) Fail(s);
    w.Run(0.5, kWireRate, a.seed + 1);  // Warm-up.
    auto r = w.Run(a.seconds, kWireRate, a.seed);
    double recovery_s = 0;
    w.CheckAndRecover(&r.tally, &recovery_s);
    setup = w.setup_s();
    tally = r.tally;
    ops = r.elapsed_s > 0 ? static_cast<double>(r.completed) / r.elapsed_s : 0;
    latency = std::move(r.latency_us);
    for (int t = 0; t < 3; ++t) {
      AddLatency(extra, std::string(WireWorkload::kOpNames[t]) + "_",
                 r.by_type_us[t]);
    }
    extra->Add("late_p99_us", TailPercentile(r.late_us, 0.99).value, "us");
    extra->Add("recovery_s", recovery_s, "s");
  }
  e2e->Add("setup_s", Median(setup), "s");
  e2e->Add("peak_rss_mb", PeakRssMb(), "MB");
  e2e->Add("ops_per_s", ops, "1/s");
  AddLatency(e2e, "", latency);
  extra->Add("error_rate", ErrorRate(tally), "ratio");
  return tally;
}

/// --trace 1: every workload's traced segment; per-layer metrics.
Tally RunTraced(const Args& a, Report* out, std::vector<Span>* spans) {
  Tally tally;
  const double seg = std::max(0.5, a.seconds / 4);
  double untraced_ops = 0, traced_ops = 0;

  {  // reach: session scaling untraced, then the traced single session.
    ReachWorkload w;
    if (auto s = w.Setup(a.seed, 1); !s.ok()) Fail(s);
    w.Run(std::min(1.0, seg / 4), 1, a.seed + 1);  // Warm.
    auto one = w.Run(seg, 1, a.seed);
    const uint64_t hits0 = CounterValue("plan_cache_hits");
    const uint64_t misses0 = CounterValue("plan_cache_misses");
    // The same statements again, shared by two sessions.
    auto two = w.Run(0, kReachThreads, a.seed, one.tally.attempted);
    const Ratio hit = HitRatio(CounterValue("plan_cache_hits") - hits0,
                               CounterValue("plan_cache_misses") - misses0);
    out->Add("engine.plan_cache_hit_ratio", hit.value(), "ratio");
    out->Add("engine.plan_cache_lookups", hit.base, "count");
    auto traced = w.RunTraced(seg, a.seed, out, spans);
    tally.Merge(one.tally);
    tally.Merge(two.tally);
    tally.Merge(traced.tally);
    out->Add("engine.session_scaling",
             two.elapsed_s > 0 ? one.elapsed_s / two.elapsed_s : 0, "ratio");
    for (const auto& [view, ms] : w.build_ms()) {
      out->Add("graph.build_ms." + view, ms, "ms");
    }
    out->Add("graph.topology_mb", w.topology_mb(), "MB");
    if (a.workload == "reach") {
      // The same statements, in the same order, untraced and traced.
      const size_t n =
          std::min(one.latency_us.size(), traced.latency_us.size());
      double untraced_us = 0, traced_us = 0;
      for (size_t i = 0; i < n; ++i) {
        untraced_us += one.latency_us[i];
        traced_us += traced.latency_us[i];
      }
      untraced_ops = untraced_us > 0 ? n * 1e6 / untraced_us : 0;
      traced_ops = traced_us > 0 ? n * 1e6 / traced_us : 0;
    }
  }

  {  // paths: an untraced and a traced round, then EXPLAIN ANALYZE.
    PathsWorkload w;
    if (auto s = w.Setup(a.seed, 1); !s.ok()) Fail(s);
    auto plain = w.Run(0, 1);
    SpanLog log(2);
    auto traced = w.Run(0, 1, &log);
    w.Profile(out, &tally);
    tally.Merge(plain.tally);
    tally.Merge(traced.tally);
    const double r1 = Median(plain.rate_1w);
    out->Add("taskpool.speedup_4w", r1 > 0 ? Median(plain.rate_4w) / r1 : 0,
             "ratio");
    out->Add("paths.paths_per_s_1w", r1, "1/s");
    out->Add("paths.paths_per_s_4w", Median(plain.rate_4w), "1/s");
    spans->insert(spans->end(), log.spans().begin(), log.spans().end());
    if (a.workload == "paths") {
      untraced_ops = Ops(plain.tally, plain.elapsed_s);
      traced_ops = Ops(traced.tally, traced.elapsed_s);
    }
  }

  {  // wire: untraced and traced segments at the same offered rate.
    WireWorkload w(a.workdir);
    if (auto s = w.Setup(a.seed, 1); !s.ok()) Fail(s);
    w.Run(0.5, kWireRate, a.seed + 1);  // Warm.
    auto plain = w.Run(seg, kWireRate, a.seed);
    // The wire workload's end-to-end split, from this untraced segment.
    AddLatency(out, "wire.", plain.latency_us);
    for (int t = 0; t < 3; ++t) {
      AddLatency(out, std::string("wire.") + WireWorkload::kOpNames[t] + "_",
                 plain.by_type_us[t]);
    }
    out->Add("wire.error_rate", ErrorRate(plain.tally), "ratio");
    CounterDelta d({"wal_fsyncs_total", "wal_bytes_total",
                    "graph_view_updates_total", "mvcc_folds_total",
                    "server_queries_rejected", "server_bytes_in",
                    "server_bytes_out"});
    SpanLog logs[2] = {SpanLog(3), SpanLog(4)};
    auto traced = w.Run(seg, kWireRate, a.seed + 2, logs);
    const double writes = static_cast<double>(traced.inserts_acked);
    const double ops = static_cast<double>(traced.completed);
    const auto per = [](double x, double base) {
      return base > 0 ? x / base : 0.0;
    };
    out->Add("storage.wal_fsyncs_per_commit",
             per(d.Delta("wal_fsyncs_total"), writes), "ratio");
    out->Add("storage.wal_bytes_per_write",
             per(d.Delta("wal_bytes_total"), writes), "B");
    out->Add("storage.wal_commits", writes, "count");
    out->Add("graph.updates_per_write",
             per(d.Delta("graph_view_updates_total"), writes), "ratio");
    out->Add("engine.mvcc_folds", d.Delta("mvcc_folds_total"), "count");
    for (int t = 0; t < 3; ++t) {
      out->Add(std::string("server.engine_") + WireWorkload::kOpNames[t] +
                   "_us",
               Median(traced.engine_us[t]), "us");
    }
    out->Add("server.wire_us", Median(traced.wire_us), "us");
    out->Add("server.bytes_per_op",
             per(d.Delta("server_bytes_in") + d.Delta("server_bytes_out"), ops),
             "B");
    out->Add("server.rejected", d.Delta("server_queries_rejected"), "count");
    out->Add("server.ping_rtt_us", w.PingRttUs(2000), "us");
    out->Add("driver.late_p99_us", TailPercentile(traced.late_us, 0.99).value,
             "us");
    double recovery_s = 0;
    w.CheckAndRecover(&traced.tally, &recovery_s);
    out->Add("engine.recovery_s", recovery_s, "s");
    tally.Merge(plain.tally);
    tally.Merge(traced.tally);
    for (int c = 0; c < 2; ++c) {
      spans->insert(spans->end(), logs[c].spans().begin(),
                    logs[c].spans().end());
    }
    if (a.workload == "wire") {
      untraced_ops =
          plain.elapsed_s > 0 ? plain.completed / plain.elapsed_s : 0;
      traced_ops = traced.elapsed_s > 0 ? ops / traced.elapsed_s : 0;
    }
  }
  out->Add("tracing.overhead_pct",
           untraced_ops > 0 ? (untraced_ops - traced_ops) / untraced_ops * 100
                            : 0,
           "%");
  return tally;
}

/// Writes spans as JSON lines: name, request, id, parent, start/end ns.
void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  const auto self = SelfTimes(spans);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"request\":%llu,\"id\":%llu,"
                 "\"parent\":%llu,\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"self_ns\":%lld}\n",
                 s.name, static_cast<unsigned long long>(s.request),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(self[i]));
  }
  std::fclose(f);
}

std::string JsonMetrics(const Report& r) {
  std::string out = "{";
  for (const auto& e : r.entries()) {
    if (out.size() > 1) out += ", ";
    out += StrFormat("\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                     e.name.c_str(), e.value, e.unit.c_str());
  }
  return out + "}";
}

int Main(int argc, char** argv) {
  Args a;
  if (!ParseArgs(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: grf_perfbench --workload reach|paths|wire --seed N "
                 "--seconds S --trace 0|1 [--workdir DIR]\n");
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(a.workdir, ec);
  std::printf("# workload=%s seed=%llu seconds=%g trace=%d\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace ? 1 : 0);
  Report metrics;
  Tally tally;
  if (a.trace) {
    std::vector<Span> spans;
    tally = RunTraced(a, &metrics, &spans);
    const std::string path = StrFormat("%s/trace-%s-%llu.jsonl",
                                       a.workdir.c_str(), a.workload.c_str(),
                                       static_cast<unsigned long long>(a.seed));
    WriteSpans(path, spans);
    std::printf("# %zu spans written to %s\n", spans.size(), path.c_str());
  } else {
    Report extra;
    tally = RunUntraced(a, &metrics, &extra);
    for (const auto& e : extra.entries()) Print(e.name, e.value, e.unit);
  }
  for (const auto& e : metrics.entries()) Print(e.name, e.value, e.unit);
  for (const std::string& m : tally.messages) {
    std::fprintf(stderr, "check: %s\n", m.c_str());
  }
  const bool correct = tally.wrong == 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(tally.attempted),
      static_cast<unsigned long long>(tally.failed),
      JsonMetrics(metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
