// Figure 7 reproduction: unconstrained reachability queries, average query
// time vs. the hop distance of the query endpoints (2..20), on all four
// datasets, for GRFusion vs. SQLGraph (Native Relational-Core) vs. the
// Neo4j/Titan-style property-graph baselines.
//
// Expected shape (paper §7.2): GRFusion stays flat and fastest; SQLGraph's
// cost grows with the hop distance (one relational join per hop) and its
// materialized join intermediates blow past the memory cap on the dense
// social graph (the paper's Twitter observation — reported here via the
// `aborted` counter); the graph databases scale but sit above GRFusion.
//
// Per §7.1, GRFusion runs with BFS as the physical traversal for these
// queries.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <vector>

#include "baselines/graphdb_session.h"
#include "bench/bench_util.h"

namespace grfusion::bench {
namespace {

constexpr size_t kQueriesPerConfig = 5;

void GRFusionReach(::benchmark::State& state, const std::string& name,
                   size_t hops) {
  BenchEnv& env = BenchEnv::Get();
  const auto& pairs = env.pairs(name, hops, kQueriesPerConfig);
  if (pairs.empty()) {
    state.SkipWithError("no connected pairs at this distance");
    return;
  }
  Session& db = env.session();
  auto saved = db.options().default_traversal;
  db.options().default_traversal = PlannerOptions::Traversal::kBfs;
  size_t found = 0;
  for (auto _ : state) {
    for (const QueryPair& q : pairs) {
      auto result = db.Execute(ReachabilitySql(name, q.src, q.dst));
      if (!result.ok()) {
        state.SkipWithError(result.status().ToString().c_str());
        break;
      }
      found += result->NumRows();
    }
  }
  db.options().default_traversal = saved;
  state.counters["found"] = static_cast<double>(found);
  ReportPerQuery(state, pairs.size());
}

void SqlGraphReach(::benchmark::State& state, const std::string& name,
                   size_t hops) {
  BenchEnv& env = BenchEnv::Get();
  const auto& pairs = env.pairs(name, hops, kQueriesPerConfig);
  if (pairs.empty()) {
    state.SkipWithError("no connected pairs at this distance");
    return;
  }
  SqlGraph& sg = env.sqlgraph(name);
  size_t aborted = 0;
  size_t peak_bytes = 0;
  for (auto _ : state) {
    for (const QueryPair& q : pairs) {
      auto result = sg.ReachableAtDepth(q.src, q.dst, hops);
      peak_bytes = std::max(peak_bytes, sg.last_peak_bytes());
      if (!result.ok()) {
        // ResourceExhausted reproduces the paper's join-memory blow-up.
        ++aborted;
      }
    }
  }
  state.counters["aborted"] = static_cast<double>(aborted);
  state.counters["peak_MB"] =
      static_cast<double>(peak_bytes) / (1024.0 * 1024.0);
  ReportPerQuery(state, pairs.size());
}

void PropertyGraphReach(::benchmark::State& state, const std::string& name,
                        size_t hops, bool titan) {
  BenchEnv& env = BenchEnv::Get();
  const auto& pairs = env.pairs(name, hops, kQueriesPerConfig);
  if (pairs.empty()) {
    state.SkipWithError("no connected pairs at this distance");
    return;
  }
  PropertyGraphStore& store =
      titan ? env.titan_sim(name) : env.neo4j_sim(name);
  // Queries go through the declarative session (parse + transaction +
  // serialization), mirroring how the paper drove Neo4j/Titan.
  GraphDbSession session(&store);
  size_t found = 0;
  for (auto _ : state) {
    for (const QueryPair& q : pairs) {
      auto rows = session.Execute(
          StrFormat("REACH %lld %lld", static_cast<long long>(q.src),
                    static_cast<long long>(q.dst)));
      if (!rows.ok()) {
        state.SkipWithError(rows.status().ToString().c_str());
        break;
      }
      found += rows->size();
    }
  }
  state.counters["found"] = static_cast<double>(found);
  ReportPerQuery(state, pairs.size());
}

// --- Cancellation-overhead sweep ------------------------------------------
//
// The robustness layer must cost ~nothing when not in use. Three variants of
// the same multi-source enumeration, serial to keep variance low:
//   baseline: interrupts off, no timeout -> null token, every cooperative
//             check is one pointer test (the pre-change execution path);
//   disarmed: interrupts on (the default) -> registered token, one extra
//             relaxed atomic load per check;
//   armed:    a far-future statement deadline -> adds the stride-amortized
//             clock read.
// Reported as percent overhead vs. baseline; the target is < 1%. Results
// land in BENCH_fig7_robustness.json.

void RunCancellationOverheadSweep(const std::string& path) {
  BenchEnv& env = BenchEnv::Get();
  Session& db = env.session();
  db.options().max_parallelism = 1;
  constexpr int kReps = 9;
  std::string json = "[\n";
  bool first = true;
  for (const char* name : kDatasetNames) {
    std::string sql = StrFormat(
        "SELECT COUNT(P) FROM %s.Paths P WHERE P.Length <= 2", name);
    // Interleave the three variants round-robin and keep each variant's
    // minimum: slow phases of the machine (frequency drift, background load)
    // then hit all variants equally instead of biasing whichever variant was
    // measured during them, and the minimum discards jitter — which only
    // ever adds time — isolating the code-path cost itself.
    auto configure = [&db](int variant) {
      db.options().enable_interrupts = variant != 0;
      db.options().statement_timeout_us =
          variant == 2 ? 3'600'000'000LL : -1;  // 1 hour: never trips.
    };
    double best[3] = {-1.0, -1.0, -1.0};
    bool failed = false;
    for (int variant = 0; variant < 3 && !failed; ++variant) {
      configure(variant);
      failed = !db.Execute(sql).ok();  // Warm-up.
    }
    for (int rep = 0; rep < kReps && !failed; ++rep) {
      for (int variant = 0; variant < 3; ++variant) {
        configure(variant);
        auto t0 = std::chrono::steady_clock::now();
        auto result = db.Execute(sql);
        auto t1 = std::chrono::steady_clock::now();
        if (!result.ok()) {
          std::fprintf(stderr, "overhead sweep failed on %s: %s\n", name,
                       result.status().ToString().c_str());
          failed = true;
          break;
        }
        double ms =
            std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0)
                .count() /
            1000.0;
        if (best[variant] < 0 || ms < best[variant]) best[variant] = ms;
      }
    }
    db.options().enable_interrupts = true;
    db.options().statement_timeout_us = -1;
    const double base_ms = best[0], disarmed_ms = best[1],
                 armed_ms = best[2];
    if (failed || base_ms <= 0 || disarmed_ms <= 0 || armed_ms <= 0) continue;
    double disarmed_pct = (disarmed_ms / base_ms - 1.0) * 100.0;
    double armed_pct = (armed_ms / base_ms - 1.0) * 100.0;
    if (!first) json += ",\n";
    first = false;
    json += StrFormat(
        "  {\"dataset\": \"%s\", \"baseline_ms\": %.3f, "
        "\"disarmed_ms\": %.3f, \"armed_deadline_ms\": %.3f, "
        "\"disarmed_overhead_pct\": %.2f, \"armed_overhead_pct\": %.2f}",
        name, base_ms, disarmed_ms, armed_ms, disarmed_pct, armed_pct);
    std::fprintf(stderr,
                 "Fig7/CancellationOverhead/%s baseline=%.3fms "
                 "disarmed=%.3fms (%+.2f%%) armed-deadline=%.3fms (%+.2f%%)\n",
                 name, base_ms, disarmed_ms, disarmed_pct, armed_ms,
                 armed_pct);
  }
  db.options().max_parallelism = 0;
  json += "\n]\n";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::fprintf(stderr, "cancellation-overhead sweep written to %s\n",
               path.c_str());
}

void RegisterAll() {
  for (const char* name : kDatasetNames) {
    for (size_t hops : {2, 4, 6, 8, 12, 16, 20}) {
      std::string suffix =
          std::string(name) + "/len:" + std::to_string(hops);
      ::benchmark::RegisterBenchmark(
          ("Fig7/GRFusion/" + suffix).c_str(),
          [name, hops](::benchmark::State& s) { GRFusionReach(s, name, hops); })
          ->Unit(::benchmark::kMillisecond)
          ->MinTime(MinBenchTime());
      ::benchmark::RegisterBenchmark(
          ("Fig7/SQLGraph/" + suffix).c_str(),
          [name, hops](::benchmark::State& s) { SqlGraphReach(s, name, hops); })
          ->Unit(::benchmark::kMillisecond)
          ->MinTime(MinBenchTime());
      ::benchmark::RegisterBenchmark(
          ("Fig7/Neo4jSim/" + suffix).c_str(),
          [name, hops](::benchmark::State& s) {
            PropertyGraphReach(s, name, hops, false);
          })
          ->Unit(::benchmark::kMillisecond)
          ->MinTime(MinBenchTime());
      ::benchmark::RegisterBenchmark(
          ("Fig7/TitanSim/" + suffix).c_str(),
          [name, hops](::benchmark::State& s) {
            PropertyGraphReach(s, name, hops, true);
          })
          ->Unit(::benchmark::kMillisecond)
          ->MinTime(MinBenchTime());
    }
  }
}

}  // namespace
}  // namespace grfusion::bench

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  grfusion::bench::RegisterAll();
  ::benchmark::RunSpecifiedBenchmarks();
  grfusion::bench::RunCancellationOverheadSweep("BENCH_fig7_robustness.json");
  grfusion::bench::DumpEngineMetrics("BENCH_fig7_metrics.json");
  ::benchmark::Shutdown();
  return 0;
}
