// Figure 8 reproduction [reconstructed from §7.1's stated design]:
// constrained reachability — the query restricts the traversal to a
// sub-graph selected by an edge predicate (`rank < s` admits ~s% of edges),
// sweeping selectivity s in {5, 10, 25, 50} percent on every dataset.
//
// Expected shape: GRFusion benefits from pushing the predicate INTO the
// traversal (smaller effective graph -> faster at lower selectivity);
// SQLGraph pays the join chain regardless (the predicate only thins each
// join's probe side); the graph databases evaluate the predicate per hop via
// string-keyed property lookups.

#include <benchmark/benchmark.h>

#include "baselines/graphdb_session.h"
#include "bench/bench_util.h"

namespace grfusion::bench {
namespace {

constexpr size_t kQueriesPerConfig = 5;
constexpr size_t kHops = 4;

/// Every cell reports the same user counters: Google Benchmark's CSV
/// reporter takes its columns from the first row it prints and aborts on a
/// counter that row lacks.
void SetCellCounters(::benchmark::State& state, double edges_examined,
                     double aborted) {
  state.counters["edges_examined"] = edges_examined;
  state.counters["aborted"] = aborted;
}

void GRFusionConstrained(::benchmark::State& state, const std::string& name,
                         int64_t selectivity) {
  BenchEnv& env = BenchEnv::Get();
  const auto& pairs = env.pairs(name, kHops, kQueriesPerConfig, selectivity);
  Session& db = env.session();
  for (auto _ : state) {
    for (const QueryPair& q : pairs) {
      auto result =
          db.Execute(ReachabilitySql(name, q.src, q.dst, selectivity));
      if (!result.ok()) {
        state.SkipWithError(result.status().ToString().c_str());
        return;
      }
      ::benchmark::DoNotOptimize(result->NumRows());
    }
  }
  SetCellCounters(state, static_cast<double>(db.last_stats().edges_examined),
                  0.0);
  ReportPerQuery(state, pairs.size());
}

void SqlGraphConstrained(::benchmark::State& state, const std::string& name,
                         int64_t selectivity) {
  BenchEnv& env = BenchEnv::Get();
  const auto& pairs = env.pairs(name, kHops, kQueriesPerConfig, selectivity);
  SqlGraph& sg = env.sqlgraph(name);
  size_t aborted = 0;
  for (auto _ : state) {
    for (const QueryPair& q : pairs) {
      auto result = sg.ReachableAtDepth(q.src, q.dst, kHops, selectivity);
      if (!result.ok()) ++aborted;
    }
  }
  SetCellCounters(state, 0.0, static_cast<double>(aborted));
  ReportPerQuery(state, pairs.size());
}

void GraphDbConstrained(::benchmark::State& state, const std::string& name,
                        int64_t selectivity, bool titan) {
  BenchEnv& env = BenchEnv::Get();
  const auto& pairs = env.pairs(name, kHops, kQueriesPerConfig, selectivity);
  GraphDbSession session(titan ? &env.titan_sim(name) : &env.neo4j_sim(name));
  for (auto _ : state) {
    for (const QueryPair& q : pairs) {
      auto rows = session.Execute(StrFormat(
          "REACH %lld %lld RANK < %lld", static_cast<long long>(q.src),
          static_cast<long long>(q.dst),
          static_cast<long long>(selectivity)));
      if (!rows.ok()) {
        state.SkipWithError(rows.status().ToString().c_str());
        return;
      }
      ::benchmark::DoNotOptimize(rows->size());
    }
  }
  SetCellCounters(state, 0.0, 0.0);
  ReportPerQuery(state, pairs.size());
}

void RegisterAll() {
  for (const char* name : kDatasetNames) {
    for (int64_t selectivity : {5, 10, 25, 50}) {
      // A filtered sub-graph with no pair kHops apart has no cell: a
      // skipped row would carry no counters (see SetCellCounters).
      if (BenchEnv::Get()
              .pairs(name, kHops, kQueriesPerConfig, selectivity)
              .empty()) {
        continue;
      }
      std::string suffix =
          std::string(name) + "/sel:" + std::to_string(selectivity);
      ::benchmark::RegisterBenchmark(
          ("Fig8/GRFusion/" + suffix).c_str(),
          [name, selectivity](::benchmark::State& s) {
            GRFusionConstrained(s, name, selectivity);
          })
          ->Unit(::benchmark::kMillisecond)
          ->MinTime(MinBenchTime());
      ::benchmark::RegisterBenchmark(
          ("Fig8/SQLGraph/" + suffix).c_str(),
          [name, selectivity](::benchmark::State& s) {
            SqlGraphConstrained(s, name, selectivity);
          })
          ->Unit(::benchmark::kMillisecond)
          ->MinTime(MinBenchTime());
      ::benchmark::RegisterBenchmark(
          ("Fig8/Neo4jSim/" + suffix).c_str(),
          [name, selectivity](::benchmark::State& s) {
            GraphDbConstrained(s, name, selectivity, false);
          })
          ->Unit(::benchmark::kMillisecond)
          ->MinTime(MinBenchTime());
      ::benchmark::RegisterBenchmark(
          ("Fig8/TitanSim/" + suffix).c_str(),
          [name, selectivity](::benchmark::State& s) {
            GraphDbConstrained(s, name, selectivity, true);
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
  grfusion::bench::DumpEngineMetrics("BENCH_fig8_metrics.json");
  ::benchmark::Shutdown();
  return 0;
}
