// Figure 9 reproduction [reconstructed from §7's stated design]: shortest
// path queries under sub-graph selectivity 5%..50%, comparing GRFusion's
// SPScan (lazy Dijkstra inside the QEP, HINT(SHORTESTPATH)) against Grail
// (iterative relational frontier expansion — the paper's RDBMS-translation
// baseline for shortest paths) and the graph databases.
//
// Expected shape: GRFusion and the graph DBs run one native Dijkstra;
// Grail pays one relational join + aggregation per frontier hop, so it sits
// orders of magnitude above, growing with the effective graph's diameter.

#include <benchmark/benchmark.h>

#include "baselines/graphdb_session.h"
#include "bench/bench_util.h"

namespace grfusion::bench {
namespace {

constexpr size_t kQueriesPerConfig = 4;
constexpr size_t kHops = 5;

std::string SpathSql(const std::string& graph, int64_t src, int64_t dst,
                     int64_t selectivity) {
  std::string sql = StrFormat(
      "SELECT TOP 1 PS.Cost FROM %s.Paths PS HINT(SHORTESTPATH(weight)) "
      "WHERE PS.StartVertex.Id = %lld AND PS.EndVertex.Id = %lld",
      graph.c_str(), static_cast<long long>(src),
      static_cast<long long>(dst));
  if (selectivity >= 0) {
    sql += StrFormat(" AND PS.Edges[0..*].rank < %lld",
                     static_cast<long long>(selectivity));
  }
  return sql;
}

void GRFusionSp(::benchmark::State& state, const std::string& name,
                int64_t selectivity) {
  BenchEnv& env = BenchEnv::Get();
  const auto& pairs = env.pairs(name, kHops, kQueriesPerConfig, selectivity);
  if (pairs.empty()) {
    state.SkipWithError("no connected pairs in the filtered sub-graph");
    return;
  }
  Session& db = env.session();
  // SPScan work per query, from the last iteration's batch: edges the
  // kernel examined and partial paths it popped.
  uint64_t edges_examined = 0;
  uint64_t vertexes_expanded = 0;
  for (auto _ : state) {
    edges_examined = 0;
    vertexes_expanded = 0;
    for (const QueryPair& q : pairs) {
      auto result = db.Execute(SpathSql(name, q.src, q.dst, selectivity));
      if (!result.ok()) {
        state.SkipWithError(result.status().ToString().c_str());
        return;
      }
      ::benchmark::DoNotOptimize(result->NumRows());
      edges_examined += db.last_stats().edges_examined;
      vertexes_expanded += db.last_stats().vertexes_expanded;
    }
  }
  const double queries = static_cast<double>(pairs.size());
  state.counters["edges_examined"] =
      static_cast<double>(edges_examined) / queries;
  state.counters["vertexes_expanded"] =
      static_cast<double>(vertexes_expanded) / queries;
  ReportPerQuery(state, pairs.size());
}

void GrailSp(::benchmark::State& state, const std::string& name,
             int64_t selectivity) {
  BenchEnv& env = BenchEnv::Get();
  const auto& pairs = env.pairs(name, kHops, kQueriesPerConfig, selectivity);
  if (pairs.empty()) {
    state.SkipWithError("no connected pairs in the filtered sub-graph");
    return;
  }
  Grail& grail = env.grail(name);
  size_t iterations = 0;
  for (auto _ : state) {
    for (const QueryPair& q : pairs) {
      auto cost = grail.ShortestPathCost(q.src, q.dst, selectivity);
      if (!cost.ok()) {
        state.SkipWithError(cost.status().ToString().c_str());
        return;
      }
      iterations += grail.last_iterations();
      ::benchmark::DoNotOptimize(cost->has_value());
    }
  }
  state.counters["sql_iterations"] = static_cast<double>(iterations);
  ReportPerQuery(state, pairs.size());
}

void GraphDbSp(::benchmark::State& state, const std::string& name,
               int64_t selectivity, bool titan) {
  BenchEnv& env = BenchEnv::Get();
  const auto& pairs = env.pairs(name, kHops, kQueriesPerConfig, selectivity);
  if (pairs.empty()) {
    state.SkipWithError("no connected pairs in the filtered sub-graph");
    return;
  }
  GraphDbSession session(titan ? &env.titan_sim(name) : &env.neo4j_sim(name));
  for (auto _ : state) {
    for (const QueryPair& q : pairs) {
      std::string query = StrFormat("SPATH %lld %lld USING weight",
                                    static_cast<long long>(q.src),
                                    static_cast<long long>(q.dst));
      if (selectivity >= 0) {
        query += StrFormat(" RANK < %lld",
                           static_cast<long long>(selectivity));
      }
      auto rows = session.Execute(query);
      if (!rows.ok()) {
        state.SkipWithError(rows.status().ToString().c_str());
        return;
      }
      ::benchmark::DoNotOptimize(rows->size());
    }
  }
  ReportPerQuery(state, pairs.size());
}

void RegisterAll() {
  for (const char* name : kDatasetNames) {
    for (int64_t selectivity : {5, 10, 25, 50, -1}) {
      std::string suffix =
          std::string(name) +
          (selectivity < 0 ? "/sel:100" : "/sel:" + std::to_string(selectivity));
      ::benchmark::RegisterBenchmark(
          ("Fig9/GRFusion-SPScan/" + suffix).c_str(),
          [name, selectivity](::benchmark::State& s) {
            GRFusionSp(s, name, selectivity);
          })
          ->Unit(::benchmark::kMillisecond)
          ->MinTime(MinBenchTime());
      ::benchmark::RegisterBenchmark(
          ("Fig9/Grail/" + suffix).c_str(),
          [name, selectivity](::benchmark::State& s) {
            GrailSp(s, name, selectivity);
          })
          ->Unit(::benchmark::kMillisecond)
          ->MinTime(MinBenchTime());
      ::benchmark::RegisterBenchmark(
          ("Fig9/Neo4jSim/" + suffix).c_str(),
          [name, selectivity](::benchmark::State& s) {
            GraphDbSp(s, name, selectivity, false);
          })
          ->Unit(::benchmark::kMillisecond)
          ->MinTime(MinBenchTime());
      ::benchmark::RegisterBenchmark(
          ("Fig9/TitanSim/" + suffix).c_str(),
          [name, selectivity](::benchmark::State& s) {
            GraphDbSp(s, name, selectivity, true);
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
  grfusion::bench::DumpEngineMetrics("BENCH_fig9_metrics.json");
  ::benchmark::Shutdown();
  return 0;
}
