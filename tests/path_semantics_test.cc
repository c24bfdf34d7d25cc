// Property tests for PathScan semantics: on random graphs, the engine's path
// enumeration, reachability, and shortest paths must match brute-force
// reference implementations. Parameterized over seeds/densities (gtest
// TEST_P sweeps).

#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <set>

#include "common/random.h"
#include "common/string_util.h"
#include "engine/database.h"

namespace grfusion {
namespace {

struct RandomGraphSpec {
  uint64_t seed;
  int64_t vertexes;
  int64_t edges;
  bool directed;
};

/// Reference edge list.
struct RefGraph {
  struct Edge {
    int64_t id, src, dst;
    double w;
    int64_t rank;
  };
  std::vector<Edge> edges;
  int64_t n = 0;
  bool directed = true;

  std::vector<std::pair<const Edge*, int64_t>> Neighbors(int64_t v) const {
    std::vector<std::pair<const Edge*, int64_t>> out;
    for (const Edge& e : edges) {
      if (e.src == v) out.emplace_back(&e, e.dst);
      if (!directed && e.dst == v) out.emplace_back(&e, e.src);
    }
    return out;
  }
};

/// Brute-force enumeration of simple paths from `src` of exact length `len`,
/// allowing a final edge to close a cycle back to the start (the engine's
/// cycle-closure rule). Optional uniform edge predicate.
void EnumeratePaths(const RefGraph& g, int64_t v, int64_t src, size_t len,
                    std::vector<int64_t>* vertex_stack,
                    std::vector<int64_t>* edge_stack,
                    const std::function<bool(const RefGraph::Edge&)>& pred,
                    std::set<std::vector<int64_t>>* out) {
  if (edge_stack->size() == len) {
    out->insert(*edge_stack);
    return;
  }
  for (auto [e, nbr] : g.Neighbors(v)) {
    if (pred != nullptr && !pred(*e)) continue;
    if (std::find(edge_stack->begin(), edge_stack->end(), e->id) !=
        edge_stack->end()) {
      continue;
    }
    bool closing = nbr == src && !edge_stack->empty();
    if (!closing && std::find(vertex_stack->begin(), vertex_stack->end(),
                              nbr) != vertex_stack->end()) {
      continue;
    }
    edge_stack->push_back(e->id);
    vertex_stack->push_back(nbr);
    if (closing) {
      // A closing edge ends the path: emit if the length is right.
      if (edge_stack->size() == len) out->insert(*edge_stack);
    } else {
      EnumeratePaths(g, nbr, src, len, vertex_stack, edge_stack, pred, out);
    }
    edge_stack->pop_back();
    vertex_stack->pop_back();
  }
}

std::set<std::vector<int64_t>> ReferencePaths(
    const RefGraph& g, int64_t src, size_t len,
    const std::function<bool(const RefGraph::Edge&)>& pred = nullptr) {
  std::set<std::vector<int64_t>> out;
  std::vector<int64_t> vs{src}, es;
  EnumeratePaths(g, src, src, len, &vs, &es, pred, &out);
  return out;
}

double ReferenceDijkstra(const RefGraph& g, int64_t src, int64_t dst) {
  std::map<int64_t, double> dist;
  using Entry = std::pair<double, int64_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> pq;
  pq.emplace(0.0, src);
  dist[src] = 0.0;
  while (!pq.empty()) {
    auto [d, u] = pq.top();
    pq.pop();
    if (u == dst) return d;
    if (d > dist[u]) continue;
    for (auto [e, nbr] : g.Neighbors(u)) {
      double nd = d + e->w;
      auto it = dist.find(nbr);
      if (it == dist.end() || nd < it->second) {
        dist[nbr] = nd;
        pq.emplace(nd, nbr);
      }
    }
  }
  return -1.0;
}

class PathSemanticsTest : public ::testing::TestWithParam<RandomGraphSpec> {
 protected:
  void SetUp() override {
    const RandomGraphSpec& spec = GetParam();
    Random rng(spec.seed);
    graph_.n = spec.vertexes;
    graph_.directed = spec.directed;

    ASSERT_TRUE(session_.ExecuteScript(R"sql(
      CREATE TABLE v (id BIGINT PRIMARY KEY, name VARCHAR);
      CREATE TABLE e (id BIGINT PRIMARY KEY, src BIGINT, dst BIGINT,
                      w DOUBLE, rank BIGINT);
    )sql")
                    .ok());
    std::vector<std::vector<Value>> vrows;
    for (int64_t i = 0; i < spec.vertexes; ++i) {
      vrows.push_back({Value::BigInt(i), Value::Varchar("v")});
    }
    ASSERT_TRUE(db_.BulkInsert("v", vrows).ok());

    std::set<std::pair<int64_t, int64_t>> used;
    std::vector<std::vector<Value>> erows;
    int64_t id = 0;
    while (id < spec.edges && used.size() <
               static_cast<size_t>(spec.vertexes * (spec.vertexes - 1))) {
      int64_t s = rng.Uniform(0, spec.vertexes - 1);
      int64_t d = rng.Uniform(0, spec.vertexes - 1);
      if (s == d || !used.insert({s, d}).second) continue;
      double w = 0.5 + rng.NextDouble() * 4.0;
      int64_t rank = rng.Uniform(0, 99);
      graph_.edges.push_back(RefGraph::Edge{id, s, d, w, rank});
      erows.push_back({Value::BigInt(id), Value::BigInt(s), Value::BigInt(d),
                       Value::Double(w), Value::BigInt(rank)});
      ++id;
    }
    ASSERT_TRUE(db_.BulkInsert("e", erows).ok());
    ASSERT_TRUE(session_.ExecuteScript(StrFormat(
                      "CREATE %s GRAPH VIEW g "
                      "VERTEXES (ID = id, name = name) FROM v "
                      "EDGES (ID = id, FROM = src, TO = dst, w = w, "
                      "rank = rank) FROM e;",
                      spec.directed ? "DIRECTED" : "UNDIRECTED"))
                    .ok());
  }

  /// Engine path enumeration: edge-id sequences of all paths of length `len`
  /// from `src`, via PathString parsing-free route — we select each edge id
  /// through Edges[i].ID projections.
  std::set<std::vector<int64_t>> EnginePaths(int64_t src, size_t len,
                                             int64_t rank_threshold = -1) {
    std::string select = "SELECT ";
    for (size_t i = 0; i < len; ++i) {
      if (i > 0) select += ", ";
      select += StrFormat("P.Edges[%zu].ID", i);
    }
    std::string sql = select + StrFormat(
        " FROM g.Paths P WHERE P.StartVertex.Id = %lld AND P.Length = %zu",
        static_cast<long long>(src), len);
    if (rank_threshold >= 0) {
      sql += StrFormat(" AND P.Edges[0..*].rank < %lld",
                       static_cast<long long>(rank_threshold));
    }
    auto result = session_.Execute(sql);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    std::set<std::vector<int64_t>> out;
    if (!result.ok()) return out;
    for (const auto& row : result->rows) {
      std::vector<int64_t> ids;
      for (const Value& v : row) ids.push_back(v.AsBigInt());
      out.insert(std::move(ids));
    }
    return out;
  }

  Database db_;
  Session session_{db_};
  RefGraph graph_;
};

TEST_P(PathSemanticsTest, EnumerationMatchesBruteForce) {
  for (int64_t src : {0, 1, 2}) {
    for (size_t len : {1, 2, 3}) {
      auto expected = ReferencePaths(graph_, src, len);
      auto actual = EnginePaths(src, len);
      EXPECT_EQ(actual, expected)
          << "src=" << src << " len=" << len << " seed=" << GetParam().seed;
    }
  }
}

TEST_P(PathSemanticsTest, FilteredEnumerationMatchesBruteForce) {
  auto pred = [](const RefGraph::Edge& e) { return e.rank < 50; };
  for (int64_t src : {0, 3}) {
    auto expected = ReferencePaths(graph_, src, 2, pred);
    auto actual = EnginePaths(src, 2, 50);
    EXPECT_EQ(actual, expected) << "seed=" << GetParam().seed;
  }
}

TEST_P(PathSemanticsTest, DfsAndBfsProduceSamePathSets) {
  for (auto traversal : {PlannerOptions::Traversal::kDfs,
                         PlannerOptions::Traversal::kBfs}) {
    session_.options().default_traversal = traversal;
    auto paths = EnginePaths(0, 3);
    session_.options().default_traversal = PlannerOptions::Traversal::kDfs;
    auto dfs_paths = EnginePaths(0, 3);
    EXPECT_EQ(paths, dfs_paths);
  }
  session_.options().default_traversal = PlannerOptions::Traversal::kAuto;
}

TEST_P(PathSemanticsTest, PushdownOnOffSameAnswers) {
  session_.options().enable_filter_pushdown = true;
  auto pushed = EnginePaths(1, 3, 60);
  session_.options().enable_filter_pushdown = false;
  auto unpushed = EnginePaths(1, 3, 60);
  session_.options().enable_filter_pushdown = true;
  EXPECT_EQ(pushed, unpushed) << "seed=" << GetParam().seed;
}

TEST_P(PathSemanticsTest, ShortestPathMatchesDijkstra) {
  for (int64_t src : {0, 1}) {
    for (int64_t dst : {4, 5}) {
      if (src == dst) continue;
      double expected = ReferenceDijkstra(graph_, src, dst);
      auto result = session_.Execute(StrFormat(
          "SELECT TOP 1 PS.Cost FROM g.Paths PS HINT(SHORTESTPATH(w)) "
          "WHERE PS.StartVertex.Id = %lld AND PS.EndVertex.Id = %lld",
          static_cast<long long>(src), static_cast<long long>(dst)));
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      if (expected < 0) {
        EXPECT_EQ(result->NumRows(), 0u);
      } else {
        ASSERT_EQ(result->NumRows(), 1u);
        EXPECT_NEAR(result->rows[0][0].AsNumeric(), expected, 1e-9)
            << src << "->" << dst << " seed=" << GetParam().seed;
      }
    }
  }
}

TEST_P(PathSemanticsTest, TopKShortestPathsAreSoundAndOrdered) {
  // Sound properties of SPScan's top-k output regardless of k-pruning
  // internals: (1) the first path's cost equals Dijkstra's optimum;
  // (2) costs are emitted in non-decreasing order; (3) every emitted path is
  // a valid simple path whose edge-weight sum equals its reported cost.
  for (int64_t src : {0, 1}) {
    for (int64_t dst : {5, 6}) {
      if (src == dst) continue;
      auto result = session_.Execute(StrFormat(
          "SELECT TOP 3 PS.Cost, SUM(PS.Edges.w) "
          "FROM g.Paths PS HINT(SHORTESTPATH(w)) "
          "WHERE PS.StartVertex.Id = %lld AND PS.EndVertex.Id = %lld",
          static_cast<long long>(src), static_cast<long long>(dst)));
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      double reference = ReferenceDijkstra(graph_, src, dst);
      if (reference < 0) {
        EXPECT_EQ(result->NumRows(), 0u);
        continue;
      }
      ASSERT_GE(result->NumRows(), 1u);
      EXPECT_NEAR(result->rows[0][0].AsNumeric(), reference, 1e-9);
      double prev = 0.0;
      for (const auto& row : result->rows) {
        double cost = row[0].AsNumeric();
        EXPECT_GE(cost, prev - 1e-9);     // Non-decreasing emission order.
        EXPECT_NEAR(cost, row[1].AsNumeric(), 1e-9);  // Cost == weight sum.
        prev = cost;
      }
    }
  }
}

TEST_P(PathSemanticsTest, ReachabilityMatchesBfs) {
  // Engine LIMIT-1 reachability (the visited-once fast path) vs. reference.
  auto ref_reachable = [&](int64_t src, int64_t dst) {
    std::set<int64_t> visited{src};
    std::deque<int64_t> frontier{src};
    while (!frontier.empty()) {
      int64_t u = frontier.front();
      frontier.pop_front();
      if (u == dst) return true;
      for (auto [e, nbr] : graph_.Neighbors(u)) {
        if (visited.insert(nbr).second) frontier.push_back(nbr);
      }
    }
    return false;
  };
  for (int64_t src : {0, 2}) {
    for (int64_t dst : {5, 7}) {
      if (src == dst) continue;
      auto result = session_.Execute(StrFormat(
          "SELECT PS.PathString FROM g.Paths PS WHERE PS.StartVertex.Id = "
          "%lld AND PS.EndVertex.Id = %lld LIMIT 1",
          static_cast<long long>(src), static_cast<long long>(dst)));
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(result->NumRows() > 0, ref_reachable(src, dst))
          << src << "->" << dst << " seed=" << GetParam().seed;
    }
  }
}

// --- Parallel-executor ordering semantics -------------------------------
//
// Morsel-driven traversal must never change what a query means:
//  * SPScan / TOP k keeps its exact serial emission sequence (the parallel
//    k-way merge reproduces the (cost, vertexes, edges) total order);
//  * DFS/BFS full enumerations keep the same multiset of paths;
//  * LIMIT without ORDER BY is planned serial, so its prefix is stable.

TEST_P(PathSemanticsTest, ParallelEnumerationMatchesSerialMultiset) {
  const std::string sql =
      "SELECT P.StartVertex.Id, P.PathString FROM g.Paths P "
      "WHERE P.Length <= 3";
  auto run = [&](size_t parallelism) {
    session_.options().max_parallelism = parallelism;
    session_.options().parallel_min_rows = 1;
    session_.options().parallel_min_starts = 1;
    auto result = session_.Execute(sql);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    std::multiset<std::string> out;
    for (const auto& row : result->rows) {
      out.insert(row[0].ToString() + "|" + row[1].AsVarchar());
    }
    return out;
  };
  for (auto traversal : {PlannerOptions::Traversal::kDfs,
                         PlannerOptions::Traversal::kBfs}) {
    session_.options().default_traversal = traversal;
    auto serial = run(1);
    auto parallel = run(4);
    EXPECT_EQ(serial, parallel) << "seed=" << GetParam().seed;
  }
  session_.options().default_traversal = PlannerOptions::Traversal::kAuto;
  session_.options().max_parallelism = 0;
  session_.options().parallel_min_rows = 2048;
  session_.options().parallel_min_starts = 8;
}

TEST_P(PathSemanticsTest, ParallelTopKShortestPathsKeepSerialOrder) {
  // Single-start and multi-start (unbound) shortest-path scans: the parallel
  // run must emit the exact serial sequence, row for row.
  const std::vector<std::string> queries = {
      "SELECT TOP 4 PS.Cost, PS.PathString FROM g.Paths PS "
      "HINT(SHORTESTPATH(w)) WHERE PS.StartVertex.Id = 0 "
      "AND PS.EndVertex.Id = 5",
      "SELECT TOP 4 PS.Cost, PS.PathString FROM g.Paths PS "
      "HINT(SHORTESTPATH(w)) WHERE PS.EndVertex.Id = 4"};
  auto run = [&](const std::string& sql, size_t parallelism) {
    session_.options().max_parallelism = parallelism;
    session_.options().parallel_min_rows = 1;
    session_.options().parallel_min_starts = 1;
    auto result = session_.Execute(sql);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    std::vector<std::string> out;
    for (const auto& row : result->rows) {
      out.push_back(row[0].ToString() + "|" + row[1].AsVarchar());
    }
    return out;
  };
  for (const std::string& sql : queries) {
    auto serial = run(sql, 1);
    auto parallel = run(sql, 4);
    EXPECT_EQ(serial, parallel) << sql << " seed=" << GetParam().seed;
    // Determinism across repeated parallel runs, not just one lucky draw.
    EXPECT_EQ(parallel, run(sql, 4)) << sql;
  }
  session_.options().max_parallelism = 0;
  session_.options().parallel_min_rows = 2048;
  session_.options().parallel_min_starts = 8;
}

TEST_P(PathSemanticsTest, LimitWithoutOrderByIsStableUnderParallelism) {
  // The planner marks DFS/BFS probes with LIMIT as not parallel-safe, so the
  // emitted prefix must be byte-identical at any parallelism setting.
  const std::string sql =
      "SELECT P.PathString FROM g.Paths P WHERE P.Length <= 2 LIMIT 5";
  auto run = [&](size_t parallelism) {
    session_.options().max_parallelism = parallelism;
    session_.options().parallel_min_rows = 1;
    session_.options().parallel_min_starts = 1;
    auto result = session_.Execute(sql);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    std::vector<std::string> out;
    for (const auto& row : result->rows) out.push_back(row[0].AsVarchar());
    return out;
  };
  auto serial = run(1);
  for (int repeat = 0; repeat < 3; ++repeat) {
    EXPECT_EQ(run(4), serial) << "seed=" << GetParam().seed;
  }
  session_.options().max_parallelism = 0;
  session_.options().parallel_min_rows = 2048;
  session_.options().parallel_min_starts = 8;
}

TEST_P(PathSemanticsTest, ExplainAnalyzeReportsParallelFanOut) {
  session_.options().max_parallelism = 4;
  session_.options().parallel_min_rows = 1;
  session_.options().parallel_min_starts = 1;
  auto result = session_.Execute(
      "EXPLAIN ANALYZE SELECT P.StartVertex.Id, P.PathString "
      "FROM g.Paths P HINT(DFS) WHERE P.Length <= 2");
  session_.options().max_parallelism = 0;
  session_.options().parallel_min_rows = 2048;
  session_.options().parallel_min_starts = 8;
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  std::string plan;
  for (const auto& row : result->rows) plan += row[0].AsVarchar() + "\n";
  // The probe operator reports how many probes fanned out and the per-worker
  // morsel/path/time breakdown.
  EXPECT_NE(plan.find("parallel_probes="), std::string::npos) << plan;
  EXPECT_NE(plan.find("workers=["), std::string::npos) << plan;
  EXPECT_NE(plan.find("morsels="), std::string::npos) << plan;
}

TEST_P(PathSemanticsTest, ParallelMinStartsKnobDisablesProbeFanOut) {
  // Probe eligibility is governed by parallel_min_starts directly (no hidden
  // clamp): raising it above the start count keeps every probe on the serial
  // scanner even though parallelism stays enabled for scans and builds.
  auto plan_for = [&](size_t min_starts) {
    session_.options().max_parallelism = 4;
    session_.options().parallel_min_rows = 1;
    session_.options().parallel_min_starts = min_starts;
    auto result = session_.Execute(
        "EXPLAIN ANALYZE SELECT P.PathString FROM g.Paths P HINT(DFS) "
        "WHERE P.Length <= 2");
    session_.options().max_parallelism = 0;
    session_.options().parallel_min_rows = 2048;
    session_.options().parallel_min_starts = 8;
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    std::string plan;
    if (result.ok()) {
      for (const auto& row : result->rows) plan += row[0].AsVarchar() + "\n";
    }
    return plan;
  };
  EXPECT_EQ(plan_for(1 << 20).find("parallel_probes="), std::string::npos);
  EXPECT_NE(plan_for(1).find("parallel_probes="), std::string::npos);
}

TEST_P(PathSemanticsTest, TinyMemoryCapFallsBackToSerialUnderParallelism) {
  // Parallel scans materialize passing rows and parallel SPScan buffers
  // per-morsel runs — both charge against the query's remaining budget as
  // they build. A cap too small for those buffers must not fail a query that
  // streams fine serially: the fan-out aborts with ResourceExhausted during
  // the build (never after allocating past the cap) and execution falls back
  // to the serial path.
  const std::string scan_sql = "SELECT V.ID FROM g.Vertexes V WHERE V.ID >= 0";
  const std::string sp_sql =
      "SELECT TOP 4 PS.Cost, PS.PathString FROM g.Paths PS "
      "HINT(SHORTESTPATH(w)) WHERE PS.EndVertex.Id = 4";
  auto run = [&](const std::string& sql, size_t parallelism,
                 size_t cap) -> StatusOr<std::multiset<std::string>> {
    session_.options().max_parallelism = parallelism;
    session_.options().parallel_min_rows = 1;
    session_.options().parallel_min_starts = 1;
    session_.options().memory_cap = cap;
    auto result = session_.Execute(sql);
    session_.options().max_parallelism = 0;
    session_.options().parallel_min_rows = 2048;
    session_.options().parallel_min_starts = 8;
    session_.options().memory_cap = QueryContext::kDefaultMemoryCap;
    if (!result.ok()) return result.status();
    std::multiset<std::string> rows;
    for (const auto& row : result->rows) {
      std::string key;
      for (const Value& v : row) key += v.ToString() + "|";
      rows.insert(key);
    }
    return rows;
  };

  // Scan shape: the serial path streams and never materializes, so it works
  // at ANY cap — a cap far below the parallel buffer size must therefore
  // never fail the query, only push it back onto the serial path.
  auto serial_scan = run(scan_sql, 1, QueryContext::kDefaultMemoryCap);
  ASSERT_TRUE(serial_scan.ok()) << serial_scan.status().ToString();
  auto tiny_scan = run(scan_sql, 4, /*cap=*/16);
  ASSERT_TRUE(tiny_scan.ok()) << tiny_scan.status().ToString();
  EXPECT_EQ(*serial_scan, *tiny_scan) << "seed=" << GetParam().seed;

  // Probe shape: serial SPScan enforces the cap on its own frontier, so only
  // caps the serial run survives are in scope. At every such cap the
  // parallel run — whose per-morsel run buffers can need strictly more — must
  // also succeed (via serial fallback when the fan-out does not fit) and
  // emit identical rows.
  for (size_t cap : {size_t{512}, size_t{2048}, size_t{8192},
                     QueryContext::kDefaultMemoryCap}) {
    auto serial = run(sp_sql, 1, cap);
    if (!serial.ok()) continue;  // Cap too small even for serial traversal.
    auto parallel = run(sp_sql, 4, cap);
    ASSERT_TRUE(parallel.ok())
        << "cap=" << cap << ": " << parallel.status().ToString();
    EXPECT_EQ(*serial, *parallel)
        << sp_sql << " cap=" << cap << " seed=" << GetParam().seed;
  }
}

TEST_P(PathSemanticsTest, FrontierBfsMatchesPerPathBfs) {
  // The level-synchronous frontier kernel must reproduce the per-path BFS
  // engine's emission order exactly (not just the multiset): both process
  // whole depth levels in FIFO order. Compare ordered row sequences with the
  // kernel forced on (frontier_min_batch = 1) vs forced off. The per-path
  // side runs with probe fan-out enabled, so every host exercises the same
  // code: multi-source BFS must stay serial there.
  session_.options().default_traversal = PlannerOptions::Traversal::kBfs;
  auto run = [&](bool frontier, const std::string& sql) {
    session_.options().enable_frontier_bfs = frontier;
    session_.options().frontier_min_batch = 1;
    session_.options().max_parallelism = frontier ? 0 : 4;
    session_.options().parallel_min_starts = frontier ? 8 : 1;
    auto result = session_.Execute(sql);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    std::vector<std::string> out;
    if (result.ok()) {
      for (const auto& row : result->rows) {
        std::string key;
        for (const Value& v : row) key += v.ToString() + "|";
        out.push_back(std::move(key));
      }
    }
    return out;
  };
  const std::vector<std::string> queries = {
      "SELECT P.PathString FROM g.Paths P WHERE P.Length <= 3",
      "SELECT P.PathString FROM g.Paths P "
      "WHERE P.StartVertex.Id = 0 AND P.Length = 3",
      "SELECT P.PathString FROM g.Paths P "
      "WHERE P.Length <= 2 AND P.Edges[0..*].rank < 60",
      "SELECT P.PathString FROM g.Paths P WHERE P.Length <= 3 LIMIT 4",
      "SELECT P.PathString FROM g.Paths P "
      "WHERE P.StartVertex.Id = 0 AND P.EndVertex.Id = 4 LIMIT 1",
  };
  for (const std::string& sql : queries) {
    EXPECT_EQ(run(true, sql), run(false, sql))
        << sql << " seed=" << GetParam().seed;
  }
  session_.options().default_traversal = PlannerOptions::Traversal::kAuto;
  session_.options().enable_frontier_bfs = true;
  session_.options().frontier_min_batch = 32;
  session_.options().max_parallelism = 0;
  session_.options().parallel_min_starts = 8;
}

TEST_P(PathSemanticsTest, FrontierBfsStableUnderParallelism) {
  // Unlike the per-path fan-out (which the planner must disable for LIMIT
  // and visited-once plans), the frontier kernel's deterministic level merge
  // makes results byte-identical at any worker count — including the
  // reachability fast path and bare-LIMIT queries.
  session_.options().default_traversal = PlannerOptions::Traversal::kBfs;
  session_.options().frontier_min_batch = 1;
  auto run = [&](size_t parallelism, const std::string& sql) {
    session_.options().max_parallelism = parallelism;
    session_.options().parallel_min_rows = 1;
    session_.options().parallel_min_starts = 1;
    auto result = session_.Execute(sql);
    session_.options().max_parallelism = 0;
    session_.options().parallel_min_rows = 2048;
    session_.options().parallel_min_starts = 8;
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    std::vector<std::string> out;
    if (result.ok()) {
      for (const auto& row : result->rows) {
        std::string key;
        for (const Value& v : row) key += v.ToString() + "|";
        out.push_back(std::move(key));
      }
    }
    return out;
  };
  const std::vector<std::string> queries = {
      "SELECT P.PathString FROM g.Paths P WHERE P.Length <= 3",
      "SELECT P.PathString FROM g.Paths P WHERE P.Length <= 3 LIMIT 5",
      "SELECT P.PathString FROM g.Paths P "
      "WHERE P.StartVertex.Id = 0 AND P.EndVertex.Id = 4 LIMIT 1",
  };
  for (const std::string& sql : queries) {
    auto serial = run(1, sql);
    for (int repeat = 0; repeat < 3; ++repeat) {
      EXPECT_EQ(run(4, sql), serial) << sql << " seed=" << GetParam().seed;
    }
  }
  session_.options().default_traversal = PlannerOptions::Traversal::kAuto;
  session_.options().frontier_min_batch = 32;
}

TEST_P(PathSemanticsTest, FrontierKernelShowsInPlanAndKnobDisablesIt) {
  session_.options().default_traversal = PlannerOptions::Traversal::kBfs;
  auto plan_for = [&](bool enabled, size_t min_batch) {
    session_.options().enable_frontier_bfs = enabled;
    session_.options().frontier_min_batch = min_batch;
    auto result = session_.Execute(
        "EXPLAIN SELECT P.PathString FROM g.Paths P WHERE P.Length <= 2");
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    std::string plan;
    if (result.ok()) {
      for (const auto& row : result->rows) plan += row[0].AsVarchar() + "\n";
    }
    return plan;
  };
  EXPECT_NE(plan_for(true, 1).find(", frontier"), std::string::npos);
  EXPECT_EQ(plan_for(false, 1).find(", frontier"), std::string::npos);
  EXPECT_EQ(plan_for(true, 1 << 20).find(", frontier"), std::string::npos);
  session_.options().default_traversal = PlannerOptions::Traversal::kAuto;
  session_.options().enable_frontier_bfs = true;
  session_.options().frontier_min_batch = 32;
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, PathSemanticsTest,
    ::testing::Values(RandomGraphSpec{101, 8, 14, true},
                      RandomGraphSpec{102, 8, 20, true},
                      RandomGraphSpec{103, 10, 16, false},
                      RandomGraphSpec{104, 10, 28, false},
                      RandomGraphSpec{105, 12, 30, true},
                      RandomGraphSpec{106, 12, 24, false},
                      RandomGraphSpec{107, 6, 12, true},
                      RandomGraphSpec{108, 15, 30, false}),
    [](const ::testing::TestParamInfo<RandomGraphSpec>& info) {
      return StrFormat("seed%llu_%s",
                       static_cast<unsigned long long>(info.param.seed),
                       info.param.directed ? "directed" : "undirected");
    });

}  // namespace
}  // namespace grfusion
