// Property tests for PathScan semantics: on random graphs, the engine's path
// enumeration, reachability, and shortest paths must match brute-force
// reference implementations. Parameterized over seeds/densities (gtest
// TEST_P sweeps).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <functional>
#include <map>
#include <optional>
#include <queue>
#include <set>
#include <thread>
#include <tuple>

#include "common/failpoint.h"
#include "common/random.h"
#include "common/string_util.h"
#include "common/task_pool.h"
#include "engine/database.h"
#include "exec/agg_ops.h"
#include "exec/filter_ops.h"
#include "exec/scan_ops.h"
#include "graphexec/graph_ops.h"
#include "graphexec/path_scanner.h"
#include "parser/parser.h"
#include "plan/planner.h"
#include "bfs_reference.h"
#include "sql_test_util.h"

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

  Database db_{TestOptions()};
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
// Enabling parallelism must never change what a query returns, nor in what
// order: path probes run on the serial scanner at any worker count. So DFS,
// BFS and SPScan probes, with or without LIMIT/TOP, emit the exact serial
// row sequence at max_parallelism 1 and 4.

TEST_P(PathSemanticsTest, ParallelEnumerationMatchesSerialMultiset) {
  // Exact sequence, which implies the multiset the name promises.
  const std::string sql =
      "SELECT P.StartVertex.Id, P.PathString FROM g.Paths P "
      "WHERE P.Length <= 3";
  auto run = [&](size_t parallelism) {
    session_.options().max_parallelism = parallelism;
    session_.options().parallel_min_rows = 1;
    auto result = session_.Execute(sql);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    std::vector<std::string> out;
    for (const auto& row : result->rows) {
      out.push_back(row[0].ToString() + "|" + row[1].AsVarchar());
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
  session_.options().max_parallelism = TestOptions().max_parallelism;
  session_.options().parallel_min_rows = 2048;
}

TEST_P(PathSemanticsTest, ParallelTopKShortestPathsKeepSerialOrder) {
  // Single-start and multi-start (unbound) shortest-path scans: the run at
  // 4 workers must emit the exact serial sequence, row for row, and stop at
  // the k-th path after the same traversal work (the last entry).
  const std::vector<std::string> queries = {
      "SELECT TOP 4 PS.Cost, PS.PathString FROM g.Paths PS "
      "HINT(SHORTESTPATH(w)) WHERE PS.StartVertex.Id = 0 "
      "AND PS.EndVertex.Id = 5",
      "SELECT TOP 4 PS.Cost, PS.PathString FROM g.Paths PS "
      "HINT(SHORTESTPATH(w)) WHERE PS.EndVertex.Id = 4"};
  auto run = [&](const std::string& sql, size_t parallelism) {
    session_.options().max_parallelism = parallelism;
    session_.options().parallel_min_rows = 1;
    auto result = session_.Execute(sql);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    std::vector<std::string> out;
    for (const auto& row : result->rows) {
      out.push_back(row[0].ToString() + "|" + row[1].AsVarchar());
    }
    const ExecStats& stats = session_.last_stats();
    out.push_back(StrFormat(
        "edges_examined=%llu paths_emitted=%llu",
        static_cast<unsigned long long>(stats.edges_examined),
        static_cast<unsigned long long>(stats.paths_emitted)));
    return out;
  };
  for (const std::string& sql : queries) {
    auto serial = run(sql, 1);
    auto parallel = run(sql, 4);
    EXPECT_EQ(serial, parallel) << sql << " seed=" << GetParam().seed;
    // Determinism across repeated parallel runs, not just one lucky draw.
    EXPECT_EQ(parallel, run(sql, 4)) << sql;
  }
  session_.options().max_parallelism = TestOptions().max_parallelism;
  session_.options().parallel_min_rows = 2048;
}

TEST_P(PathSemanticsTest, LimitWithoutOrderByIsStableUnderParallelism) {
  // Probes run on the serial scanner at any worker count, so the prefix a
  // bare LIMIT keeps must be byte-identical at any parallelism setting.
  const std::string sql =
      "SELECT P.PathString FROM g.Paths P WHERE P.Length <= 2 LIMIT 5";
  auto run = [&](size_t parallelism) {
    session_.options().max_parallelism = parallelism;
    session_.options().parallel_min_rows = 1;
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
  session_.options().max_parallelism = TestOptions().max_parallelism;
  session_.options().parallel_min_rows = 2048;
}

TEST_P(PathSemanticsTest, TinyMemoryCapFallsBackToSerialUnderParallelism) {
  // Parallel scans materialize passing rows, charging the query's remaining
  // budget as they build. A cap too small for that buffer must not fail a
  // query that streams fine serially: the fan-out aborts with
  // ResourceExhausted during the build (never after allocating past the cap)
  // and execution falls back to the serial path.
  const std::string scan_sql = "SELECT V.ID FROM g.Vertexes V WHERE V.ID >= 0";
  const std::string sp_sql =
      "SELECT TOP 4 PS.Cost, PS.PathString FROM g.Paths PS "
      "HINT(SHORTESTPATH(w)) WHERE PS.EndVertex.Id = 4";
  auto run = [&](const std::string& sql, size_t parallelism,
                 size_t cap) -> StatusOr<std::multiset<std::string>> {
    session_.options().max_parallelism = parallelism;
    session_.options().parallel_min_rows = 1;
    session_.options().memory_cap = cap;
    auto result = session_.Execute(sql);
    session_.options().max_parallelism = TestOptions().max_parallelism;
    session_.options().parallel_min_rows = 2048;
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

  // Probe shape: SPScan enforces the cap on its own arena, so only caps the
  // serial run survives are in scope. At every such cap the run with
  // parallelism enabled must also succeed and emit identical rows.
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
  // Every BFScan, iterative deepening and the visited-once forest alike,
  // must emit exactly the rows of the per-path copy-prefix BFS reference,
  // in its order (not just the multiset): LIMIT k keeps its prefix.
  session_.options().default_traversal = PlannerOptions::Traversal::kBfs;
  std::vector<int64_t> all;
  for (int64_t v = 0; v < graph_.n; ++v) all.push_back(v);
  const RefAdjacency adj =
      ViewAdjacencyOf(*db_.catalog().FindGraphView("g"), all);
  std::map<int64_t, const RefGraph::Edge*> by_id;
  for (const RefGraph::Edge& e : graph_.edges) by_id[e.id] = &e;

  struct Case {
    std::string where;
    BfsRefQuery ref;
  };
  std::vector<Case> cases(6);
  cases[0].where = "P.Length <= 3";
  cases[0].ref.starts = all;
  cases[0].ref.max_len = 3;
  cases[1].where = "P.StartVertex.Id = 0 AND P.Length = 3";
  cases[1].ref.starts = {0};
  cases[1].ref.min_len = cases[1].ref.max_len = 3;
  cases[2].where = "P.Length <= 2 AND P.Edges[0..*].rank < 60";
  cases[2].ref.starts = all;
  cases[2].ref.max_len = 2;
  cases[2].ref.edge_ok = [&](int64_t e) { return by_id.at(e)->rank < 60; };
  cases[3].where = "P.Length <= 3 LIMIT 4";
  cases[3].ref.starts = all;
  cases[3].ref.max_len = 3;
  cases[3].ref.limit = 4;
  cases[4].where = "P.StartVertex.Id = 0 AND P.EndVertex.Id = 4 LIMIT 1";
  cases[4].ref.starts = {0};
  cases[4].ref.target = 4;
  cases[4].ref.visited_once = true;
  cases[4].ref.limit = 1;
  cases[5].where = "P.Length <= 3 AND SUM(P.Edges.w) < 5";
  cases[5].ref.starts = all;
  cases[5].ref.max_len = 3;
  cases[5].ref.w_op = CompareOp::kLt;
  cases[5].ref.w_bound = 5;
  cases[5].ref.weight = [&](int64_t e) { return by_id.at(e)->w; };
  for (const Case& c : cases) {
    const std::string sql =
        "SELECT P.StartVertex.Id, P.PathString FROM g.Paths P WHERE " +
        c.where;
    auto result = session_.Execute(sql);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    std::vector<std::string> rows;
    for (const auto& row : result->rows) {
      rows.push_back(row[0].ToString() + "|" + row[1].ToString() + "|");
    }
    EXPECT_EQ(rows, BfsReference(adj, c.ref))
        << sql << " seed=" << GetParam().seed;
  }
  session_.options().default_traversal = PlannerOptions::Traversal::kAuto;
}

TEST_P(PathSemanticsTest, FrontierBfsStableUnderParallelism) {
  // BFS probes run on one thread, so results are byte-identical at any
  // worker count, including the reachability fast path and bare-LIMIT
  // queries.
  session_.options().default_traversal = PlannerOptions::Traversal::kBfs;
  auto run = [&](size_t parallelism, const std::string& sql) {
    session_.options().max_parallelism = parallelism;
    session_.options().parallel_min_rows = 1;
    auto result = session_.Execute(sql);
    session_.options().max_parallelism = TestOptions().max_parallelism;
    session_.options().parallel_min_rows = 2048;
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

// ---------------------------------------------------------------------------
// SPScan error and memory invariants
//
// SPScan drops records that can never be expanded at push time. The drops
// must not hide an error the statement would have raised, and the arena's
// records must be charged to the query budget and released on Close.
// ---------------------------------------------------------------------------

class SpScanInvariantTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // 0 -> 2 (1), 0 -> 1 (2), 2 -> 3 (5), 1 -> 2 (NULL), 1 -> 4 (1),
    // 4 -> 3 (9). From 0, SPScan expands 2 before 1, so the NULL-weight edge
    // 1 -> 2 leads into an already-expanded vertex when it is examined.
    ASSERT_TRUE(session_.ExecuteScript(R"sql(
      CREATE TABLE v (id BIGINT PRIMARY KEY);
      CREATE TABLE e (id BIGINT PRIMARY KEY, src BIGINT, dst BIGINT,
                      w DOUBLE);
    )sql")
                    .ok());
    std::vector<std::vector<Value>> vrows;
    for (int64_t i = 0; i < 5; ++i) vrows.push_back({Value::BigInt(i)});
    ASSERT_TRUE(db_.BulkInsert("v", vrows).ok());
    const std::vector<std::tuple<int64_t, int64_t, std::optional<double>>>
        edges = {{0, 2, 1.0}, {0, 1, 2.0},         {2, 3, 5.0},
                 {1, 2, std::nullopt}, {1, 4, 1.0}, {4, 3, 9.0}};
    std::vector<std::vector<Value>> erows;
    int64_t id = 0;
    for (const auto& [src, dst, w] : edges) {
      erows.push_back({Value::BigInt(id++), Value::BigInt(src),
                       Value::BigInt(dst),
                       w.has_value() ? Value::Double(*w) : Value::Null()});
    }
    ASSERT_TRUE(db_.BulkInsert("e", erows).ok());
    ASSERT_TRUE(session_.ExecuteScript(
                    "CREATE DIRECTED GRAPH VIEW g VERTEXES (ID = id) FROM v "
                    "EDGES (ID = id, FROM = src, TO = dst, w = w) FROM e;")
                    .ok());
  }

  /// A TOP 1 SHORTESTPATH(w) spec, as the planner builds it.
  std::shared_ptr<const TraversalSpec> TopOneSpec() {
    auto spec = std::make_shared<TraversalSpec>();
    spec->gv = db_.catalog().FindGraphView("g");
    spec->physical = TraversalSpec::Physical::kShortestPath;
    spec->sp_attr.kind = PathElementKind::kEdges;
    spec->sp_attr.column = spec->gv->ResolveEdgeAttribute("w");
    spec->sp_attr.type = ValueType::kDouble;
    spec->sp_attr.display_name = "w";
    spec->sp_expansion_cap = 1;
    return spec;
  }

  Database db_{TestOptions()};
  Session session_{db_};
};

TEST_F(SpScanInvariantTest, NullWeightIntoExpandedVertexStillFails) {
  // Vertex 2 is already at its expansion cap when 1 -> 2 is examined, so a
  // drop ahead of weight validation would hide the error.
  auto result = session_.Execute(
      "SELECT TOP 1 PS.Cost FROM g.Paths PS HINT(SHORTESTPATH(w)) "
      "WHERE PS.StartVertex.Id = 0 AND PS.EndVertex.Id = 3");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("non-null, non-negative"),
            std::string::npos)
      << result.status().ToString();
}

TEST_F(SpScanInvariantTest, TopOneUnderSmallMemoryCapIsResourceExhausted) {
  const std::string sql =
      "SELECT TOP 1 PS.Cost FROM g.Paths PS HINT(SHORTESTPATH(w)) "
      "WHERE PS.StartVertex.Id = 2 AND PS.EndVertex.Id = 3";
  auto ok = session_.Execute(sql);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  ASSERT_EQ(ok->NumRows(), 1u);
  EXPECT_EQ(ok->rows[0][0].AsNumeric(), 5.0);

  session_.options().memory_cap = 64;
  auto capped = session_.Execute(sql);
  session_.options().memory_cap = QueryContext::kDefaultMemoryCap;
  ASSERT_FALSE(capped.ok());
  EXPECT_EQ(capped.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(SpScanInvariantTest, EachPushedRecordIsCharged) {
  // Reset pushes one root record per start and pops nothing, so the charge
  // after it is exactly the records' bytes, and it scales with the starts.
  QueryContext ctx;
  std::unique_ptr<PathScanner> scanner = MakePathScanner(TopOneSpec(), &ctx);
  ASSERT_TRUE(scanner->Reset({2}, VertexId{3}, nullptr).ok());
  const size_t one_record = ctx.current_bytes();
  EXPECT_GT(one_record, 0u);
  ASSERT_TRUE(scanner->Reset({0, 1, 2, 3, 4}, VertexId{3}, nullptr).ok());
  EXPECT_EQ(ctx.current_bytes(), 5 * one_record);
  scanner->Release();
  EXPECT_EQ(ctx.current_bytes(), 0u);
}

TEST(SpScanMemoryTest, ChargeFollowsExploredRegionNotViewSize) {
  // A 1-hop TOP 1 on a view of 20000 vertexes, under a cap far below any
  // per-vertex table (16 B x V = 320 KB): the probe touches two vertexes,
  // so it must fit.
  Database db(TestOptions());
  Session session(db);
  ASSERT_TRUE(session.ExecuteScript(R"sql(
    CREATE TABLE v (id BIGINT PRIMARY KEY);
    CREATE TABLE e (id BIGINT PRIMARY KEY, src BIGINT, dst BIGINT,
                    w DOUBLE);
  )sql")
                  .ok());
  std::vector<std::vector<Value>> vrows;
  for (int64_t i = 0; i < 20000; ++i) vrows.push_back({Value::BigInt(i)});
  ASSERT_TRUE(db.BulkInsert("v", vrows).ok());
  ASSERT_TRUE(db.BulkInsert("e", {{Value::BigInt(0), Value::BigInt(0),
                                   Value::BigInt(1), Value::Double(1.0)},
                                  {Value::BigInt(1), Value::BigInt(1),
                                   Value::BigInt(2), Value::Double(1.0)}})
                  .ok());
  ASSERT_TRUE(session.ExecuteScript(
                    "CREATE DIRECTED GRAPH VIEW g VERTEXES (ID = id) FROM v "
                    "EDGES (ID = id, FROM = src, TO = dst, w = w) FROM e;")
                  .ok());
  session.options().memory_cap = 16 << 10;
  auto result = session.Execute(
      "SELECT TOP 1 PS.Cost FROM g.Paths PS HINT(SHORTESTPATH(w)) "
      "WHERE PS.StartVertex.Id = 0 AND PS.EndVertex.Id = 1");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->NumRows(), 1u);
  EXPECT_EQ(result->rows[0][0].AsNumeric(), 1.0);
}

TEST_F(SpScanInvariantTest, ArenaBytesReturnToZeroAfterClose) {
  // Release is what PathProbeJoin's Close calls on its scanner.
  {
    QueryContext ctx;
    std::unique_ptr<PathScanner> scanner = MakePathScanner(TopOneSpec(), &ctx);
    ASSERT_TRUE(scanner->Reset({2}, VertexId{3}, nullptr).ok());
    PathPtr path;
    auto has = scanner->Next(&path);
    ASSERT_TRUE(has.ok()) << has.status().ToString();
    ASSERT_TRUE(*has);
    EXPECT_EQ(path->accumulated_cost, 5.0);
    EXPECT_EQ(PathToString(*path), "2 -[2]-> 3");
    EXPECT_GT(ctx.current_bytes(), 0u);
    // Re-arming settles the previous probe's charge before the next one.
    const size_t first = ctx.current_bytes();
    ASSERT_TRUE(scanner->Reset({2}, VertexId{3}, nullptr).ok());
    ASSERT_TRUE(scanner->Next(&path).ok());
    EXPECT_EQ(ctx.current_bytes(), first);
    scanner->Release();
    EXPECT_EQ(ctx.current_bytes(), 0u);
  }
  // The failing probes unwind to zero too.
  {
    QueryContext ctx(/*memory_cap=*/64);
    std::unique_ptr<PathScanner> scanner = MakePathScanner(TopOneSpec(), &ctx);
    ASSERT_TRUE(scanner->Reset({2}, VertexId{3}, nullptr).ok());
    PathPtr path;
    auto has = scanner->Next(&path);
    ASSERT_FALSE(has.ok());
    EXPECT_EQ(has.status().code(), StatusCode::kResourceExhausted);
    scanner->Release();
    EXPECT_EQ(ctx.current_bytes(), 0u);
  }
  {
    QueryContext ctx;
    std::unique_ptr<PathScanner> scanner = MakePathScanner(TopOneSpec(), &ctx);
    ASSERT_TRUE(scanner->Reset({0}, VertexId{3}, nullptr).ok());
    PathPtr path;
    auto has = scanner->Next(&path);
    ASSERT_FALSE(has.ok());
    EXPECT_EQ(has.status().code(), StatusCode::kInvalidArgument);
    scanner->Release();
    EXPECT_EQ(ctx.current_bytes(), 0u);
  }
}

// ---------------------------------------------------------------------------
// SPScan early drop
//
// SPScan drops an edge into a vertex already at its expansion cap before
// the prefix walks and the weight read, but only when the weight column
// holds a valid weight for that edge. In each case below the weight of
// 1 -> 2 decides the statement while vertex 2 is at its cap (the
// SpScanInvariantTest graph), so the statement must fail exactly as the
// full admission pipeline fails it.
// ---------------------------------------------------------------------------

class SpScanEarlyDropTest : public ::testing::Test {
 protected:
  /// The SpScanInvariantTest graph with weight `w12` on 1 -> 2 (edge 3),
  /// inserted after the view was created when `append` is set (the edge then
  /// sits outside the CSR snapshot, so no column cell describes it).
  void Build(std::optional<double> w12, bool append) {
    ASSERT_TRUE(session_.ExecuteScript(R"sql(
      CREATE TABLE v (id BIGINT PRIMARY KEY);
      CREATE TABLE e (id BIGINT PRIMARY KEY, src BIGINT, dst BIGINT,
                      w DOUBLE);
    )sql")
                    .ok());
    std::vector<std::vector<Value>> vrows;
    for (int64_t i = 0; i < 5; ++i) vrows.push_back({Value::BigInt(i)});
    ASSERT_TRUE(db_.BulkInsert("v", vrows).ok());
    const Value w = w12.has_value() ? Value::Double(*w12) : Value::Null();
    const std::vector<std::tuple<int64_t, int64_t, int64_t, Value>> edges = {
        {0, 0, 2, Value::Double(1.0)}, {1, 0, 1, Value::Double(2.0)},
        {2, 2, 3, Value::Double(5.0)}, {3, 1, 2, w},
        {4, 1, 4, Value::Double(1.0)}, {5, 4, 3, Value::Double(9.0)}};
    std::vector<std::vector<Value>> erows;
    for (const auto& [id, src, dst, weight] : edges) {
      if (append && id == 3) continue;
      erows.push_back({Value::BigInt(id), Value::BigInt(src),
                       Value::BigInt(dst), weight});
    }
    ASSERT_TRUE(db_.BulkInsert("e", erows).ok());
    ASSERT_TRUE(session_.ExecuteScript(
                    "CREATE DIRECTED GRAPH VIEW g VERTEXES (ID = id) FROM v "
                    "EDGES (ID = id, FROM = src, TO = dst, w = w) FROM e;")
                    .ok());
    if (append) {
      ASSERT_TRUE(session_
                      .Execute(StrFormat("INSERT INTO e VALUES (3, 1, 2, %s)",
                                         w.ToString().c_str()))
                      .ok());
    }
  }

  /// The length bound keeps the statement off the point-to-point bound
  /// (PointBoundTest), whose pruning would skip the edge 1 -> 2.
  StatusOr<ResultSet> TopOne() {
    return session_.Execute(
        "SELECT TOP 1 PS.Cost FROM g.Paths PS HINT(SHORTESTPATH(w)) "
        "WHERE PS.StartVertex.Id = 0 AND PS.EndVertex.Id = 3 AND "
        "PS.Length <= 10");
  }

  static void ExpectWeightError(const StatusOr<ResultSet>& result) {
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(result.status().message().find("non-null, non-negative"),
              std::string::npos)
        << result.status().ToString();
  }

  Database db_{TestOptions()};
  Session session_{db_};
};

TEST_F(SpScanEarlyDropTest, ValidWeightIntoSettledVertexKeepsTheAnswer) {
  Build(3.0, /*append=*/false);
  auto result = TopOne();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->NumRows(), 1u);
  EXPECT_EQ(result->rows[0][0].AsNumeric(), 6.0);
}

TEST_F(SpScanEarlyDropTest, NegativeWeightIntoSettledVertexFails) {
  Build(-1.0, /*append=*/false);
  ExpectWeightError(TopOne());
}

TEST_F(SpScanEarlyDropTest, NullWeightOnAppendedEdgeIntoSettledVertexFails) {
  Build(std::nullopt, /*append=*/true);
  ExpectWeightError(TopOne());
}

TEST_F(SpScanEarlyDropTest, StaleColumnsAfterAttributeUpdateStillFail) {
  // The first run builds the weight column from a valid 1 -> 2; the UPDATE
  // then makes every column stale, so the column's valid cell must not
  // vouch for the edge's NULL weight.
  Build(3.0, /*append=*/false);
  auto before = TopOne();
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_EQ(before->rows[0][0].AsNumeric(), 6.0);
  ASSERT_TRUE(session_.Execute("UPDATE e SET w = NULL WHERE id = 3").ok());
  EXPECT_TRUE(db_.catalog().FindGraphView("g")->EdgeColumnsStale());
  ExpectWeightError(TopOne());
}

TEST_F(SpScanEarlyDropTest, AttributeUpdateMidProbeStillFails) {
  // The probe resolves the weight column while it is fresh; the UPDATE then
  // lands before the first expansion, which must see the columns stale and
  // read 1 -> 2's tuple (NULL, as a scope-less read sees the newest state).
  Build(3.0, /*append=*/false);
  auto spec = std::make_shared<TraversalSpec>();
  spec->gv = db_.catalog().FindGraphView("g");
  spec->physical = TraversalSpec::Physical::kShortestPath;
  spec->sp_attr.kind = PathElementKind::kEdges;
  spec->sp_attr.column = spec->gv->ResolveEdgeAttribute("w");
  spec->sp_attr.type = ValueType::kDouble;
  spec->sp_attr.display_name = "w";
  spec->sp_expansion_cap = 1;
  QueryContext ctx;
  std::unique_ptr<PathScanner> scanner = MakePathScanner(spec, &ctx);
  ASSERT_TRUE(scanner->Reset({0}, VertexId{3}, nullptr).ok());
  ASSERT_TRUE(session_.Execute("UPDATE e SET w = NULL WHERE id = 3").ok());
  ASSERT_TRUE(spec->gv->EdgeColumnsStale());
  PathPtr path;
  auto has = scanner->Next(&path);
  ASSERT_FALSE(has.ok());
  EXPECT_EQ(has.status().code(), StatusCode::kInvalidArgument)
      << has.status().ToString();
  scanner->Release();
  EXPECT_EQ(ctx.current_bytes(), 0u);
}

// ---------------------------------------------------------------------------
// BFS forest: early emission and memory
//
// The visited-once BFS forest qualifies each claim as it is made, so a
// LIMIT 1 reach probe stops at its target's claim, and it keeps per-vertex
// state in pages charged on first touch, so a probe's charge follows the
// region it explores.
// ---------------------------------------------------------------------------

/// A directed view g over vertexes 0..n-1 with `edges` (ids in list order).
void MakeForestView(Database* db, Session* session, int64_t n,
                    const std::vector<std::pair<int64_t, int64_t>>& edges) {
  ASSERT_TRUE(session->ExecuteScript(R"sql(
    CREATE TABLE v (id BIGINT PRIMARY KEY);
    CREATE TABLE e (id BIGINT PRIMARY KEY, src BIGINT, dst BIGINT);
  )sql")
                  .ok());
  std::vector<std::vector<Value>> vrows;
  for (int64_t i = 0; i < n; ++i) vrows.push_back({Value::BigInt(i)});
  ASSERT_TRUE(db->BulkInsert("v", vrows).ok());
  std::vector<std::vector<Value>> erows;
  for (const auto& [src, dst] : edges) {
    erows.push_back({Value::BigInt(static_cast<int64_t>(erows.size())),
                     Value::BigInt(src), Value::BigInt(dst)});
  }
  ASSERT_TRUE(db->BulkInsert("e", erows).ok());
  ASSERT_TRUE(session->ExecuteScript(
                    "CREATE DIRECTED GRAPH VIEW g VERTEXES (ID = id) FROM v "
                    "EDGES (ID = id, FROM = src, TO = dst) FROM e;")
                  .ok());
}

/// The EXPLAIN text of `sql`.
std::string ExplainText(Session* session, const std::string& sql) {
  auto plan = session->Execute("EXPLAIN " + sql);
  std::string text;
  if (plan.ok()) {
    for (const auto& row : plan->rows) text += row[0].AsVarchar() + "\n";
  }
  return text;
}

TEST(FrontierEarlyEmitTest, LimitOneStopsAtTheClaim) {
  // 0 -> 1..10 (edges 0..9), then i -> 10 + i (edges 10..19). From 0, the
  // forest claims 1..10 in edge order; expanding 1, 2, 3 claims 11, 12, 13.
  Database db(TestOptions());
  Session session(db);
  std::vector<std::pair<int64_t, int64_t>> edges;
  for (int64_t i = 1; i <= 10; ++i) edges.emplace_back(0, i);
  for (int64_t i = 1; i <= 10; ++i) edges.emplace_back(i, 10 + i);
  MakeForestView(&db, &session, 21, edges);
  session.options().default_traversal = PlannerOptions::Traversal::kBfs;

  struct Case {
    int64_t target;
    const char* path;
    uint64_t edges_examined, vertexes_expanded, max_frontier;
  };
  // Target 3 is claimed by the third edge of level 1: 3 edges examined,
  // 0..3 qualified, a frontier of 1 + 3 (expanding the level whole first
  // examined all 10 edges and noted 1 + 10). Target 13: level 1's 10 edges,
  // then one edge each from 1, 2 and 3 (13, not 20), 0..13 qualified, and
  // the frontier peaks at level 1 plus level 2's 3 claims (not 10 + 10).
  // The length bound keeps the probes one-way (PointBoundTest pins the
  // bounded counts).
  const Case cases[] = {{3, "0 -[2]-> 3", 3, 4, 4},
                        {13, "0 -[2]-> 3 -[12]-> 13", 13, 14, 13}};
  for (const Case& c : cases) {
    const std::string sql = StrFormat(
        "SELECT P.PathString FROM g.Paths P WHERE P.StartVertex.Id = 0 AND "
        "P.EndVertex.Id = %lld AND P.Length <= 20 LIMIT 1",
        static_cast<long long>(c.target));
    SCOPED_TRACE(sql);
    const std::string plan = ExplainText(&session, sql);
    ASSERT_NE(plan.find("visited-once"), std::string::npos) << plan;
    ASSERT_EQ(plan.find("bidir"), std::string::npos) << plan;
    auto result = session.Execute(sql);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->NumRows(), 1u);
    EXPECT_EQ(result->rows[0][0].AsVarchar(), c.path);
    const ExecStats& stats = session.last_stats();
    EXPECT_EQ(stats.edges_examined, c.edges_examined);
    EXPECT_EQ(stats.vertexes_expanded, c.vertexes_expanded);
    EXPECT_EQ(stats.max_frontier, c.max_frontier);
  }
}

TEST(FrontierMemoryTest, ChargeFollowsExploredRegionNotViewSize) {
  // A 1-hop LIMIT 1 reach probe on a view of 20000 vertexes, under a cap far
  // below any per-vertex table (21 B x V = 420 KB): the probe claims two
  // vertexes, so it must fit.
  Database db(TestOptions());
  Session session(db);
  MakeForestView(&db, &session, 20000, {{0, 1}, {1, 2}});
  const std::string sql =
      "SELECT P.PathString FROM g.Paths P WHERE P.StartVertex.Id = 0 AND "
      "P.EndVertex.Id = 1 LIMIT 1";
  const std::string plan = ExplainText(&session, sql);
  ASSERT_NE(plan.find("BFScan"), std::string::npos) << plan;
  ASSERT_NE(plan.find("visited-once"), std::string::npos) << plan;
  session.options().memory_cap = 16 << 10;
  auto result = session.Execute(sql);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->NumRows(), 1u);
  EXPECT_EQ(result->rows[0][0].AsVarchar(), "0 -[0]-> 1");
}

TEST(FrontierMemoryTest, ForestPagesChargeOnFirstClaimAndRelease) {
  // Two probes on one scanner: the second claims a vertex in a page the
  // first never touched, and a third repeats the first. Each re-arm settles
  // the previous probe's pages, and Release returns every byte.
  Database db(TestOptions());
  Session session(db);
  MakeForestView(&db, &session, 20000, {{0, 1}, {1, 2}, {0, 12345}});
  auto spec = std::make_shared<TraversalSpec>();
  spec->gv = db.catalog().FindGraphView("g");
  spec->physical = TraversalSpec::Physical::kBfs;
  spec->global_visited = true;
  QueryContext ctx;
  std::unique_ptr<PathScanner> scanner = MakePathScanner(spec, &ctx);

  auto probe = [&](VertexId target) {
    EXPECT_TRUE(scanner->Reset({0}, target, nullptr).ok());
    PathPtr path;
    auto has = scanner->Next(&path);
    EXPECT_TRUE(has.ok() && *has);
    return has.ok() && *has ? PathToString(*path) : std::string();
  };
  EXPECT_EQ(probe(1), "0 -[0]-> 1");
  const size_t near = ctx.current_bytes();
  EXPECT_GT(near, 0u);
  EXPECT_LT(near, size_t{16} << 10);
  // Vertex 12345 sits in another page: one more page charged.
  EXPECT_EQ(probe(12345), "0 -[2]-> 12345");
  const size_t far = ctx.current_bytes();
  EXPECT_GT(far, near);
  EXPECT_EQ(probe(1), "0 -[0]-> 1");
  EXPECT_EQ(ctx.current_bytes(), near);
  scanner->Release();
  EXPECT_EQ(ctx.current_bytes(), 0u);
}

// ---------------------------------------------------------------------------
// BFScan as iterative deepening, and the forest on overlay views
//
// A BFScan without visited-once search re-runs the DFS hop stack once per
// length (DfsScanner). It must end on unbounded lengths, stop at the first
// pass that holds a LIMIT's rows, and keep the stack's memory. The
// visited-once forest must answer on views with a delta overlay, including
// vertexes outside the CSR snapshot.
// ---------------------------------------------------------------------------

/// Pulls `sql` as "<start>|<PathString>|" rows (the reference's format).
std::vector<std::string> StartAndPathRows(Session* session,
                                          const std::string& sql) {
  auto result = session->Execute(sql);
  EXPECT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
  std::vector<std::string> rows;
  if (result.ok()) {
    for (const auto& row : result->rows) {
      rows.push_back(row[0].ToString() + "|" + row[1].ToString() + "|");
    }
  }
  return rows;
}

std::vector<int64_t> Iota(int64_t n) {
  std::vector<int64_t> out;
  for (int64_t i = 0; i < n; ++i) out.push_back(i);
  return out;
}

TEST(BfsDeepeningTest, UnboundedChainEndsAndLimitStopsAtItsPass) {
  // A 200-vertex directed ring: the chain 0 -> 1 -> ... -> 199 (edge i is
  // i -> i+1) and the back edge 199 -> 0 (edge 199).
  Database db(TestOptions());
  Session session(db);
  std::vector<std::pair<int64_t, int64_t>> edges;
  for (int64_t i = 0; i < 200; ++i) edges.emplace_back(i, (i + 1) % 200);
  MakeForestView(&db, &session, 200, edges);
  const RefAdjacency adj =
      ViewAdjacencyOf(*db.catalog().FindGraphView("g"), Iota(200));

  // No length bound: pass d emits the one path of length d, and pass 200
  // its closing cycle, which has nothing to deepen, so the probe ends.
  const std::string unbounded =
      "SELECT P.StartVertex.Id, P.PathString FROM g.Paths P HINT(BFS) "
      "WHERE P.StartVertex.Id = 0";
  BfsRefQuery ref;
  ref.starts = {0};
  const std::vector<std::string> expected = BfsReference(adj, ref);
  ASSERT_EQ(expected.size(), 200u);
  EXPECT_EQ(StartAndPathRows(&session, unbounded), expected);
  const std::string analyzed = ExplainText(&session, "ANALYZE " + unbounded);
  EXPECT_NE(analyzed.find("BFScan"), std::string::npos) << analyzed;
  EXPECT_NE(analyzed.find(" passes=200"), std::string::npos) << analyzed;

  // LIMIT 250 from every start: pass 1 emits the 200 one-edge paths, each
  // after one edge (its root's); pass 2 emits 50 more, each after two.
  // Nothing is examined past the 250th row: 200 + 2 x 50 edges, and 400 +
  // 3 x 50 records popped.
  const std::string limited =
      "SELECT P.StartVertex.Id, P.PathString FROM g.Paths P HINT(BFS) "
      "LIMIT 250";
  ref.starts = Iota(200);
  ref.limit = 250;
  EXPECT_EQ(StartAndPathRows(&session, limited), BfsReference(adj, ref));
  EXPECT_EQ(session.last_stats().edges_examined, 300u);
  EXPECT_EQ(session.last_stats().vertexes_expanded, 550u);
  EXPECT_NE(ExplainText(&session, "ANALYZE " + limited).find(" passes=2"),
            std::string::npos);
}

TEST(BfsDeepeningTest, HubProbeRunsInTheStacksMemory) {
  // Hub 0 with 200 spokes, each linked both ways to the hub and to the next
  // spoke. A per-path BFS queue held the 200 one-edge paths at once (17.6
  // KB) and failed this cap; iterative deepening keeps the DFS stack.
  Database db(TestOptions());
  Session session(db);
  constexpr int64_t kSpokes = 200;
  std::vector<std::pair<int64_t, int64_t>> edges;
  for (int64_t i = 1; i <= kSpokes; ++i) {
    edges.emplace_back(0, i);
    edges.emplace_back(i, 0);
    edges.emplace_back(i, i % kSpokes + 1);
  }
  MakeForestView(&db, &session, kSpokes + 1, edges);
  session.options().memory_cap = 16 << 10;
  const std::string from =
      " WHERE P.StartVertex.Id = 0 AND P.Length <= 3";
  const std::string bfs =
      "SELECT P.StartVertex.Id, P.PathString FROM g.Paths P HINT(BFS)" + from;
  BfsRefQuery ref;
  ref.starts = {0};
  ref.max_len = 3;
  const std::vector<std::string> expected = BfsReference(
      ViewAdjacencyOf(*db.catalog().FindGraphView("g"), Iota(kSpokes + 1)),
      ref);
  ASSERT_EQ(expected.size(), 1000u);
  EXPECT_EQ(StartAndPathRows(&session, bfs), expected);
  const size_t bfs_peak = session.last_peak_bytes();
  auto dfs = session.Execute(
      "SELECT P.StartVertex.Id, P.PathString FROM g.Paths P HINT(DFS)" + from);
  ASSERT_TRUE(dfs.ok()) << dfs.status().ToString();
  EXPECT_GT(bfs_peak, 0u);
  EXPECT_LE(bfs_peak, session.last_peak_bytes());
}

TEST(FrontierOverlayTest, ReachAfterEdgeAndVertexInsert) {
  // 0 -> 1 -> 2 -> 3. Inserts land in the view's delta overlay: the edge
  // 0 -> 3 shortens the reach, and the vertex 500 sits outside the CSR
  // snapshot (an overflow index), as a target and as a start.
  Database db(TestOptions());
  Session session(db);
  MakeForestView(&db, &session, 4, {{0, 1}, {1, 2}, {2, 3}});
  GraphView* gv = db.catalog().FindGraphView("g");
  auto probe = [&](int64_t from, int64_t to) {
    const std::string sql = StrFormat(
        "SELECT P.StartVertex.Id, P.PathString FROM g.Paths P HINT(BFS) "
        "WHERE P.StartVertex.Id = %lld AND P.EndVertex.Id = %lld LIMIT 1",
        static_cast<long long>(from), static_cast<long long>(to));
    SCOPED_TRACE(sql);
    ASSERT_FALSE(gv->PureCsr());
    ASSERT_NE(ExplainText(&session, sql).find("visited-once"),
              std::string::npos);
    BfsRefQuery ref;
    ref.starts = {from};
    ref.target = to;
    ref.visited_once = true;
    ref.limit = 1;
    const std::vector<std::string> expected =
        BfsReference(ViewAdjacencyOf(*gv, {0, 1, 2, 3, 500}), ref);
    ASSERT_EQ(expected.size(), 1u);
    for (size_t workers : {size_t{1}, size_t{4}}) {
      session.options().max_parallelism = workers;
      EXPECT_EQ(StartAndPathRows(&session, sql), expected)
          << "workers=" << workers;
    }
  };
  ASSERT_TRUE(session.Execute("INSERT INTO e VALUES (10, 0, 3)").ok());
  probe(0, 3);  // 0 -[10]-> 3
  ASSERT_TRUE(session.Execute("INSERT INTO v VALUES (500)").ok());
  ASSERT_TRUE(
      session.ExecuteScript("INSERT INTO e VALUES (11, 3, 500);"
                            "INSERT INTO e VALUES (12, 500, 1);")
          .ok());
  probe(0, 500);  // 0 -[10]-> 3 -[11]-> 500
  probe(500, 2);  // 500 -[12]-> 1 -[1]-> 2
  probe(500, 500);  // The cycle 500 -> 1 -> 2 -> 3 -> 500.
}

// ---------------------------------------------------------------------------
// DFScan memory and emission invariants
//
// DFScan keeps one-hop stack records and one path buffer, and recycles the
// PathData it last emitted when nobody else holds it. Its records must be
// charged to the query budget and released on Close, and a path a consumer
// still holds must never be overwritten.
// ---------------------------------------------------------------------------

// ---------------------------------------------------------------------------
// Point-to-point bound
//
// A single-probe LIMIT/TOP 1 statement with a bound start and target runs a
// bidirectional bound, then its kernel over the vertexes that can lie on
// the answer (DESIGN.md §14, §16). The row must be the one-way kernel's, bit
// for bit; every statement outside the rules must run the one-way kernel
// with its statuses unchanged; the bound must stop on a deadline and fail
// under a tight memory cap.
// ---------------------------------------------------------------------------

class PointBoundTest : public ::testing::Test {
 protected:
  /// Directed view `name` over vertexes 0..5 from edge table `name`_e with
  /// weight w (edge id = list position):
  ///   0 -> 1 (0.1), 1 -> 2 (0.2), 0 -> 2 (0.3), 2 -> 3 (1.0),
  ///   0 -> 4 (0.5), 4 -> 3 (`w43`), 3 -> 5 (0.0), 5 -> 0 (1.0).
  /// 0 ~> 3 costs 0.3 + 1.0 through 2, and (0.1 + 0.2) + 1.0, one unit in
  /// the last place more, through 1 and 2: equal in real arithmetic.
  void MakeView(const std::string& name, const Value& w43) {
    ASSERT_TRUE(session_
                    .ExecuteScript(StrFormat(
                        "CREATE TABLE %s_v (id BIGINT PRIMARY KEY);"
                        "CREATE TABLE %s_e (id BIGINT PRIMARY KEY, src BIGINT, "
                        "dst BIGINT, w DOUBLE);",
                        name.c_str(), name.c_str()))
                    .ok());
    std::vector<std::vector<Value>> vrows;
    for (int64_t i = 0; i < 6; ++i) vrows.push_back({Value::BigInt(i)});
    ASSERT_TRUE(db_.BulkInsert(name + "_v", vrows).ok());
    const std::vector<std::tuple<int64_t, int64_t, Value>> edges = {
        {0, 1, Value::Double(0.1)}, {1, 2, Value::Double(0.2)},
        {0, 2, Value::Double(0.3)}, {2, 3, Value::Double(1.0)},
        {0, 4, Value::Double(0.5)}, {4, 3, w43},
        {3, 5, Value::Double(0.0)}, {5, 0, Value::Double(1.0)}};
    std::vector<std::vector<Value>> erows;
    for (const auto& [src, dst, w] : edges) {
      erows.push_back({Value::BigInt(static_cast<int64_t>(erows.size())),
                       Value::BigInt(src), Value::BigInt(dst), w});
    }
    ASSERT_TRUE(db_.BulkInsert(name + "_e", erows).ok());
    ASSERT_TRUE(session_
                    .ExecuteScript(StrFormat(
                        "CREATE DIRECTED GRAPH VIEW %s VERTEXES (ID = id) "
                        "FROM %s_v EDGES (ID = id, FROM = src, TO = dst, "
                        "w = w) FROM %s_e;",
                        name.c_str(), name.c_str(), name.c_str()))
                    .ok());
  }

  void SetUp() override { MakeView("g", Value::Double(0.9)); }

  /// SPScan from `s` to `t` on `view`, with `extra` conjuncts.
  static std::string Shortest(int64_t s, int64_t t, const char* extra = "",
                              const char* view = "g") {
    return StrFormat(
        "SELECT TOP 1 PS.Cost, PS.PathString FROM %s.Paths PS "
        "HINT(SHORTESTPATH(w)) WHERE PS.StartVertex.Id = %lld AND "
        "PS.EndVertex.Id = %lld%s",
        view, static_cast<long long>(s), static_cast<long long>(t), extra);
  }

  Database db_{TestOptions()};
  Session session_{db_};
};

TEST_F(PointBoundTest, BoundedRowsEqualOneWayRowsBitForBit) {
  // Every ordered pair: the bounded statement against the same statement
  // with a length bound, which keeps it one-way.
  for (int64_t s = 0; s < 6; ++s) {
    for (int64_t t = 0; t < 6; ++t) {
      if (s == t) continue;
      const std::string sql = Shortest(s, t);
      const std::string one_way = Shortest(s, t, " AND PS.Length <= 10");
      SCOPED_TRACE(sql);
      ASSERT_NE(ExplainText(&session_, sql).find("SPScan(bidir)"),
                std::string::npos);
      ASSERT_EQ(ExplainText(&session_, one_way).find("bidir"),
                std::string::npos);
      auto expected = session_.Execute(one_way);
      ASSERT_TRUE(expected.ok()) << expected.status().ToString();
      EXPECT_EQ(session_.last_stats().bound_edges, 0u);
      auto got = session_.Execute(sql);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_GT(session_.last_stats().bound_edges, 0u);
      ASSERT_EQ(got->NumRows(), expected->NumRows());
      if (got->NumRows() == 0) continue;
      EXPECT_EQ(std::bit_cast<uint64_t>(got->rows[0][0].AsDouble()),
                std::bit_cast<uint64_t>(expected->rows[0][0].AsDouble()));
      EXPECT_EQ(got->rows[0][1].AsVarchar(), expected->rows[0][1].AsVarchar());
    }
  }
  // The tie: 0.3 + 1.0 beats (0.1 + 0.2) + 1.0 in floating point.
  auto tie = session_.Execute(Shortest(0, 3));
  ASSERT_TRUE(tie.ok());
  EXPECT_EQ(tie->rows[0][1].AsVarchar(), "0 -[2]-> 2 -[3]-> 3");
  EXPECT_EQ(tie->rows[0][0].AsDouble(), 0.3 + 1.0);
}

TEST_F(PointBoundTest, UnreachableTargetReturnsAfterTheBound) {
  // 0 <-> 1 and 2 -> 3 are apart: the bound proves 3 unreachable from 0,
  // and the kernel examines no edge.
  ASSERT_TRUE(session_.ExecuteScript(R"sql(
    CREATE TABLE u_v (id BIGINT PRIMARY KEY);
    CREATE TABLE u_e (id BIGINT PRIMARY KEY, src BIGINT, dst BIGINT,
                      w DOUBLE);
    INSERT INTO u_v VALUES (0), (1), (2), (3);
    INSERT INTO u_e VALUES (0, 0, 1, 1.0), (1, 1, 0, 1.0), (2, 2, 3, 1.0);
    CREATE DIRECTED GRAPH VIEW u VERTEXES (ID = id) FROM u_v
      EDGES (ID = id, FROM = src, TO = dst, w = w) FROM u_e;
  )sql")
                  .ok());
  session_.options().default_traversal = PlannerOptions::Traversal::kBfs;
  const std::string statements[] = {
      Shortest(0, 3, "", "u"),
      "SELECT P.PathString FROM u.Paths P WHERE P.StartVertex.Id = 0 AND "
      "P.EndVertex.Id = 3 LIMIT 1"};
  for (const std::string& sql : statements) {
    SCOPED_TRACE(sql);
    ASSERT_NE(ExplainText(&session_, sql).find("bidir"), std::string::npos);
    auto result = session_.Execute(sql);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->NumRows(), 0u);
    const ExecStats& stats = session_.last_stats();
    EXPECT_GT(stats.bound_edges, 0u);
    EXPECT_EQ(stats.edges_examined, stats.bound_edges);
    EXPECT_EQ(stats.vertexes_expanded, 0u);
  }
}

TEST_F(PointBoundTest, ForestSkipsVertexesOffTheShortestPaths) {
  // The FrontierEarlyEmitTest view: 0 -> 1..10 (edges 0..9), i -> 10 + i
  // (edges 10..19). To 13 the bound walks 13's one in-edge, then 3's (it
  // meets 0): 2 edges, 2 hops. The forest then claims only 3 at level 1
  // (1, 2 and 4..10 are 2 hops from 13 at best) after its 10 edges, and
  // 13 from 3: 11 edges, and 0, 3 and 13 qualified.
  Database db(TestOptions());
  Session session(db);
  std::vector<std::pair<int64_t, int64_t>> edges;
  for (int64_t i = 1; i <= 10; ++i) edges.emplace_back(0, i);
  for (int64_t i = 1; i <= 10; ++i) edges.emplace_back(i, 10 + i);
  MakeForestView(&db, &session, 21, edges);
  session.options().default_traversal = PlannerOptions::Traversal::kBfs;
  const std::string sql =
      "SELECT P.PathString FROM g.Paths P WHERE P.StartVertex.Id = 0 AND "
      "P.EndVertex.Id = 13 LIMIT 1";
  ASSERT_NE(ExplainText(&session, sql).find("BFScan(visited-once, bidir)"),
            std::string::npos);
  auto result = session.Execute(sql);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->NumRows(), 1u);
  EXPECT_EQ(result->rows[0][0].AsVarchar(), "0 -[2]-> 3 -[12]-> 13");
  const ExecStats& stats = session.last_stats();
  EXPECT_EQ(stats.bound_edges, 2u);
  EXPECT_EQ(stats.edges_examined, 2u + 11u);
  EXPECT_EQ(stats.vertexes_expanded, 3u);
  const std::string analyzed = ExplainText(&session, "ANALYZE " + sql);
  EXPECT_NE(analyzed.find("bound_edges=2"), std::string::npos) << analyzed;
}

TEST_F(PointBoundTest, StatementsOutsideTheRulesRunOneWay) {
  struct Case {
    std::string sql;
    bool planned;  ///< The planner's rules hold (the run-time ones fail).
    size_t rows;
  };
  const Case cases[] = {
      // The target is the start: a cycle back to 0.
      {Shortest(0, 0), true, 1},
      // Every vertex starts.
      {"SELECT TOP 1 PS.Cost FROM g.Paths PS HINT(SHORTESTPATH(w)) WHERE "
       "PS.EndVertex.Id = 3",
       false, 1},
      // A join probes once per outer row.
      {"SELECT TOP 1 V.id, PS.Cost FROM g_v V, g.Paths PS "
       "HINT(SHORTESTPATH(w)) WHERE PS.StartVertex.Id = V.id AND "
       "PS.EndVertex.Id = 3",
       false, 1},
      // TOP 2 reads a second path.
      {StrFormat("SELECT TOP 2 PS.Cost FROM g.Paths PS HINT(SHORTESTPATH(w)) "
                 "WHERE PS.StartVertex.Id = 0 AND PS.EndVertex.Id = 3"),
       false, 2},
      // A length bound, and a residual filter.
      {Shortest(0, 3, " AND PS.Length <= 3"), false, 1},
      {Shortest(0, 3, " AND PS.PathString <> 'x'"), false, 1},
      // The BFS forest's target is its start.
      {"SELECT P.PathString FROM g.Paths P HINT(BFS) WHERE "
       "P.StartVertex.Id = 0 AND P.EndVertex.Id = 0 LIMIT 1",
       true, 1},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.sql);
    EXPECT_EQ(ExplainText(&session_, c.sql).find("bidir") != std::string::npos,
              c.planned);
    auto result = session_.Execute(c.sql);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->NumRows(), c.rows);
    EXPECT_EQ(session_.last_stats().bound_edges, 0u);
  }
  auto cycle = session_.Execute(Shortest(0, 0));
  ASSERT_TRUE(cycle.ok());
  EXPECT_EQ(cycle->rows[0][1].AsVarchar(),
            "0 -[2]-> 2 -[3]-> 3 -[6]-> 5 -[7]-> 0");
}

TEST_F(PointBoundTest, NullAndNegativeWeightsFailAsOneWay) {
  // Vertex 4 is settled before 3, so 4 -> 3 is read either way.
  MakeView("gn", Value::Double(-1.0));
  MakeView("gz", Value::Null());
  for (const char* view : {"gn", "gz"}) {
    const std::string sql = Shortest(0, 3, "", view);
    const std::string one_way = Shortest(0, 3, " AND PS.Length <= 10", view);
    SCOPED_TRACE(sql);
    ASSERT_NE(ExplainText(&session_, sql).find("SPScan(bidir)"),
              std::string::npos);
    auto expected = session_.Execute(one_way);
    ASSERT_FALSE(expected.ok());
    auto got = session_.Execute(sql);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(got.status().ToString(), expected.status().ToString());
  }
}

TEST_F(PointBoundTest, DeltaOverlayAfterInsertRunsOneWay) {
  // An edge inserted since the snapshot: the view is no longer pure CSR.
  ASSERT_TRUE(session_.Execute("INSERT INTO g_e VALUES (8, 0, 3, 0.25)").ok());
  auto result = session_.Execute(Shortest(0, 3));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->NumRows(), 1u);
  EXPECT_EQ(result->rows[0][1].AsVarchar(), "0 -[8]-> 3");
  EXPECT_EQ(session_.last_stats().bound_edges, 0u);
  session_.options().default_traversal = PlannerOptions::Traversal::kBfs;
  auto reach = session_.Execute(
      "SELECT P.PathString FROM g.Paths P WHERE P.StartVertex.Id = 0 AND "
      "P.EndVertex.Id = 3 LIMIT 1");
  ASSERT_TRUE(reach.ok()) << reach.status().ToString();
  ASSERT_EQ(reach->NumRows(), 1u);
  EXPECT_EQ(reach->rows[0][0].AsVarchar(), "0 -[8]-> 3");
  EXPECT_EQ(session_.last_stats().bound_edges, 0u);
}

/// A point-to-point spec on view `gv`: SPScan over `w`, or the forest.
std::shared_ptr<TraversalSpec> PointSpec(const GraphView* gv,
                                         bool shortest) {
  auto spec = std::make_shared<TraversalSpec>();
  spec->gv = gv;
  spec->point_to_point = true;
  if (shortest) {
    spec->physical = TraversalSpec::Physical::kShortestPath;
    spec->sp_attr.kind = PathElementKind::kEdges;
    spec->sp_attr.column = gv->ResolveEdgeAttribute("w");
    spec->sp_attr.type = ValueType::kDouble;
    spec->sp_attr.display_name = "w";
    spec->sp_expansion_cap = 1;
  } else {
    spec->physical = TraversalSpec::Physical::kBfs;
    spec->global_visited = true;
  }
  return spec;
}

TEST_F(PointBoundTest, DeadlineStopsTheBound) {
  for (bool shortest : {true, false}) {
    SCOPED_TRACE(shortest ? "SPScan" : "forest");
    CancellationToken token;
    token.SetTimeoutUs(0);
    QueryContext ctx;
    ctx.set_cancellation(&token);
    std::unique_ptr<PathScanner> scanner = MakePathScanner(
        PointSpec(db_.catalog().FindGraphView("g"), shortest), &ctx);
    const Status status = scanner->Reset({0}, VertexId{3}, nullptr);
    EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded)
        << status.ToString();
    scanner->Release();
    EXPECT_EQ(ctx.current_bytes(), 0u);
  }
}

TEST_F(PointBoundTest, TightMemoryCapFailsTheBound) {
  // A 4,000-vertex chain: the two searches meet in the middle after
  // touching about 60 pages of 64 vertexes, far past an 8 KB cap.
  Database db(TestOptions());
  Session session(db);
  std::vector<std::pair<int64_t, int64_t>> edges;
  for (int64_t i = 0; i + 1 < 4000; ++i) edges.emplace_back(i, i + 1);
  MakeForestView(&db, &session, 4000, edges);
  QueryContext ctx(size_t{8} << 10);
  std::unique_ptr<PathScanner> scanner = MakePathScanner(
      PointSpec(db.catalog().FindGraphView("g"), /*shortest=*/false), &ctx);
  const Status status = scanner->Reset({0}, VertexId{3999}, nullptr);
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted)
      << status.ToString();
  EXPECT_NE(status.message().find("point-to-point bound"), std::string::npos)
      << status.ToString();
  scanner->Release();
  EXPECT_EQ(ctx.current_bytes(), 0u);
}

class DfsScanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // A complete directed graph on 5 vertexes, edge weight 1.
    ASSERT_TRUE(session_.ExecuteScript(R"sql(
      CREATE TABLE v (id BIGINT PRIMARY KEY);
      CREATE TABLE e (id BIGINT PRIMARY KEY, src BIGINT, dst BIGINT,
                      w DOUBLE);
    )sql")
                    .ok());
    std::vector<std::vector<Value>> vrows;
    std::vector<std::vector<Value>> erows;
    for (int64_t i = 0; i < 5; ++i) {
      vrows.push_back({Value::BigInt(i)});
      for (int64_t j = 0; j < 5; ++j) {
        if (i == j) continue;
        erows.push_back({Value::BigInt(static_cast<int64_t>(erows.size())),
                         Value::BigInt(i), Value::BigInt(j),
                         Value::Double(1.0)});
      }
    }
    ASSERT_TRUE(db_.BulkInsert("v", vrows).ok());
    ASSERT_TRUE(db_.BulkInsert("e", erows).ok());
    ASSERT_TRUE(session_.ExecuteScript(
                    "CREATE DIRECTED GRAPH VIEW g VERTEXES (ID = id) FROM v "
                    "EDGES (ID = id, FROM = src, TO = dst, w = w) FROM e;")
                    .ok());
  }

  /// A DFS spec enumerating paths of up to `max_length` edges.
  std::shared_ptr<const TraversalSpec> DfsSpec(size_t max_length) {
    auto spec = std::make_shared<TraversalSpec>();
    spec->gv = db_.catalog().FindGraphView("g");
    spec->physical = TraversalSpec::Physical::kDfs;
    spec->max_length = max_length;
    return spec;
  }

  ResultSet Must(const std::string& sql) {
    auto result = session_.Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status().ToString();
    return result.ok() ? *std::move(result) : ResultSet();
  }

  Database db_{TestOptions()};
  Session session_{db_};
};

TEST_F(DfsScanTest, CountOfPathAliasEqualsCountStar) {
  // COUNT(P) is a non-NULL test over the path slot; it must count exactly
  // the rows COUNT(*) does, for every engine.
  const std::vector<std::pair<std::string, std::string>> probes = {
      {"DFScan",
       "FROM g.Paths P HINT(DFS) WHERE P.StartVertex.Id = 0 AND "
       "P.Length <= 3"},
      {"BFScan",
       "FROM g.Paths P HINT(BFS) WHERE P.StartVertex.Id = 0 AND "
       "P.Length <= 3"},
      {"SPScan",
       "FROM g.Paths P HINT(SHORTESTPATH(w)) WHERE P.StartVertex.Id = 0 AND "
       "P.EndVertex.Id = 3 AND P.Length <= 3"},
  };
  for (const auto& [engine, from] : probes) {
    SCOPED_TRACE(from);
    ResultSet plan = Must("EXPLAIN SELECT COUNT(P) " + from);
    std::string plan_text;
    for (const auto& row : plan.rows) plan_text += row[0].ToString() + "\n";
    EXPECT_NE(plan_text.find(engine), std::string::npos) << plan_text;
    ResultSet r = Must("SELECT COUNT(P), COUNT(*) " + from);
    ASSERT_EQ(r.NumRows(), 1u);
    EXPECT_GT(r.rows[0][1].AsBigInt(), 0);
    EXPECT_EQ(r.rows[0][0].AsBigInt(), r.rows[0][1].AsBigInt());
  }
}

TEST_F(DfsScanTest, SmallCapIsResourceExhaustedAndReleaseSettles) {
  session_.options().memory_cap = 64;
  auto capped = session_.Execute(
      "SELECT COUNT(*) FROM g.Paths P HINT(DFS) WHERE P.Length <= 3");
  session_.options().memory_cap = QueryContext::kDefaultMemoryCap;
  ASSERT_FALSE(capped.ok());
  EXPECT_EQ(capped.status().code(), StatusCode::kResourceExhausted);

  {
    // Reset keeps one seed per start; each is charged.
    QueryContext ctx;
    std::unique_ptr<PathScanner> scanner = MakePathScanner(DfsSpec(3), &ctx);
    ASSERT_TRUE(scanner->Reset({0}, std::nullopt, nullptr).ok());
    const size_t one_record = ctx.current_bytes();
    EXPECT_GT(one_record, 0u);
    ASSERT_TRUE(scanner->Reset({0, 1, 2}, std::nullopt, nullptr).ok());
    EXPECT_EQ(ctx.current_bytes(), 3 * one_record);
    PathPtr path;
    for (int i = 0; i < 5; ++i) {
      auto has = scanner->Next(&path);
      ASSERT_TRUE(has.ok() && *has);
    }
    EXPECT_GT(ctx.current_bytes(), 0u);
    scanner->Release();
    EXPECT_EQ(ctx.current_bytes(), 0u);
  }
  {
    QueryContext ctx(/*memory_cap=*/64);
    std::unique_ptr<PathScanner> scanner = MakePathScanner(DfsSpec(3), &ctx);
    ASSERT_TRUE(scanner->Reset({0}, std::nullopt, nullptr).ok());
    PathPtr path;
    auto has = scanner->Next(&path);
    ASSERT_FALSE(has.ok());
    EXPECT_EQ(has.status().code(), StatusCode::kResourceExhausted);
    scanner->Release();
    EXPECT_EQ(ctx.current_bytes(), 0u);
  }
}

TEST_F(DfsScanTest, HeldPathIsNeverOverwritten) {
  // Pull every path twice: once holding each PathPtr to the end (every
  // emission must then be a fresh object), once rendering and dropping each
  // at once (the scanner may then refill its last path in place). Both
  // must see the same sequence, and no held path may change under later
  // pulls.
  auto pull_all = [&](bool hold) {
    QueryContext ctx;
    std::unique_ptr<PathScanner> scanner = MakePathScanner(DfsSpec(2), &ctx);
    EXPECT_TRUE(scanner->Reset({0, 1}, std::nullopt, nullptr).ok());
    std::vector<PathPtr> held;
    std::vector<std::string> texts;
    while (true) {
      PathPtr path;
      auto has = scanner->Next(&path);
      EXPECT_TRUE(has.ok());
      if (!has.ok() || !*has) break;
      texts.push_back(PathToString(*path));
      if (hold) held.push_back(std::move(path));
    }
    if (hold) {
      for (size_t i = 0; i < held.size(); ++i) {
        EXPECT_EQ(PathToString(*held[i]), texts[i]) << "path " << i;
      }
    }
    scanner->Release();
    EXPECT_EQ(ctx.current_bytes(), 0u);
    return texts;
  };
  const std::vector<std::string> held = pull_all(/*hold=*/true);
  const std::vector<std::string> dropped = pull_all(/*hold=*/false);
  EXPECT_EQ(held, dropped);
  ASSERT_FALSE(held.empty());
  EXPECT_EQ(std::set<std::string>(held.begin(), held.end()).size(),
            held.size());
}

TEST_F(DfsScanTest, OrderByKeepsEveryPath) {
  // Sort holds every row's path handle until it emits; recycling must not
  // overwrite any of them.
  const std::string base =
      "SELECT P.PathString, P.Length FROM g.Paths P HINT(DFS) WHERE "
      "P.StartVertex.Id = 0 AND P.Length <= 3";
  ResultSet plain = Must(base);
  ResultSet sorted = Must(base + " ORDER BY P.Length DESC");
  std::vector<std::vector<Value>> expected = plain.rows;
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) {
                     return a[1].AsBigInt() > b[1].AsBigInt();
                   });
  ASSERT_EQ(sorted.NumRows(), expected.size());
  ASSERT_GT(sorted.NumRows(), 0u);
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(sorted.rows[i][0].AsVarchar(), expected[i][0].AsVarchar())
        << "row " << i;
  }
  std::set<std::string> distinct;
  for (const auto& row : sorted.rows) distinct.insert(row[0].AsVarchar());
  EXPECT_EQ(distinct.size(), sorted.NumRows());
}

// ---------------------------------------------------------------------------
// Flat edge-attribute columns
//
// Traversals read numeric edge attributes from flat columns aligned with the
// CSR slots, and from the tuple for everything a column cannot describe.
// Answers and error statuses must be those of the tuple reads;
// last_stats().attr_tuple_reads shows which path served them.
// ---------------------------------------------------------------------------

class EdgeColumnTest : public ::testing::Test {
 protected:
  static constexpr int64_t kTwo53 = int64_t{1} << 53;

  void SetUp() override {
    // 0 -> 1 (w 1, tag 2^53+1), 0 -> 2 (w 4, tag 2^53), 1 -> 3 (w 1),
    // 2 -> 3 (w 1), 3 -> 4 (w 2), 4 -> 0 (w 9). The two tags collapse to
    // one double. The in-side slot order (by head vertex) differs from the
    // out-side order, so a misaligned in-side read shows.
    ASSERT_TRUE(session_.ExecuteScript(R"sql(
      CREATE TABLE v (id BIGINT PRIMARY KEY);
      CREATE TABLE e (id BIGINT PRIMARY KEY, src BIGINT, dst BIGINT,
                      w DOUBLE, tag BIGINT);
      CREATE TABLE pad (id BIGINT);
    )sql")
                    .ok());
    std::vector<std::vector<Value>> vrows;
    for (int64_t i = 0; i < 5; ++i) vrows.push_back({Value::BigInt(i)});
    ASSERT_TRUE(db_.BulkInsert("v", vrows).ok());
    const std::vector<std::tuple<int64_t, int64_t, double, int64_t>> edges = {
        {0, 1, 1.0, kTwo53 + 1}, {0, 2, 4.0, kTwo53}, {1, 3, 1.0, 7},
        {2, 3, 1.0, 7},          {3, 4, 2.0, 7},      {4, 0, 9.0, 7}};
    std::vector<std::vector<Value>> erows;
    for (const auto& [src, dst, w, tag] : edges) {
      erows.push_back({Value::BigInt(static_cast<int64_t>(erows.size())),
                       Value::BigInt(src), Value::BigInt(dst),
                       Value::Double(w), Value::BigInt(tag)});
    }
    ASSERT_TRUE(db_.BulkInsert("e", erows).ok());
    ASSERT_TRUE(session_.ExecuteScript(R"sql(
      CREATE DIRECTED GRAPH VIEW g VERTEXES (ID = id) FROM v
        EDGES (ID = id, FROM = src, TO = dst, w = w, tag = tag) FROM e;
      CREATE UNDIRECTED GRAPH VIEW gu VERTEXES (ID = id) FROM v
        EDGES (ID = id, FROM = src, TO = dst, w = w, tag = tag) FROM e;
    )sql")
                    .ok());
  }

  ResultSet Must(const std::string& sql) {
    auto result = session_.Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status().ToString();
    return result.ok() ? *std::move(result) : ResultSet();
  }

  /// Rows as "col|col|" strings.
  std::vector<std::string> Rows(const std::string& sql) {
    std::vector<std::string> out;
    for (const auto& row : Must(sql).rows) {
      std::string line;
      for (const Value& v : row) line += v.ToString() + "|";
      out.push_back(std::move(line));
    }
    return out;
  }

  uint64_t TupleReads() const {
    return session_.last_stats().attr_tuple_reads;
  }

  /// Commits enough changes to cross the engine's maintenance batch, so the
  /// commit boundary folds every view.
  void CrossMaintenanceBoundary() {
    std::vector<std::vector<Value>> rows(128, {Value::BigInt(0)});
    ASSERT_TRUE(db_.BulkInsert("pad", rows).ok());
  }

  Database db_{TestOptions()};
  Session session_{db_};
};

TEST_F(EdgeColumnTest, BigIntBeyondDoublePrecisionMatchesOnlyItsEdge) {
  EXPECT_EQ(Rows("SELECT P.PathString FROM g.Paths P WHERE "
                 "P.StartVertex.Id = 0 AND P.Length = 1 AND "
                 "P.Edges[0..*].tag = 9007199254740993"),
            std::vector<std::string>{"0 -[0]-> 1|"});
  EXPECT_EQ(TupleReads(), 0u) << "the pushed predicate read tuples";
  EXPECT_EQ(Rows("SELECT P.PathString FROM g.Paths P WHERE "
                 "P.StartVertex.Id = 0 AND P.Length = 1 AND "
                 "P.Edges[0..*].tag = 9007199254740992"),
            std::vector<std::string>{"0 -[1]-> 2|"});
  EXPECT_EQ(TupleReads(), 0u);
  EXPECT_GT(db_.catalog().FindGraphView("g")->AttrBytes(), 0u);
}

TEST_F(EdgeColumnTest, NullAndNegativeWeightsFailAsBefore) {
  ASSERT_TRUE(session_.ExecuteScript(R"sql(
    CREATE TABLE bad (id BIGINT PRIMARY KEY, src BIGINT, dst BIGINT,
                      w DOUBLE, cost BIGINT);
    INSERT INTO bad VALUES (0, 0, 1, NULL, 3), (1, 1, 2, -1.0, -3),
                           (2, 0, 2, 1.0, 1);
    CREATE DIRECTED GRAPH VIEW gb VERTEXES (ID = id) FROM v
      EDGES (ID = id, FROM = src, TO = dst, w = w, cost = cost) FROM bad;
  )sql")
                  .ok());
  const char* kStatements[] = {
      // NULL DOUBLE weight out of the start.
      "SELECT TOP 1 PS.Cost FROM gb.Paths PS HINT(SHORTESTPATH(w)) "
      "WHERE PS.StartVertex.Id = 0 AND PS.EndVertex.Id = 1",
      // Negative DOUBLE and BIGINT weights.
      "SELECT TOP 1 PS.Cost FROM gb.Paths PS HINT(SHORTESTPATH(w)) "
      "WHERE PS.StartVertex.Id = 1 AND PS.EndVertex.Id = 2",
      "SELECT TOP 1 PS.Cost FROM gb.Paths PS HINT(SHORTESTPATH(cost)) "
      "WHERE PS.StartVertex.Id = 1 AND PS.EndVertex.Id = 2",
  };
  for (const char* sql : kStatements) {
    auto result = session_.Execute(sql);
    ASSERT_FALSE(result.ok()) << sql;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << sql;
    EXPECT_EQ(result.status().message(),
              "SHORTESTPATH requires a non-null, non-negative edge attribute")
        << sql;
  }
  // The failures came from the columns, not from a missing build.
  EXPECT_GT(db_.catalog().FindGraphView("gb")->AttrBytes(), 0u);
  // NULL sums as nothing under a pushed bound, as the tuple read does.
  EXPECT_EQ(Rows("SELECT PS.PathString FROM gb.Paths PS WHERE "
                 "PS.StartVertex.Id = 0 AND PS.Length = 1 AND "
                 "SUM(PS.Edges.w) < 0.5"),
            std::vector<std::string>{"0 -[0]-> 1|"});
  EXPECT_EQ(TupleReads(), 0u);
}

TEST_F(EdgeColumnTest, UndirectedViewReadsInSideSlots) {
  // From 3, every first hop runs against an edge's direction (in-side
  // slots) except 3 -> 4.
  EXPECT_EQ(Rows("SELECT TOP 3 PS.Cost, PS.PathString FROM gu.Paths PS "
                 "HINT(SHORTESTPATH(w)) WHERE PS.StartVertex.Id = 3 AND "
                 "PS.EndVertex.Id = 0"),
            (std::vector<std::string>{"2|3 -[2]-> 1 -[0]-> 0|",
                                      "5|3 -[3]-> 2 -[1]-> 0|",
                                      "11|3 -[4]-> 4 -[5]-> 0|"}));
  EXPECT_EQ(TupleReads(), 0u);
  EXPECT_EQ(Rows("SELECT P.PathString FROM gu.Paths P WHERE "
                 "P.StartVertex.Id = 1 AND P.Length = 1 AND "
                 "P.Edges[0..*].tag = 9007199254740993"),
            std::vector<std::string>{"1 -[0]-> 0|"});
  EXPECT_EQ(TupleReads(), 0u);
  // The undirected column holds both sides; the directed one only out.
  ASSERT_TRUE(
      session_.Execute("SELECT TOP 1 PS.Cost FROM g.Paths PS "
                       "HINT(SHORTESTPATH(w)) WHERE PS.StartVertex.Id = 0 "
                       "AND PS.EndVertex.Id = 4")
          .ok());
  EXPECT_GT(db_.catalog().FindGraphView("gu")->AttrBytes(),
            db_.catalog().FindGraphView("g")->AttrBytes());
}

TEST_F(EdgeColumnTest, EdgeInsertedAfterSnapshotReadsItsTuple) {
  const std::string shortest =
      "SELECT TOP 1 PS.Cost, PS.PathString FROM g.Paths PS "
      "HINT(SHORTESTPATH(w)) WHERE PS.StartVertex.Id = 0 AND "
      "PS.EndVertex.Id = 4";
  EXPECT_EQ(Rows(shortest),
            std::vector<std::string>{"4|0 -[0]-> 1 -[2]-> 3 -[4]-> 4|"});
  EXPECT_EQ(TupleReads(), 0u);

  // The new edge lives in the delta overlay, outside every CSR slot: its
  // weight comes from its tuple, the others still from the column.
  ASSERT_TRUE(
      session_.Execute("INSERT INTO e VALUES (6, 0, 4, 3.5, 7)").ok());
  EXPECT_EQ(Rows(shortest), std::vector<std::string>{"3.5|0 -[6]-> 4|"});
  EXPECT_EQ(TupleReads(), 1u);
  ResultSet analyzed = Must("EXPLAIN ANALYZE " + shortest);
  std::string plan;
  for (const auto& row : analyzed.rows) plan += row[0].AsVarchar() + "\n";
  EXPECT_NE(plan.find("attr_tuple_reads=1"), std::string::npos) << plan;

  // The fold re-snapshots the CSR with the edge in a slot.
  const GraphView* gv = db_.catalog().FindGraphView("g");
  const size_t folds = gv->Folds();
  CrossMaintenanceBoundary();
  ASSERT_GT(gv->Folds(), folds);
  EXPECT_EQ(Rows(shortest), std::vector<std::string>{"3.5|0 -[6]-> 4|"});
  EXPECT_EQ(TupleReads(), 0u);
  analyzed = Must("EXPLAIN ANALYZE " + shortest);
  plan.clear();
  for (const auto& row : analyzed.rows) plan += row[0].AsVarchar() + "\n";
  EXPECT_EQ(plan.find("attr_tuple_reads"), std::string::npos) << plan;
}

// ---------------------------------------------------------------------------
// Hybrid GROUP BYs
//
// The morsel drain copies an outer row into an aggregate's row once per
// outer row, and an aggregate whose keys read no path resolves its group
// once per outer row. GROUP BYs over the hybrid must still equal a reference
// built from the adjacency, under DFS and BFS, at 1 and 4 workers, whatever
// the keys read, and the interrupt check must still stop the statement.
// ---------------------------------------------------------------------------

class PathRunTest : public ::testing::Test {
 protected:
  struct RefPath {
    int64_t start, end, length;
  };
  /// kPathRunGraphSql's data: vertex i has kind kKinds[i] and score
  /// kScores[i]; edge i is kEdges[i].
  static constexpr const char* kKinds[] = {"a", "b", "a", "c",
                                           "b", "a", "c", "b"};
  static constexpr int64_t kScores[] = {5, 3, 9, 1, 7, 2, 8, 4};
  static constexpr std::pair<int64_t, int64_t> kEdges[] = {
      {0, 1}, {0, 3}, {1, 3}, {1, 4}, {3, 0}, {3, 6},
      {4, 7}, {6, 1}, {7, 4}, {6, 2}, {4, 5}};

  void SetUp() override {
    ASSERT_TRUE(session_.ExecuteScript(kPathRunGraphSql).ok());
  }

  /// Every path of 1..2 edges (edge-simple; vertex-simple except a final
  /// edge back to the start), by start vertex in the outer scan's order.
  static std::vector<RefPath> Reference() {
    std::vector<RefPath> out;
    for (int64_t s = 0; s < 8; ++s) {
      for (size_t i = 0; i < std::size(kEdges); ++i) {
        if (kEdges[i].first != s) continue;
        const int64_t a = kEdges[i].second;
        out.push_back({s, a, 1});
        for (size_t j = 0; j < std::size(kEdges); ++j) {
          if (j != i && kEdges[j].first == a && kEdges[j].second != a) {
            out.push_back({s, kEdges[j].second, 2});
          }
        }
      }
    }
    return out;
  }

  static std::string Render(const std::vector<Value>& row) {
    std::string out;
    for (const Value& v : row) out += v.ToString() + "|";
    return out;
  }

  using KeyFn = std::function<std::vector<Value>(const RefPath&)>;

  /// Runs `sql`, which selects (keys..., COUNT(*), SUM(P.Length),
  /// MAX(P.EndVertex.score)) from `g.Paths P`, and its HINT(BFS) form, at 1
  /// and 4 workers. Each must equal the reference: the paths `keep` admits,
  /// grouped by `key`, groups of at most `min_count` paths dropped. With
  /// `outer_order`, groups must also come in the order their first outer
  /// row was scanned.
  void ExpectGroups(const std::string& sql, const KeyFn& key,
                    const std::function<bool(const RefPath&)>& keep,
                    int64_t min_count, bool outer_order) {
    SCOPED_TRACE(sql);
    struct Agg {
      int64_t count = 0, sum = 0, max = 0;
    };
    std::vector<std::vector<Value>> order;
    std::map<std::string, Agg> groups;
    for (const RefPath& p : Reference()) {
      if (!keep(p)) continue;
      const std::vector<Value> k = key(p);
      auto [it, fresh] = groups.try_emplace(Render(k));
      if (fresh) order.push_back(k);
      it->second.count += 1;
      it->second.sum += p.length;
      it->second.max = std::max(it->second.max, kScores[p.end]);
    }
    std::vector<std::string> expected;
    for (std::vector<Value> k : order) {
      const Agg& a = groups.at(Render(k));
      if (a.count <= min_count) continue;
      k.push_back(Value::BigInt(a.count));
      k.push_back(Value::BigInt(a.sum));
      k.push_back(Value::BigInt(a.max));
      expected.push_back(Render(k));
    }
    ASSERT_FALSE(expected.empty());
    if (!outer_order) std::sort(expected.begin(), expected.end());
    const std::string paths = "g.Paths P ";
    std::string bfs = sql;
    const size_t at = bfs.find(paths);
    ASSERT_NE(at, std::string::npos);
    bfs.insert(at + paths.size(), "HINT(BFS) ");
    for (const std::string& form : {sql, bfs}) {
      SCOPED_TRACE(form);
      std::vector<std::string> serial;
      for (size_t workers : {size_t{1}, size_t{4}}) {
        session_.options().max_parallelism = workers;
        auto result = session_.Execute(form);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        std::vector<std::string> got;
        for (const auto& row : result->rows) got.push_back(Render(row));
        if (workers == 1) {
          serial = got;
        } else {
          EXPECT_EQ(got, serial) << "4 workers differ from 1";
        }
        if (!outer_order) std::sort(got.begin(), got.end());
        EXPECT_EQ(got, expected) << "workers=" << workers;
      }
    }
    session_.options().max_parallelism = TestOptions().max_parallelism;
  }

  Database db_{TestOptions()};
  Session session_{db_};
};

TEST_F(PathRunTest, HybridGroupByMatchesAdjacencyReference) {
  const std::string aggs = "COUNT(*), SUM(P.Length), MAX(P.EndVertex.score)";
  const std::string from =
      " FROM v V, g.Paths P WHERE P.StartVertex.Id = V.id AND P.Length <= 2";
  auto all = [](const RefPath&) { return true; };
  auto start_kind = [](const RefPath& p) {
    return std::vector<Value>{Value::Varchar(kKinds[p.start])};
  };
  // Outer-only keys: one group lookup per outer row.
  ExpectGroups("SELECT V.kind, " + aggs + from + " GROUP BY V.kind",
               start_kind, all, 0, /*outer_order=*/true);
  ExpectGroups("SELECT V.id, " + aggs + from + " GROUP BY V.id",
               [](const RefPath& p) {
                 return std::vector<Value>{Value::BigInt(p.start)};
               },
               all, 0, true);
  // Path-only and mixed keys: resolved per row.
  ExpectGroups("SELECT P.EndVertex.kind, " + aggs + from +
                   " GROUP BY P.EndVertex.kind",
               [](const RefPath& p) {
                 return std::vector<Value>{Value::Varchar(kKinds[p.end])};
               },
               all, 0, false);
  ExpectGroups("SELECT V.kind, P.Length, " + aggs + from +
                   " GROUP BY V.kind, P.Length",
               [](const RefPath& p) {
                 return std::vector<Value>{Value::Varchar(kKinds[p.start]),
                                           Value::BigInt(p.length)};
               },
               all, 0, false);
  // HAVING filters groups above the aggregate.
  ExpectGroups("SELECT V.kind, " + aggs + from +
                   " GROUP BY V.kind HAVING COUNT(*) > 8",
               start_kind, all, 8, true);
  // A residual path predicate that cannot be pushed rejects some of an
  // outer row's paths, including its first.
  ExpectGroups("SELECT V.kind, " + aggs + from +
                   " AND P.EndVertex.score > V.score GROUP BY V.kind",
               start_kind,
               [](const RefPath& p) {
                 return kScores[p.end] > kScores[p.start];
               },
               0, true);
}

TEST_F(PathRunTest, TimeoutAndCancelStopTheHybridMidRun) {
  // A ring with chords: paths of up to 30 edges are far too many to finish.
  ASSERT_TRUE(session_.ExecuteScript(R"sql(
      CREATE TABLE rv (id BIGINT PRIMARY KEY, kind VARCHAR);
      CREATE TABLE re (id BIGINT PRIMARY KEY, src BIGINT, dst BIGINT);
    )sql")
                  .ok());
  constexpr int64_t kRing = 32;
  std::vector<std::vector<Value>> vrows, erows;
  for (int64_t i = 0; i < kRing; ++i) {
    vrows.push_back({Value::BigInt(i), Value::Varchar(i % 2 ? "odd" : "even")});
    for (int64_t step : {1, 3}) {
      erows.push_back({Value::BigInt(static_cast<int64_t>(erows.size())),
                       Value::BigInt(i), Value::BigInt((i + step) % kRing)});
    }
  }
  ASSERT_TRUE(db_.BulkInsert("rv", vrows).ok());
  ASSERT_TRUE(db_.BulkInsert("re", erows).ok());
  ASSERT_TRUE(session_
                  .ExecuteScript("CREATE DIRECTED GRAPH VIEW ring VERTEXES "
                                 "(ID = id) FROM rv EDGES (ID = id, FROM = "
                                 "src, TO = dst) FROM re;")
                  .ok());
  const std::string hybrid =
      "SELECT V.kind, COUNT(*) FROM rv V, ring.Paths P HINT(DFS) WHERE "
      "P.StartVertex.Id = V.id AND P.Length <= 30 GROUP BY V.kind";

  // The 32 outer rows are two morsels: at 4 workers the interrupt lands
  // inside a running morsel, on a pool thread.
  for (size_t workers : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE(workers);
    session_.options().max_parallelism = workers;
    session_.options().statement_timeout_us = 10'000;
    auto timed = session_.Execute(hybrid);
    session_.options().statement_timeout_us = -1;
    ASSERT_FALSE(timed.ok());
    EXPECT_EQ(timed.status().code(), StatusCode::kDeadlineExceeded);

    InterruptHandle handle = session_.interrupt_handle();
    Status status = Status::OK();
    std::atomic<bool> done{false};
    std::thread runner([&] {
      status = session_.Execute(hybrid).status();
      done.store(true);
    });
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!done.load() && std::chrono::steady_clock::now() < deadline) {
      handle.Interrupt();
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    runner.join();
    EXPECT_EQ(status.code(), StatusCode::kCancelled) << status.ToString();
  }
}

// --- Morsel-parallel path aggregation ----------------------------------------

/// A directed ring of kRing vertexes with chords, i -> i+1 and i -> i+3:
/// four 16-row morsels of outer rows (or starts), and a path count that
/// doubles with each hop.
class MorselAggTest : public ::testing::Test {
 protected:
  static constexpr int64_t kRing = 64;

  void SetUp() override {
    ASSERT_TRUE(session_.ExecuteScript(R"sql(
        CREATE TABLE mv (id BIGINT PRIMARY KEY, kind VARCHAR, score BIGINT);
        CREATE TABLE me (id BIGINT PRIMARY KEY, src BIGINT, dst BIGINT);
      )sql")
                    .ok());
    std::vector<std::vector<Value>> vrows, erows;
    for (int64_t i = 0; i < kRing; ++i) {
      vrows.push_back({Value::BigInt(i), Value::Varchar(i % 2 ? "odd" : "even"),
                       Value::BigInt(i % 7)});
      for (int64_t step : {1, 3}) {
        erows.push_back({Value::BigInt(static_cast<int64_t>(erows.size())),
                         Value::BigInt(i), Value::BigInt((i + step) % kRing)});
      }
    }
    ASSERT_TRUE(db_.BulkInsert("mv", vrows).ok());
    ASSERT_TRUE(db_.BulkInsert("me", erows).ok());
    ASSERT_TRUE(session_
                    .ExecuteScript("CREATE DIRECTED GRAPH VIEW mring VERTEXES "
                                   "(ID = id, kind = kind, score = score) "
                                   "FROM mv EDGES (ID = id, FROM = src, TO = "
                                   "dst) FROM me;")
                    .ok());
  }

  void TearDown() override { FailpointRegistry::Global().DisarmAll(); }

  static std::string Hybrid(size_t max_length) {
    return StrFormat(
        "SELECT V.kind, COUNT(*), SUM(P.EndVertex.score) FROM mv V, "
        "mring.Paths P HINT(DFS) WHERE P.StartVertex.Id = V.id AND "
        "P.Length <= %zu GROUP BY V.kind",
        max_length);
  }

  /// Plans `sql` and drives it at `workers` under `cap` with an explicit
  /// context, checking that unwinding left no byte charged.
  StatusOr<std::vector<std::string>> RunPlanned(const std::string& sql,
                                                size_t workers, size_t cap) {
    auto stmt = Parser::ParseSingle(sql);
    if (!stmt.ok()) return stmt.status();
    PlannerOptions options = session_.options();
    options.max_parallelism = workers;
    Planner planner(&db_.catalog(), options);
    auto planned = planner.PlanSelect(std::get<SelectStmt>(*stmt));
    if (!planned.ok()) return planned.status();
    QueryContext ctx(cap);
    if (workers > 1) {
      ctx.set_task_pool(&TaskPool::Shared());
      ctx.set_max_parallelism(workers);
    }
    std::vector<std::string> rows;
    Status status = planned->root->Open(&ctx);
    ExecRow row;
    while (status.ok()) {
      auto has = planned->root->Next(&row);
      if (!has.ok()) status = has.status();
      if (!has.ok() || !*has) break;
      std::string text;
      for (const Value& v : row.columns) text += v.ToString() + "|";
      rows.push_back(std::move(text));
    }
    planned->root->Close();
    EXPECT_EQ(ctx.current_bytes(), 0u) << "cap=" << cap;
    if (!status.ok()) return status;
    return rows;
  }

  Database db_{TestOptions()};
  Session session_{db_};
};

TEST_F(MorselAggTest, SmallCapIsResourceExhaustedAndLeavesNoCharge) {
  // Both shapes, over a sweep of caps: a cap the 1-worker run cannot meet
  // fails at 4 workers too, with ResourceExhausted and nothing left
  // charged; a cap it meets is met at 4 workers with the same rows (four
  // concurrent stacks that do not fit rerun the morsels inline).
  const std::vector<std::string> shapes = {
      Hybrid(6),
      "SELECT COUNT(*), MAX(P.EndVertex.score) FROM mring.Paths P HINT(DFS) "
      "WHERE P.Length <= 6"};
  for (const std::string& sql : shapes) {
    SCOPED_TRACE(sql);
    int failed = 0, succeeded = 0;
    for (size_t cap : {size_t{64}, size_t{512}, size_t{1024}, size_t{1536},
                       size_t{2048}, size_t{4096}, size_t{16384},
                       QueryContext::kDefaultMemoryCap}) {
      SCOPED_TRACE(cap);
      auto serial = RunPlanned(sql, 1, cap);
      auto parallel = RunPlanned(sql, 4, cap);
      if (!serial.ok()) {
        ++failed;
        EXPECT_EQ(serial.status().code(), StatusCode::kResourceExhausted);
        ASSERT_FALSE(parallel.ok());
        EXPECT_EQ(parallel.status().code(), StatusCode::kResourceExhausted);
        continue;
      }
      ++succeeded;
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
      EXPECT_EQ(*parallel, *serial);
    }
    EXPECT_GT(failed, 0);
    EXPECT_GT(succeeded, 0);
  }
}

TEST_F(MorselAggTest, TypedBigintSumOverflowIsOutOfRange) {
  // SUM over a BIGINT endpoint column is read as a typed int64 and added
  // exactly: 2^62 per path overflows on a morsel's second path, and the
  // statement fails with OutOfRange at any worker count, hybrid or not.
  ASSERT_TRUE(session_.Execute("UPDATE mv SET score = 4611686018427387904")
                  .ok());
  for (const std::string& sql :
       {Hybrid(2),
        std::string("SELECT SUM(P.EndVertex.score) FROM mring.Paths P "
                    "HINT(DFS) WHERE P.Length <= 2"),
        std::string("SELECT AVG(P.StartVertex.score) FROM mring.Paths P "
                    "HINT(DFS) WHERE P.Length <= 2")}) {
    for (size_t workers : {size_t{1}, size_t{4}}) {
      SCOPED_TRACE(sql + " workers=" + std::to_string(workers));
      session_.options().max_parallelism = workers;
      auto result = session_.Execute(sql);
      ASSERT_FALSE(result.ok());
      EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange)
          << result.status().ToString();
      EXPECT_NE(result.status().message().find("overflows BIGINT"),
                std::string::npos)
          << result.status().ToString();
    }
  }
  // MIN/MAX over the same column do not add, so they answer.
  session_.options().max_parallelism = 4;
  auto best = session_.Execute(
      "SELECT MIN(P.EndVertex.score), MAX(P.EndVertex.score) FROM "
      "mring.Paths P HINT(DFS) WHERE P.Length <= 2");
  ASSERT_TRUE(best.ok()) << best.status().ToString();
  EXPECT_EQ(best->rows[0][0].AsBigInt(), int64_t{1} << 62);
  EXPECT_EQ(best->rows[0][1].AsBigInt(), int64_t{1} << 62);
}

TEST_F(MorselAggTest, TimedDrainKeepsAnswersAndReportsTimes) {
  // A timed statement (EXPLAIN ANALYZE, or any statement under a slow-query
  // threshold) samples the clock inside the drain instead of reading it per
  // path. Timing must not change an answer at any worker count, and EXPLAIN
  // ANALYZE must still time the probe and the aggregate.
  const std::string multi =
      "SELECT COUNT(*), SUM(P.EndVertex.score) FROM mring.Paths P HINT(DFS) "
      "WHERE P.Length <= 4 AND P.PathString LIKE '%1%'";
  for (const std::string& sql : {Hybrid(4), multi}) {
    for (size_t workers : {size_t{1}, size_t{4}}) {
      SCOPED_TRACE(sql + " workers=" + std::to_string(workers));
      session_.options().max_parallelism = workers;
      session_.options().slow_query_threshold_us = -1;
      auto untimed = session_.Execute(sql);
      ASSERT_TRUE(untimed.ok()) << untimed.status().ToString();
      session_.options().slow_query_threshold_us = 0;
      auto timed = session_.Execute(sql);
      session_.options().slow_query_threshold_us = -1;
      ASSERT_TRUE(timed.ok()) << timed.status().ToString();
      EXPECT_EQ(timed->rows, untimed->rows);

      auto analyzed = session_.Execute("EXPLAIN ANALYZE " + sql);
      ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
      std::string plan;
      for (const auto& row : analyzed->rows) {
        plan += row[0].AsVarchar() + "\n";
      }
      for (const char* op : {"Aggregate", "PathProbeJoin["}) {
        const size_t at = plan.find(op);
        ASSERT_NE(at, std::string::npos) << op << "\n" << plan;
        const std::string line = plan.substr(at, plan.find('\n', at) - at);
        EXPECT_NE(line.find("time_ms="), std::string::npos) << line;
        EXPECT_NE(line.find("actual_rows="), std::string::npos) << line;
      }
      EXPECT_NE(plan.find("morsels="), std::string::npos) << plan;
    }
  }
}

TEST_F(MorselAggTest, TaskPoolAndExecNextFailpointsFireMidStatement) {
  FailpointRegistry& failpoints = FailpointRegistry::Global();
  const std::string sql = Hybrid(4);
  session_.options().max_parallelism = 4;
  auto clean = session_.Execute(sql);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();

  // taskpool.submit fires after the outer rows are buffered, before any
  // morsel runs.
  failpoints.Arm("taskpool.submit", FailpointRegistry::Spec{});
  auto submit = session_.Execute(sql);
  EXPECT_GT(failpoints.Hits("taskpool.submit"), 0u);
  failpoints.DisarmAll();
  ASSERT_FALSE(submit.ok());
  EXPECT_TRUE(FailpointRegistry::IsInjected(submit.status()))
      << submit.status().ToString();

  // exec.next: count one run's hits, then fire once at a hit past the
  // outer scan's kRing + 1, i.e. inside a worker's morsel pipeline. The
  // probability mode's generator is seeded, so the firing hit is known.
  FailpointRegistry::Spec never;
  never.mode = FailpointRegistry::Spec::Mode::kProbability;
  never.probability = 0.0;
  failpoints.Arm("exec.next", never);
  ASSERT_TRUE(session_.Execute(sql).ok());
  const uint64_t hits = failpoints.Hits("exec.next");
  failpoints.DisarmAll();
  ASSERT_GT(hits, 4u * kRing);
  FailpointRegistry::Spec mid = never;
  mid.probability = 4.0 / static_cast<double>(hits);
  uint64_t firing = 0;
  for (mid.seed = 1; mid.seed < 1000; ++mid.seed) {
    Random draws(mid.seed);
    firing = 1;
    while (draws.NextDouble() >= mid.probability) ++firing;
    if (firing > 2 * kRing && firing < hits / 2) break;
  }
  ASSERT_GT(firing, 2u * kRing);
  failpoints.Arm("exec.next", mid);
  auto next = session_.Execute(sql);
  EXPECT_GE(failpoints.Hits("exec.next"), firing);
  failpoints.DisarmAll();
  ASSERT_FALSE(next.ok());
  EXPECT_TRUE(FailpointRegistry::IsInjected(next.status()))
      << next.status().ToString();

  // The cached plan runs clean again, with the same answer.
  auto again = session_.Execute(sql);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->rows, clean->rows);
}

TEST_F(MorselAggTest, WorkersReadTheSnapshotAcrossAConcurrentCommit) {
  // A writer commits while a 4-worker statement runs: it rescores every
  // vertex and deletes edges. Every worker must still read the statement's
  // snapshot, so the answer equals the one taken before the writer began.
  const std::string sql = Hybrid(11);
  Session reader(db_);
  reader.options().max_parallelism = 4;
  auto before = reader.Execute(sql);
  ASSERT_TRUE(before.ok()) << before.status().ToString();

  Session writer(db_);
  ASSERT_TRUE(writer.Execute("BEGIN").ok());
  ASSERT_TRUE(writer.Execute("UPDATE mv SET score = score + 100").ok());
  ASSERT_TRUE(writer.Execute("DELETE FROM me WHERE id < 8").ok());

  StatusOr<ResultSet> during = Status::Internal("not run");
  std::atomic<bool> done{false};
  std::thread runner([&] {
    during = reader.Execute(sql);
    done.store(true);
  });
  // Commit once the reader's statement is registered, i.e. after it took
  // its snapshot.
  auto running = [&] {
    for (const auto& q : db_.active_queries().Snapshot()) {
      if (q.session_id == reader.id()) return true;
    }
    return false;
  };
  while (!done.load() && !running()) std::this_thread::yield();
  ASSERT_TRUE(writer.Execute("COMMIT").ok());
  const bool mid_statement = running();
  runner.join();
  EXPECT_TRUE(mid_statement) << "the statement ended before the commit";
  ASSERT_TRUE(during.ok()) << during.status().ToString();
  EXPECT_EQ(during->rows, before->rows);

  auto after = reader.Execute(sql);
  ASSERT_TRUE(after.ok());
  EXPECT_NE(after->rows, before->rows) << "the commit changed nothing";
}

// --- Leaf runs --------------------------------------------------------------
//
// A DFS record one hop short of max_length puts its children in a leaf run
// instead of on the stack. Pulled through Next(), the rows must be the
// copy-prefix reference's, and the traversal counters and peak bytes those
// of the one-record-per-leaf stack. Under an aggregate, a run is folded in
// one call; the answer must be the per-row body's, bit for bit.

/// 40 vertexes, each with edges to i+1 and 7i+3 (mod 40), plus i+1 -> i
/// for every i divisible by 4, so 2-cycles close at the last level. Vertex
/// columns: kind (k0..k2), a DOUBLE score spanning 2^0..2^48, so its sums
/// round differently in another order, and `zero`, which is 0.0 or -0.0,
/// so MIN and MAX only ever tie.
class LeafRunTest : public ::testing::Test {
 protected:
  static constexpr int64_t kN = 40;

  void SetUp() override {
    ASSERT_TRUE(session_.ExecuteScript(R"sql(
        CREATE TABLE lv (id BIGINT PRIMARY KEY, kind VARCHAR, score DOUBLE,
                         zero DOUBLE);
        CREATE TABLE le (id BIGINT PRIMARY KEY, src BIGINT, dst BIGINT,
                         w DOUBLE);
      )sql")
                    .ok());
    std::vector<std::vector<Value>> vrows, erows;
    for (int64_t i = 0; i < kN; ++i) {
      score_.push_back(std::ldexp(1.0 + 1e-3 * static_cast<double>(i),
                                  static_cast<int>(i % 5) * 12));
      zero_.push_back(i % 3 == 1 ? -0.0 : 0.0);
      vrows.push_back({Value::BigInt(i),
                       Value::Varchar("k" + std::to_string(i % 3)),
                       Value::Double(score_.back()),
                       Value::Double(zero_.back())});
    }
    auto edge = [&](int64_t src, int64_t dst) {
      const auto id = static_cast<int64_t>(erows.size());
      weight_[id] = 0.5 + static_cast<double>(id % 5);
      erows.push_back({Value::BigInt(id), Value::BigInt(src),
                       Value::BigInt(dst), Value::Double(weight_[id])});
    };
    for (int64_t i = 0; i < kN; ++i) {
      edge(i, (i + 1) % kN);
      edge(i, (7 * i + 3) % kN);
      if (i % 4 == 0) edge((i + 1) % kN, i);
    }
    ASSERT_TRUE(db_.BulkInsert("lv", vrows).ok());
    ASSERT_TRUE(db_.BulkInsert("le", erows).ok());
    ASSERT_TRUE(session_
                    .ExecuteScript(
                        "CREATE DIRECTED GRAPH VIEW lg VERTEXES (ID = id, "
                        "kind = kind, score = score, zero = zero) FROM lv "
                        "EDGES (ID = id, FROM = src, TO = dst, w = w) FROM le;")
                    .ok());
  }

  void TearDown() override { FailpointRegistry::Global().DisarmAll(); }

  const GraphView& View() const { return *db_.catalog().FindGraphView("lg"); }

  RefAdjacency Adjacency() const { return ViewAdjacencyOf(View(), Iota(kN)); }

  /// The last statement's traversal counters and peak bytes.
  std::string Counters() const {
    const ExecStats& s = session_.last_stats();
    return StrFormat("ee=%llu ve=%llu pe=%llu mf=%llu pb=%zu",
                     static_cast<unsigned long long>(s.edges_examined),
                     static_cast<unsigned long long>(s.vertexes_expanded),
                     static_cast<unsigned long long>(s.paths_emitted),
                     static_cast<unsigned long long>(s.max_frontier),
                     session_.last_peak_bytes());
  }

  /// The start and end vertex of a reference row.
  static std::pair<int64_t, int64_t> Ends(const std::string& row) {
    const int64_t start = std::stoll(row.substr(0, row.find('|')));
    const size_t arrow = row.rfind("-> ");
    const int64_t end = arrow == std::string::npos
                            ? start
                            : std::stoll(row.substr(arrow + 3));
    return {start, end};
  }

  /// The leaf_runs= count on the PathProbeJoin line of EXPLAIN ANALYZE.
  uint64_t LeafRuns(const std::string& sql) {
    const std::string text = ExplainText(&session_, "ANALYZE " + sql);
    const size_t at = text.find(" leaf_runs=");
    EXPECT_NE(at, std::string::npos) << text;
    return at == std::string::npos
               ? 0
               : std::strtoull(text.c_str() + at + 11, nullptr, 10);
  }

  Database db_{TestOptions()};
  Session session_{db_};
  std::vector<double> score_, zero_;
  std::map<int64_t, double> weight_;
};

TEST_F(LeafRunTest, NextRowsMatchTheCopyPrefixReference) {
  const RefAdjacency adj = Adjacency();
  const std::string select =
      "SELECT P.StartVertex.Id, P.PathString FROM lg.Paths P HINT(DFS) WHERE ";
  struct Case {
    std::string where;
    BfsRefQuery ref;
    /// Keeps a reference row (the residual predicate), or null.
    std::function<bool(const std::string&)> keep;
  };
  std::vector<Case> cases;
  auto add = [&](std::string where, std::vector<int64_t> starts,
                 size_t min_len, size_t max_len) -> Case& {
    Case& c = cases.emplace_back();
    c.where = std::move(where);
    c.ref.starts = std::move(starts);
    c.ref.min_len = min_len;
    c.ref.max_len = max_len;
    return c;
  };
  // min_length == max_length: only leaves qualify.
  add("P.StartVertex.Id = 0 AND P.Length = 2", {0}, 2, 2);
  add("P.Length >= 3 AND P.Length <= 3", Iota(kN), 3, 3);
  // Windows [1, k]: runs at depth k, from one start and from all.
  for (size_t k = 1; k <= 4; ++k) {
    add(StrFormat("P.Length <= %zu", k), Iota(kN), 1, k);
    add(StrFormat("P.StartVertex.Id = 8 AND P.Length <= %zu", k), {8}, 1, k);
  }
  // A target: leaves qualify one by one.
  add("P.StartVertex.Id = 4 AND P.EndVertex.Id = 5 AND P.Length <= 3", {4},
      1, 3)
      .ref.target = 5;
  // Sum bounds: pruning (<) and exact-only (>=).
  for (CompareOp op : {CompareOp::kLt, CompareOp::kGe}) {
    Case& c = add(StrFormat("SUM(P.Edges.w) %s 4 AND P.Length <= 3",
                            op == CompareOp::kLt ? "<" : ">="),
                  Iota(kN), 1, 3);
    c.ref.w_op = op;
    c.ref.w_bound = 4.0;
    c.ref.weight = [&](int64_t e) { return weight_.at(e); };
  }
  // A residual predicate, tested per path.
  add("P.EndVertex.Id > P.StartVertex.Id AND P.Length <= 2", Iota(kN), 1, 2)
      .keep = [](const std::string& row) {
    const auto [start, end] = Ends(row);
    return end > start;
  };

  // The counters of the one-record-per-leaf stack, per case.
  const std::vector<std::string> pinned = {
      "ee=7 ve=8 pe=5 mf=3 pb=80",
      "ee=662 ve=658 pe=328 mf=6 pb=464",
      "ee=90 ve=130 pe=90 mf=3 pb=392",
      "ee=2 ve=3 pe=2 mf=2 pb=56",
      "ee=290 ve=330 pe=290 mf=4 pb=416",
      "ee=7 ve=8 pe=7 mf=3 pb=80",
      "ee=662 ve=658 pe=618 mf=6 pb=464",
      "ee=15 ve=16 pe=15 mf=4 pb=104",
      "ee=1388 ve=1304 pe=1264 mf=7 pb=488",
      "ee=35 ve=33 pe=32 mf=5 pb=128",
      "ee=15 ve=15 pe=1 mf=4 pb=104",
      "ee=324 ve=182 pe=142 mf=3 pb=416",
      "ee=662 ve=658 pe=476 mf=6 pb=512",
      "ee=290 ve=330 pe=161 mf=4 pb=416",
  };
  std::vector<std::string> counters;
  bool closing_leaf = false;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.where);
    std::vector<std::string> expected = DfsReference(adj, c.ref);
    if (c.keep != nullptr) {
      std::erase_if(expected,
                    [&](const std::string& row) { return !c.keep(row); });
    }
    for (const std::string& row : expected) {
      const auto [start, end] = Ends(row);
      if (start == end) closing_leaf = true;
    }
    EXPECT_EQ(StartAndPathRows(&session_, select + c.where), expected);
    counters.push_back(Counters());
  }
  EXPECT_TRUE(closing_leaf) << "no closing hop at the last level";
  ASSERT_EQ(counters.size(), pinned.size());
  for (size_t i = 0; i < counters.size(); ++i) {
    EXPECT_EQ(counters[i], pinned[i]) << cases[i].where;
  }
  EXPECT_GT(LeafRuns(select + "P.Length <= 2"), 0u);
}

TEST_F(LeafRunTest, VisitedOnceDfsMatchesTheReference) {
  // The planner runs visited-once DFS without a length bound only; a scanner
  // with a bound has leaf runs whose claims must land as the stack's did.
  auto spec = std::make_shared<TraversalSpec>();
  spec->gv = &View();
  spec->physical = TraversalSpec::Physical::kDfs;
  spec->global_visited = true;
  const RefAdjacency adj = Adjacency();
  std::vector<std::string> counters;
  for (size_t max_len : {size_t{1}, size_t{2}, size_t{3}}) {
    SCOPED_TRACE(max_len);
    spec->max_length = max_len;
    QueryContext ctx;
    std::unique_ptr<PathScanner> scanner = MakePathScanner(spec, &ctx);
    ASSERT_TRUE(scanner->Reset({0, 13}, std::nullopt, nullptr).ok());
    std::vector<std::string> rows;
    PathPtr path;
    while (true) {
      auto has = scanner->Next(&path);
      ASSERT_TRUE(has.ok()) << has.status().ToString();
      if (!*has) break;
      rows.push_back(std::to_string(path->StartVertex()) + "|" +
                     PathToString(*path) + "|");
    }
    scanner->Release();
    EXPECT_EQ(ctx.current_bytes(), 0u);
    BfsRefQuery ref;
    ref.starts = {0, 13};
    ref.max_len = max_len;
    ref.visited_once = true;
    EXPECT_EQ(rows, DfsReference(adj, ref));
    const ExecStats& s = ctx.stats();
    counters.push_back(StrFormat(
        "ee=%llu ve=%llu pe=%llu mf=%llu pb=%zu",
        static_cast<unsigned long long>(s.edges_examined),
        static_cast<unsigned long long>(s.vertexes_expanded),
        static_cast<unsigned long long>(s.paths_emitted),
        static_cast<unsigned long long>(s.max_frontier), ctx.peak_bytes()));
  }
  const std::vector<std::string> pinned = {
      "ee=5 ve=6 pe=4 mf=2 pb=64",
      "ee=14 ve=15 pe=13 mf=3 pb=88",
      "ee=29 ve=27 pe=25 mf=5 pb=136",
  };
  EXPECT_EQ(counters, pinned);
}

TEST_F(LeafRunTest, DeltaOverlayAppendsAndRemovesLastHops) {
  // Edges appended after the view's CSR snapshot, and one removed, land in
  // its delta overlay: last hops there must join and leave the runs.
  ASSERT_TRUE(session_
                  .Execute("INSERT INTO le VALUES (1000, 1, 39, 1.0), "
                           "(1001, 8, 2, 2.0), (1002, 2, 17, 1.0)")
                  .ok());
  ASSERT_TRUE(session_.Execute("DELETE FROM le WHERE id = 4 OR id = 9").ok());
  const RefAdjacency adj = Adjacency();
  const std::string select =
      "SELECT P.StartVertex.Id, P.PathString FROM lg.Paths P HINT(DFS) WHERE ";
  std::vector<std::string> counters;
  for (size_t k = 1; k <= 3; ++k) {
    SCOPED_TRACE(k);
    BfsRefQuery ref;
    ref.starts = Iota(kN);
    ref.max_len = k;
    EXPECT_EQ(StartAndPathRows(&session_,
                               select + StrFormat("P.Length <= %zu", k)),
              DfsReference(adj, ref));
    counters.push_back(Counters());
    for (size_t workers : {size_t{1}, size_t{4}}) {
      session_.options().max_parallelism = workers;
      auto count = session_.Execute(StrFormat(
          "SELECT COUNT(*) FROM lg.Paths P HINT(DFS) WHERE P.Length <= %zu",
          k));
      ASSERT_TRUE(count.ok()) << count.status().ToString();
      EXPECT_EQ(count->rows[0][0].AsBigInt(),
                static_cast<int64_t>(DfsReference(adj, ref).size()));
    }
    session_.options().max_parallelism = TestOptions().max_parallelism;
  }
  const std::vector<std::string> pinned = {
      "ee=91 ve=131 pe=91 mf=3 pb=392",
      "ee=296 ve=336 pe=296 mf=5 pb=440",
      "ee=684 ve=679 pe=639 mf=6 pb=464",
  };
  EXPECT_EQ(counters, pinned);
}

TEST_F(LeafRunTest, FoldedRunsKeepThePerRowAnswer) {
  const RefAdjacency adj = Adjacency();
  // [1, 3] and [3, 3]: in the second, every morsel's first row is a leaf,
  // so MIN and MAX keep a value the fold saw first.
  for (size_t min_len : {size_t{1}, size_t{3}}) {
    SCOPED_TRACE(min_len);
    BfsRefQuery ref;
    ref.starts = Iota(kN);
    ref.min_len = min_len;
    ref.max_len = 3;
    const std::vector<std::string> paths = DfsReference(adj, ref);
    // The morsel drain's sums: per morsel of 16 starts (by descending id,
    // the DFS order) sequentially, then the morsels in order.
    std::vector<double> partial((kN + 15) / 16, 0.0);
    for (const std::string& row : paths) {
      const auto [start, end] = Ends(row);
      partial[static_cast<size_t>(kN - 1 - start) / 16] +=
          score_[static_cast<size_t>(end)];
    }
    double sum = 0.0;
    for (double p : partial) sum += p;
    // MIN and MAX of +-0.0 keep the first value seen.
    const double first_zero =
        zero_[static_cast<size_t>(Ends(paths.front()).second)];
    const std::string where =
        StrFormat(" FROM lg.Paths P HINT(DFS) WHERE P.Length >= %zu AND "
                  "P.Length <= 3",
                  min_len);
    const std::string scalar =
        "SELECT COUNT(*), SUM(P.EndVertex.score), MIN(P.EndVertex.zero), "
        "MAX(P.EndVertex.zero), COUNT(P.EndVertex.score)" +
        where;
    // Path-keyed groups are resolved per leaf.
    const std::string by_end_kind =
        "SELECT P.EndVertex.kind, COUNT(*)" + where +
        " GROUP BY P.EndVertex.kind";
    std::vector<std::string> kinds;
    std::map<std::string, int64_t> kind_counts;
    for (const std::string& row : paths) {
      const std::string kind = "k" + std::to_string(Ends(row).second % 3);
      if (kind_counts[kind]++ == 0) kinds.push_back(kind);
    }
    for (size_t workers : {size_t{1}, size_t{4}}) {
      SCOPED_TRACE(workers);
      session_.options().max_parallelism = workers;
      // Timing (a 0 us slow-query threshold) folds the same runs.
      for (bool timed : {false, true}) {
        SCOPED_TRACE(timed);
        session_.options().slow_query_threshold_us = timed ? 0 : -1;
        auto result = session_.Execute(scalar);
        session_.options().slow_query_threshold_us = -1;
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        // Timed or not, the aggregate takes every run in one call.
        const uint64_t folded = session_.last_stats().runs_folded;
        EXPECT_GT(folded, 0u);
        EXPECT_EQ(folded, LeafRuns(scalar));
        const std::vector<Value>& row = result->rows[0];
        EXPECT_EQ(row[0].AsBigInt(), static_cast<int64_t>(paths.size()));
        EXPECT_EQ(std::bit_cast<uint64_t>(row[1].AsDouble()),
                  std::bit_cast<uint64_t>(sum))
            << row[1].AsDouble() << " vs " << sum;
        EXPECT_EQ(std::signbit(row[2].AsDouble()), std::signbit(first_zero));
        EXPECT_EQ(std::signbit(row[3].AsDouble()), std::signbit(first_zero));
        EXPECT_EQ(row[4].AsBigInt(), static_cast<int64_t>(paths.size()));
      }
      auto grouped = session_.Execute(by_end_kind);
      ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();
      EXPECT_EQ(session_.last_stats().runs_folded, 0u);
      ASSERT_EQ(grouped->rows.size(), kinds.size());
      for (size_t g = 0; g < kinds.size(); ++g) {
        EXPECT_EQ(grouped->rows[g][0].AsVarchar(), kinds[g]);
        EXPECT_EQ(grouped->rows[g][1].AsBigInt(), kind_counts[kinds[g]]);
      }
    }
  }
  session_.options().max_parallelism = TestOptions().max_parallelism;
}

TEST_F(LeafRunTest, FoldKeepsCountersAtOneAndFourWorkers) {
  // COUNT(*) and the hybrid shape, folded: the traversal counters, peak
  // bytes and EXPLAIN ANALYZE's leaf_runs are the per-leaf stack's, and
  // leaf_runs reads the same at any worker count.
  const std::vector<std::string> sqls = {
      "SELECT COUNT(*) FROM lg.Paths P HINT(DFS) WHERE P.Length <= 2",
      "SELECT V.kind, COUNT(*), SUM(P.Length), MAX(P.EndVertex.score) FROM "
      "lv V, lg.Paths P HINT(DFS) WHERE P.StartVertex.Id = V.id AND "
      "P.Length <= 3 GROUP BY V.kind",
      "SELECT COUNT(*), SUM(P.EndVertex.score) FROM lg.Paths P HINT(DFS) "
      "WHERE P.Length = 3"};
  std::vector<std::string> counters;
  for (const std::string& sql : sqls) {
    SCOPED_TRACE(sql);
    std::vector<std::vector<Value>> serial;
    uint64_t runs = 0;
    for (size_t workers : {size_t{1}, size_t{4}}) {
      session_.options().max_parallelism = workers;
      auto result = session_.Execute(sql);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      // peak_bytes folds the workers' peaks, so only one worker's is pinned.
      std::string c = Counters();
      if (workers == 4) c = c.substr(0, c.find(" pb="));
      counters.push_back(c);
      const uint64_t folded = session_.last_stats().runs_folded;
      const uint64_t analyzed = LeafRuns(sql);
      // The aggregate took every run the scanner held in one call, untimed
      // and under EXPLAIN ANALYZE alike.
      EXPECT_EQ(folded, analyzed);
      EXPECT_EQ(session_.last_stats().runs_folded, analyzed);
      if (workers == 1) {
        serial = result->rows;
        runs = analyzed;
        EXPECT_GT(runs, 0u);
      } else {
        EXPECT_EQ(result->rows, serial);
        EXPECT_EQ(analyzed, runs);
      }
    }
  }
  session_.options().max_parallelism = TestOptions().max_parallelism;
  const std::vector<std::string> pinned = {
      "ee=290 ve=330 pe=290 mf=4 pb=1312",
      "ee=290 ve=330 pe=290 mf=4",
      "ee=662 ve=658 pe=618 mf=6 pb=16920",
      "ee=662 ve=658 pe=618 mf=6",
      "ee=662 ve=658 pe=328 mf=6 pb=1872",
      "ee=662 ve=658 pe=328 mf=6",
  };
  EXPECT_EQ(counters, pinned);
}

TEST_F(LeafRunTest, FilterStageTakesLeavesOneByOne) {
  // A filter between the aggregate and the probe (a plan the planner does
  // not build) sees each leaf alone; its answer is the folded statement's.
  auto folded = session_.Execute(
      "SELECT COUNT(*), SUM(P.Length), MAX(P.EndVertex.Id) FROM lg.Paths P "
      "HINT(DFS) WHERE P.Length = 2");
  ASSERT_TRUE(folded.ok()) << folded.status().ToString();
  auto spec = std::make_shared<TraversalSpec>();
  spec->gv = &View();
  spec->physical = TraversalSpec::Physical::kDfs;
  spec->max_length = 2;
  RowLayout layout;
  layout.schema = std::make_shared<Schema>();
  layout.path_slots = 1;
  auto length = std::make_shared<PathPropertyExpr>(0, PathProperty::kLength,
                                                   "P.Length");
  auto filter = std::make_unique<FilterOp>(
      std::make_unique<PathProbeJoinOp>(std::make_unique<SingleRowOp>(layout),
                                        spec),
      std::make_shared<CompareExpr>(
          CompareOp::kEq, length,
          std::make_shared<ConstantExpr>(Value::BigInt(2))));
  std::vector<AggregateSpec> aggs(3);
  aggs[0].func = AggFunc::kCount;
  aggs[0].output_name = "n";
  aggs[1].func = AggFunc::kSum;
  aggs[1].arg = length;
  aggs[1].output_name = "len";
  aggs[2].func = AggFunc::kMax;
  aggs[2].arg = std::make_shared<PathPropertyExpr>(
      0, PathProperty::kEndVertexId, "P.EndVertex.Id");
  aggs[2].output_name = "end";
  for (size_t workers : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE(workers);
    AggregateOp agg(std::move(filter), {}, {}, aggs);
    QueryContext ctx;
    if (workers > 1) {
      ctx.set_task_pool(&TaskPool::Shared());
      ctx.set_max_parallelism(workers);
    }
    ASSERT_TRUE(agg.Open(&ctx).ok());
    ExecRow row;
    auto has = agg.Next(&row);
    ASSERT_TRUE(has.ok() && *has);
    EXPECT_EQ(row.columns, folded->rows[0]);
    EXPECT_EQ(ctx.stats().runs_folded, 0u);
    agg.Close();
    EXPECT_EQ(ctx.current_bytes(), 0u);
    // Re-plan for the next worker count.
    filter = std::make_unique<FilterOp>(
        std::make_unique<PathProbeJoinOp>(
            std::make_unique<SingleRowOp>(layout), spec),
        std::make_shared<CompareExpr>(
            CompareOp::kEq, length,
            std::make_shared<ConstantExpr>(Value::BigInt(2))));
  }
}

TEST_F(LeafRunTest, ExecNextFailpointFiresOnTheSameHit) {
  // An armed failpoint turns the fold off, so exec.next is evaluated once
  // per leaf as before: a run counts the same hits, and a firing hit lands
  // where it did.
  FailpointRegistry& failpoints = FailpointRegistry::Global();
  const std::string sql =
      "SELECT COUNT(*), SUM(P.EndVertex.score) FROM lg.Paths P HINT(DFS) "
      "WHERE P.Length <= 3";
  session_.options().max_parallelism = 1;
  FailpointRegistry::Spec never;
  never.mode = FailpointRegistry::Spec::Mode::kProbability;
  never.probability = 0.0;
  failpoints.Arm("exec.next", never);
  ASSERT_TRUE(session_.Execute(sql).ok());
  EXPECT_EQ(session_.last_stats().runs_folded, 0u);
  const uint64_t hits = failpoints.Hits("exec.next");
  failpoints.DisarmAll();
  EXPECT_EQ(hits, 624u);

  // every=N fires on hits 1, N+1, ...: hit 1 is a first statement's outer
  // row; the second statement fails on its n-th hit, after the same paths
  // as before.
  std::vector<std::string> counters;
  for (uint64_t n : {uint64_t{57}, hits / 2}) {
    SCOPED_TRACE(n);
    FailpointRegistry::Spec every;
    every.mode = FailpointRegistry::Spec::Mode::kEveryNth;
    every.nth = n;
    failpoints.Arm("exec.next", every);
    EXPECT_FALSE(session_.Execute(sql).ok());
    ASSERT_EQ(failpoints.Hits("exec.next"), 1u);
    auto fired = session_.Execute(sql);
    ASSERT_FALSE(fired.ok());
    EXPECT_TRUE(FailpointRegistry::IsInjected(fired.status()));
    EXPECT_EQ(failpoints.Hits("exec.next"), n + 1);
    failpoints.DisarmAll();
    counters.push_back(Counters());
  }
  const std::vector<std::string> pinned = {
      "ee=59 ve=59 pe=55 mf=5 pb=952",
      "ee=335 ve=331 pe=310 mf=6 pb=1296",
  };
  EXPECT_EQ(counters, pinned);
  session_.options().max_parallelism = TestOptions().max_parallelism;
}

// --- Every kernel as a morsel source --------------------------------------------
//
// BFScan and SPScan probes under an aggregate drain as morsels too: 16 outer
// rows a morsel for a bound start, one outer row for an unbound one. The
// 40 outer rows of lv are three morsels.

class MorselAggKernelTest : public LeafRunTest {
 protected:
  /// The passes= count on the PathProbeJoin line of EXPLAIN ANALYZE `sql`.
  uint64_t Passes(const std::string& sql) {
    const std::string text = ExplainText(&session_, "ANALYZE " + sql);
    const size_t at = text.find(" passes=");
    EXPECT_NE(at, std::string::npos) << text;
    return at == std::string::npos
               ? 0
               : std::strtoull(text.c_str() + at + 8, nullptr, 10);
  }
};

TEST_F(MorselAggKernelTest, SpScanGroupByMatchesPerOuterRowProbes) {
  // The reference probes each outer row alone through the pulled SPScan.
  // The weights are halves, so every DOUBLE sum is exact in any order.
  struct Agg {
    int64_t count = 0, length_sum = 0;
    double cost_sum = 0, cost_max = 0;
  };
  std::vector<std::string> order;
  std::map<std::string, Agg> groups;
  session_.options().max_parallelism = 1;
  for (int64_t v = 0; v < kN; ++v) {
    auto probe = session_.Execute(StrFormat(
        "SELECT PS.Length, PS.Cost FROM lg.Paths PS HINT(SHORTESTPATH(w)) "
        "WHERE PS.StartVertex.Id = %lld AND PS.Length <= 2",
        static_cast<long long>(v)));
    ASSERT_TRUE(probe.ok()) << probe.status().ToString();
    ASSERT_FALSE(probe->rows.empty());
    const std::string kind = "k" + std::to_string(v % 3);
    auto [it, fresh] = groups.try_emplace(kind);
    if (fresh) order.push_back(kind);
    for (const auto& row : probe->rows) {
      Agg& g = it->second;
      const double cost = row[1].AsDouble();
      g.cost_max = g.count == 0 ? cost : std::max(g.cost_max, cost);
      ++g.count;
      g.length_sum += row[0].AsBigInt();
      g.cost_sum += cost;
    }
  }
  std::vector<std::vector<Value>> expected;
  for (const std::string& kind : order) {
    const Agg& g = groups.at(kind);
    expected.push_back({Value::Varchar(kind), Value::BigInt(g.count),
                        Value::BigInt(g.length_sum), Value::Double(g.cost_sum),
                        Value::Double(g.cost_max)});
  }
  const std::string sql =
      "SELECT V.kind, COUNT(*), SUM(PS.Length), SUM(PS.Cost), MAX(PS.Cost) "
      "FROM lv V, lg.Paths PS HINT(SHORTESTPATH(w)) WHERE "
      "PS.StartVertex.Id = V.id AND PS.Length <= 2 GROUP BY V.kind";
  for (size_t workers : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE(workers);
    session_.options().max_parallelism = workers;
    auto result = session_.Execute(sql);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->rows, expected);
    EXPECT_NE(ExplainText(&session_, "ANALYZE " + sql).find(" morsels=3"),
              std::string::npos);
  }
  session_.options().max_parallelism = TestOptions().max_parallelism;
}

TEST_F(MorselAggKernelTest, BfsPassesUnderAnAggregateMatchTheStreamingProbe) {
  // The readers' iterative-deepening passes, summed, are the ones the
  // pulled probe runs: bound (one probe per outer row) and unbound (one
  // probe over every start).
  const std::string bound =
      " FROM lv V, lg.Paths P HINT(BFS) WHERE P.StartVertex.Id = V.id AND "
      "P.Length <= 3";
  const std::string unbound = " FROM lg.Paths P HINT(BFS) WHERE P.Length <= 3";
  for (const std::string& from : {bound, unbound}) {
    SCOPED_TRACE(from);
    const uint64_t streamed = Passes("SELECT P.PathString" + from);
    EXPECT_GT(streamed, 0u);
    for (size_t workers : {size_t{1}, size_t{4}}) {
      SCOPED_TRACE(workers);
      session_.options().max_parallelism = workers;
      EXPECT_EQ(Passes("SELECT COUNT(*), SUM(P.Length)" + from), streamed);
    }
  }
  session_.options().max_parallelism = TestOptions().max_parallelism;
}

}  // namespace
}  // namespace grfusion
