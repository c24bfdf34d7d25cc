// Tests for the whole-graph analytics running over graph views: PageRank,
// connected components, SSSP, k-hop neighborhoods, exact triangle counting,
// and consistency with the SQL-level traversal operators.

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "engine/database.h"
#include "sql_test_util.h"
#include "graphalg/algorithms.h"
#include "workload/datasets.h"

namespace grfusion {
namespace {

class GraphAlgTest : public ::testing::Test {
 protected:
  /// Two 3-cycles joined by a bridge, plus an isolated vertex:
  ///   0-1-2-0   2-3   3-4-5-3   6
  void SetUp() override {
    ASSERT_TRUE(ExecScript(db_, R"sql(
      CREATE TABLE v (id BIGINT PRIMARY KEY, name VARCHAR);
      CREATE TABLE e (id BIGINT PRIMARY KEY, src BIGINT, dst BIGINT,
                      w DOUBLE);
      INSERT INTO v VALUES (0,'a'),(1,'b'),(2,'c'),(3,'d'),(4,'e'),(5,'f'),
                           (6,'iso');
      INSERT INTO e VALUES
        (10, 0, 1, 1.0), (11, 1, 2, 1.0), (12, 2, 0, 1.0),
        (13, 2, 3, 5.0),
        (14, 3, 4, 1.0), (15, 4, 5, 1.0), (16, 5, 3, 1.0);
      CREATE UNDIRECTED GRAPH VIEW g
        VERTEXES (ID = id, name = name) FROM v
        EDGES (ID = id, FROM = src, TO = dst, w = w) FROM e;
    )sql")
                    .ok());
    gv_ = db_.catalog().FindGraphView("g");
    ASSERT_NE(gv_, nullptr);
  }

  Database db_{TestOptions()};
  const GraphView* gv_ = nullptr;
};

TEST_F(GraphAlgTest, PageRankSumsToOneAndFavorsConnected) {
  auto rank = PageRank(*gv_, 30);
  ASSERT_EQ(rank.size(), 7u);
  double total = 0.0;
  for (const auto& [id, r] : rank) {
    EXPECT_GT(r, 0.0);
    total += r;
  }
  EXPECT_NEAR(total, 1.0, 1e-6);
  // The isolated vertex only receives teleport mass.
  EXPECT_LT(rank[6], rank[2]);
  // Bridge endpoints accumulate more than plain cycle members.
  EXPECT_GT(rank[2], rank[1]);
}

TEST_F(GraphAlgTest, ConnectedComponents) {
  auto cc = ConnectedComponents(*gv_);
  ASSERT_EQ(cc.size(), 7u);
  // 0..5 connected through the bridge; 6 isolated.
  for (VertexId v : {0, 1, 2, 3, 4, 5}) EXPECT_EQ(cc[v], 0) << v;
  EXPECT_EQ(cc[6], 6);
}

TEST_F(GraphAlgTest, ComponentsFollowTopologyUpdates) {
  ASSERT_TRUE(Exec(db_, "DELETE FROM e WHERE id = 13").ok());  // Cut bridge.
  auto cc = ConnectedComponents(*gv_);
  EXPECT_EQ(cc[0], cc[1]);
  EXPECT_EQ(cc[3], cc[5]);
  EXPECT_NE(cc[0], cc[3]);
}

TEST_F(GraphAlgTest, SingleSourceShortestPaths) {
  auto sssp = SingleSourceShortestPaths(*gv_, 0, "w");
  ASSERT_TRUE(sssp.ok()) << sssp.status().ToString();
  EXPECT_DOUBLE_EQ((*sssp)[0], 0.0);
  EXPECT_DOUBLE_EQ((*sssp)[1], 1.0);
  EXPECT_DOUBLE_EQ((*sssp)[2], 1.0);
  EXPECT_DOUBLE_EQ((*sssp)[3], 6.0);   // Through the weight-5 bridge.
  EXPECT_DOUBLE_EQ((*sssp)[4], 7.0);
  EXPECT_EQ(sssp->count(6), 0u);       // Unreachable.
}

TEST_F(GraphAlgTest, SsspAgreesWithSpScanOperator) {
  auto sssp = SingleSourceShortestPaths(*gv_, 0, "w");
  ASSERT_TRUE(sssp.ok());
  auto sql = Exec(db_, 
      "SELECT TOP 1 PS.Cost FROM g.Paths PS HINT(SHORTESTPATH(w)) "
      "WHERE PS.StartVertex.Id = 0 AND PS.EndVertex.Id = 4");
  ASSERT_TRUE(sql.ok());
  ASSERT_EQ(sql->NumRows(), 1u);
  EXPECT_DOUBLE_EQ(sql->rows[0][0].AsNumeric(), (*sssp)[4]);
}

TEST_F(GraphAlgTest, SsspErrorsOnBadAttribute) {
  EXPECT_FALSE(SingleSourceShortestPaths(*gv_, 0, "missing").ok());
  EXPECT_FALSE(SingleSourceShortestPaths(*gv_, 0, "name").ok());
}

TEST_F(GraphAlgTest, KHopNeighborhood) {
  auto one_hop = KHopNeighborhood(*gv_, 0, 1);
  std::sort(one_hop.begin(), one_hop.end());
  EXPECT_EQ(one_hop, (std::vector<VertexId>{1, 2}));
  auto two_hop = KHopNeighborhood(*gv_, 0, 2);
  std::sort(two_hop.begin(), two_hop.end());
  EXPECT_EQ(two_hop, (std::vector<VertexId>{1, 2, 3}));
  EXPECT_TRUE(KHopNeighborhood(*gv_, 6, 3).empty());
  EXPECT_TRUE(KHopNeighborhood(*gv_, 999, 3).empty());
}

TEST_F(GraphAlgTest, ExactTriangleCount) {
  EXPECT_EQ(CountTrianglesExact(*gv_), 2);  // The two 3-cycles.
  ASSERT_TRUE(Exec(db_, "INSERT INTO e VALUES (17, 1, 3, 1.0)").ok());
  // New triangle 1-2-3.
  EXPECT_EQ(CountTrianglesExact(*gv_), 3);
}

TEST_F(GraphAlgTest, DegreeHistogram) {
  auto histogram = DegreeHistogram(*gv_);
  ASSERT_GE(histogram.size(), 4u);
  EXPECT_EQ(histogram[0], 1u);  // Isolated vertex.
  EXPECT_EQ(histogram[3], 2u);  // Bridge endpoints 2 and 3.
}

TEST(GraphAlgDatasetTest, TriangleCountMatchesGeneratedShape) {
  // Cross-check the exact counter against the SQL path-based counter on a
  // generated graph (per-orientation SQL count = 6x the undirected count
  // for label-free triangles... instead compare against a second method:
  // neighbor intersection over the property store would be redundant, so
  // use a tiny complete graph with a known closed form: K5 has C(5,3)=10).
  Database db(TestOptions());
  ASSERT_TRUE(ExecScript(db, R"sql(
    CREATE TABLE v (id BIGINT PRIMARY KEY);
    CREATE TABLE e (id BIGINT PRIMARY KEY, s BIGINT, d BIGINT);
    INSERT INTO v VALUES (0),(1),(2),(3),(4);
  )sql")
                  .ok());
  int64_t eid = 0;
  for (int64_t a = 0; a < 5; ++a) {
    for (int64_t b = a + 1; b < 5; ++b) {
      ASSERT_TRUE(Exec(db, StrFormat("INSERT INTO e VALUES (%lld, %lld, "
                                       "%lld)",
                                       static_cast<long long>(eid++),
                                       static_cast<long long>(a),
                                       static_cast<long long>(b)))
                      .ok());
    }
  }
  ASSERT_TRUE(ExecScript(db, 
                    "CREATE UNDIRECTED GRAPH VIEW k5 "
                    "VERTEXES (ID = id) FROM v "
                    "EDGES (ID = id, FROM = s, TO = d) FROM e;")
                  .ok());
  EXPECT_EQ(CountTrianglesExact(*db.catalog().FindGraphView("k5")), 10);
}

TEST(GraphAlgDatasetTest, PageRankHubsOnSocialGraph) {
  Database db(TestOptions());
  Dataset social = MakeSocialNetwork(400, 4, 9);
  ASSERT_TRUE(LoadIntoDatabase(social, &db).ok());
  const GraphView* gv = db.catalog().FindGraphView("social");
  auto rank = PageRank(*gv, 25);
  // The vertex with the highest fan-in should rank near the top.
  VertexId hub = 0;
  size_t best_fanin = 0;
  gv->ForEachVertex([&](const VertexEntry& v) {
    if (gv->FanIn(v) > best_fanin) {
      best_fanin = gv->FanIn(v);
      hub = v.id;
    }
    return true;
  });
  size_t better = 0;
  for (const auto& [id, r] : rank) {
    if (r > rank[hub]) ++better;
  }
  EXPECT_LT(better, rank.size() / 20);  // Hub is in the top 5%.
}

}  // namespace
}  // namespace grfusion
