// Cross-system validation: GRFusion, SQLGraph, Grail, and the property-graph
// baselines must agree on reachability, shortest-path costs, and triangle
// counts over the generated datasets. This is the correctness backbone for
// the benchmark suite — a benchmark comparing systems that disagree would be
// meaningless.

#include <gtest/gtest.h>

#include "baselines/grail.h"
#include "baselines/property_graph.h"
#include "baselines/sqlgraph.h"
#include "common/string_util.h"
#include "engine/database.h"
#include "sql_test_util.h"
#include "workload/datasets.h"
#include "workload/queries.h"

namespace grfusion {
namespace {

class CrossValidationTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kSeed = 42;

  void LoadAll(const Dataset& dataset) {
    ASSERT_TRUE(LoadIntoDatabase(dataset, &db_).ok());
    ASSERT_TRUE(sqlgraph_.Load(dataset).ok());
    ASSERT_TRUE(grail_.Load(dataset).ok());
    neo_ = std::make_unique<PropertyGraphStore>(
        PropertyGraphStore::Layout::kCompact, dataset.directed);
    titan_ = std::make_unique<PropertyGraphStore>(
        PropertyGraphStore::Layout::kIndexed, dataset.directed);
    ASSERT_TRUE(neo_->Load(dataset).ok());
    ASSERT_TRUE(titan_->Load(dataset).ok());
    gv_ = db_.catalog().FindGraphView(dataset.name);
    ASSERT_NE(gv_, nullptr);
  }

  bool GrfReachable(const std::string& graph, int64_t src, int64_t dst,
                    int64_t rank_threshold = -1) {
    std::string sql = StrFormat(
        "SELECT PS.PathString FROM %s.Paths PS WHERE PS.StartVertex.Id = %lld "
        "AND PS.EndVertex.Id = %lld",
        graph.c_str(), static_cast<long long>(src),
        static_cast<long long>(dst));
    if (rank_threshold >= 0) {
      sql += StrFormat(" AND PS.Edges[0..*].rank < %lld",
                       static_cast<long long>(rank_threshold));
    }
    sql += " LIMIT 1";
    auto result = Exec(db_, sql);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() && result->NumRows() > 0;
  }

  std::optional<double> GrfShortestCost(const std::string& graph, int64_t src,
                                        int64_t dst) {
    auto result = Exec(db_, StrFormat(
        "SELECT TOP 1 PS.Cost FROM %s.Paths PS HINT(SHORTESTPATH(weight)) "
        "WHERE PS.StartVertex.Id = %lld AND PS.EndVertex.Id = %lld",
        graph.c_str(), static_cast<long long>(src),
        static_cast<long long>(dst)));
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok() || result->NumRows() == 0) return std::nullopt;
    return result->rows[0][0].AsNumeric();
  }

  Database db_{TestOptions()};
  SqlGraph sqlgraph_;
  Grail grail_;
  std::unique_ptr<PropertyGraphStore> neo_;
  std::unique_ptr<PropertyGraphStore> titan_;
  const GraphView* gv_ = nullptr;
};

TEST_F(CrossValidationTest, ReachabilityAgreesOnRoadNetwork) {
  Dataset road = MakeRoadNetwork(8, 8, kSeed);
  LoadAll(road);
  for (size_t hops : {2, 4, 6}) {
    auto pairs = MakeConnectedPairs(*gv_, hops, 4, kSeed + hops);
    ASSERT_FALSE(pairs.empty());
    for (const QueryPair& q : pairs) {
      EXPECT_TRUE(GrfReachable("road", q.src, q.dst))
          << q.src << "->" << q.dst;
      auto sg = sqlgraph_.Reachable(q.src, q.dst, hops);
      ASSERT_TRUE(sg.ok()) << sg.status().ToString();
      EXPECT_TRUE(*sg);
      auto gr = grail_.Reachable(q.src, q.dst, hops);
      ASSERT_TRUE(gr.ok());
      EXPECT_TRUE(*gr);
      EXPECT_TRUE(neo_->Reachable(q.src, q.dst));
      EXPECT_TRUE(titan_->Reachable(q.src, q.dst));
    }
  }
}

TEST_F(CrossValidationTest, ConstrainedReachabilityAgrees) {
  Dataset bio = MakeProteinNetwork(150, 3, kSeed);
  LoadAll(bio);
  const int64_t threshold = 50;  // 50% selectivity sub-graph.
  EdgeFilter filter = MakeRankFilter(*gv_, threshold);
  ASSERT_NE(filter, nullptr);

  auto rank_pred = [threshold](const PropertyMap& props) {
    auto it = props.find("rank");
    return it != props.end() && it->second.AsBigInt() < threshold;
  };

  size_t checked = 0;
  gv_->ForEachVertex([&](const VertexEntry& v) {
    if (v.id % 29 != 0) return true;  // Sample sources.
    for (int64_t dst : {int64_t(1), int64_t(7), int64_t(50)}) {
      if (dst == v.id || gv_->FindVertex(dst) == nullptr) continue;
      bool truth =
          HopDistance(*gv_, v.id, dst, filter) != static_cast<size_t>(-1);
      EXPECT_EQ(GrfReachable("bio", v.id, dst, threshold), truth)
          << v.id << "->" << dst;
      EXPECT_EQ(neo_->Reachable(v.id, dst, rank_pred), truth);
      EXPECT_EQ(titan_->Reachable(v.id, dst, rank_pred), truth);
      auto gr = grail_.Reachable(v.id, dst, bio.vertexes.size(), threshold);
      EXPECT_TRUE(gr.ok());
      if (gr.ok()) {
        EXPECT_EQ(*gr, truth);
      }
      ++checked;
    }
    return true;
  });
  EXPECT_GT(checked, 3u);
}

TEST_F(CrossValidationTest, ShortestPathCostsAgree) {
  Dataset road = MakeRoadNetwork(7, 7, kSeed + 9);
  LoadAll(road);
  auto pairs = MakeConnectedPairs(*gv_, 5, 5, kSeed);
  ASSERT_FALSE(pairs.empty());
  for (const QueryPair& q : pairs) {
    auto grf = GrfShortestCost("road", q.src, q.dst);
    auto grail_cost = grail_.ShortestPathCost(q.src, q.dst);
    ASSERT_TRUE(grail_cost.ok()) << grail_cost.status().ToString();
    auto neo_cost = neo_->ShortestPathCost(q.src, q.dst, "weight");
    auto titan_cost = titan_->ShortestPathCost(q.src, q.dst, "weight");
    ASSERT_TRUE(grf.has_value());
    ASSERT_TRUE(grail_cost->has_value());
    ASSERT_TRUE(neo_cost.has_value());
    ASSERT_TRUE(titan_cost.has_value());
    EXPECT_NEAR(*grf, **grail_cost, 1e-9);
    EXPECT_NEAR(*grf, *neo_cost, 1e-9);
    EXPECT_NEAR(*grf, *titan_cost, 1e-9);
  }
}

TEST_F(CrossValidationTest, TriangleCountsAgree) {
  Dataset social = MakeSocialNetwork(120, 4, kSeed + 3);
  LoadAll(social);
  auto grf = Exec(db_, 
      "SELECT COUNT(P) FROM social.Paths P WHERE P.Length = 3 "
      "AND P.Edges[0].label = 'follows' AND P.Edges[1].label = 'mentions' "
      "AND P.Edges[2].label = 'retweets' "
      "AND P.Edges[2].EndVertex = P.Edges[0].StartVertex");
  ASSERT_TRUE(grf.ok()) << grf.status().ToString();
  int64_t grf_count = grf->ScalarValue().AsBigInt();

  auto sg = sqlgraph_.CountTriangles("follows", "mentions", "retweets");
  ASSERT_TRUE(sg.ok()) << sg.status().ToString();
  int64_t neo_count =
      neo_->CountTriangles("label", "follows", "mentions", "retweets");
  int64_t titan_count =
      titan_->CountTriangles("label", "follows", "mentions", "retweets");

  EXPECT_EQ(grf_count, *sg);
  EXPECT_EQ(grf_count, neo_count);
  EXPECT_EQ(grf_count, titan_count);
}

TEST_F(CrossValidationTest, UndirectedTriangleCountsAgree) {
  // On undirected graphs the closure must be expressed via the path's own
  // endpoints (edge From/To keep the stored orientation).
  Dataset bio = MakeProteinNetwork(150, 4, kSeed + 8);
  LoadAll(bio);
  auto grf = Exec(db_, 
      "SELECT COUNT(P) FROM bio.Paths P WHERE P.Length = 3 "
      "AND P.Edges[0].label = 'covalent' AND P.Edges[1].label = 'stable' "
      "AND P.Edges[2].label = 'transient' "
      "AND P.EndVertexId = P.StartVertexId");
  ASSERT_TRUE(grf.ok()) << grf.status().ToString();
  auto sg = sqlgraph_.CountTriangles("covalent", "stable", "transient");
  ASSERT_TRUE(sg.ok()) << sg.status().ToString();
  int64_t neo_count =
      neo_->CountTriangles("label", "covalent", "stable", "transient");
  EXPECT_EQ(grf->ScalarValue().AsBigInt(), *sg);
  EXPECT_EQ(grf->ScalarValue().AsBigInt(), neo_count);
}

TEST_F(CrossValidationTest, SqlGraphDepthSemanticsMatchPairs) {
  Dataset road = MakeRoadNetwork(6, 6, kSeed + 5);
  LoadAll(road);
  auto pairs = MakeConnectedPairs(*gv_, 4, 3, kSeed);
  for (const QueryPair& q : pairs) {
    // Exactly 4 hops apart: a 4-hop self-join finds it, shorter ones do not.
    auto at4 = sqlgraph_.ReachableAtDepth(q.src, q.dst, 4);
    ASSERT_TRUE(at4.ok());
    EXPECT_TRUE(*at4);
    auto at1 = sqlgraph_.ReachableAtDepth(q.src, q.dst, 1);
    ASSERT_TRUE(at1.ok());
    EXPECT_FALSE(*at1);
  }
}

TEST(DatasetTest, GeneratorsAreDeterministic) {
  Dataset a = MakeProteinNetwork(100, 3, 7);
  Dataset b = MakeProteinNetwork(100, 3, 7);
  ASSERT_EQ(a.edges.size(), b.edges.size());
  for (size_t i = 0; i < a.edges.size(); ++i) {
    EXPECT_EQ(a.edges[i].src, b.edges[i].src);
    EXPECT_EQ(a.edges[i].dst, b.edges[i].dst);
    EXPECT_EQ(a.edges[i].rank, b.edges[i].rank);
  }
}

TEST(DatasetTest, AllDatasetsLoad) {
  for (const Dataset& dataset : MakeAllDatasets(0.002, 11)) {
    Database db(TestOptions());
    ASSERT_TRUE(LoadIntoDatabase(dataset, &db).ok()) << dataset.name;
    const GraphView* gv = db.catalog().FindGraphView(dataset.name);
    ASSERT_NE(gv, nullptr);
    EXPECT_EQ(gv->NumVertexes(), dataset.vertexes.size());
    EXPECT_EQ(gv->NumEdges(), dataset.edges.size());
    EXPECT_GT(gv->AverageFanOut(), 0.0);
  }
}

}  // namespace
}  // namespace grfusion
