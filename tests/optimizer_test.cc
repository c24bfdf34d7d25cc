// Tests of the §6 optimizer behaviors, asserted through EXPLAIN output and
// execution statistics: length inference, filter pushdown, physical operator
// mapping, the reachability fast path, and probe bindings.

#include <gtest/gtest.h>

#include "engine/database.h"
#include "sql_test_util.h"

namespace grfusion {
namespace {

class OptimizerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(session_.ExecuteScript(R"sql(
      CREATE TABLE v (id BIGINT PRIMARY KEY, name VARCHAR);
      CREATE TABLE e (id BIGINT PRIMARY KEY, src BIGINT, dst BIGINT,
                      w DOUBLE, rank BIGINT);
      INSERT INTO v VALUES (1,'a'),(2,'b'),(3,'c'),(4,'d'),(5,'e');
      INSERT INTO e VALUES
        (10, 1, 2, 1.0, 5), (11, 2, 3, 1.0, 50), (12, 3, 4, 1.0, 5),
        (13, 4, 5, 1.0, 80), (14, 1, 3, 2.0, 5), (15, 2, 4, 2.0, 20);
      CREATE DIRECTED GRAPH VIEW g
        VERTEXES (ID = id, name = name) FROM v
        EDGES (ID = id, FROM = src, TO = dst, w = w, rank = rank) FROM e;
    )sql")
                    .ok());
  }

  std::string MustExplain(const std::string& sql) {
    auto r = session_.Execute("EXPLAIN " + sql);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) return "";
    std::string plan;
    for (const auto& row : r->rows) plan += row[0].AsVarchar() + "\n";
    return plan;
  }

  Database db_{TestOptions()};
  Session session_{db_};
};

TEST_F(OptimizerTest, ExplicitLengthInference) {
  std::string plan = MustExplain(
      "SELECT P.PathString FROM g.Paths P "
      "WHERE P.StartVertex.Id = 1 AND P.Length = 2");
  EXPECT_NE(plan.find("len: [2, 2]"), std::string::npos) << plan;
}

TEST_F(OptimizerTest, InequalityLengthInference) {
  std::string plan = MustExplain(
      "SELECT P.PathString FROM g.Paths P "
      "WHERE P.StartVertex.Id = 1 AND P.Length >= 2 AND P.Length < 5");
  EXPECT_NE(plan.find("len: [2, 4]"), std::string::npos) << plan;
}

TEST_F(OptimizerTest, ImplicitLengthInferenceFromIndexedPredicate) {
  // Paper §6.1: "PS.Edges[5..*].Att = V" implies min length 6.
  std::string plan = MustExplain(
      "SELECT P.PathString FROM g.Paths P "
      "WHERE P.StartVertex.Id = 1 AND P.Edges[5..*].rank = 1 AND "
      "P.Length < 9");
  EXPECT_NE(plan.find("len: [6, 8]"), std::string::npos) << plan;
}

TEST_F(OptimizerTest, ClosedRangeRaisesMinLength) {
  std::string plan = MustExplain(
      "SELECT P.PathString FROM g.Paths P "
      "WHERE P.StartVertex.Id = 1 AND P.Edges[1..2].rank < 50 AND "
      "P.Length <= 4");
  EXPECT_NE(plan.find("len: [3, 4]"), std::string::npos) << plan;
}

TEST_F(OptimizerTest, LengthInferenceDisabledFallsBack) {
  session_.options().enable_length_inference = false;
  session_.options().fallback_max_length = 7;
  std::string plan = MustExplain(
      "SELECT P.PathString FROM g.Paths P "
      "WHERE P.StartVertex.Id = 1 AND P.Length = 2");
  EXPECT_NE(plan.find("len: [1, 7]"), std::string::npos) << plan;
  // Answers must still be correct (Length enforced as residual).
  auto on = session_.Execute(
      "SELECT COUNT(P) FROM g.Paths P WHERE P.StartVertex.Id = 1 AND "
      "P.Length = 2");
  session_.options().enable_length_inference = true;
  auto off = session_.Execute(
      "SELECT COUNT(P) FROM g.Paths P WHERE P.StartVertex.Id = 1 AND "
      "P.Length = 2");
  ASSERT_TRUE(on.ok() && off.ok());
  EXPECT_EQ(on->ScalarValue().AsBigInt(), off->ScalarValue().AsBigInt());
}

TEST_F(OptimizerTest, PushedFiltersAppearInSpec) {
  std::string plan = MustExplain(
      "SELECT P.PathString FROM g.Paths P "
      "WHERE P.StartVertex.Id = 1 AND P.Length = 2 AND "
      "P.Edges[0..*].rank < 10");
  EXPECT_NE(plan.find("pushed: 1"), std::string::npos) << plan;
  session_.options().enable_filter_pushdown = false;
  plan = MustExplain(
      "SELECT P.PathString FROM g.Paths P "
      "WHERE P.StartVertex.Id = 1 AND P.Length = 2 AND "
      "P.Edges[0..*].rank < 10");
  EXPECT_NE(plan.find("NO-PUSHDOWN"), std::string::npos) << plan;
  session_.options().enable_filter_pushdown = true;
}

TEST_F(OptimizerTest, PushdownReducesWork) {
  auto run = [&](bool pushdown) {
    session_.options().enable_filter_pushdown = pushdown;
    auto r = session_.Execute(
        "SELECT COUNT(P) FROM g.Paths P WHERE P.StartVertex.Id = 1 AND "
        "P.Length = 3 AND P.Edges[0..*].rank < 10");
    EXPECT_TRUE(r.ok());
    return session_.last_stats().vertexes_expanded;
  };
  uint64_t with = run(true);
  uint64_t without = run(false);
  session_.options().enable_filter_pushdown = true;
  EXPECT_LE(with, without);
}

TEST_F(OptimizerTest, SumBoundIsPushed) {
  std::string plan = MustExplain(
      "SELECT P.PathString FROM g.Paths P "
      "WHERE P.StartVertex.Id = 1 AND P.Length <= 3 AND SUM(P.Edges.w) < 3");
  EXPECT_NE(plan.find("sum-bounds: 1"), std::string::npos) << plan;
  // And it is exact: only paths with total weight < 3 survive.
  auto r = session_.Execute(
      "SELECT SUM(P.Edges.w) FROM g.Paths P "
      "WHERE P.StartVertex.Id = 1 AND P.Length <= 3 AND SUM(P.Edges.w) < 3");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  for (const auto& row : r->rows) {
    EXPECT_LT(row[0].AsNumeric(), 3.0);
  }
}

TEST_F(OptimizerTest, HintsSelectPhysicalOperator) {
  EXPECT_NE(MustExplain("SELECT P.PathString FROM g.Paths P HINT(DFS) "
                        "WHERE P.StartVertex.Id = 1 AND P.Length = 2")
                .find("DFScan"),
            std::string::npos);
  EXPECT_NE(MustExplain("SELECT P.PathString FROM g.Paths P HINT(BFS) "
                        "WHERE P.StartVertex.Id = 1 AND P.Length = 2")
                .find("BFScan"),
            std::string::npos);
  EXPECT_NE(MustExplain("SELECT TOP 1 P.Cost FROM g.Paths P "
                        "HINT(SHORTESTPATH(w)) WHERE P.StartVertex.Id = 1 "
                        "AND P.EndVertex.Id = 5")
                .find("SPScan"),
            std::string::npos);
}

TEST_F(OptimizerTest, ReachabilityFastPathConditions) {
  // Eligible: end bound + LIMIT 1 + uniform predicate.
  std::string plan = MustExplain(
      "SELECT P.PathString FROM g.Paths P WHERE P.StartVertex.Id = 1 AND "
      "P.EndVertex.Id = 5 AND P.Edges[0..*].rank < 90 LIMIT 1");
  EXPECT_NE(plan.find("visited-once"), std::string::npos) << plan;

  // Not eligible: LIMIT > 1.
  plan = MustExplain(
      "SELECT P.PathString FROM g.Paths P WHERE P.StartVertex.Id = 1 AND "
      "P.EndVertex.Id = 5 LIMIT 3");
  EXPECT_EQ(plan.find("visited-once"), std::string::npos) << plan;

  // Not eligible: positional (non-uniform) predicate.
  plan = MustExplain(
      "SELECT P.PathString FROM g.Paths P WHERE P.StartVertex.Id = 1 AND "
      "P.EndVertex.Id = 5 AND P.Edges[1].rank < 90 LIMIT 1");
  EXPECT_EQ(plan.find("visited-once"), std::string::npos) << plan;

  // Not eligible when disabled.
  session_.options().enable_reachability_fastpath = false;
  plan = MustExplain(
      "SELECT P.PathString FROM g.Paths P WHERE P.StartVertex.Id = 1 AND "
      "P.EndVertex.Id = 5 LIMIT 1");
  EXPECT_EQ(plan.find("visited-once"), std::string::npos) << plan;
  session_.options().enable_reachability_fastpath = true;
}

TEST_F(OptimizerTest, StartAndEndBindingsExtracted) {
  std::string plan = MustExplain(
      "SELECT P.PathString FROM v U, g.Paths P "
      "WHERE U.name = 'a' AND P.StartVertex.Id = U.id AND "
      "P.EndVertex.Id = 5 AND P.Length <= 4");
  EXPECT_NE(plan.find("start: "), std::string::npos) << plan;
  EXPECT_NE(plan.find("end: "), std::string::npos) << plan;
}

TEST_F(OptimizerTest, PathToPathProbeBinding) {
  // The second path starts where the first ends: must become a probe
  // binding, not a residual filter over an all-vertex enumeration.
  std::string plan = MustExplain(
      "SELECT P2.PathString FROM g.Paths P1, g.Paths P2 "
      "WHERE P1.StartVertex.Id = 1 AND P1.Length = 1 "
      "AND P2.StartVertex.Id = P1.EndVertexId AND P2.Length = 1");
  // Two probe joins, the second parameterized by the first.
  size_t first = plan.find("PathProbeJoin");
  ASSERT_NE(first, std::string::npos);
  EXPECT_NE(plan.find("PathProbeJoin", first + 1), std::string::npos) << plan;
  auto r = session_.Execute(
      "SELECT COUNT(P2) FROM g.Paths P1, g.Paths P2 "
      "WHERE P1.StartVertex.Id = 1 AND P1.Length = 1 "
      "AND P2.StartVertex.Id = P1.EndVertexId AND P2.Length = 1");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Paths from 1: 1->2, 1->3. From 2: 2->3, 2->4. From 3: 3->4. Total 3.
  EXPECT_EQ(r->ScalarValue().AsBigInt(), 3);
}

TEST_F(OptimizerTest, AutoRuleUsesFanOutStatistic) {
  // §6.3: BFS iff F^(L-1) < L. This graph's avg fan-out is 6/5 = 1.2;
  // for L = 3: 1.2^2 = 1.44 < 3 -> BFS.
  session_.options().default_traversal = PlannerOptions::Traversal::kAuto;
  std::string plan = MustExplain(
      "SELECT P.PathString FROM g.Paths P "
      "WHERE P.StartVertex.Id = 1 AND P.Length = 3");
  EXPECT_NE(plan.find("BFScan"), std::string::npos) << plan;
}

TEST_F(OptimizerTest, VertexScanIdProbe) {
  // `V.ID = const` resolves through the topology hash map in O(1).
  std::string plan = MustExplain("SELECT V.name FROM g.Vertexes V "
                                 "WHERE V.ID = 3");
  EXPECT_NE(plan.find("id-probe"), std::string::npos) << plan;
  auto r = session_.Execute("SELECT V.name FROM g.Vertexes V WHERE V.ID = 3");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->NumRows(), 1u);
  EXPECT_EQ(r->rows[0][0].AsVarchar(), "c");
  EXPECT_EQ(session_.last_stats().rows_scanned, 1u);
  // Missing id: zero rows, no error.
  r = session_.Execute("SELECT V.name FROM g.Vertexes V WHERE V.ID = 404");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->NumRows(), 0u);
}

TEST_F(OptimizerTest, StatsExposeTraversalWork) {
  auto r = session_.Execute(
      "SELECT COUNT(P) FROM g.Paths P WHERE P.StartVertex.Id = 1 AND "
      "P.Length = 2");
  ASSERT_TRUE(r.ok());
  EXPECT_GT(session_.last_stats().vertexes_expanded, 0u);
  EXPECT_GT(session_.last_stats().edges_examined, 0u);
  EXPECT_GT(session_.last_stats().paths_emitted, 0u);
}

}  // namespace
}  // namespace grfusion
