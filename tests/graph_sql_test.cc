// Broader coverage of the graph-SQL dialect: unbound starts, vertex-range
// predicates, aggregates over graph accessors, path self-joins on
// attributes, DISTINCT over paths, and error paths.

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "engine/database.h"
#include "sql_test_util.h"

namespace grfusion {
namespace {

class GraphSqlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // A small directed "citation" style graph with typed vertexes.
    ASSERT_TRUE(ExecScript(db_, R"sql(
      CREATE TABLE node (id BIGINT PRIMARY KEY, kind VARCHAR, score DOUBLE);
      CREATE TABLE link (id BIGINT PRIMARY KEY, src BIGINT, dst BIGINT,
                         w DOUBLE, tag VARCHAR);
      INSERT INTO node VALUES
        (1, 'paper', 10.0), (2, 'paper', 20.0), (3, 'author', 5.0),
        (4, 'paper', 30.0), (5, 'author', 15.0), (6, 'venue', 1.0);
      INSERT INTO link VALUES
        (10, 1, 2, 1.0, 'cites'),  (11, 2, 4, 1.0, 'cites'),
        (12, 3, 1, 1.0, 'writes'), (13, 3, 2, 1.0, 'writes'),
        (14, 5, 4, 1.0, 'writes'), (15, 4, 6, 1.0, 'appears'),
        (16, 1, 4, 3.0, 'cites');
      CREATE DIRECTED GRAPH VIEW cite
        VERTEXES (ID = id, kind = kind, score = score) FROM node
        EDGES (ID = id, FROM = src, TO = dst, w = w, tag = tag) FROM link;
    )sql")
                    .ok());
  }

  ResultSet Must(const std::string& sql) {
    auto result = Exec(db_, sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status().ToString();
    return result.ok() ? *std::move(result) : ResultSet();
  }

  Database db_{TestOptions()};
};

TEST_F(GraphSqlTest, UnboundStartEnumeratesAllVertexes) {
  // No start binding: traversal starts from every vertex (paper §5.1.2).
  ResultSet r = Must(
      "SELECT COUNT(P) FROM cite.Paths P WHERE P.Length = 1 "
      "AND P.Edges[0].tag = 'writes'");
  EXPECT_EQ(r.ScalarValue().AsBigInt(), 3);
}

TEST_F(GraphSqlTest, VertexRangePredicate) {
  // All intermediate vertexes must be papers.
  ResultSet r = Must(
      "SELECT P.PathString FROM cite.Paths P "
      "WHERE P.StartVertex.Id = 1 AND P.Length = 2 "
      "AND P.Vertexes[0..*].kind = 'paper'");
  // 1->2->4 qualifies; 1->4->6 has a venue endpoint.
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_EQ(r.rows[0][0].AsVarchar(), "1 -[10]-> 2 -[11]-> 4");
}

TEST_F(GraphSqlTest, EndpointAttributePredicates) {
  ResultSet r = Must(
      "SELECT P.EndVertex.kind, P.EndVertex.score FROM cite.Paths P "
      "WHERE P.StartVertex.Id = 3 AND P.Length = 2 "
      "AND P.EndVertex.kind = 'paper' ORDER BY P.EndVertex.score");
  // 3->1->2 (20.0), 3->1->4 (30.0), 3->2->4 (30.0).
  ASSERT_EQ(r.NumRows(), 3u);
  EXPECT_DOUBLE_EQ(r.rows[0][1].AsNumeric(), 20.0);
}

TEST_F(GraphSqlTest, FanInFanOutInVertexScan) {
  ResultSet r = Must(
      "SELECT V.ID, V.fanIn, V.fanOut FROM cite.Vertexes V "
      "WHERE V.ID = 4");
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_EQ(r.rows[0][1].AsBigInt(), 3);  // From 2, 5, 1.
  EXPECT_EQ(r.rows[0][2].AsBigInt(), 1);  // To 6.
}

TEST_F(GraphSqlTest, AggregatesOverVertexScan) {
  ResultSet r = Must(
      "SELECT V.kind, COUNT(*), AVG(V.score) FROM cite.Vertexes V "
      "GROUP BY V.kind ORDER BY V.kind");
  ASSERT_EQ(r.NumRows(), 3u);
  EXPECT_EQ(r.rows[0][0].AsVarchar(), "author");
  EXPECT_DOUBLE_EQ(r.rows[0][2].AsNumeric(), 10.0);
}

TEST_F(GraphSqlTest, EdgeScanJoinedWithVertexScan) {
  ResultSet r = Must(
      "SELECT E.ID FROM cite.Edges E, cite.Vertexes V "
      "WHERE E.TO = V.ID AND V.kind = 'venue'");
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_EQ(r.rows[0][0].AsBigInt(), 15);
}

TEST_F(GraphSqlTest, PathAggregateInSelect) {
  ResultSet r = Must(
      "SELECT SUM(P.Edges.w), P.Length FROM cite.Paths P "
      "WHERE P.StartVertex.Id = 1 AND P.EndVertex.Id = 4 AND P.Length <= 2 "
      "ORDER BY SUM(P.Edges.w)");
  ASSERT_EQ(r.NumRows(), 2u);
  EXPECT_DOUBLE_EQ(r.rows[0][0].AsNumeric(), 2.0);  // 1->2->4.
  EXPECT_DOUBLE_EQ(r.rows[1][0].AsNumeric(), 3.0);  // 1->4 chord.
}

TEST_F(GraphSqlTest, DistinctOverPathProjection) {
  ResultSet r = Must(
      "SELECT DISTINCT P.EndVertex.kind FROM cite.Paths P "
      "WHERE P.StartVertex.Id = 3 AND P.Length = 2");
  // End kinds of 3->1->{2,4}, 3->2->4: paper only.
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_EQ(r.rows[0][0].AsVarchar(), "paper");
}

TEST_F(GraphSqlTest, PathSelfJoinOnAttributes) {
  // Two authors writing the same paper (co-citation style pattern via two
  // 1-edge paths meeting at the same end vertex).
  ResultSet r = Must(
      "SELECT P1.StartVertexId, P2.StartVertexId FROM cite.Paths P1, "
      "cite.Paths P2 "
      "WHERE P1.Length = 1 AND P2.Length = 1 "
      "AND P1.Edges[0].tag = 'writes' AND P2.Edges[0].tag = 'writes' "
      "AND P1.EndVertexId = P2.EndVertexId "
      "AND P1.StartVertexId < P2.StartVertexId");
  // Papers: 1 (by 3), 2 (by 3), 4 (by 5) — no shared paper, so empty...
  // except paper 2 written by 3 only. Expect 0 rows.
  EXPECT_EQ(r.NumRows(), 0u);
  // Add a co-author and re-check.
  ASSERT_TRUE(
      Exec(db_, "INSERT INTO link VALUES (17, 5, 2, 1.0, 'writes')").ok());
  r = Must(
      "SELECT P1.StartVertexId, P2.StartVertexId FROM cite.Paths P1, "
      "cite.Paths P2 "
      "WHERE P1.Length = 1 AND P2.Length = 1 "
      "AND P1.Edges[0].tag = 'writes' AND P2.Edges[0].tag = 'writes' "
      "AND P1.EndVertexId = P2.EndVertexId "
      "AND P1.StartVertexId < P2.StartVertexId");
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_EQ(r.rows[0][0].AsBigInt(), 3);
  EXPECT_EQ(r.rows[0][1].AsBigInt(), 5);
}

TEST_F(GraphSqlTest, BareAliasProjectsPathString) {
  ResultSet r = Must(
      "SELECT P FROM cite.Paths P WHERE P.StartVertex.Id = 1 AND "
      "P.Length = 1 ORDER BY P");
  ASSERT_EQ(r.NumRows(), 2u);
  EXPECT_NE(r.rows[0][0].AsVarchar().find("-["), std::string::npos);
}

TEST_F(GraphSqlTest, InPredicateOnEdgeRange) {
  ResultSet r = Must(
      "SELECT COUNT(P) FROM cite.Paths P WHERE P.StartVertex.Id = 3 "
      "AND P.Length = 2 AND P.Edges[0..*].tag IN ('writes', 'cites')");
  EXPECT_EQ(r.ScalarValue().AsBigInt(), 3);
}

TEST_F(GraphSqlTest, LikePredicateOnEdgeRange) {
  ResultSet r = Must(
      "SELECT COUNT(P) FROM cite.Paths P WHERE P.StartVertex.Id = 3 "
      "AND P.Length = 1 AND P.Edges[0..*].tag LIKE 'wr%'");
  EXPECT_EQ(r.ScalarValue().AsBigInt(), 2);
}

TEST_F(GraphSqlTest, MixedRelationalAndGraphPredicates) {
  ResultSet r = Must(
      "SELECT N.score FROM node N, cite.Paths P "
      "WHERE P.StartVertex.Id = N.id AND N.kind = 'author' "
      "AND P.Length = 1 AND P.Edges[0].tag = 'writes' "
      "AND P.EndVertex.score > 25");
  // Authors whose written paper scores > 25: 5 -> 4 (30.0).
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_DOUBLE_EQ(r.rows[0][0].AsNumeric(), 15.0);
}

TEST_F(GraphSqlTest, ErrorOnUnknownPathProperty) {
  EXPECT_FALSE(Exec(db_, "SELECT P.Bogus FROM cite.Paths P "
                           "WHERE P.StartVertex.Id = 1 AND P.Length = 1")
                   .ok());
}

TEST_F(GraphSqlTest, ErrorOnUnknownEdgeAttribute) {
  EXPECT_FALSE(
      Exec(db_, "SELECT 1 FROM cite.Paths P WHERE P.StartVertex.Id = 1 "
                  "AND P.Edges[0].missing = 1 AND P.Length = 1")
          .ok());
}

TEST_F(GraphSqlTest, ErrorOnRangeRefOutsidePredicate) {
  EXPECT_FALSE(
      Exec(db_, "SELECT P.Edges[0..*].tag FROM cite.Paths P "
                  "WHERE P.StartVertex.Id = 1 AND P.Length = 1")
          .ok());
}

TEST_F(GraphSqlTest, ErrorOnHintForTable) {
  EXPECT_FALSE(Exec(db_, "SELECT 1 FROM node HINT(DFS)").ok());
}

TEST_F(GraphSqlTest, ZeroResultTraversals) {
  // Nonexistent start vertex: no paths, no error.
  ResultSet r = Must(
      "SELECT P.PathString FROM cite.Paths P WHERE P.StartVertex.Id = 999 "
      "AND P.Length = 1");
  EXPECT_EQ(r.NumRows(), 0u);
  // Contradictory length window.
  r = Must(
      "SELECT P.PathString FROM cite.Paths P WHERE P.StartVertex.Id = 1 "
      "AND P.Length = 2 AND P.Length = 3");
  EXPECT_EQ(r.NumRows(), 0u);
}

TEST_F(GraphSqlTest, CycleClosureOnDirectedGraph) {
  // Build a 3-cycle and find it as a closed length-3 path.
  ASSERT_TRUE(
      Exec(db_, "INSERT INTO link VALUES (20, 4, 1, 1.0, 'back')").ok());
  ResultSet r = Must(
      "SELECT COUNT(P) FROM cite.Paths P WHERE P.Length = 3 "
      "AND P.StartVertex.Id = 1 "
      "AND P.Edges[2].EndVertex = P.Edges[0].StartVertex");
  // Cycles from 1 of length 3: 1->2->4->1. (1->4 chord gives length 2.)
  EXPECT_EQ(r.ScalarValue().AsBigInt(), 1);
}

TEST_F(GraphSqlTest, GraphViewOverMaterializedView) {
  // Paper §3.1: "the relational source can either be a table or a
  // materialized relational-view". Build a filtered edge view and declare a
  // graph over it.
  ASSERT_TRUE(Exec(db_, 
                    "CREATE MATERIALIZED VIEW cites_only AS "
                    "SELECT id, src, dst, w FROM link WHERE tag = 'cites'")
                  .ok());
  ASSERT_TRUE(ExecScript(db_, 
                    "CREATE DIRECTED GRAPH VIEW citegraph "
                    "VERTEXES (ID = id, kind = kind) FROM node "
                    "EDGES (ID = id, FROM = src, TO = dst, w = w) "
                    "FROM cites_only;")
                  .ok());
  const GraphView* gv = db_.catalog().FindGraphView("citegraph");
  ASSERT_NE(gv, nullptr);
  EXPECT_EQ(gv->NumEdges(), 3u);  // Edges 10, 11, 16.
  auto r = Must(
      "SELECT COUNT(P) FROM citegraph.Paths P WHERE P.StartVertex.Id = 1 "
      "AND P.Length = 2");
  EXPECT_EQ(r.ScalarValue().AsBigInt(), 1);  // 1->2->4.
}

TEST_F(GraphSqlTest, MaterializedViewSnapshotsData) {
  ASSERT_TRUE(Exec(db_, "CREATE MATERIALIZED VIEW papers AS "
                          "SELECT id, score FROM node WHERE kind = 'paper'")
                  .ok());
  auto before = Must("SELECT COUNT(*) FROM papers");
  EXPECT_EQ(before.ScalarValue().AsBigInt(), 3);
  // New base rows do not appear (snapshot semantics).
  ASSERT_TRUE(
      Exec(db_, "INSERT INTO node VALUES (7, 'paper', 50.0)").ok());
  auto after = Must("SELECT COUNT(*) FROM papers");
  EXPECT_EQ(after.ScalarValue().AsBigInt(), 3);
  // Duplicate name rejected.
  EXPECT_FALSE(Exec(db_, "CREATE MATERIALIZED VIEW papers AS "
                           "SELECT id FROM node")
                   .ok());
}

TEST_F(GraphSqlTest, TraversalSeesOnlineUpdatesImmediately) {
  ResultSet before = Must(
      "SELECT COUNT(P) FROM cite.Paths P WHERE P.StartVertex.Id = 6 AND "
      "P.Length = 1");
  EXPECT_EQ(before.ScalarValue().AsBigInt(), 0);  // Venue has no out-edges.
  ASSERT_TRUE(
      Exec(db_, "INSERT INTO link VALUES (21, 6, 1, 1.0, 'hosts')").ok());
  ResultSet after = Must(
      "SELECT COUNT(P) FROM cite.Paths P WHERE P.StartVertex.Id = 6 AND "
      "P.Length = 1");
  EXPECT_EQ(after.ScalarValue().AsBigInt(), 1);
}

TEST_F(GraphSqlTest, ExplainAnalyzeAnnotatesPathScan) {
  ResultSet r = Must(
      "EXPLAIN ANALYZE SELECT P.PathString FROM cite.Paths P HINT(BFS) "
      "WHERE P.StartVertex.Id = 1 AND P.EndVertex.Id = 4 LIMIT 1");
  std::string plan;
  for (const auto& row : r.rows) plan += row[0].AsVarchar() + "\n";
  // The path-scan operator (BFS physical variant) reports runtime actuals.
  size_t at = plan.find("PathProbeJoin[");
  ASSERT_NE(at, std::string::npos) << plan;
  std::string line = plan.substr(at, plan.find('\n', at) - at);
  EXPECT_NE(line.find("BFScan"), std::string::npos) << plan;
  EXPECT_NE(line.find("actual_rows="), std::string::npos) << plan;
  EXPECT_NE(line.find("time_ms="), std::string::npos) << plan;
  // Every plan line is annotated, and execution found the path.
  for (const auto& row : r.rows) {
    const std::string& l = row[0].AsVarchar();
    if (l.rfind("Execution:", 0) == 0 || l.empty()) continue;
    EXPECT_NE(l.find("actual_rows="), std::string::npos) << l;
  }
  EXPECT_NE(plan.find("Execution: rows=1"), std::string::npos) << plan;
}

TEST_F(GraphSqlTest, TraversalMetricsAccumulate) {
  Counter* expanded = MetricsRegistry::Global().GetCounter(
      "vertexes_expanded_total");
  uint64_t before = expanded->value();
  Must("SELECT COUNT(P) FROM cite.Paths P WHERE P.StartVertex.Id = 1");
  EXPECT_GT(expanded->value(), before);
}

TEST_F(GraphSqlTest, SysGraphViewsDescribesTopology) {
  ResultSet r = Must(
      "SELECT NAME, DIRECTED, VERTEXES, EDGES FROM SYS.GRAPH_VIEWS");
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_EQ(r.rows[0][0].AsVarchar(), "cite");
  EXPECT_TRUE(r.rows[0][1].AsBoolean());
  EXPECT_EQ(r.rows[0][2].AsBigInt(), 6);
  EXPECT_EQ(r.rows[0][3].AsBigInt(), 7);
}

TEST_F(GraphSqlTest, NonNumericPathArithmeticIsRejected) {
  // A BOOLEAN edge attribute beside the VARCHAR `tag`, on a second view over
  // the same vertexes.
  ASSERT_TRUE(ExecScript(db_, R"sql(
    CREATE TABLE flag (id BIGINT PRIMARY KEY, src BIGINT, dst BIGINT,
                       rel BOOLEAN);
    INSERT INTO flag VALUES (20, 1, 2, true), (21, 2, 4, false);
    CREATE DIRECTED GRAPH VIEW flagged
      VERTEXES (ID = id) FROM node
      EDGES (ID = id, FROM = src, TO = dst, rel = rel) FROM flag;
  )sql")
                  .ok());
  // SHORTESTPATH costs and pushed SUM bounds read their attribute as a
  // number. A VARCHAR would read as 0 and a BOOLEAN as 0/1, so the planner
  // refuses both, with the message the row-level path aggregate fails with.
  const char* kStatements[] = {
      "SELECT TOP 1 PS.Cost FROM cite.Paths PS HINT(SHORTESTPATH(tag)) "
      "WHERE PS.StartVertex.Id = 1 AND PS.EndVertex.Id = 4",
      "SELECT COUNT(*) FROM cite.Paths PS WHERE PS.StartVertex.Id = 1 "
      "AND SUM(PS.Edges.tag) < 1 AND PS.Length <= 3",
      "SELECT TOP 1 PS.Cost FROM flagged.Paths PS HINT(SHORTESTPATH(rel)) "
      "WHERE PS.StartVertex.Id = 1 AND PS.EndVertex.Id = 4",
      "SELECT COUNT(*) FROM flagged.Paths PS WHERE PS.StartVertex.Id = 1 "
      "AND SUM(PS.Edges.rel) <= 1 AND PS.Length <= 2",
  };
  for (const char* sql : kStatements) {
    auto result = Exec(db_, sql);
    ASSERT_FALSE(result.ok()) << sql;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << sql;
    EXPECT_EQ(result.status().message(),
              "path aggregate over non-numeric attribute")
        << sql;
  }
  // The row-level aggregate keeps failing the same way, and numeric
  // attributes keep working.
  auto projected = Exec(db_,
                        "SELECT SUM(PS.Edges.tag) FROM cite.Paths PS "
                        "WHERE PS.StartVertex.Id = 1 AND PS.Length = 1");
  ASSERT_FALSE(projected.ok());
  EXPECT_EQ(projected.status().message(),
            "path aggregate over non-numeric attribute");
  ResultSet cost = Must(
      "SELECT TOP 1 PS.Cost FROM cite.Paths PS HINT(SHORTESTPATH(w)) "
      "WHERE PS.StartVertex.Id = 1 AND PS.EndVertex.Id = 4");
  ASSERT_EQ(cost.NumRows(), 1u);
  EXPECT_EQ(cost.rows[0][0].AsNumeric(), 2.0);
  ResultSet bounded = Must(
      "SELECT COUNT(*) FROM cite.Paths PS WHERE PS.StartVertex.Id = 1 "
      "AND SUM(PS.Edges.w) < 2.5 AND PS.Length <= 3");
  EXPECT_EQ(bounded.ScalarValue().AsBigInt(), 2);  // 1-2 and 1-2-4.
}

}  // namespace
}  // namespace grfusion
