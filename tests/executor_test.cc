// SQL-level tests of the relational executor: scans, joins, aggregation,
// grouping, HAVING, ordering, DISTINCT, limits, DML semantics, scalar
// functions, and the memory accountant.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>

#include "engine/database.h"
#include "sql_test_util.h"

namespace grfusion {
namespace {

class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(session_.ExecuteScript(R"sql(
      CREATE TABLE emp (id BIGINT PRIMARY KEY, name VARCHAR, dept VARCHAR,
                        salary DOUBLE, boss BIGINT);
      CREATE TABLE dept (name VARCHAR, city VARCHAR);
      INSERT INTO emp VALUES
        (1, 'ann',  'eng',   120.0, NULL),
        (2, 'bob',  'eng',   100.0, 1),
        (3, 'cat',  'sales',  90.0, 1),
        (4, 'dan',  'sales',  80.0, 3),
        (5, 'eve',  'hr',     70.0, 1),
        (6, 'fay',  'eng',   110.0, 1);
      INSERT INTO dept VALUES
        ('eng', 'sf'), ('sales', 'nyc'), ('hr', 'sf');
    )sql")
                    .ok());
  }

  ResultSet Must(const std::string& sql) {
    auto result = session_.Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status().ToString();
    return result.ok() ? *std::move(result) : ResultSet();
  }

  /// Renders the physical plan via the EXPLAIN statement (the old
  /// Database::Explain entry point folded into Execute).
  std::string MustPlan(const std::string& sql) {
    ResultSet r = Must("EXPLAIN " + sql);
    std::string plan;
    for (const auto& row : r.rows) plan += row[0].AsVarchar() + "\n";
    return plan;
  }

  Database db_{TestOptions()};
  Session session_{db_};
};

TEST_F(ExecutorTest, ProjectionAndFilter) {
  ResultSet r = Must("SELECT name FROM emp WHERE salary > 100 ORDER BY name");
  ASSERT_EQ(r.NumRows(), 2u);
  EXPECT_EQ(r.rows[0][0].AsVarchar(), "ann");
  EXPECT_EQ(r.rows[1][0].AsVarchar(), "fay");
}

TEST_F(ExecutorTest, StarExpansion) {
  ResultSet r = Must("SELECT * FROM dept ORDER BY name");
  ASSERT_EQ(r.NumRows(), 3u);
  EXPECT_EQ(r.column_names,
            (std::vector<std::string>{"name", "city"}));
}

TEST_F(ExecutorTest, HashJoin) {
  ResultSet r = Must(
      "SELECT e.name, d.city FROM emp e, dept d "
      "WHERE e.dept = d.name AND d.city = 'sf' ORDER BY e.name");
  ASSERT_EQ(r.NumRows(), 4u);  // ann, bob, eve, fay.
  EXPECT_EQ(r.rows[0][0].AsVarchar(), "ann");
  EXPECT_EQ(r.rows[0][1].AsVarchar(), "sf");
}

TEST_F(ExecutorTest, SelfJoinWithAliases) {
  ResultSet r = Must(
      "SELECT e.name, b.name FROM emp e, emp b "
      "WHERE e.boss = b.id AND b.name = 'ann' ORDER BY e.name");
  ASSERT_EQ(r.NumRows(), 4u);  // bob, cat, eve, fay report to ann.
}

TEST_F(ExecutorTest, NonEquiJoinFallsBackToNlj) {
  ResultSet r = Must(
      "SELECT e.name, b.name FROM emp e, emp b "
      "WHERE e.salary > b.salary AND b.name = 'fay'");
  ASSERT_EQ(r.NumRows(), 1u);  // Only ann out-earns fay.
  EXPECT_EQ(r.rows[0][0].AsVarchar(), "ann");
}

TEST_F(ExecutorTest, CrossJoinCount) {
  ResultSet r = Must("SELECT COUNT(*) FROM emp e, dept d");
  EXPECT_EQ(r.ScalarValue().AsBigInt(), 18);
}

TEST_F(ExecutorTest, ScalarAggregates) {
  ResultSet r = Must(
      "SELECT COUNT(*), SUM(salary), MIN(salary), MAX(salary), AVG(salary) "
      "FROM emp");
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_EQ(r.rows[0][0].AsBigInt(), 6);
  EXPECT_DOUBLE_EQ(r.rows[0][1].AsNumeric(), 570.0);
  EXPECT_DOUBLE_EQ(r.rows[0][2].AsNumeric(), 70.0);
  EXPECT_DOUBLE_EQ(r.rows[0][3].AsNumeric(), 120.0);
  EXPECT_DOUBLE_EQ(r.rows[0][4].AsNumeric(), 95.0);
}

TEST_F(ExecutorTest, AggregateOverEmptyInput) {
  ResultSet r = Must("SELECT COUNT(*), SUM(salary) FROM emp WHERE id > 99");
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_EQ(r.rows[0][0].AsBigInt(), 0);
  EXPECT_TRUE(r.rows[0][1].is_null());
}

TEST_F(ExecutorTest, BigIntSumIsExactAndOverflowFails) {
  // 2^53 + 1 has no double: a SUM kept in a double returned ...992.
  ASSERT_TRUE(session_.ExecuteScript(R"sql(
    CREATE TABLE big (g BIGINT, x BIGINT);
    INSERT INTO big VALUES (1, 9007199254740993), (1, 0), (2, 3), (2, -5);
  )sql")
                  .ok());
  ResultSet r = Must("SELECT g, SUM(x) FROM big GROUP BY g");
  ASSERT_EQ(r.NumRows(), 2u);
  EXPECT_EQ(r.rows[0][1].type(), ValueType::kBigInt);
  EXPECT_EQ(r.rows[0][1].AsBigInt(), 9007199254740993);
  EXPECT_EQ(r.rows[1][1].AsBigInt(), -2);
  r = Must("SELECT SUM(x), AVG(x) FROM big WHERE g = 2");
  EXPECT_EQ(r.rows[0][0].AsBigInt(), -2);
  EXPECT_DOUBLE_EQ(r.rows[0][1].AsDouble(), -1.0);

  // A sum past 2^63 - 1 is an error, not a wrapped or converted value.
  ASSERT_TRUE(session_.ExecuteScript(R"sql(
    INSERT INTO big VALUES (3, 9223372036854775807), (3, 1);
  )sql")
                  .ok());
  for (const char* sql : {"SELECT SUM(x) FROM big WHERE g = 3",
                          "SELECT AVG(x) FROM big WHERE g = 3"}) {
    auto over = session_.Execute(sql);
    ASSERT_FALSE(over.ok()) << sql;
    EXPECT_EQ(over.status().code(), StatusCode::kOutOfRange) << sql;
  }
}

TEST_F(ExecutorTest, CountSkipsNulls) {
  ResultSet r = Must("SELECT COUNT(boss) FROM emp");
  EXPECT_EQ(r.ScalarValue().AsBigInt(), 5);  // ann's boss is NULL.
}

TEST_F(ExecutorTest, GroupByHavingOrder) {
  ResultSet r = Must(
      "SELECT dept, COUNT(*) AS n, AVG(salary) FROM emp "
      "GROUP BY dept HAVING COUNT(*) >= 2 ORDER BY n DESC, dept");
  ASSERT_EQ(r.NumRows(), 2u);
  EXPECT_EQ(r.rows[0][0].AsVarchar(), "eng");
  EXPECT_EQ(r.rows[0][1].AsBigInt(), 3);
  EXPECT_EQ(r.rows[1][0].AsVarchar(), "sales");
  EXPECT_DOUBLE_EQ(r.rows[1][2].AsNumeric(), 85.0);
}

TEST_F(ExecutorTest, GroupByRejectsUngroupedColumn) {
  auto r = session_.Execute("SELECT name, COUNT(*) FROM emp GROUP BY dept");
  EXPECT_FALSE(r.ok());
}

TEST_F(ExecutorTest, DistinctAndLimit) {
  ResultSet r = Must("SELECT DISTINCT dept FROM emp ORDER BY dept");
  ASSERT_EQ(r.NumRows(), 3u);
  r = Must("SELECT DISTINCT dept FROM emp ORDER BY dept LIMIT 2");
  ASSERT_EQ(r.NumRows(), 2u);
  EXPECT_EQ(r.rows[0][0].AsVarchar(), "eng");
}

TEST_F(ExecutorTest, TypedKeysKeepNearbyValuesApart) {
  // Join, group and distinct keys compare typed values, not their display
  // strings: %g keeps 6 significant digits, so a string key merged values
  // that differ in the 7th.
  ASSERT_TRUE(session_.ExecuteScript(R"sql(
    CREATE TABLE ka (id BIGINT);
    CREATE TABLE kb (aid BIGINT);
    CREATE TABLE kd (x DOUBLE);
    CREATE TABLE kf (y DOUBLE);
    INSERT INTO ka VALUES (1234567), (1234568), (3);
    INSERT INTO kb VALUES (1234567);
    INSERT INTO kd VALUES (1.0000001), (1.0000002);
    INSERT INTO kf VALUES (3.0);
  )sql")
                  .ok());
  ASSERT_NE(MustPlan("SELECT a.id FROM ka a, kb b WHERE a.id = b.aid")
                .find("HashJoin"),
            std::string::npos);
  ResultSet r = Must("SELECT a.id FROM ka a, kb b WHERE a.id = b.aid");
  EXPECT_EQ(r.NumRows(), 1u);
  for (const auto& row : r.rows) EXPECT_EQ(row[0].AsBigInt(), 1234567);

  r = Must("SELECT x, COUNT(*) FROM kd GROUP BY x");
  EXPECT_EQ(r.NumRows(), 2u);
  r = Must("SELECT DISTINCT x FROM kd");
  EXPECT_EQ(r.NumRows(), 2u);

  // A BIGINT key still meets an equal DOUBLE key.
  r = Must("SELECT a.id FROM ka a, kf f WHERE a.id = f.y");
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_EQ(r.rows[0][0].AsBigInt(), 3);
}

TEST_F(ExecutorTest, SqlEqualKeysShareOneGroup) {
  // -0.0 equals 0.0, and GROUP BY / DISTINCT put NULLs together and NaNs
  // together.
  ASSERT_TRUE(session_.ExecuteScript("CREATE TABLE kz (x DOUBLE);").ok());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  ASSERT_TRUE(db_.BulkInsert("kz", {{Value::Double(0.0)},
                                    {Value::Double(-0.0)},
                                    {Value::Null()},
                                    {Value::Null()},
                                    {Value::Double(nan)},
                                    {Value::Double(-nan)}})
                  .ok());
  ResultSet r = Must("SELECT x, COUNT(*) FROM kz GROUP BY x");
  ASSERT_EQ(r.NumRows(), 3u);
  for (const auto& row : r.rows) EXPECT_EQ(row[1].AsBigInt(), 2);
  r = Must("SELECT DISTINCT x FROM kz");
  EXPECT_EQ(r.NumRows(), 3u);
}

TEST_F(ExecutorTest, OrderByMultipleKeysAndNulls) {
  ResultSet r = Must("SELECT name, boss FROM emp ORDER BY boss, name");
  // NULL boss sorts first.
  EXPECT_EQ(r.rows[0][0].AsVarchar(), "ann");
  EXPECT_TRUE(r.rows[0][1].is_null());
}

TEST_F(ExecutorTest, InBetweenLikeIsNull) {
  EXPECT_EQ(Must("SELECT COUNT(*) FROM emp WHERE dept IN ('eng', 'hr')")
                .ScalarValue()
                .AsBigInt(),
            4);
  EXPECT_EQ(Must("SELECT COUNT(*) FROM emp WHERE salary BETWEEN 80 AND 100")
                .ScalarValue()
                .AsBigInt(),
            3);
  EXPECT_EQ(Must("SELECT COUNT(*) FROM emp WHERE name LIKE '%a%'")
                .ScalarValue()
                .AsBigInt(),
            4);  // ann, cat, dan, fay.
  EXPECT_EQ(Must("SELECT COUNT(*) FROM emp WHERE boss IS NULL")
                .ScalarValue()
                .AsBigInt(),
            1);
}

TEST_F(ExecutorTest, ScalarFunctionsInSql) {
  ResultSet r = Must("SELECT UPPER(name), LENGTH(dept) FROM emp WHERE id = 1");
  EXPECT_EQ(r.rows[0][0].AsVarchar(), "ANN");
  EXPECT_EQ(r.rows[0][1].AsBigInt(), 3);
  r = Must("SELECT ABS(-3), COALESCE(NULL, 7), SUBSTR('hello', 2, 2) FROM dept "
           "LIMIT 1");
  EXPECT_EQ(r.rows[0][0].AsBigInt(), 3);
  EXPECT_EQ(r.rows[0][1].AsBigInt(), 7);
  EXPECT_EQ(r.rows[0][2].AsVarchar(), "el");
}

TEST_F(ExecutorTest, ArithmeticInProjection) {
  ResultSet r = Must("SELECT salary * 2 + 1 FROM emp WHERE id = 5");
  EXPECT_DOUBLE_EQ(r.rows[0][0].AsNumeric(), 141.0);
}

TEST_F(ExecutorTest, IndexScanIsChosenForPkEquality) {
  std::string plan = MustPlan("SELECT name FROM emp WHERE id = 3");
  EXPECT_NE(plan.find("IndexScan"), std::string::npos) << plan;
  ResultSet r = Must("SELECT name FROM emp WHERE id = 3");
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_EQ(r.rows[0][0].AsVarchar(), "cat");
}

TEST_F(ExecutorTest, IndexScanDisabledByOption) {
  session_.options().enable_index_scan = false;
  std::string plan = MustPlan("SELECT name FROM emp WHERE id = 3");
  EXPECT_EQ(plan.find("IndexScan"), std::string::npos) << plan;
  session_.options().enable_index_scan = true;
}

TEST_F(ExecutorTest, UpdateAndDelete) {
  EXPECT_EQ(Must("UPDATE emp SET salary = salary + 10 WHERE dept = 'eng'")
                .rows_affected,
            3u);
  EXPECT_DOUBLE_EQ(
      Must("SELECT salary FROM emp WHERE id = 2").rows[0][0].AsNumeric(),
      110.0);
  EXPECT_EQ(Must("DELETE FROM emp WHERE dept = 'hr'").rows_affected, 1u);
  EXPECT_EQ(Must("SELECT COUNT(*) FROM emp").ScalarValue().AsBigInt(), 5);
}

TEST_F(ExecutorTest, InsertStatementAtomicOnFailure) {
  // Second row violates the primary key; the first must be rolled back.
  auto r = session_.Execute(
      "INSERT INTO emp VALUES (50, 'x', 'eng', 1.0, NULL), "
      "(1, 'dup', 'eng', 1.0, NULL)");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(Must("SELECT COUNT(*) FROM emp WHERE id = 50")
                .ScalarValue()
                .AsBigInt(),
            0);
}

TEST_F(ExecutorTest, UpdateRejectedOnUniqueViolationIsAtomic) {
  auto r = session_.Execute("UPDATE emp SET id = 1 WHERE id = 2");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(Must("SELECT COUNT(*) FROM emp WHERE id = 2")
                .ScalarValue()
                .AsBigInt(),
            1);
}

TEST_F(ExecutorTest, MemoryCapAbortsOversizedJoin) {
  // A cross join of emp x emp x emp x dept builds large intermediates; with
  // a tiny cap the query must abort with ResourceExhausted, not crash.
  size_t saved = session_.options().memory_cap;
  session_.options().memory_cap = 2 * 1024;  // 2 KB.
  auto r = session_.Execute(
      "SELECT COUNT(*) FROM emp a, emp b, emp c, dept d "
      "WHERE a.id = b.id AND b.id = c.id");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  session_.options().memory_cap = saved;
}

TEST_F(ExecutorTest, OrderByExpressionNotInSelect) {
  ResultSet r = Must("SELECT name FROM emp ORDER BY salary DESC LIMIT 1");
  EXPECT_EQ(r.rows[0][0].AsVarchar(), "ann");
  EXPECT_EQ(r.column_names.size(), 1u);  // Hidden sort key stripped.
}

TEST_F(ExecutorTest, ExplainRendersTree) {
  std::string plan = MustPlan(
      "SELECT e.name FROM emp e, dept d WHERE e.dept = d.name "
      "ORDER BY e.name LIMIT 2");
  EXPECT_NE(plan.find("HashJoin"), std::string::npos);
  EXPECT_NE(plan.find("Sort"), std::string::npos);
  EXPECT_NE(plan.find("Limit"), std::string::npos);
}

TEST_F(ExecutorTest, ExplainStatementThroughExecute) {
  ResultSet r = Must("EXPLAIN SELECT name FROM emp WHERE salary > 100");
  ASSERT_EQ(r.column_names, (std::vector<std::string>{"plan"}));
  std::string plan;
  for (const auto& row : r.rows) plan += row[0].AsVarchar() + "\n";
  EXPECT_NE(plan.find("SeqScan"), std::string::npos) << plan;
  // Plain EXPLAIN never executes, so no actuals are reported.
  EXPECT_EQ(plan.find("actual_rows"), std::string::npos) << plan;
}

TEST_F(ExecutorTest, ExplainAnalyzeAnnotatesEveryOperator) {
  ResultSet r = Must(
      "EXPLAIN ANALYZE SELECT e.name FROM emp e, dept d "
      "WHERE e.dept = d.name ORDER BY e.name LIMIT 2");
  std::string plan;
  for (const auto& row : r.rows) plan += row[0].AsVarchar() + "\n";
  EXPECT_NE(plan.find("HashJoin"), std::string::npos) << plan;
  EXPECT_NE(plan.find("Sort"), std::string::npos) << plan;
  // Every operator line carries its runtime profile.
  size_t operators = 0, annotated = 0;
  for (const auto& row : r.rows) {
    const std::string& line = row[0].AsVarchar();
    if (line.rfind("Execution:", 0) == 0 || line.empty()) continue;
    ++operators;
    if (line.find("actual_rows=") != std::string::npos &&
        line.find("next_calls=") != std::string::npos &&
        line.find("time_ms=") != std::string::npos) {
      ++annotated;
    }
  }
  EXPECT_GE(operators, 4u) << plan;
  EXPECT_EQ(annotated, operators) << plan;
  // The trailer reports the result cardinality: 2 rows through the Limit.
  EXPECT_NE(plan.find("Execution: rows=2"), std::string::npos) << plan;
}

TEST_F(ExecutorTest, SysMetricsSelectableAndNonEmpty) {
  Must("SELECT COUNT(*) FROM emp");  // Ensure at least one query is counted.
  ResultSet r = Must(
      "SELECT NAME, VALUE FROM SYS.METRICS WHERE NAME = 'queries_total'");
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_GE(r.rows[0][1].AsNumeric(), 1.0);

  ResultSet all = Must("SELECT COUNT(*) FROM SYS.METRICS");
  EXPECT_GT(all.ScalarValue().AsBigInt(), 10);
}

TEST_F(ExecutorTest, SysLastQueryReportsPreviousStatement) {
  Must("SELECT name FROM emp WHERE salary > 100");
  ResultSet r = Must(
      "SELECT SQL, OPERATOR, ACTUAL_ROWS FROM SYS.LAST_QUERY ORDER BY DEPTH");
  ASSERT_GT(r.NumRows(), 0u);
  EXPECT_NE(r.rows[0][0].AsVarchar().find("salary > 100"), std::string::npos);
  // Queries over SYS.* must not displace the captured profile.
  ResultSet again = Must("SELECT SQL FROM SYS.LAST_QUERY");
  ASSERT_GT(again.NumRows(), 0u);
  EXPECT_NE(again.rows[0][0].AsVarchar().find("salary > 100"),
            std::string::npos);
}

TEST_F(ExecutorTest, SysTablesListsBaseAndVirtualTables) {
  ResultSet r = Must("SELECT NAME, KIND FROM SYS.TABLES ORDER BY NAME");
  bool saw_emp = false, saw_metrics = false;
  for (const auto& row : r.rows) {
    if (row[0].AsVarchar() == "emp") {
      saw_emp = true;
      EXPECT_EQ(row[1].AsVarchar(), "table");
    }
    if (row[0].AsVarchar() == "SYS.METRICS") {
      saw_metrics = true;
      EXPECT_EQ(row[1].AsVarchar(), "virtual");
    }
  }
  EXPECT_TRUE(saw_emp);
  EXPECT_TRUE(saw_metrics);
}

TEST_F(ExecutorTest, SlowQueryLogCapturesTrace) {
  std::string path = ::testing::TempDir() + "/grf_slow_query_trace.jsonl";
  std::remove(path.c_str());
  session_.options().slow_query_threshold_us = 0;  // Everything is "slow".
  session_.options().slow_query_log_path = path;
  Must("SELECT COUNT(*) FROM emp");
  session_.options().slow_query_threshold_us = -1;

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_NE(line.find("\"event\":\"slow_query\""), std::string::npos) << line;
  EXPECT_NE(line.find("COUNT(*) FROM emp"), std::string::npos) << line;
  EXPECT_NE(line.find("\"operators\":["), std::string::npos) << line;
  std::remove(path.c_str());
}

TEST_F(ExecutorTest, ErrorsForUnknownObjects) {
  EXPECT_FALSE(session_.Execute("SELECT x FROM nope").ok());
  EXPECT_FALSE(session_.Execute("SELECT nope FROM emp").ok());
  EXPECT_FALSE(session_.Execute("SELECT 1 FROM nope.Paths P").ok());
  EXPECT_FALSE(session_.Execute("INSERT INTO nope VALUES (1)").ok());
}

TEST_F(ExecutorTest, AmbiguousColumnRejected) {
  auto r = session_.Execute("SELECT name FROM emp e, dept d");
  EXPECT_FALSE(r.ok());
}

TEST_F(ExecutorTest, TopAndLimitCompose) {
  ResultSet r = Must("SELECT TOP 4 name FROM emp ORDER BY name LIMIT 2");
  EXPECT_EQ(r.NumRows(), 2u);
}

// --- Consumers above a pulled path probe -----------------------------------------
//
// A pulled path probe copies its outer row into the caller's row for every
// path. Consumers that keep or move rows (Sort, DISTINCT above the
// projection, INSERT ... SELECT) must see the right outer columns on every
// path row.

class PathRunConsumerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(session_.ExecuteScript(kPathRunGraphSql).ok());
    ASSERT_TRUE(session_
                    .Execute("CREATE TABLE sink (vid BIGINT, vkind VARCHAR, "
                             "sid BIGINT, skind VARCHAR)")
                    .ok());
  }

  ResultSet Must(const std::string& sql) {
    auto result = session_.Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status().ToString();
    return result.ok() ? *std::move(result) : ResultSet();
  }

  /// Each row is (V.id, V.kind, P.StartVertex.Id, P.StartVertex.kind): the
  /// outer columns must be those of the path's start vertex.
  static void ExpectOuterMatchesStart(const ResultSet& r) {
    for (size_t i = 0; i < r.NumRows(); ++i) {
      ASSERT_EQ(r.rows[i].size(), 4u);
      EXPECT_EQ(r.rows[i][0].AsBigInt(), r.rows[i][2].AsBigInt()) << i;
      EXPECT_EQ(r.rows[i][1].AsVarchar(), r.rows[i][3].AsVarchar()) << i;
    }
  }

  Database db_{TestOptions()};
  Session session_{db_};
};

TEST_F(PathRunConsumerTest, NonOptingConsumersSeeEveryOuterRow) {
  const std::string cols =
      "V.id, V.kind, P.StartVertex.Id, P.StartVertex.kind";
  const std::string from =
      " FROM v V, g.Paths P WHERE P.StartVertex.Id = V.id AND P.Length <= 2";
  for (size_t workers : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE(workers);
    session_.options().max_parallelism = workers;
    const int64_t paths =
        Must("SELECT COUNT(*) FROM g.Paths P WHERE P.Length <= 2")
            .ScalarValue()
            .AsBigInt();
    ASSERT_GT(paths, 0);

    ResultSet plain = Must("SELECT " + cols + from);
    EXPECT_EQ(static_cast<int64_t>(plain.NumRows()), paths);
    ExpectOuterMatchesStart(plain);

    ResultSet sorted = Must("SELECT " + cols + from +
                            " ORDER BY P.EndVertex.Id DESC, P.PathString");
    EXPECT_EQ(static_cast<int64_t>(sorted.NumRows()), paths);
    ExpectOuterMatchesStart(sorted);

    ResultSet distinct = Must("SELECT DISTINCT " + cols + from);
    EXPECT_EQ(distinct.NumRows(), 6u);  // Vertexes 2 and 5 start no path.
    ExpectOuterMatchesStart(distinct);

    Must("DELETE FROM sink");
    Must("INSERT INTO sink SELECT " + cols + from);
    ResultSet inserted = Must("SELECT vid, vkind, sid, skind FROM sink");
    EXPECT_EQ(static_cast<int64_t>(inserted.NumRows()), paths);
    ExpectOuterMatchesStart(inserted);
  }
  session_.options().max_parallelism = TestOptions().max_parallelism;
}

}  // namespace
}  // namespace grfusion
