// Tests of the live-service observability surface: the span tracer (EXPLAIN
// TRACE and the TraceSink sampling sink), the cumulative SYS.STATEMENTS
// store, SYS.ACTIVE_QUERIES, cross-session KILL, and the plan-cache
// hit-rate columns.

#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include "common/metrics.h"
#include "common/string_util.h"
#include "common/tracer.h"
#include "engine/database.h"
#include "sql_test_util.h"

namespace grfusion {
namespace {

/// Joins a PlanTextToResult-style one-column result back into a document.
std::string JoinRows(const ResultSet& r) {
  std::string out;
  for (const auto& row : r.rows) {
    out += row[0].AsVarchar();
    out += "\n";
  }
  return out;
}

/// Extracts every "tid" value from events whose "cat" matches `category`.
std::set<int> TidsForCategory(const std::string& json,
                              const std::string& category) {
  std::set<int> tids;
  std::istringstream lines(json);
  std::string line;
  const std::string cat_marker = "\"cat\":\"" + category + "\"";
  while (std::getline(lines, line)) {
    if (line.find(cat_marker) == std::string::npos) continue;
    size_t pos = line.find("\"tid\":");
    EXPECT_NE(pos, std::string::npos) << line;
    if (pos == std::string::npos) continue;
    tids.insert(std::atoi(line.c_str() + pos + 6));
  }
  return tids;
}

/// Ring of n vertexes with chord edges — enough branching that bounded path
/// enumeration is expensive for large length bounds (the KILL test's
/// long-running target) while short bounds stay fast.
void BuildRingWithChords(Database& db, int64_t n) {
  Session s(db);
  ASSERT_TRUE(s.ExecuteScript(R"sql(
      CREATE TABLE v (id BIGINT PRIMARY KEY);
      CREATE TABLE e (id BIGINT PRIMARY KEY, src BIGINT, dst BIGINT);
    )sql")
                  .ok());
  std::vector<std::vector<Value>> vrows;
  for (int64_t i = 0; i < n; ++i) vrows.push_back({Value::BigInt(i)});
  ASSERT_TRUE(db.BulkInsert("v", vrows).ok());
  std::vector<std::vector<Value>> erows;
  int64_t id = 0;
  for (int64_t i = 0; i < n; ++i) {
    erows.push_back(
        {Value::BigInt(id++), Value::BigInt(i), Value::BigInt((i + 1) % n)});
    erows.push_back(
        {Value::BigInt(id++), Value::BigInt(i), Value::BigInt((i + 3) % n)});
  }
  ASSERT_TRUE(db.BulkInsert("e", erows).ok());
  ASSERT_TRUE(s.ExecuteScript(
                   "CREATE DIRECTED GRAPH VIEW g "
                   "VERTEXES (ID = id) FROM v "
                   "EDGES (ID = id, FROM = src, TO = dst) FROM e;")
                  .ok());
}

void ArmParallel(Session& s) {
  s.options().max_parallelism = 4;
  s.options().parallel_min_rows = 1;
}

// --- Tracer unit tests -------------------------------------------------------------

TEST(TracerTest, RendersChromeTraceJson) {
  QueryTrace trace;
  trace.AddComplete("session", "parse", 1, 10);
  trace.AddComplete("operator", "SeqScan(t)", 2, 8,
                    {{"rows", "42"}, {"text", "needs \"escaping\"\n"}});
  EXPECT_EQ(trace.NumEvents(), 2u);
  std::string json = trace.ToChromeJson();
  EXPECT_NE(json.find("{\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"parse\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"rows\":\"42\""), std::string::npos);
  EXPECT_NE(json.find("needs \\\"escaping\\\"\\n"), std::string::npos);
  // Document closes properly.
  EXPECT_EQ(json.rfind("]}"), json.size() - 2);
}

TEST(TracerTest, SpansFromThreadsCarryDistinctTids) {
  QueryTrace trace;
  std::thread t1([&] { TraceSpan span(&trace, "worker", "w.0"); });
  std::thread t2([&] { TraceSpan span(&trace, "worker", "w.1"); });
  t1.join();
  t2.join();
  std::string json = trace.ToChromeJson();
  std::set<int> tids = TidsForCategory(json, "worker");
  EXPECT_EQ(tids.size(), 2u);
}

TEST(TracerTest, NullTraceSpanIsANoop) {
  TraceSpan span(nullptr, "session", "parse");
  span.AddArg("k", "v");
  span.End();  // Must not crash; nothing to record.
}

TEST(TracerTest, SinkSamplesOneInN) {
  TraceSink sink("/tmp", 3);
  int sampled = 0;
  for (int i = 0; i < 9; ++i) {
    if (sink.ShouldSample()) ++sampled;
  }
  EXPECT_EQ(sampled, 3);

  TraceSink disabled("", 3);
  EXPECT_FALSE(disabled.enabled());
  EXPECT_FALSE(disabled.ShouldSample());
}

TEST(TracerTest, SinkWritesTraceFile) {
  std::string dir = ::testing::TempDir();
  TraceSink sink(dir, 1);
  QueryTrace trace;
  trace.AddComplete("session", "execute", 0, 5);
  sink.Write(4242, trace);
  std::ifstream in(dir + "/trace_4242.json");
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(buf.str().find("\"name\":\"execute\""), std::string::npos);
}

// --- EXPLAIN TRACE -----------------------------------------------------------------

TEST(ExplainTraceTest, EmitsSessionOperatorAndWorkerSpans) {
  Database db;
  BuildRingWithChords(db, 4096);
  Session session(db);
  ArmParallel(session);

  // Filtered vertex scan: the qualifier is evaluated over id morsels on the
  // task pool. 4,096 vertexes make 16 morsels, enough that more than one
  // pool thread wakes up and claims worker tasks; scheduling is still up to
  // the OS, so retry a few times before declaring the parallelism assertion
  // failed.
  std::string json;
  std::set<int> worker_tids;
  for (int attempt = 0; attempt < 5 && worker_tids.size() < 2; ++attempt) {
    auto r = session.Execute(
        "EXPLAIN TRACE SELECT V.ID FROM g.Vertexes V WHERE V.ID >= 0");
    ASSERT_TRUE(r.ok()) << r.status().message();
    json = JoinRows(*r);
    worker_tids = TidsForCategory(json, "worker");
  }

  EXPECT_NE(json.find("{\"traceEvents\":["), std::string::npos);
  // Session phases.
  EXPECT_NE(json.find("\"name\":\"plan\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"execute\""), std::string::npos);
  // Per-operator spans (one per operator lifetime, category "operator").
  EXPECT_NE(json.find("\"cat\":\"operator\""), std::string::npos);
  EXPECT_NE(json.find("\"rows\":"), std::string::npos);
  // Parallel workers contributed spans from >= 2 distinct threads.
  EXPECT_NE(json.find("scan.morsel."), std::string::npos);
  EXPECT_GE(worker_tids.size(), 2u)
      << "expected spans from >= 2 distinct worker threads:\n" << json;
}

TEST(ExplainTraceTest, SerialStatementStillTraces) {
  Database db;
  Session session(db);
  ASSERT_TRUE(session.Execute("CREATE TABLE t (id BIGINT PRIMARY KEY)").ok());
  ASSERT_TRUE(session.Execute("INSERT INTO t VALUES (1)").ok());
  auto r = session.Execute("EXPLAIN TRACE SELECT id FROM t WHERE id >= 0");
  ASSERT_TRUE(r.ok()) << r.status().message();
  std::string json = JoinRows(*r);
  EXPECT_NE(json.find("\"cat\":\"operator\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"execute\""), std::string::npos);
  // A disarmed follow-up statement executes normally (trace slot restored).
  auto plain = session.Execute("SELECT id FROM t");
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->rows.size(), 1u);
}

// --- Path probes in EXPLAIN ANALYZE ------------------------------------------------

/// Runs `sql` (an EXPLAIN) and returns its plan text.
std::string PlanText(Session& s, const std::string& sql) {
  auto r = s.Execute(sql);
  EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
  return r.ok() ? JoinRows(*r) : std::string();
}

/// The EXPLAIN ANALYZE line of the operator whose name starts with `op`.
std::string AnalyzedLine(const std::string& plan, const std::string& op) {
  std::istringstream lines(plan);
  std::string line;
  while (std::getline(lines, line)) {
    const size_t indent = line.find_first_not_of(' ');
    if (indent != std::string::npos &&
        line.compare(indent, op.size(), op) == 0) {
      return line;
    }
  }
  ADD_FAILURE() << "no " << op << " line in\n" << plan;
  return "";
}

TEST(ExplainPathPropertyTest, RendersPropertiesByName) {
  Database db(TestOptions());
  ASSERT_TRUE(ExecScript(db, kPathRunGraphSql).ok());
  Session s(db);
  const std::string hybrid = PlanText(
      s,
      "EXPLAIN ANALYZE SELECT V.kind, COUNT(*), SUM(P.Length) FROM v V, "
      "g.Paths P WHERE P.StartVertex.Id = V.id AND P.Length <= 2 "
      "GROUP BY V.kind");
  EXPECT_NE(hybrid.find("SUM(P.Length)"), std::string::npos) << hybrid;

  const std::string grouped = PlanText(
      s,
      "EXPLAIN SELECT P.PathString, COUNT(*) FROM g.Paths P WHERE "
      "P.Length <= 2 GROUP BY P.PathString");
  EXPECT_NE(grouped.find("GROUP BY P.PathString"), std::string::npos)
      << grouped;
  const std::string ends = PlanText(
      s,
      "EXPLAIN SELECT P.StartVertex.Id, P.EndVertex.Id FROM g.Paths P "
      "WHERE P.Length <= 2");
  EXPECT_NE(ends.find("Project(P.StartVertex.Id, P.EndVertex.Id)"),
            std::string::npos)
      << ends;
  const std::string cost = PlanText(
      s,
      "EXPLAIN SELECT TOP 1 P.Cost FROM g.Paths P HINT(SHORTESTPATH(w)) "
      "WHERE P.StartVertex.Id = 0 AND P.EndVertex.Id = 4");
  EXPECT_NE(cost.find("Project(P.Cost)"), std::string::npos) << cost;
  for (const std::string* plan : {&hybrid, &grouped, &ends, &cost}) {
    EXPECT_EQ(plan->find(".<"), std::string::npos) << *plan;
  }
}

TEST(OuterCopyObservabilityTest, CopiesAndLookupsFollowOuterRows) {
  Database db(TestOptions());
  ASSERT_TRUE(ExecScript(db, kPathRunGraphSql).ok());
  Session s(db);
  auto count = s.Execute("SELECT COUNT(*) FROM g.Paths P WHERE P.Length <= 2");
  ASSERT_TRUE(count.ok());
  const long long paths = count->ScalarValue().AsBigInt();
  ASSERT_EQ(paths, 28);
  const std::string from =
      " FROM v V, g.Paths P WHERE P.StartVertex.Id = V.id AND P.Length <= 2";
  const std::string path_rows =
      StrFormat("(actual_rows=%lld next_calls=%lld ", paths, paths + 1);

  // Outer-only key: the morsel drain makes one copy and one group lookup per
  // outer row with paths (6 of 8). Row and call counts are the Volcano
  // protocol's.
  std::string plan = PlanText(
      s, "EXPLAIN ANALYZE SELECT V.kind, COUNT(*), SUM(P.Length)" + from +
             " GROUP BY V.kind");
  EXPECT_NE(AnalyzedLine(plan, "Project(").find("(actual_rows=3 next_calls=4 "),
            std::string::npos);
  const std::string agg = AnalyzedLine(plan, "Aggregate(");
  EXPECT_NE(agg.find("(actual_rows=3 next_calls=4 "), std::string::npos);
  EXPECT_NE(agg.find(" group_lookups=6"), std::string::npos) << agg;
  const std::string probe = AnalyzedLine(plan, "PathProbeJoin[");
  EXPECT_NE(probe.find(path_rows), std::string::npos) << probe;
  EXPECT_NE(probe.find(" outer_copies=6"), std::string::npos) << probe;
  EXPECT_NE(AnalyzedLine(plan, "SeqScan(v)").find(
                "(actual_rows=8 next_calls=9 "),
            std::string::npos);
  EXPECT_EQ(s.last_stats().rows_joined, static_cast<uint64_t>(paths));

  // A key that reads the path is resolved per row.
  plan = PlanText(s, "EXPLAIN ANALYZE SELECT V.kind, P.Length, COUNT(*)" +
                         from + " GROUP BY V.kind, P.Length");
  EXPECT_NE(AnalyzedLine(plan, "Aggregate(")
                .find(StrFormat(" group_lookups=%lld", paths)),
            std::string::npos)
      << plan;
  EXPECT_NE(AnalyzedLine(plan, "PathProbeJoin[").find(" outer_copies=6"),
            std::string::npos)
      << plan;

  // ORDER BY sorts the projection's rows. The projection pulls the probe
  // row by row, so the probe copies its outer row for every path.
  plan = PlanText(s, "EXPLAIN ANALYZE SELECT V.kind, P.PathString" + from +
                         " ORDER BY P.PathString");
  EXPECT_NE(AnalyzedLine(plan, "Sort(").find(path_rows), std::string::npos)
      << plan;
  EXPECT_NE(AnalyzedLine(plan, "PathProbeJoin[")
                .find(StrFormat(" outer_copies=%lld", paths)),
            std::string::npos)
      << plan;
}

// --- SYS.STATEMENTS ----------------------------------------------------------------

TEST(StatementStatsTest, AggregatesAcrossSessions) {
  Database db;
  {
    Session setup(db);
    ASSERT_TRUE(
        setup.Execute("CREATE TABLE t (id BIGINT PRIMARY KEY)").ok());
    ASSERT_TRUE(setup.Execute("INSERT INTO t VALUES (7)").ok());
  }
  Session a(db);
  Session b(db);
  // Same statement, different whitespace: normalization must fold all four
  // executions from two sessions into one row.
  ASSERT_TRUE(a.Execute("SELECT id FROM t WHERE id >= 0").ok());
  ASSERT_TRUE(a.Execute("SELECT  id   FROM t WHERE id >= 0").ok());
  ASSERT_TRUE(b.Execute("SELECT id FROM t  WHERE  id >= 0").ok());
  ASSERT_TRUE(b.Execute("SELECT id FROM t WHERE id >= 0").ok());

  Session reader(db);
  auto r = reader.Execute(
      "SELECT SQL, KIND, CALLS, ROWS, PLAN_CACHE_HITS, ERRORS "
      "FROM SYS.STATEMENTS");
  ASSERT_TRUE(r.ok()) << r.status().message();
  bool found = false;
  for (const auto& row : r->rows) {
    if (row[0].AsVarchar() != "SELECT id FROM t WHERE id >= 0") continue;
    found = true;
    EXPECT_EQ(row[1].AsVarchar(), "SELECT");
    EXPECT_EQ(row[2].AsBigInt(), 4);
    EXPECT_EQ(row[3].AsBigInt(), 4);  // One row returned per execution.
    // First execution compiles; subsequent ones hit the shared plan cache.
    EXPECT_GE(row[4].AsBigInt(), 3);
    EXPECT_EQ(row[5].AsBigInt(), 0);
  }
  EXPECT_TRUE(found) << "no SYS.STATEMENTS row for the normalized statement";
}

TEST(StatementStatsTest, RecordsDmlAndLatencyFields) {
  Database db;
  Session s(db);
  ASSERT_TRUE(s.Execute("CREATE TABLE t (id BIGINT PRIMARY KEY)").ok());
  ASSERT_TRUE(s.Execute("INSERT INTO t VALUES (1)").ok());
  ASSERT_TRUE(s.Execute("INSERT INTO t VALUES (2)").ok());

  auto r = s.Execute(
      "SELECT KIND, CALLS, TOTAL_US, MIN_US, MAX_US, ROWS "
      "FROM SYS.STATEMENTS WHERE SQL = 'INSERT INTO t VALUES (1)'");
  ASSERT_TRUE(r.ok()) << r.status().message();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].AsVarchar(), "INSERT");
  EXPECT_EQ(r->rows[0][1].AsBigInt(), 1);
  EXPECT_GE(r->rows[0][2].AsBigInt(), r->rows[0][3].AsBigInt());
  EXPECT_GE(r->rows[0][4].AsBigInt(), r->rows[0][3].AsBigInt());
  EXPECT_EQ(r->rows[0][5].AsBigInt(), 1);  // rows_affected.
}

TEST(StatementStatsTest, StoreBoundsDistinctEntries) {
  StatementStats stats;
  StatementStats::Execution ex;
  ex.kind = "SELECT";
  ex.latency_us = 10;
  for (size_t i = 0; i < StatementStats::kMaxEntries + 50; ++i) {
    stats.Record("SELECT " + std::to_string(i), ex);
  }
  // kMaxEntries distinct rows plus the overflow bucket.
  EXPECT_EQ(stats.size(), StatementStats::kMaxEntries + 1);
  uint64_t overflow_calls = 0;
  for (const StatementStats::Row& row : stats.Snapshot()) {
    if (row.sql == "<overflow>") overflow_calls = row.calls;
  }
  EXPECT_EQ(overflow_calls, 50u);
}

// --- SYS.ACTIVE_QUERIES and KILL ---------------------------------------------------

TEST(ActiveQueriesTest, IntrospectionQuerySeesItself) {
  Database db;
  Session s(db);
  auto r = s.Execute("SELECT QUERY_ID, SESSION_ID, SQL, KIND, STATE "
                     "FROM SYS.ACTIVE_QUERIES");
  ASSERT_TRUE(r.ok()) << r.status().message();
  ASSERT_EQ(r->rows.size(), 1u);  // Only itself is running.
  EXPECT_GT(r->rows[0][0].AsBigInt(), 0);
  EXPECT_EQ(r->rows[0][1].AsBigInt(), static_cast<int64_t>(s.id()));
  EXPECT_NE(r->rows[0][2].AsVarchar().find("ACTIVE_QUERIES"),
            std::string::npos);
  EXPECT_EQ(r->rows[0][3].AsVarchar(), "SELECT");
  EXPECT_EQ(r->rows[0][4].AsVarchar(), "running");
}

TEST(ActiveQueriesTest, KillUnknownOrInvalidId) {
  Database db;
  Session s(db);
  auto missing = s.Execute("KILL 999999");
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  auto zero = s.Execute("KILL 0");
  EXPECT_EQ(zero.status().code(), StatusCode::kInvalidArgument);
}

TEST(ActiveQueriesTest, KillInterruptsLongTraversalInAnotherSession) {
  Database db;
  BuildRingWithChords(db, 32);

  Session victim(db);
  std::atomic<bool> started{false};
  StatusCode final_code = StatusCode::kOk;
  std::thread runner([&] {
    started.store(true);
    // Unbounded-ish enumeration: length <= 30 over a branching ring is far
    // too much work to finish before the KILL lands.
    auto r = victim.Execute(
        "SELECT COUNT(*) FROM g.Paths P WHERE P.Length <= 30");
    final_code = r.status().code();
  });

  Session killer(db);
  int64_t victim_query_id = 0;
  for (int i = 0; i < 2000 && victim_query_id == 0; ++i) {
    auto r = killer.Execute(StrFormat(
        "SELECT QUERY_ID FROM SYS.ACTIVE_QUERIES WHERE SESSION_ID = %lld "
        "AND KIND = 'SELECT'",
        static_cast<long long>(victim.id())));
    ASSERT_TRUE(r.ok()) << r.status().message();
    if (!r->rows.empty()) victim_query_id = r->rows[0][0].AsBigInt();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GT(victim_query_id, 0) << "victim query never appeared";

  auto kill = killer.Execute(
      StrFormat("KILL %lld", static_cast<long long>(victim_query_id)));
  EXPECT_TRUE(kill.ok()) << kill.status().message();
  runner.join();
  EXPECT_TRUE(started.load());
  EXPECT_EQ(final_code, StatusCode::kCancelled);

  // The killed session unwound cleanly and keeps working.
  auto after = victim.Execute("SELECT COUNT(*) FROM v");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->ScalarValue().AsBigInt(), 32);
  // And the registry is empty again.
  EXPECT_EQ(db.active_queries().size(), 0u);
  // The cancellation shows up in the cumulative store.
  auto stats = killer.Execute(
      "SELECT CANCELLED FROM SYS.STATEMENTS "
      "WHERE SQL = 'SELECT COUNT(*) FROM g.Paths P WHERE P.Length <= 30'");
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->rows.size(), 1u);
  EXPECT_EQ(stats->rows[0][0].AsBigInt(), 1);
}

TEST(ActiveQueriesTest, DmlRegistersButIsNotKillable) {
  Database db;
  ASSERT_TRUE(Exec(db, "CREATE TABLE t (id BIGINT PRIMARY KEY)").ok());
  ActiveQueryRegistry& reg = db.active_queries();
  uint64_t id = reg.Register(1, "INSERT INTO t VALUES (1)", "INSERT",
                             /*token=*/nullptr, /*rows=*/nullptr);
  EXPECT_EQ(reg.Kill(id).code(), StatusCode::kInvalidArgument);
  auto snap = reg.Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_FALSE(snap[0].killable);
  EXPECT_EQ(snap[0].kind, "INSERT");
  reg.Unregister(id);
  EXPECT_EQ(reg.size(), 0u);
}

// --- Plan-cache observability ------------------------------------------------------

TEST(PlanCacheObservabilityTest, HitRateAndEntriesGauge) {
  Database db;
  Session s(db);
  ASSERT_TRUE(s.Execute("CREATE TABLE t (id BIGINT PRIMARY KEY)").ok());
  ASSERT_TRUE(s.Execute("SELECT id FROM t").ok());  // Compile (miss).
  ASSERT_TRUE(s.Execute("SELECT id FROM t").ok());  // Cache hit.
  ASSERT_TRUE(s.Execute("SELECT id FROM t").ok());  // Cache hit.

  auto r = s.Execute(
      "SELECT SQL, ENTRY_HITS, MISSES, HIT_RATE FROM SYS.PLAN_CACHE");
  ASSERT_TRUE(r.ok()) << r.status().message();
  bool found = false;
  for (const auto& row : r->rows) {
    if (row[0].AsVarchar() != "SELECT id FROM t") continue;
    found = true;
    EXPECT_EQ(row[1].AsBigInt(), 2);
    EXPECT_EQ(row[2].AsBigInt(), 1);
    EXPECT_DOUBLE_EQ(row[3].AsDouble(), 2.0 / 3.0);
  }
  EXPECT_TRUE(found) << "no SYS.PLAN_CACHE row for the statement";

  // The gauge tracks this database's latest insert (the registry is global,
  // so only sanity-check the floor).
  EXPECT_GE(EngineMetrics::Get().plan_cache_entries->value(), 1);

  db.plan_cache().Clear();
  EXPECT_EQ(EngineMetrics::Get().plan_cache_entries->value(), 0);
}

}  // namespace
}  // namespace grfusion
