// Tests of the session front-end: prepared statements (placeholder binding,
// arity/type errors), the shared plan cache (hit/miss metrics, LRU and
// version invalidation, SYS.PLAN_CACHE), the per-statement sinks
// (SYS.STATEMENTS, SYS.LAST_QUERY, engine counters), per-session options
// isolation, and the ResultSet accessors.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/metrics.h"
#include "engine/database.h"

namespace grfusion {
namespace {

uint64_t Hits() { return EngineMetrics::Get().plan_cache_hits->value(); }
uint64_t Misses() { return EngineMetrics::Get().plan_cache_misses->value(); }

class SessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(session_.ExecuteScript(R"sql(
      CREATE TABLE emp (id BIGINT PRIMARY KEY, name VARCHAR, dept VARCHAR,
                        salary DOUBLE);
      INSERT INTO emp VALUES
        (1, 'ann', 'eng', 120.0), (2, 'bob', 'eng', 100.0),
        (3, 'cat', 'sales', 90.0), (4, 'dan', 'hr', 80.0);
      CREATE TABLE v (id BIGINT PRIMARY KEY, name VARCHAR);
      CREATE TABLE e (id BIGINT PRIMARY KEY, src BIGINT, dst BIGINT,
                      w DOUBLE);
      INSERT INTO v VALUES (1,'a'),(2,'b'),(3,'c'),(4,'d');
      INSERT INTO e VALUES (10,1,2,1.0),(11,2,3,1.0),(12,3,4,1.0),
                           (13,1,3,2.0);
      CREATE DIRECTED GRAPH VIEW g
        VERTEXES (ID = id, name = name) FROM v
        EDGES (ID = id, FROM = src, TO = dst, w = w) FROM e;
    )sql")
                    .ok());
  }

  ResultSet Must(Session& s, const std::string& sql) {
    auto result = s.Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status().ToString();
    return result.ok() ? *std::move(result) : ResultSet();
  }

  Database db_;
  Session session_{db_};
};

// --- Prepared statements -----------------------------------------------------------

TEST_F(SessionTest, PreparedPositionalParams) {
  auto prep = session_.Prepare("SELECT name FROM emp WHERE id = ?");
  ASSERT_TRUE(prep.ok()) << prep.status().ToString();
  EXPECT_EQ(prep->num_params(), 1u);
  auto r = prep->Execute({Value::BigInt(3)});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->NumRows(), 1u);
  EXPECT_EQ(r->rows[0][0].AsVarchar(), "cat");
  // Re-execution with a different binding reuses the plan.
  r = prep->Execute({Value::BigInt(1)});
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->NumRows(), 1u);
  EXPECT_EQ(r->rows[0][0].AsVarchar(), "ann");
}

TEST_F(SessionTest, PreparedOrdinalParamsReused) {
  auto prep = session_.Prepare(
      "SELECT name FROM emp WHERE salary > $1 AND id < $2 AND salary < $1 * 2 "
      "ORDER BY name");
  ASSERT_TRUE(prep.ok()) << prep.status().ToString();
  EXPECT_EQ(prep->num_params(), 2u);
  auto r = prep->Execute({Value::Double(85.0), Value::BigInt(3)});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->NumRows(), 2u);
  EXPECT_EQ(r->rows[0][0].AsVarchar(), "ann");
  EXPECT_EQ(r->rows[1][0].AsVarchar(), "bob");
}

TEST_F(SessionTest, PreparedArityError) {
  auto prep = session_.Prepare("SELECT name FROM emp WHERE id = ?");
  ASSERT_TRUE(prep.ok());
  auto r = prep->Execute({});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  r = prep->Execute({Value::BigInt(1), Value::BigInt(2)});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SessionTest, PreparedTypeErrorAndWidening) {
  auto prep = session_.Prepare("SELECT name FROM emp WHERE salary > ?");
  ASSERT_TRUE(prep.ok());
  // The binder inferred DOUBLE; VARCHAR does not widen to it.
  auto r = prep->Execute({Value::Varchar("ninety")});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  // BIGINT implicitly widens to DOUBLE.
  r = prep->Execute({Value::BigInt(100)});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->NumRows(), 1u);
}

TEST_F(SessionTest, PreparedTypeErrorOnIndexedLookup) {
  // `id = ?` is planned as an index probe (and `V.ID = ?` as a topology
  // hash probe), which binds the key outside the generic compare path; the
  // expected parameter type must still be recorded there.
  auto pk = session_.Prepare("SELECT name FROM emp WHERE id = ?");
  ASSERT_TRUE(pk.ok());
  auto r = pk->Execute({Value::Varchar("one")});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  auto vx = session_.Prepare("SELECT V.name FROM g.Vertexes V WHERE V.ID = ?");
  ASSERT_TRUE(vx.ok());
  r = vx->Execute({Value::Varchar("one")});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  r = vx->Execute({Value::BigInt(2)});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->NumRows(), 1u);
  EXPECT_EQ(r->rows[0][0].AsVarchar(), "b");
}

TEST_F(SessionTest, PreparedNullBindingFlowsThrough) {
  auto prep = session_.Prepare("SELECT name FROM emp WHERE salary > ?");
  ASSERT_TRUE(prep.ok());
  auto r = prep->Execute({Value::Null()});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->NumRows(), 0u);  // NULL comparison matches nothing.
}

TEST_F(SessionTest, PreparedDmlInsertAndDelete) {
  auto ins = session_.Prepare("INSERT INTO emp VALUES (?, ?, ?, ?)");
  ASSERT_TRUE(ins.ok()) << ins.status().ToString();
  EXPECT_EQ(ins->num_params(), 4u);
  auto r = ins->Execute({Value::BigInt(5), Value::Varchar("eve"),
                         Value::Varchar("eng"), Value::Double(95.0)});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows_affected, 1u);
  EXPECT_EQ(Must(session_, "SELECT COUNT(*) FROM emp").ScalarValue().AsBigInt(),
            5);

  auto del = session_.Prepare("DELETE FROM emp WHERE id = $1");
  ASSERT_TRUE(del.ok());
  r = del->Execute({Value::BigInt(5)});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows_affected, 1u);
  EXPECT_EQ(Must(session_, "SELECT COUNT(*) FROM emp").ScalarValue().AsBigInt(),
            4);
}

TEST_F(SessionTest, PreparedUpdateReExecutes) {
  auto upd = session_.Prepare("UPDATE emp SET salary = ? WHERE id = ?");
  ASSERT_TRUE(upd.ok()) << upd.status().ToString();
  ASSERT_TRUE(upd->Execute({Value::Double(1.0), Value::BigInt(1)}).ok());
  ASSERT_TRUE(upd->Execute({Value::Double(2.0), Value::BigInt(2)}).ok());
  EXPECT_DOUBLE_EQ(Must(session_, "SELECT salary FROM emp WHERE id = 1")
                       .ScalarValue()
                       .AsNumeric(),
                   1.0);
  EXPECT_DOUBLE_EQ(Must(session_, "SELECT salary FROM emp WHERE id = 2")
                       .ScalarValue()
                       .AsNumeric(),
                   2.0);
}

TEST_F(SessionTest, PreparedGraphTraversal) {
  auto prep = session_.Prepare(
      "SELECT P.PathString FROM g.Paths P "
      "WHERE P.StartVertex.Id = ? AND P.Length <= 2");
  ASSERT_TRUE(prep.ok()) << prep.status().ToString();
  auto from1 = prep->Execute({Value::BigInt(1)});
  auto from3 = prep->Execute({Value::BigInt(3)});
  ASSERT_TRUE(from1.ok() && from3.ok());
  // From 1: 1->2, 1->3, 1->2->3, 1->3->4. From 3: 3->4.
  EXPECT_EQ(from1->NumRows(), 4u);
  EXPECT_EQ(from3->NumRows(), 1u);
}

TEST_F(SessionTest, ExecuteRejectsUnboundPlaceholders) {
  auto r = session_.Execute("SELECT name FROM emp WHERE id = ?");
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("prepared"), std::string::npos)
      << r.status().ToString();
}

TEST_F(SessionTest, PrepareSurfacesPlanErrorsEarly) {
  EXPECT_FALSE(session_.Prepare("SELECT nope FROM emp").ok());
  EXPECT_FALSE(session_.Prepare("SELECT x FROM missing").ok());
  EXPECT_FALSE(session_.Prepare("SELECT 1 FROM emp; SELECT 2 FROM emp").ok());
}

TEST_F(SessionTest, PreparedStatementMoveSemantics) {
  auto prep = session_.Prepare("SELECT COUNT(*) FROM emp WHERE id >= ?");
  ASSERT_TRUE(prep.ok());
  PreparedStatement moved = std::move(*prep);
  auto r = moved.Execute({Value::BigInt(2)});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->ScalarValue().AsBigInt(), 3);
  // An empty (moved-from / default) statement errors instead of crashing.
  PreparedStatement empty;
  EXPECT_FALSE(empty.Execute({}).ok());
}

// --- Plan cache --------------------------------------------------------------------

TEST_F(SessionTest, RepeatExecuteHitsPlanCache) {
  const std::string sql = "SELECT name FROM emp WHERE dept = 'eng'";
  const uint64_t h0 = Hits(), m0 = Misses();
  Must(session_, sql);
  EXPECT_EQ(Misses(), m0 + 1);
  EXPECT_EQ(Hits(), h0);
  Must(session_, sql);
  // Whitespace and comment differences normalize to the same cache entry.
  Must(session_, "SELECT   name FROM emp  WHERE dept = 'eng'; -- cached");
  EXPECT_EQ(Hits(), h0 + 2);
  EXPECT_EQ(Misses(), m0 + 1);
}

TEST_F(SessionTest, PreparedReExecutionHitsPlanCache) {
  auto prep = session_.Prepare("SELECT name FROM emp WHERE id = ?");
  ASSERT_TRUE(prep.ok());
  const uint64_t h0 = Hits();
  ASSERT_TRUE(prep->Execute({Value::BigInt(1)}).ok());
  ASSERT_TRUE(prep->Execute({Value::BigInt(2)}).ok());
  ASSERT_TRUE(prep->Execute({Value::BigInt(3)}).ok());
  // Every re-execution after the first plan skips parse/bind/plan.
  EXPECT_GE(Hits(), h0 + 2);
}

TEST_F(SessionTest, DdlInvalidatesCachedPlans) {
  const std::string sql = "SELECT COUNT(*) FROM emp";
  Must(session_, sql);
  Must(session_, sql);  // Cached now.
  const uint64_t m0 = Misses();
  ASSERT_TRUE(session_.Execute("CREATE TABLE other (id BIGINT)").ok());
  Must(session_, sql);  // Catalog version changed: must re-plan.
  EXPECT_EQ(Misses(), m0 + 1);
}

TEST_F(SessionTest, GraphViewChurnInvalidatesCachedPlans) {
  const std::string sql = "SELECT COUNT(P) FROM g.Paths P WHERE P.Length = 1";
  EXPECT_EQ(Must(session_, sql).ScalarValue().AsBigInt(), 4);
  ASSERT_TRUE(session_.Execute("DROP GRAPH VIEW g").ok());
  // The cached plan holds a pointer into the dropped view; executing the
  // same text must re-plan and fail cleanly, not touch freed topology.
  EXPECT_FALSE(session_.Execute(sql).ok());
  ASSERT_TRUE(session_
                  .ExecuteScript(
                      "CREATE DIRECTED GRAPH VIEW g "
                      "VERTEXES (ID = id, name = name) FROM v "
                      "EDGES (ID = id, FROM = src, TO = dst, w = w) FROM e;")
                  .ok());
  EXPECT_EQ(Must(session_, sql).ScalarValue().AsBigInt(), 4);
}

TEST_F(SessionTest, OptionChangesKeyTheCacheSeparately) {
  const std::string sql = "SELECT name FROM emp WHERE id = 2";
  Must(session_, sql);
  const uint64_t m0 = Misses();
  // A plan-shaping option change must not reuse the plan compiled under the
  // old options.
  session_.options().enable_index_scan = false;
  Must(session_, sql);
  EXPECT_EQ(Misses(), m0 + 1);
  // Flipping back reuses the original entry.
  session_.options().enable_index_scan = true;
  const uint64_t h1 = Hits();
  Must(session_, sql);
  EXPECT_EQ(Hits(), h1 + 1);
}

TEST_F(SessionTest, SysPlanCacheListsEntries) {
  Must(session_, "SELECT name FROM emp WHERE dept = 'eng'");
  Must(session_, "SELECT name FROM emp WHERE dept = 'eng'");
  ResultSet r = Must(
      session_,
      "SELECT SQL, ENTRY_HITS FROM SYS.PLAN_CACHE WHERE ENTRY_HITS >= 1");
  bool found = false;
  for (const auto& row : r.rows) {
    if (row[0].AsVarchar().find("dept = 'eng'") != std::string::npos) {
      found = true;
      EXPECT_GE(row[1].AsBigInt(), 1);
    }
  }
  EXPECT_TRUE(found);
}

TEST(PlanCacheTest, LruEvictsColdEntries) {
  PlanCache small_cache(/*max_entries=*/2);
  for (const char* key : {"a", "b", "c"}) {
    auto inst = std::make_unique<CachedPlanInstance>();
    inst->key = key;
    small_cache.Release(std::move(inst));
  }
  EXPECT_EQ(small_cache.size(), 2u);
  // "a" was least recently used and must be gone.
  EXPECT_EQ(small_cache.Acquire("a", 0), nullptr);
  EXPECT_NE(small_cache.Acquire("c", 0), nullptr);
}

TEST(PlanCacheTest, MismatchedVersionDropsEntry) {
  PlanCache cache;
  auto inst = std::make_unique<CachedPlanInstance>();
  inst->key = "k";
  inst->catalog_version = 1;
  cache.Release(std::move(inst));
  EXPECT_EQ(cache.Acquire("k", 2), nullptr);  // Stale: evicted, not served.
  EXPECT_EQ(cache.size(), 0u);
}

// --- Session isolation -------------------------------------------------------------

// --- Statement sinks ---------------------------------------------------------------

/// What one statement left behind in every per-statement sink.
struct SinkState {
  bool has_row = false;  ///< SYS.STATEMENTS has a row for the statement.
  int64_t calls = 0;
  int64_t errors = 0;
  int64_t plan_cache_hits = 0;
  std::string last_sql;  ///< SYS.LAST_QUERY.SQL
  int64_t last_code = 0;  ///< SYS.LAST_QUERY.ERROR_CODE
  uint64_t queries = 0;   ///< queries_total delta over the statement.
  uint64_t hits = 0;      ///< plan_cache_hits delta.
  uint64_t misses = 0;    ///< plan_cache_misses delta.
};

/// Runs `run` and captures the sinks it fed. Counter deltas are taken
/// before the sinks are read back, so the reads do not count.
template <typename Fn>
SinkState RunAndCapture(Database& db, const std::string& sql, Fn&& run) {
  EngineMetrics& m = EngineMetrics::Get();
  const uint64_t q0 = m.queries_total->value();
  const uint64_t h0 = Hits(), m0 = Misses();
  run();
  SinkState s;
  s.queries = m.queries_total->value() - q0;
  s.hits = Hits() - h0;
  s.misses = Misses() - m0;
  for (const StatementStats::Row& row : db.statement_stats().Snapshot()) {
    if (row.sql != sql) continue;
    s.has_row = true;
    s.calls = static_cast<int64_t>(row.calls);
    s.errors = static_cast<int64_t>(row.errors);
    s.plan_cache_hits = static_cast<int64_t>(row.plan_cache_hits);
  }
  Session reader(db);
  auto last = reader.Execute("SELECT SQL, ERROR_CODE FROM SYS.LAST_QUERY");
  EXPECT_TRUE(last.ok()) << last.status().ToString();
  if (last.ok() && last->NumRows() > 0) {
    s.last_sql = last->rows[0][0].AsVarchar();
    s.last_code = last->rows[0][1].AsBigInt();
  }
  return s;
}

void ExpectSinks(const SinkState& got, bool has_row, int64_t calls,
                 int64_t errors, int64_t plan_cache_hits,
                 const std::string& last_sql, StatusCode last_code,
                 uint64_t queries, uint64_t hits, uint64_t misses) {
  EXPECT_EQ(got.has_row, has_row);
  EXPECT_EQ(got.calls, calls);
  EXPECT_EQ(got.errors, errors);
  EXPECT_EQ(got.plan_cache_hits, plan_cache_hits);
  EXPECT_EQ(got.last_sql, last_sql);
  EXPECT_EQ(got.last_code, StatusCodeToWire(last_code));
  EXPECT_EQ(got.queries, queries);
  EXPECT_EQ(got.hits, hits);
  EXPECT_EQ(got.misses, misses);
}

TEST_F(SessionTest, StatementSinksArePinned) {
  Session s(db_);
  auto exec = [&](const std::string& sql, bool ok) {
    return RunAndCapture(db_, sql, [&] {
      auto r = s.Execute(sql);
      EXPECT_EQ(r.ok(), ok) << sql << " -> " << r.status().ToString();
    });
  };
  constexpr StatusCode kOk = StatusCode::kOk;

  // Ad-hoc SELECT: a miss, then a hit.
  const std::string select = "SELECT name FROM emp WHERE id = 2";
  {
    SCOPED_TRACE("ad-hoc SELECT miss");
    ExpectSinks(exec(select, true), true, 1, 0, 0, select, kOk, 1, 0, 1);
  }
  {
    SCOPED_TRACE("ad-hoc SELECT hit");
    ExpectSinks(exec(select, true), true, 2, 0, 1, select, kOk, 1, 1, 0);
  }

  // Prepared SELECT: Prepare compiles (a miss), Execute reuses it (a hit).
  const std::string prep_select = "SELECT name FROM emp WHERE id = ?";
  {
    SCOPED_TRACE("prepared SELECT");
    SinkState got = RunAndCapture(db_, prep_select, [&] {
      auto prep = s.Prepare(prep_select);
      ASSERT_TRUE(prep.ok()) << prep.status().ToString();
      auto r = prep->Execute({Value::BigInt(3)});
      ASSERT_TRUE(r.ok()) << r.status().ToString();
    });
    ExpectSinks(got, true, 1, 0, 1, prep_select, kOk, 1, 1, 1);
  }

  // Prepared INSERT: recorded in SYS.STATEMENTS, not SYS.LAST_QUERY.
  const std::string prep_insert = "INSERT INTO emp VALUES (?, ?, ?, ?)";
  {
    SCOPED_TRACE("prepared INSERT");
    SinkState got = RunAndCapture(db_, prep_insert, [&] {
      auto prep = s.Prepare(prep_insert);
      ASSERT_TRUE(prep.ok()) << prep.status().ToString();
      auto r = prep->Execute({Value::BigInt(5), Value::Varchar("eve"),
                              Value::Varchar("hr"), Value::Double(70.0)});
      ASSERT_TRUE(r.ok()) << r.status().ToString();
    });
    ExpectSinks(got, true, 1, 0, 0, prep_select, kOk, 0, 0, 0);
  }

  // Plain INSERT, then INSERT ... SELECT: the nested SELECT counts as one
  // query and publishes its profile under the INSERT's text.
  const std::string insert = "INSERT INTO emp VALUES (6, 'fay', 'hr', 60.0)";
  {
    SCOPED_TRACE("INSERT");
    ExpectSinks(exec(insert, true), true, 1, 0, 0, prep_select, kOk, 0, 0, 0);
  }
  const std::string insert_select =
      "INSERT INTO emp SELECT id + 100, name, dept, salary FROM emp "
      "WHERE dept = 'hr'";
  {
    SCOPED_TRACE("INSERT ... SELECT");
    ExpectSinks(exec(insert_select, true), true, 1, 0, 0, insert_select, kOk,
                1, 0, 0);
  }

  const std::string create = "CREATE TABLE pinned (id BIGINT PRIMARY KEY)";
  {
    SCOPED_TRACE("CREATE TABLE");
    ExpectSinks(exec(create, true), true, 1, 0, 0, insert_select, kOk, 0, 0,
                0);
  }

  // A parse error and a bind error reach SYS.LAST_QUERY only.
  const std::string parse_error = "SELEC name FROM emp";
  {
    SCOPED_TRACE("parse error");
    ExpectSinks(exec(parse_error, false), false, 0, 0, 0, parse_error,
                StatusCode::kInvalidArgument, 0, 0, 0);
  }
  const std::string bind_error = "SELECT nosuch FROM emp";
  const StatusCode bind_code = StatusCode::kNotFound;
  {
    SCOPED_TRACE("bind error");
    ExpectSinks(exec(bind_error, false), false, 0, 0, 0, bind_error,
                bind_code, 0, 0, 0);
  }

  // A SYS.* read counts, but leaves SYS.LAST_QUERY on the previous statement.
  const std::string sys_read = "SELECT COUNT(*) FROM SYS.TABLES";
  {
    SCOPED_TRACE("SYS read");
    ExpectSinks(exec(sys_read, true), true, 1, 0, 0, bind_error, bind_code, 1,
                0, 1);
  }

  {
    SCOPED_TRACE("BEGIN/COMMIT");
    SinkState begin = exec("BEGIN", true);
    ExpectSinks(begin, false, 0, 0, 0, bind_error, bind_code, 0, 0, 0);
    SinkState commit = exec("COMMIT", true);
    ExpectSinks(commit, false, 0, 0, 0, bind_error, bind_code, 0, 0, 0);
  }

  const std::string kill = "KILL 999999";
  {
    SCOPED_TRACE("KILL unknown id");
    ExpectSinks(exec(kill, false), false, 0, 0, 0, kill,
                StatusCode::kNotFound, 0, 0, 0);
  }

  const std::string analyze =
      "EXPLAIN ANALYZE SELECT name FROM emp WHERE id = 1";
  {
    SCOPED_TRACE("EXPLAIN ANALYZE");
    ExpectSinks(exec(analyze, true), true, 1, 0, 0, analyze, kOk, 1, 0, 0);
  }
}

TEST_F(SessionTest, OptionsArePerSession) {
  Session other(db_);
  session_.options().enable_index_scan = false;
  EXPECT_TRUE(other.options().enable_index_scan);
  // The database-level defaults are immutable (const view only).
  EXPECT_TRUE(db_.options().enable_index_scan);
}

TEST_F(SessionTest, LastStatsArePerSession) {
  Session other(db_);
  Must(session_, "SELECT COUNT(P) FROM g.Paths P WHERE P.Length = 2");
  const uint64_t expanded = session_.last_stats().vertexes_expanded;
  EXPECT_GT(expanded, 0u);
  Must(other, "SELECT COUNT(*) FROM emp");
  // other's statement must not clobber this session's stats.
  EXPECT_EQ(session_.last_stats().vertexes_expanded, expanded);
}

TEST_F(SessionTest, TwoSessionsShareOneDatabase) {
  Session other(db_);
  ASSERT_TRUE(
      other.Execute("INSERT INTO emp VALUES (9, 'zed', 'eng', 50.0)").ok());
  EXPECT_EQ(Must(session_, "SELECT COUNT(*) FROM emp").ScalarValue().AsBigInt(),
            5);
}

TEST_F(SessionTest, ThrowawaySessionsSeeSharedCatalog) {
  // The old Database::Execute shims are gone; one-shot statements run on a
  // short-lived Session and still observe (and mutate) shared state.
  {
    Session one_shot(db_);
    ASSERT_TRUE(one_shot.ExecuteScript("CREATE TABLE shim (id BIGINT)").ok());
  }
  Session later(db_);
  auto r = later.Execute("SELECT COUNT(*) FROM shim");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->ScalarValue().AsBigInt(), 0);
}

// --- ResultSet accessors -----------------------------------------------------------

TEST_F(SessionTest, ResultSetAccessors) {
  ResultSet r = Must(session_,
                     "SELECT name, salary FROM emp WHERE id <= 2 ORDER BY id");
  ASSERT_EQ(r.NumColumns(), 2u);
  EXPECT_EQ(r.column_name(0), "name");
  EXPECT_EQ(r.column_name(1), "salary");
  EXPECT_EQ(r.column_name(7), "");  // Out of range: empty, no crash.
  EXPECT_EQ(r.column_type(0), ValueType::kVarchar);
  EXPECT_EQ(r.column_type(1), ValueType::kDouble);
  EXPECT_EQ(r.column_type(7), ValueType::kNull);

  ASSERT_EQ(r.NumRows(), 2u);
  EXPECT_EQ(r.row(1)[0].AsVarchar(), "bob");
  size_t count = 0;
  for (const std::vector<Value>& row : r) {
    EXPECT_EQ(row.size(), 2u);
    ++count;
  }
  EXPECT_EQ(count, 2u);
}

TEST_F(SessionTest, ResultSetTypedGet) {
  ResultSet r = Must(session_,
                     "SELECT id, name, salary FROM emp WHERE id = 1");
  auto id = r.Get<int64_t>(0, 0);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 1);
  auto name = r.Get<std::string>(0, 1);
  ASSERT_TRUE(name.ok());
  EXPECT_EQ(*name, "ann");
  auto salary = r.Get<double>(0, 2);
  ASSERT_TRUE(salary.ok());
  EXPECT_DOUBLE_EQ(*salary, 120.0);
  // BIGINT cell read as double: widens.
  auto widened = r.Get<double>(0, 0);
  ASSERT_TRUE(widened.ok());
  EXPECT_DOUBLE_EQ(*widened, 1.0);
  // Out-of-range coordinates error instead of crashing.
  EXPECT_FALSE(r.Get<int64_t>(5, 0).ok());
  EXPECT_FALSE(r.Get<int64_t>(0, 9).ok());
}

TEST_F(SessionTest, ResultSetGetNullCellErrors) {
  ASSERT_TRUE(
      session_.Execute("INSERT INTO emp VALUES (8, NULL, 'x', 1.0)").ok());
  ResultSet r = Must(session_, "SELECT name FROM emp WHERE id = 8");
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_FALSE(r.Get<std::string>(0, 0).ok());
}

}  // namespace
}  // namespace grfusion
