// Robustness-layer tests: cooperative cancellation (CancellationToken,
// statement deadlines, InterruptHandle), the failpoint framework, and atomic
// graph-view maintenance under injected faults. The invariants: a stopped
// statement returns Cancelled/DeadlineExceeded with every charged byte
// released, and a DML statement that fails after partially mutating N graph
// views leaves every view identical to a from-scratch rebuild.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <set>
#include <vector>
#include <string>
#include <thread>
#include <variant>

#include "common/cancellation.h"
#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "common/task_pool.h"
#include "engine/database.h"
#include "graph/graph_view.h"
#include "parser/parser.h"
#include "plan/planner.h"

namespace grfusion {
namespace {

// --- Failpoint framework -----------------------------------------------------------

Status HitTestSite() {
  GRF_FAILPOINT("test.site");
  return Status::OK();
}

StatusOr<int> HitTestSiteOr() {
  GRF_FAILPOINT("test.site");
  return 42;
}

class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override { FailpointRegistry::Global().DisarmAll(); }
  void TearDown() override { FailpointRegistry::Global().DisarmAll(); }
};

TEST_F(FailpointTest, DisarmedSitePassesThrough) {
  EXPECT_FALSE(FailpointRegistry::AnyArmed());
  EXPECT_TRUE(HitTestSite().ok());
  EXPECT_TRUE(HitTestSiteOr().ok());
}

TEST_F(FailpointTest, ErrorModeFiresUntilDisarmed) {
  FailpointRegistry::Global().Arm("test.site", {});
  EXPECT_TRUE(FailpointRegistry::AnyArmed());
  for (int i = 0; i < 3; ++i) {
    Status s = HitTestSite();
    EXPECT_EQ(s.code(), StatusCode::kAborted);
    EXPECT_TRUE(FailpointRegistry::IsInjected(s)) << s.ToString();
  }
  FailpointRegistry::Global().Disarm("test.site");
  EXPECT_FALSE(FailpointRegistry::AnyArmed());
  EXPECT_TRUE(HitTestSite().ok());
}

TEST_F(FailpointTest, OneShotSelfDisarmsAfterFiring) {
  FailpointRegistry::Spec spec;
  spec.mode = FailpointRegistry::Spec::Mode::kOneShot;
  FailpointRegistry::Global().Arm("test.site", spec);
  EXPECT_FALSE(HitTestSite().ok());
  // Self-disarmed: subsequent hits (the rollback path, in engine terms) run
  // injection-free, and the global fast path is disarmed again.
  EXPECT_TRUE(HitTestSite().ok());
  EXPECT_FALSE(FailpointRegistry::AnyArmed());
}

TEST_F(FailpointTest, EveryNthFiresPeriodically) {
  FailpointRegistry::Spec spec;
  spec.mode = FailpointRegistry::Spec::Mode::kEveryNth;
  spec.nth = 3;
  FailpointRegistry::Global().Arm("test.site", spec);
  // Fires on hits 1, 4, 7, ...
  EXPECT_FALSE(HitTestSite().ok());
  EXPECT_TRUE(HitTestSite().ok());
  EXPECT_TRUE(HitTestSite().ok());
  EXPECT_FALSE(HitTestSite().ok());
  EXPECT_EQ(FailpointRegistry::Global().Hits("test.site"), 4u);
}

TEST_F(FailpointTest, ProbabilityEndpointsAreDeterministic) {
  FailpointRegistry::Spec never;
  never.mode = FailpointRegistry::Spec::Mode::kProbability;
  never.probability = 0.0;
  FailpointRegistry::Global().Arm("test.site", never);
  for (int i = 0; i < 20; ++i) EXPECT_TRUE(HitTestSite().ok());

  FailpointRegistry::Spec always = never;
  always.probability = 1.0;
  FailpointRegistry::Global().Arm("test.site", always);
  for (int i = 0; i < 20; ++i) EXPECT_FALSE(HitTestSite().ok());
}

TEST_F(FailpointTest, StatusOrFunctionsReturnTheInjectedStatus) {
  FailpointRegistry::Global().Arm("test.site", {});
  StatusOr<int> r = HitTestSiteOr();
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(FailpointRegistry::IsInjected(r.status()));
}

TEST_F(FailpointTest, ArmFromStringParsesEveryMode) {
  FailpointRegistry& reg = FailpointRegistry::Global();
  EXPECT_TRUE(reg.ArmFromString("test.site", "error").ok());
  EXPECT_TRUE(reg.ArmFromString("test.site", "oneshot").ok());
  EXPECT_TRUE(reg.ArmFromString("test.site", "every=4").ok());
  EXPECT_TRUE(reg.ArmFromString("test.site", "prob=0.25@7").ok());
  EXPECT_FALSE(reg.ArmFromString("test.site", "bogus").ok());
  EXPECT_FALSE(reg.ArmFromString("test.site", "every=0").ok());
  EXPECT_FALSE(reg.ArmFromString("test.site", "prob=1.5").ok());
  FailpointRegistry::Spec spec;
  ASSERT_TRUE(FailpointRegistry::ParseMode("every=4", &spec).ok());
  EXPECT_EQ(spec.mode, FailpointRegistry::Spec::Mode::kEveryNth);
  EXPECT_EQ(spec.nth, 4u);
}

TEST_F(FailpointTest, EnvironmentSyntaxAcceptsCommaAndSemicolon) {
  FailpointRegistry& reg = FailpointRegistry::Global();
  ::setenv("GRF_FAILPOINTS",
           "test.env_a=oneshot,test.env_b=every=2;test.env_c=prob=0.5@9,"
           "test.env_bad",  // No '=': logged and skipped, rest still parses.
           /*overwrite=*/1);
  reg.ReloadFromEnvForTesting();
  ::unsetenv("GRF_FAILPOINTS");
  std::vector<std::string> armed = reg.ArmedSites();
  std::set<std::string> sites(armed.begin(), armed.end());
  EXPECT_TRUE(sites.count("test.env_a"));
  EXPECT_TRUE(sites.count("test.env_b"));
  EXPECT_TRUE(sites.count("test.env_c"));
  EXPECT_FALSE(sites.count("test.env_bad"));
  EXPECT_FALSE(reg.Evaluate("test.env_a").ok());  // Oneshot: fires once...
  EXPECT_TRUE(reg.Evaluate("test.env_a").ok());   // ...then self-disarms.
}

TEST_F(FailpointTest, IsInjectedRejectsOrganicErrors) {
  EXPECT_FALSE(FailpointRegistry::IsInjected(Status::OK()));
  EXPECT_FALSE(
      FailpointRegistry::IsInjected(Status::Internal("organic failure")));
}

TEST_F(FailpointTest, ArmedSitesListsActiveSitesOnly) {
  FailpointRegistry& reg = FailpointRegistry::Global();
  reg.Arm("test.site", {});
  reg.Arm("test.other", {});
  std::vector<std::string> sites = reg.ArmedSites();
  EXPECT_EQ(sites.size(), 2u);
  reg.DisarmAll();
  EXPECT_TRUE(reg.ArmedSites().empty());
}

// --- CancellationToken -------------------------------------------------------------

TEST(CancellationTokenTest, NullTokenChecksAreNoops) {
  QueryContext ctx;
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(ctx.CheckInterrupt().ok());
}

TEST(CancellationTokenTest, CancelSurfacesAsCancelledStatus) {
  CancellationToken token;
  QueryContext ctx;
  ctx.set_cancellation(&token);
  EXPECT_TRUE(ctx.CheckInterrupt().ok());
  token.Cancel();
  Status s = ctx.CheckInterrupt();
  EXPECT_EQ(s.code(), StatusCode::kCancelled);
}

TEST(CancellationTokenTest, ZeroTimeoutTripsOnFirstCheck) {
  CancellationToken token;
  token.SetTimeoutUs(0);
  QueryContext ctx;
  ctx.set_cancellation(&token);
  // The first check after set_cancellation consults the clock immediately
  // (no stride warm-up), so a zero timeout trips right away.
  Status s = ctx.CheckInterrupt();
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
}

TEST(CancellationTokenTest, DeadlineTripLatchesForSiblingContexts) {
  CancellationToken token;
  token.SetTimeoutUs(0);
  QueryContext a, b;
  a.set_cancellation(&token);
  b.set_cancellation(&token);
  EXPECT_EQ(a.CheckInterrupt().code(), StatusCode::kDeadlineExceeded);
  // The trip is latched in the token, so sibling worker contexts observe a
  // consistent DeadlineExceeded without re-reading the clock.
  EXPECT_EQ(b.CheckInterrupt().code(), StatusCode::kDeadlineExceeded);
}

TEST(CancellationTokenTest, FarDeadlineDoesNotTrip) {
  CancellationToken token;
  token.SetTimeoutUs(60'000'000);  // 60s: far beyond this test's lifetime.
  QueryContext ctx;
  ctx.set_cancellation(&token);
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(ctx.CheckInterrupt().ok());
}

// --- Cancellation through the full engine ------------------------------------------

/// A database whose graph view `g` is a complete directed graph on `n`
/// vertices: unbounded path enumeration over it is combinatorially explosive,
/// so any query that finishes did so because cancellation stopped it.
class CancellationEngineTest : public ::testing::Test {
 protected:
  /// 17 vertexes: an unbound DFS probe over them is two 16-start morsels,
  /// so a path aggregate fans out to the task pool.
  static constexpr int64_t kVertexes = 17;

  void SetUp() override {
    FailpointRegistry::Global().DisarmAll();
    ASSERT_TRUE(session_.ExecuteScript(R"sql(
      CREATE TABLE v (id BIGINT PRIMARY KEY, name VARCHAR);
      CREATE TABLE e (id BIGINT PRIMARY KEY, src BIGINT, dst BIGINT,
                      w DOUBLE);
    )sql")
                    .ok());
    std::vector<std::vector<Value>> vrows, erows;
    int64_t eid = 0;
    for (int64_t i = 0; i < kVertexes; ++i) {
      vrows.push_back({Value::BigInt(i), Value::Varchar("v")});
      for (int64_t j = 0; j < kVertexes; ++j) {
        if (i == j) continue;
        erows.push_back({Value::BigInt(eid++), Value::BigInt(i),
                         Value::BigInt(j), Value::Double(1.0)});
      }
    }
    ASSERT_TRUE(db_.BulkInsert("v", vrows).ok());
    ASSERT_TRUE(db_.BulkInsert("e", erows).ok());
    ASSERT_TRUE(session_.ExecuteScript(
                      "CREATE DIRECTED GRAPH VIEW g "
                      "VERTEXES (ID = id, name = name) FROM v "
                      "EDGES (ID = id, FROM = src, TO = dst, w = w) FROM e")
                    .ok());
  }

  void TearDown() override { FailpointRegistry::Global().DisarmAll(); }

  /// Plans a combinatorial enumeration and drives the Volcano loop with an
  /// explicit QueryContext, so the test can assert the byte ledger is empty
  /// after Close() unwinds a deadline mid-traversal. The parallel variant
  /// counts the paths of a DFS probe, which the aggregate drains as morsels
  /// on the task pool (DESIGN.md §20); its length bound keeps the traversal
  /// finite but far longer than the deadline.
  void RunEnumerationWithDeadline(bool parallel) {
    auto stmt = Parser::ParseSingle(
        parallel ? "SELECT COUNT(*) FROM g.Paths P HINT(DFS) "
                   "WHERE P.Length <= 5"
                 : "SELECT P.PathString FROM g.Paths P");
    ASSERT_TRUE(stmt.ok());
    const SelectStmt& select = std::get<SelectStmt>(*stmt);
    PlannerOptions options = session_.options();
    if (parallel) {
      options.max_parallelism = 4;
      options.parallel_min_rows = 1;
    }
    Planner planner(&db_.catalog(), options);
    auto planned = planner.PlanSelect(select);
    ASSERT_TRUE(planned.ok()) << planned.status().ToString();

    QueryContext ctx(options.memory_cap);
    if (parallel) {
      ctx.set_task_pool(&TaskPool::Shared());
      ctx.set_max_parallelism(4);
      ctx.set_parallel_min_rows(1);
    }
    CancellationToken token;
    token.SetTimeoutUs(20'000);  // 20ms against a combinatorial traversal.
    ctx.set_cancellation(&token);
    const uint64_t tasks_before = TaskPool::Shared().stats().submitted;

    auto t0 = std::chrono::steady_clock::now();
    Status status = planned->root->Open(&ctx);
    ExecRow row;
    while (status.ok()) {
      auto has = planned->root->Next(&row);
      if (!has.ok()) {
        status = has.status();
        break;
      }
      if (!*has) break;
    }
    planned->root->Close();
    double elapsed_s = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();

    EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded)
        << status.ToString();
    // Promptness: a 20ms deadline must not take seconds to observe.
    EXPECT_LT(elapsed_s, 5.0);
    // Leak-freedom: unwinding released every charged byte.
    EXPECT_EQ(ctx.current_bytes(), 0u);
    EXPECT_GT(ctx.peak_bytes(), 0u);
    if (parallel) {
      EXPECT_GT(TaskPool::Shared().stats().submitted, tasks_before)
          << "the morsel drain never reached the task pool";
    }
  }

  Database db_;
  Session session_{db_};
};

TEST_F(CancellationEngineTest, SerialDeadlineUnwindsLeakFree) {
  RunEnumerationWithDeadline(/*parallel=*/false);
}

TEST_F(CancellationEngineTest, ParallelDeadlineUnwindsLeakFree) {
  RunEnumerationWithDeadline(/*parallel=*/true);
}

TEST_F(CancellationEngineTest, StatementTimeoutReturnsDeadlineExceeded) {
  Counter* counter = EngineMetrics::Get().queries_deadline_exceeded;
  const uint64_t before = counter->value();
  session_.options().statement_timeout_us = 10'000;
  auto result = session_.Execute("SELECT P.PathString FROM g.Paths P");
  session_.options().statement_timeout_us = -1;
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_GT(counter->value(), before);
}

TEST_F(CancellationEngineTest, InterruptHandleCancelsFromAnotherThread) {
  Counter* counter = EngineMetrics::Get().queries_cancelled;
  const uint64_t before = counter->value();
  InterruptHandle handle = session_.interrupt_handle();
  Status status = Status::OK();
  std::thread runner([&] {
    auto result = session_.Execute("SELECT P.PathString FROM g.Paths P");
    status = result.status();
  });
  // Poke the handle until the statement stops: interrupts before the
  // statement registers its token are harmless no-ops, so polling makes the
  // test immune to startup timing.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  std::atomic<bool> done{false};
  std::thread poker([&] {
    while (!done.load() && std::chrono::steady_clock::now() < deadline) {
      handle.Interrupt();
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  runner.join();
  done.store(true);
  poker.join();
  EXPECT_EQ(status.code(), StatusCode::kCancelled) << status.ToString();
  EXPECT_GT(counter->value(), before);
}

TEST_F(CancellationEngineTest, InterruptWhileIdleIsANoop) {
  session_.interrupt_handle().Interrupt();
  auto result = session_.Execute("SELECT COUNT(*) FROM v");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->ScalarValue().AsBigInt(), kVertexes);
}

TEST_F(CancellationEngineTest, ExplainAnalyzeAnnotatesPartialExecution) {
  session_.options().statement_timeout_us = 10'000;
  auto result =
      session_.Execute("EXPLAIN ANALYZE SELECT P.PathString FROM g.Paths P");
  session_.options().statement_timeout_us = -1;
  // A stopped EXPLAIN ANALYZE still renders the annotated plan, flagged as
  // partial with the status that stopped it.
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  bool found = false;
  for (const auto& row : result->rows) {
    for (const Value& v : row) {
      if (v.ToString().find("PARTIAL (DeadlineExceeded)") !=
          std::string::npos) {
        found = true;
      }
    }
  }
  EXPECT_TRUE(found) << "missing PARTIAL annotation";
}

// --- Atomic graph-view maintenance under injected faults ---------------------------

/// Canonical topology snapshot: vertex ids, edge triples, and each vertex's
/// traversal-neighbor multiset. Adjacency is compared as a multiset because
/// undo re-appends at the adjacency tail — order may legitimately differ
/// from a from-scratch build, connectivity may not.
std::multiset<std::string> Topology(const GraphView& gv) {
  std::multiset<std::string> out;
  gv.ForEachVertex([&](const VertexEntry& v) {
    out.insert(StrFormat("V %lld", static_cast<long long>(v.id)));
    std::multiset<std::string> nbrs;
    gv.ForEachNeighbor(v, [&](const EdgeEntry& e, VertexId n) {
      nbrs.insert(StrFormat("%lld:%lld", static_cast<long long>(e.id),
                            static_cast<long long>(n)));
      return true;
    });
    std::string line = StrFormat("A %lld:", static_cast<long long>(v.id));
    for (const std::string& s : nbrs) line += " " + s;
    out.insert(std::move(line));
    return true;
  });
  gv.ForEachEdge([&](const EdgeEntry& e) {
    out.insert(StrFormat("E %lld %lld->%lld", static_cast<long long>(e.id),
                         static_cast<long long>(e.from),
                         static_cast<long long>(e.to)));
    return true;
  });
  return out;
}

class GraphViewAtomicityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FailpointRegistry::Global().DisarmAll();
    ASSERT_TRUE(session_.ExecuteScript(R"sql(
      CREATE TABLE v (id BIGINT PRIMARY KEY, name VARCHAR);
      CREATE TABLE e (id BIGINT PRIMARY KEY, src BIGINT, dst BIGINT,
                      w DOUBLE);
    )sql")
                    .ok());
    std::vector<std::vector<Value>> vrows, erows;
    for (int64_t i = 0; i < 6; ++i) {
      vrows.push_back({Value::BigInt(i), Value::Varchar("v")});
      erows.push_back({Value::BigInt(i), Value::BigInt(i),
                       Value::BigInt((i + 1) % 6), Value::Double(1.0)});
    }
    ASSERT_TRUE(db_.BulkInsert("v", vrows).ok());
    ASSERT_TRUE(db_.BulkInsert("e", erows).ok());
    // Two views over the same sources: a DML statement notifies both, so an
    // injected failure at the second view forces undo of the first view's
    // already-applied delta.
    const std::string body =
        "VERTEXES (ID = id, name = name) FROM v "
        "EDGES (ID = id, FROM = src, TO = dst, w = w) FROM e";
    ASSERT_TRUE(
        session_.ExecuteScript("CREATE DIRECTED GRAPH VIEW g1 " + body).ok());
    ASSERT_TRUE(
        session_.ExecuteScript("CREATE DIRECTED GRAPH VIEW g2 " + body).ok());
  }

  void TearDown() override { FailpointRegistry::Global().DisarmAll(); }

  /// Every maintained view must equal a from-scratch rebuild of the same
  /// definition over the current base tables.
  void ExpectViewsEqualRebuild() {
    FailpointRegistry::Global().DisarmAll();
    for (const char* name : {"g1", "g2"}) {
      GraphView* gv = db_.catalog().FindGraphView(name);
      ASSERT_NE(gv, nullptr);
      auto rebuilt = GraphView::Create(gv->def(), gv->vertex_table(),
                                       gv->edge_table());
      ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
      EXPECT_EQ(Topology(*gv), Topology(**rebuilt))
          << name << " diverges from a from-scratch rebuild";
    }
  }

  int64_t CountRows(const std::string& table) {
    auto result = session_.Execute("SELECT COUNT(*) FROM " + table);
    EXPECT_TRUE(result.ok());
    return result.ok() ? result->ScalarValue().AsBigInt() : -1;
  }

  /// Arms `site` to fire on hits 1, 3, 5... (every=2): with two listening
  /// views, statement #1 fails at the first view (nothing applied yet) and
  /// statement #2 fails at the second view (first view's delta applied, must
  /// be undone).
  void ArmEverySecond(const std::string& site) {
    FailpointRegistry::Spec spec;
    spec.mode = FailpointRegistry::Spec::Mode::kEveryNth;
    spec.nth = 2;
    FailpointRegistry::Global().Arm(site, spec);
  }

  Database db_;
  Session session_{db_};
};

TEST_F(GraphViewAtomicityTest, EdgeInsertFailureLeavesNothingBehind) {
  Counter* undo = EngineMetrics::Get().graph_view_undo_total;
  const uint64_t undo_before = undo->value();
  ArmEverySecond("graph_view.edge_insert");
  // Fails at g1's listener: base tuple must be rolled back, no view touched.
  auto first = session_.Execute("INSERT INTO e VALUES (100, 0, 2, 1.0)");
  ASSERT_FALSE(first.ok());
  EXPECT_TRUE(FailpointRegistry::IsInjected(first.status()));
  // Fails at g2's listener: g1's applied delta must be undone too.
  auto second = session_.Execute("INSERT INTO e VALUES (101, 0, 3, 1.0)");
  ASSERT_FALSE(second.ok());
  EXPECT_TRUE(FailpointRegistry::IsInjected(second.status()));
  EXPECT_GT(undo->value(), undo_before);

  EXPECT_EQ(CountRows("e"), 6);
  ExpectViewsEqualRebuild();
  // Disarmed, the same statements succeed and propagate to both views.
  ASSERT_TRUE(session_.Execute("INSERT INTO e VALUES (100, 0, 2, 1.0)").ok());
  EXPECT_EQ(CountRows("e"), 7);
  ExpectViewsEqualRebuild();
}

TEST_F(GraphViewAtomicityTest, EdgeDeleteFailureRestoresTopology) {
  ArmEverySecond("graph_view.edge_delete");
  auto first = session_.Execute("DELETE FROM e WHERE id = 0");
  ASSERT_FALSE(first.ok());
  EXPECT_TRUE(FailpointRegistry::IsInjected(first.status()));
  auto second = session_.Execute("DELETE FROM e WHERE id = 1");
  ASSERT_FALSE(second.ok());
  EXPECT_TRUE(FailpointRegistry::IsInjected(second.status()));

  EXPECT_EQ(CountRows("e"), 6);
  ExpectViewsEqualRebuild();
  ASSERT_TRUE(session_.Execute("DELETE FROM e WHERE id = 1").ok());
  EXPECT_EQ(CountRows("e"), 5);
  ExpectViewsEqualRebuild();
}

TEST_F(GraphViewAtomicityTest, EdgeUpdateFailureRestoresEndpoints) {
  ArmEverySecond("graph_view.edge_update");
  // Topology-changing update: dst moves to a different vertex.
  auto first = session_.Execute("UPDATE e SET dst = 3 WHERE id = 0");
  ASSERT_FALSE(first.ok());
  EXPECT_TRUE(FailpointRegistry::IsInjected(first.status()));
  auto second = session_.Execute("UPDATE e SET dst = 4 WHERE id = 1");
  ASSERT_FALSE(second.ok());
  EXPECT_TRUE(FailpointRegistry::IsInjected(second.status()));

  ExpectViewsEqualRebuild();
  ASSERT_TRUE(session_.Execute("UPDATE e SET dst = 3 WHERE id = 0").ok());
  ExpectViewsEqualRebuild();
}

TEST_F(GraphViewAtomicityTest, VertexInsertFailureLeavesNothingBehind) {
  ArmEverySecond("graph_view.vertex_insert");
  auto first = session_.Execute("INSERT INTO v VALUES (100, 'x')");
  ASSERT_FALSE(first.ok());
  EXPECT_TRUE(FailpointRegistry::IsInjected(first.status()));
  auto second = session_.Execute("INSERT INTO v VALUES (101, 'y')");
  ASSERT_FALSE(second.ok());
  EXPECT_TRUE(FailpointRegistry::IsInjected(second.status()));

  EXPECT_EQ(CountRows("v"), 6);
  ExpectViewsEqualRebuild();
  ASSERT_TRUE(session_.Execute("INSERT INTO v VALUES (100, 'x')").ok());
  EXPECT_EQ(CountRows("v"), 7);
  ExpectViewsEqualRebuild();
}

TEST_F(GraphViewAtomicityTest, OneShotFailureThenCleanRetry) {
  FailpointRegistry::Spec oneshot;
  oneshot.mode = FailpointRegistry::Spec::Mode::kOneShot;
  FailpointRegistry::Global().Arm("graph_view.edge_insert", oneshot);
  auto failed = session_.Execute("INSERT INTO e VALUES (200, 2, 5, 1.0)");
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(FailpointRegistry::IsInjected(failed.status()));
  EXPECT_EQ(CountRows("e"), 6);
  // The oneshot consumed itself during the failed statement; the retry runs
  // injection-free and must fully propagate.
  auto retried = session_.Execute("INSERT INTO e VALUES (200, 2, 5, 1.0)");
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_EQ(CountRows("e"), 7);
  ExpectViewsEqualRebuild();
}

TEST_F(GraphViewAtomicityTest, ChargeFailpointDoesNotLeakOrCorrupt) {
  // Inject at the memory-charge site during a SELECT: the statement fails
  // cleanly and later statements see an intact engine.
  FailpointRegistry::Spec oneshot;
  oneshot.mode = FailpointRegistry::Spec::Mode::kOneShot;
  FailpointRegistry::Global().Arm("exec.charge_bytes", oneshot);
  auto result = session_.Execute(
      "SELECT P.PathString FROM g1.Paths P WHERE P.Length <= 2");
  if (!result.ok()) {
    EXPECT_TRUE(FailpointRegistry::IsInjected(result.status()))
        << result.status().ToString();
  }
  FailpointRegistry::Global().DisarmAll();
  auto again = session_.Execute(
      "SELECT P.PathString FROM g1.Paths P WHERE P.Length <= 2");
  EXPECT_TRUE(again.ok()) << again.status().ToString();
  ExpectViewsEqualRebuild();
}

}  // namespace
}  // namespace grfusion
