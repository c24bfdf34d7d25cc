// Concurrency tests. Writes are single-writer MVCC: one write transaction
// at a time (serialized on the writer slot) stamps tuple versions and graph
// delta overlays with its epoch, publishing at COMMIT. Read-only statements
// run against the committed epoch they started at, so sessions on different
// threads run SELECTs (including graph traversals and cached-plan
// re-executions) concurrently — and never block on an open writer. Only DDL
// still takes the statement lock exclusively.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>

#include "common/metrics.h"
#include "common/string_util.h"
#include "engine/database.h"
#include "sql_test_util.h"
#include "graph/graph_view.h"

namespace grfusion {
namespace {

/// Canonical topology of a graph view, adjacency order ignored (mirrors the
/// fault-injection harness's view==rebuild invariant).
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

TEST(ConcurrencyTest, ParallelInsertsAllLand) {
  Database db;
  ASSERT_TRUE(Exec(db, "CREATE TABLE t (id BIGINT PRIMARY KEY, v BIGINT)")
                  .ok());
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&db, &failures, t] {
      for (int i = 0; i < kPerThread; ++i) {
        int64_t id = t * kPerThread + i;
        auto r = Exec(db, StrFormat("INSERT INTO t VALUES (%lld, %d)",
                                      static_cast<long long>(id), t));
        if (!r.ok()) ++failures;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  auto count = Exec(db, "SELECT COUNT(*) FROM t");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->ScalarValue().AsBigInt(), kThreads * kPerThread);
}

TEST(ConcurrencyTest, ConcurrentGraphUpdatesKeepTopologyConsistent) {
  Database db;
  ASSERT_TRUE(ExecScript(db, R"sql(
    CREATE TABLE v (id BIGINT PRIMARY KEY);
    CREATE TABLE e (id BIGINT PRIMARY KEY, s BIGINT, d BIGINT);
    INSERT INTO v VALUES (0), (1), (2), (3);
    CREATE DIRECTED GRAPH VIEW g
      VERTEXES (ID = id) FROM v
      EDGES (ID = id, FROM = s, TO = d) FROM e;
  )sql")
                  .ok());
  // Writers repeatedly add/remove edges; readers run traversals. Statement
  // serialization guarantees every query sees a consistent topology.
  std::atomic<bool> stop{false};
  std::atomic<int> errors{0};
  std::thread writer([&] {
    for (int i = 0; i < 300 && !stop; ++i) {
      int64_t id = 100 + (i % 10);
      auto ins = Exec(db, 
          StrFormat("INSERT INTO e VALUES (%lld, %d, %d)",
                    static_cast<long long>(id), i % 4, (i + 1) % 4));
      if (ins.ok()) {
        auto del = Exec(db, StrFormat("DELETE FROM e WHERE id = %lld",
                                        static_cast<long long>(id)));
        if (!del.ok()) ++errors;
      }
      // Duplicate-id inserts are legitimately rejected; not an error here.
    }
  });
  std::thread reader([&] {
    for (int i = 0; i < 300; ++i) {
      auto r = Exec(db, 
          "SELECT COUNT(P) FROM g.Paths P WHERE P.StartVertex.Id = 0 AND "
          "P.Length <= 3");
      if (!r.ok()) ++errors;
    }
  });
  writer.join();
  stop = true;
  reader.join();
  EXPECT_EQ(errors.load(), 0);
  // Final topology matches the relational source exactly.
  const GraphView* gv = db.catalog().FindGraphView("g");
  EXPECT_EQ(gv->NumEdges(), db.catalog().FindTable("e")->NumRows());
}

TEST(ConcurrencyTest, ConcurrentReaderSessionsShareCachedPlans) {
  Database db;
  Session setup(db);
  ASSERT_TRUE(setup.ExecuteScript(R"sql(
    CREATE TABLE v (id BIGINT PRIMARY KEY, name VARCHAR);
    CREATE TABLE e (id BIGINT PRIMARY KEY, s BIGINT, d BIGINT);
    CREATE DIRECTED GRAPH VIEW g
      VERTEXES (ID = id, name = name) FROM v
      EDGES (ID = id, FROM = s, TO = d) FROM e;
  )sql")
                  .ok());
  std::vector<std::vector<Value>> vrows, erows;
  for (int64_t i = 0; i < 16; ++i) {
    vrows.push_back({Value::BigInt(i), Value::Varchar("v")});
    erows.push_back(
        {Value::BigInt(i), Value::BigInt(i), Value::BigInt((i + 1) % 16)});
    erows.push_back({Value::BigInt(100 + i), Value::BigInt(i),
                     Value::BigInt((i + 5) % 16)});
  }
  ASSERT_TRUE(db.BulkInsert("v", vrows).ok());
  ASSERT_TRUE(db.BulkInsert("e", erows).ok());

  const uint64_t hits_before =
      EngineMetrics::Get().plan_cache_hits->value();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&db, &errors] {
      // One session per thread: sessions are not thread-safe, databases are.
      Session session(db);
      auto prep = session.Prepare(
          "SELECT COUNT(P) FROM g.Paths P "
          "WHERE P.StartVertex.Id = ? AND P.Length <= 2");
      if (!prep.ok()) {
        ++errors;
        return;
      }
      for (int i = 0; i < kPerThread; ++i) {
        auto a = session.Execute("SELECT COUNT(*) FROM e WHERE s < 8");
        if (!a.ok() || a->ScalarValue().AsBigInt() != 16) ++errors;
        auto b = prep->Execute({Value::BigInt(i % 16)});
        // Every vertex has out-degree 2, so 2 one-hop + 4 two-hop paths.
        if (!b.ok() || b->ScalarValue().AsBigInt() != 6) ++errors;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(errors.load(), 0);
  // The repeated statements ran from cached plans, not fresh compilations.
  EXPECT_GT(EngineMetrics::Get().plan_cache_hits->value(), hits_before);
}

TEST(ConcurrencyTest, ReaderSessionsStayConsistentUnderWriter) {
  Database db;
  Session setup(db);
  ASSERT_TRUE(setup.ExecuteScript(R"sql(
    CREATE TABLE v (id BIGINT PRIMARY KEY);
    CREATE TABLE e (id BIGINT PRIMARY KEY, s BIGINT, d BIGINT);
    INSERT INTO v VALUES (0), (1), (2), (3), (4), (5);
    INSERT INTO e VALUES (0, 0, 1), (1, 1, 2), (2, 2, 3), (3, 3, 4),
                         (4, 4, 5), (5, 5, 0);
    CREATE DIRECTED GRAPH VIEW g
      VERTEXES (ID = id) FROM v
      EDGES (ID = id, FROM = s, TO = d) FROM e;
  )sql")
                  .ok());
  std::atomic<bool> stop{false};
  std::atomic<int> errors{0};
  // Writer churns edges through its own session while readers traverse.
  std::thread writer([&] {
    Session session(db);
    for (int i = 0; i < 200 && !stop; ++i) {
      int64_t id = 100 + (i % 7);
      auto ins = session.Execute(
          StrFormat("INSERT INTO e VALUES (%lld, %d, %d)",
                    static_cast<long long>(id), i % 6, (i + 2) % 6));
      if (ins.ok()) {
        auto del = session.Execute(StrFormat(
            "DELETE FROM e WHERE id = %lld", static_cast<long long>(id)));
        if (!del.ok()) ++errors;
      }
    }
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      Session session(db);
      for (int i = 0; i < 200; ++i) {
        // The base ring is never touched by the writer, so every consistent
        // snapshot contains the full 6-cycle: exactly one path of length 6
        // from vertex 0 back around. Extra churn edges can only add paths,
        // never remove these.
        auto r = session.Execute(
            "SELECT COUNT(P) FROM g.Paths P WHERE P.StartVertex.Id = 0 AND "
            "P.Length = 6");
        if (!r.ok() || r->ScalarValue().AsBigInt() < 1) ++errors;
      }
    });
  }
  for (auto& thread : readers) thread.join();
  stop = true;
  writer.join();
  EXPECT_EQ(errors.load(), 0);
  // The view equals a from-scratch rebuild of the final relational state.
  GraphView* gv = db.catalog().FindGraphView("g");
  ASSERT_NE(gv, nullptr);
  auto rebuilt =
      GraphView::Create(gv->def(), gv->vertex_table(), gv->edge_table());
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  EXPECT_EQ(Topology(*gv), Topology(**rebuilt));
  EXPECT_EQ(gv->NumEdges(), db.catalog().FindTable("e")->NumRows());
}

TEST(ConcurrencyTest, SystemTableReadersRaceWriterChurn) {
  // Four reader sessions hammer the SYS.* observability tables while a
  // writer churns DDL, DML, and plan-cache state. The introspection surface
  // (statement stats, the active-query registry, plan-cache snapshots, the
  // metrics registry) must stay internally consistent — no torn reads, no
  // crashes, no errors. Run under tsan to prove the locking.
  Database db;
  Session setup(db);
  ASSERT_TRUE(setup.ExecuteScript(R"sql(
    CREATE TABLE base (id BIGINT PRIMARY KEY, v BIGINT);
    INSERT INTO base VALUES (1, 10), (2, 20), (3, 30);
  )sql")
                  .ok());
  std::atomic<bool> stop{false};
  std::atomic<int> errors{0};
  std::thread writer([&] {
    Session session(db);
    for (int i = 0; i < 120 && !stop; ++i) {
      auto ins = session.Execute(StrFormat(
          "INSERT INTO base VALUES (%d, %d)", 100 + (i % 9), i));
      if (ins.ok()) {
        auto del = session.Execute(
            StrFormat("DELETE FROM base WHERE id = %d", 100 + (i % 9)));
        if (!del.ok()) ++errors;
      }
      // DDL churn invalidates cached plans, so the plan-cache snapshot the
      // readers take races real eviction, not a quiesced cache.
      auto mk = session.Execute(StrFormat(
          "CREATE TABLE scratch_%d (id BIGINT PRIMARY KEY)", i % 4));
      if (mk.ok()) {
        auto drop = session.Execute(StrFormat("DROP TABLE scratch_%d", i % 4));
        if (!drop.ok()) ++errors;
      }
    }
  });
  static constexpr const char* kSysQueries[] = {
      "SELECT COUNT(*) FROM SYS.METRICS",
      "SELECT SQL, CALLS, MEAN_US FROM SYS.STATEMENTS",
      "SELECT QUERY_ID, STATE FROM SYS.ACTIVE_QUERIES",
      "SELECT SQL, HIT_RATE FROM SYS.PLAN_CACHE",
  };
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&db, &errors, t] {
      Session session(db);
      for (int i = 0; i < 150; ++i) {
        auto r = session.Execute(kSysQueries[(t + i) % 4]);
        if (!r.ok()) ++errors;
        // A plain data query in between keeps the statement-stats store and
        // the active-query registry churning from the reader side too.
        auto q = session.Execute("SELECT COUNT(*) FROM base WHERE v >= 0");
        if (!q.ok() || q->ScalarValue().AsBigInt() < 3) ++errors;
      }
    });
  }
  for (auto& thread : readers) thread.join();
  stop = true;
  writer.join();

  // Phase 2 — reader progress while a write transaction is OPEN. The writer
  // begins a transaction, applies DML, and refuses to commit until every
  // reader finishes a full burst of statements. Under the MVCC snapshot
  // model the bursts complete promptly against the last committed state;
  // under an exclusive-DML lock this ordering would deadlock (bounded by
  // the ctest watchdog). Every burst statement must observe none of the
  // open transaction's effects.
  std::atomic<bool> txn_open{false};
  std::atomic<int> burst_done{0};
  std::thread txn_writer([&] {
    Session session(db);
    if (!session.Execute("BEGIN").ok()) ++errors;
    if (!session.Execute("INSERT INTO base VALUES (999, 999)").ok()) {
      ++errors;
    }
    if (!session.Execute("UPDATE base SET v = v + 5 WHERE id = 1").ok()) {
      ++errors;
    }
    txn_open.store(true, std::memory_order_release);
    while (burst_done.load(std::memory_order_acquire) < 4) {
      std::this_thread::yield();
    }
    if (!session.Execute("COMMIT").ok()) ++errors;
  });
  std::vector<std::thread> burst;
  for (int t = 0; t < 4; ++t) {
    burst.emplace_back([&db, &errors, &txn_open, &burst_done] {
      while (!txn_open.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      Session session(db);
      const auto start = std::chrono::steady_clock::now();
      for (int i = 0; i < 25; ++i) {
        auto r = session.Execute("SELECT COUNT(*) FROM base WHERE id = 999");
        if (!r.ok() || r->ScalarValue().AsBigInt() != 0) ++errors;
        auto s = session.Execute(kSysQueries[i % 4]);
        if (!s.ok()) ++errors;
      }
      // Bounded latency: the burst ran to completion while the transaction
      // was provably still open (the writer commits only after all bursts
      // finish), and did so in interactive time, not writer-commit time.
      const auto elapsed = std::chrono::steady_clock::now() - start;
      if (elapsed > std::chrono::seconds(30)) ++errors;
      burst_done.fetch_add(1, std::memory_order_acq_rel);
    });
  }
  for (auto& thread : burst) thread.join();
  txn_writer.join();

  EXPECT_EQ(errors.load(), 0);
  // After COMMIT the transaction's effects are fully visible.
  {
    Session after(db);
    auto r = after.Execute("SELECT COUNT(*) FROM base WHERE id = 999");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->ScalarValue().AsBigInt(), 1);
  }
  // Quiesced: nothing is left behind in the active-query registry.
  EXPECT_EQ(db.active_queries().size(), 0u);
  // The statement store saw traffic from all five sessions.
  Session check(db);
  auto calls = check.Execute(
      "SELECT CALLS FROM SYS.STATEMENTS "
      "WHERE SQL = 'SELECT COUNT(*) FROM base WHERE v >= 0'");
  ASSERT_TRUE(calls.ok());
  ASSERT_EQ(calls->rows.size(), 1u);
  EXPECT_EQ(calls->rows[0][0].AsBigInt(), 4 * 150);
}

// Two sessions race the first SHORTESTPATH and the first constrained reach
// on a fresh view — the lazy build of the weight and rank columns — while a
// writer swaps weights and ranks between two committed states and crosses
// maintenance boundaries that drop the columns for rebuilding. Every answer
// must be the answer of one committed state.
TEST(EdgeColumnRaceTest, FirstTraversalsRaceWeightWriter) {
  Database db;
  ASSERT_TRUE(ExecScript(db, R"sql(
    CREATE TABLE v (id BIGINT PRIMARY KEY);
    CREATE TABLE e (id BIGINT PRIMARY KEY, src BIGINT, dst BIGINT,
                    w DOUBLE, rank BIGINT);
    CREATE TABLE pad (id BIGINT);
    INSERT INTO v VALUES (1), (2), (3), (4);
    INSERT INTO e VALUES (10, 1, 2, 1.0, 10), (11, 2, 4, 1.0, 10),
                         (12, 1, 3, 1.0, 10), (13, 3, 4, 5.0, 90);
    CREATE DIRECTED GRAPH VIEW g VERTEXES (ID = id) FROM v
      EDGES (ID = id, FROM = src, TO = dst, w = w, rank = rank) FROM e;
  )sql")
                  .ok());
  const std::string shortest =
      "SELECT TOP 1 PS.Cost, PS.PathString FROM g.Paths PS "
      "HINT(SHORTESTPATH(w)) WHERE PS.StartVertex.Id = 1 AND "
      "PS.EndVertex.Id = 4";
  const std::string reach =
      "SELECT P.PathString FROM g.Paths P WHERE P.StartVertex.Id = 1 AND "
      "P.EndVertex.Id = 4 AND P.Edges[0..*].rank < 50 LIMIT 1";
  const std::string via_two = "1 -[10]-> 2 -[11]-> 4";
  const std::string via_three = "1 -[12]-> 3 -[13]-> 4";
  // Either committed state costs 2: the cheap, low-rank route alternates.
  const std::set<std::string> shortest_ok = {"2|" + via_two,
                                             "2|" + via_three};
  const std::set<std::string> reach_ok = {via_two, via_three};

  auto first_row = [](Session& s, const std::string& sql, std::string* out) {
    auto r = s.Execute(sql);
    if (!r.ok()) return false;
    out->clear();
    if (r->rows.empty()) return true;
    for (size_t i = 0; i < r->rows[0].size(); ++i) {
      if (i > 0) *out += "|";
      *out += r->rows[0][i].ToString();
    }
    return true;
  };

  constexpr int kSwaps = 200;
  std::atomic<int> ready{0};
  std::atomic<bool> done{false};
  std::atomic<int> errors{0};
  std::atomic<int> violations{0};
  auto wait_for_start = [&] {
    ready.fetch_add(1);
    while (ready.load() < 3) std::this_thread::yield();
  };

  std::thread writer([&] {
    Session s(db);
    wait_for_start();
    std::vector<std::vector<Value>> pad(128, {Value::BigInt(0)});
    for (int i = 0; i < kSwaps; ++i) {
      const bool to_three = i % 2 == 0;
      if (!s.Execute("BEGIN").ok()) ++errors;
      if (!s.Execute(StrFormat("UPDATE e SET w = %s, rank = %s WHERE id = 11",
                               to_three ? "5.0" : "1.0",
                               to_three ? "90" : "10"))
               .ok()) {
        ++errors;
      }
      if (!s.Execute(StrFormat("UPDATE e SET w = %s, rank = %s WHERE id = 13",
                               to_three ? "1.0" : "5.0",
                               to_three ? "10" : "90"))
               .ok()) {
        ++errors;
      }
      if (!s.Execute("COMMIT").ok()) ++errors;
      // Crosses the maintenance batch: stale columns are dropped at this
      // commit boundary (or a later one if readers hold the lock).
      if (i % 8 == 7 && !db.BulkInsert("pad", pad).ok()) ++errors;
    }
    done.store(true);
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      Session s(db);
      wait_for_start();
      // Reader 0 opens with SHORTESTPATH, reader 1 with the constrained
      // reach: both race to build their columns on the fresh view.
      bool shortest_turn = r == 0;
      do {
        std::string row;
        const std::string& sql = shortest_turn ? shortest : reach;
        if (!first_row(s, sql, &row)) {
          ++errors;
        } else if ((shortest_turn ? shortest_ok : reach_ok).count(row) == 0) {
          ++violations;
          ADD_FAILURE() << sql << " returned '" << row << "'";
        }
        shortest_turn = !shortest_turn;
      } while (!done.load());
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(violations.load(), 0);

  // Quiesced: the last swap (to the route via 2) committed; after a
  // boundary the rebuilt columns serve it.
  std::vector<std::vector<Value>> pad(128, {Value::BigInt(0)});
  ASSERT_TRUE(db.BulkInsert("pad", pad).ok());
  Session s(db);
  std::string row;
  ASSERT_TRUE(first_row(s, shortest, &row));
  EXPECT_EQ(row, "2|" + via_two);
  EXPECT_EQ(s.last_stats().attr_tuple_reads, 0u);
  ASSERT_TRUE(first_row(s, reach, &row));
  EXPECT_EQ(row, via_two);
  EXPECT_EQ(s.last_stats().attr_tuple_reads, 0u);
}

}  // namespace
}  // namespace grfusion
