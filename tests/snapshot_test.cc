// MVCC snapshot tests: epoch-stamped tuple visibility at the storage layer,
// BEGIN/COMMIT/ABORT transaction semantics at the session layer (including
// graph-view delta publication and abort-driven restoration), and a
// readers-vs-writer torture loop asserting that every read-only statement
// observes a commit-boundary-consistent state. The torture test is the
// ThreadSanitizer workout for the snapshot machinery: readers walk version
// chains and delta overlays while the writer stamps and publishes.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "engine/database.h"
#include "sql_test_util.h"
#include "engine/session.h"
#include "graph/csr_topology.h"
#include "graph/graph_view.h"
#include "storage/table.h"

namespace grfusion {
namespace {

Schema TwoColumnSchema() {
  return Schema({Column("id", ValueType::kBigInt),
                 Column("name", ValueType::kVarchar)});
}

Tuple Row(int64_t id, const std::string& name) {
  return Tuple({Value::BigInt(id), Value::Varchar(name)});
}

// --- Storage-layer visibility rules ----------------------------------------
//
// These drive Table directly with hand-picked epochs, playing the roles of
// both the single writer (epoch e mutating) and concurrent readers
// (snapshots before/at/after e). The engine's invariant "a statement started
// before COMMIT sees nothing, one started after sees everything" reduces to
// these interval checks.

TEST(SnapshotTableTest, InsertVisibleAtItsEpochAndLater) {
  Table t("t", TwoColumnSchema());
  auto slot = t.Insert(Row(1, "a"), /*epoch=*/5);
  ASSERT_TRUE(slot.ok());
  // Readers snapshotted before the writer's epoch never see the row.
  EXPECT_EQ(t.Get(*slot, 3), nullptr);
  EXPECT_EQ(t.Get(*slot, 4), nullptr);
  // The writer itself (snapshot == its epoch) sees its own insert.
  ASSERT_NE(t.Get(*slot, 5), nullptr);
  EXPECT_EQ(t.Get(*slot, 5)->value(0).AsBigInt(), 1);
  // Post-commit snapshots and the latest-state sentinel see it too.
  EXPECT_NE(t.Get(*slot, 6), nullptr);
  EXPECT_NE(t.Get(*slot, kEpochLatest), nullptr);
}

TEST(SnapshotTableTest, DeleteInvisibleAtItsEpochVisibleBefore) {
  Table t("t", TwoColumnSchema());
  auto slot = t.Insert(Row(1, "a"), /*epoch=*/2);
  ASSERT_TRUE(slot.ok());
  ASSERT_TRUE(t.Delete(*slot, /*epoch=*/5).ok());
  // Snapshots between insert and delete still see the row (readers that
  // started before the deleting transaction committed).
  EXPECT_NE(t.Get(*slot, 2), nullptr);
  EXPECT_NE(t.Get(*slot, 4), nullptr);
  // The deleting writer no longer sees it, nor does anyone after.
  EXPECT_EQ(t.Get(*slot, 5), nullptr);
  EXPECT_EQ(t.Get(*slot, 6), nullptr);
  EXPECT_EQ(t.Get(*slot, kEpochLatest), nullptr);
  // NumRows reflects the latest epoch.
  EXPECT_EQ(t.NumRows(), 0u);
}

TEST(SnapshotTableTest, UpdateChainsVersionsPerEpoch) {
  Table t("t", TwoColumnSchema());
  auto slot = t.Insert(Row(1, "old"), /*epoch=*/2);
  ASSERT_TRUE(slot.ok());
  ASSERT_TRUE(t.Update(*slot, Row(1, "new"), /*epoch=*/5).ok());
  // Old snapshot: old image. Writer + later snapshots: new image.
  ASSERT_NE(t.Get(*slot, 4), nullptr);
  EXPECT_EQ(t.Get(*slot, 4)->value(1).AsVarchar(), "old");
  ASSERT_NE(t.Get(*slot, 5), nullptr);
  EXPECT_EQ(t.Get(*slot, 5)->value(1).AsVarchar(), "new");
  EXPECT_EQ(t.Get(*slot, kEpochLatest)->value(1).AsVarchar(), "new");
  EXPECT_EQ(t.NumRows(), 1u);
}

TEST(SnapshotTableTest, ForEachHonorsSnapshot) {
  Table t("t", TwoColumnSchema());
  ASSERT_TRUE(t.Insert(Row(1, "a"), 2).ok());
  auto doomed = t.Insert(Row(2, "b"), 2);
  ASSERT_TRUE(doomed.ok());
  ASSERT_TRUE(t.Insert(Row(3, "c"), 4).ok());
  ASSERT_TRUE(t.Delete(*doomed, 4).ok());
  auto ids_at = [&](Epoch snapshot) {
    std::multiset<int64_t> ids;
    t.ForEach(
        [&](TupleSlot, const Tuple& tuple) {
          ids.insert(tuple.value(0).AsBigInt());
          return true;
        },
        snapshot);
    return ids;
  };
  EXPECT_EQ(ids_at(1), (std::multiset<int64_t>{}));
  EXPECT_EQ(ids_at(3), (std::multiset<int64_t>{1, 2}));
  EXPECT_EQ(ids_at(4), (std::multiset<int64_t>{1, 3}));
  EXPECT_EQ(ids_at(kEpochLatest), (std::multiset<int64_t>{1, 3}));
}

TEST(SnapshotTableTest, UndoRestampsRestoreVisibility) {
  Table t("t", TwoColumnSchema());
  auto base = t.Insert(Row(1, "base"), /*epoch=*/2);
  ASSERT_TRUE(base.ok());

  // Abort an insert: the row disappears at the aborting epoch and later.
  auto ins = t.Insert(Row(2, "junk"), /*epoch=*/5);
  ASSERT_TRUE(ins.ok());
  t.UndoAppliedInsert(*ins, *t.Get(*ins, 5), /*epoch=*/5);
  EXPECT_EQ(t.Get(*ins, 5), nullptr);
  EXPECT_EQ(t.Get(*ins, kEpochLatest), nullptr);

  // Abort a delete: the row comes back, including at the aborting epoch.
  const Tuple backup = *t.Get(*base, 5);
  ASSERT_TRUE(t.Delete(*base, /*epoch=*/5).ok());
  EXPECT_EQ(t.Get(*base, 5), nullptr);
  t.UndoAppliedDelete(*base, backup, /*epoch=*/5);
  ASSERT_NE(t.Get(*base, 5), nullptr);
  EXPECT_EQ(t.Get(*base, 5)->value(1).AsVarchar(), "base");
  EXPECT_NE(t.Get(*base, kEpochLatest), nullptr);

  // Abort an update: the pre-image becomes current again.
  ASSERT_TRUE(t.Update(*base, Row(1, "scribble"), /*epoch=*/5).ok());
  const Tuple after = *t.Get(*base, 5);
  t.UndoAppliedUpdate(*base, backup, after, /*epoch=*/5);
  EXPECT_EQ(t.Get(*base, 5)->value(1).AsVarchar(), "base");
  EXPECT_EQ(t.Get(*base, kEpochLatest)->value(1).AsVarchar(), "base");
  EXPECT_EQ(t.NumRows(), 1u);
}

TEST(SnapshotTableTest, VacuumReclaimsDeadVersions) {
  Table t("t", TwoColumnSchema());
  auto slot = t.Insert(Row(1, "a"), 2);
  ASSERT_TRUE(slot.ok());
  ASSERT_TRUE(t.Update(*slot, Row(1, "b"), 3).ok());
  ASSERT_TRUE(t.Delete(*slot, 4).ok());
  // Engine mode defers reclamation: the old snapshots still resolve.
  EXPECT_NE(t.Get(*slot, 2), nullptr);
  EXPECT_NE(t.Get(*slot, 3), nullptr);
  t.Vacuum();
  // After vacuum (exclusive lock in the engine) the chain is gone and the
  // slot is recyclable.
  EXPECT_EQ(t.Get(*slot, kEpochLatest), nullptr);
  EXPECT_EQ(t.NumRows(), 0u);
  auto reused = t.Insert(Row(9, "z"));
  ASSERT_TRUE(reused.ok());
  EXPECT_EQ(*reused, *slot);
}

// --- Session-layer transaction semantics -----------------------------------

/// Canonical topology multiset of a graph view (adjacency order ignored),
/// read at the latest published state.
std::multiset<std::string> Topology(const GraphView& gv) {
  std::multiset<std::string> out;
  gv.ForEachVertex([&](const VertexEntry& v) {
    out.insert(StrFormat("V %lld", static_cast<long long>(v.id)));
    gv.ForEachNeighbor(v, [&](const EdgeEntry& e, VertexId n) {
      out.insert(StrFormat("A %lld %lld:%lld", static_cast<long long>(v.id),
                           static_cast<long long>(e.id),
                           static_cast<long long>(n)));
      return true;
    });
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

class SnapshotTxnTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(ExecScript(db_, R"sql(
      CREATE TABLE v (id BIGINT PRIMARY KEY, tag VARCHAR);
      CREATE TABLE e (id BIGINT PRIMARY KEY, src BIGINT, dst BIGINT,
                      w DOUBLE);
      INSERT INTO v VALUES (1, 'a'), (2, 'b'), (3, 'c');
      INSERT INTO e VALUES (10, 1, 2, 1.0), (11, 2, 3, 1.0);
      CREATE DIRECTED GRAPH VIEW g
        VERTEXES (ID = id, tag = tag) FROM v
        EDGES (ID = id, FROM = src, TO = dst, w = w) FROM e;
    )sql")
                    .ok());
  }

  int64_t Count(Session& s, const std::string& sql) {
    auto r = s.Execute(sql);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r->ScalarValue().AsBigInt();
  }

  Database db_;
};

TEST_F(SnapshotTxnTest, CsrVertexLookupAcrossDeleteAndFold) {
  // Base lookups go through the CSR snapshot's id map while it is clean.
  // Committed changes sit in the delta overlay until a fold rebuilds the
  // snapshot; at every step a lookup must see exactly the committed
  // vertexes, with their current tuples.
  const GraphView* gv = db_.catalog().FindGraphView("g");
  ASSERT_NE(gv, nullptr);
  ASSERT_TRUE(ExecScript(db_, "CREATE TABLE pad (id BIGINT)").ok());
  auto tag_of = [&](int64_t id) -> std::string {
    const VertexEntry* v = gv->FindVertex(id);
    return v == nullptr ? "<absent>"
                        : gv->VertexTuple(*v)->value(1).AsVarchar();
  };
  auto fold = [&] {
    const size_t folds = gv->Folds();
    std::vector<std::vector<Value>> rows(128, {Value::BigInt(0)});
    ASSERT_TRUE(db_.BulkInsert("pad", rows).ok());
    ASSERT_GT(gv->Folds(), folds) << "no fold ran";
  };
  Session s(db_);
  ASSERT_TRUE(s.Execute("DELETE FROM e WHERE id = 11").ok());
  ASSERT_TRUE(s.Execute("DELETE FROM v WHERE id = 3").ok());
  ASSERT_TRUE(s.Execute("INSERT INTO v VALUES (4, 'd')").ok());
  // Before the fold: the overlay shadows the snapshot.
  EXPECT_NE(gv->csr()->IndexOf(3), CsrTopology::kAbsent);
  EXPECT_EQ(tag_of(3), "<absent>");
  EXPECT_EQ(tag_of(4), "d");
  fold();
  // After it: the rebuilt snapshot alone answers.
  EXPECT_TRUE(gv->PureCsr());
  EXPECT_EQ(gv->csr()->IndexOf(3), CsrTopology::kAbsent);
  EXPECT_NE(gv->csr()->IndexOf(4), CsrTopology::kAbsent);
  EXPECT_EQ(tag_of(1), "a");
  EXPECT_EQ(tag_of(2), "b");
  EXPECT_EQ(tag_of(3), "<absent>");
  EXPECT_EQ(tag_of(4), "d");
  EXPECT_EQ(Count(s, "SELECT COUNT(*) FROM g.Paths P WHERE P.Length <= 2"),
            1);
  // A deleted id re-inserted after the fold comes back through the overlay,
  // then through the next snapshot.
  ASSERT_TRUE(s.Execute("INSERT INTO v VALUES (3, 'c2')").ok());
  ASSERT_TRUE(s.Execute("INSERT INTO e VALUES (12, 2, 3, 1.0)").ok());
  EXPECT_EQ(tag_of(3), "c2");
  fold();
  EXPECT_TRUE(gv->PureCsr());
  EXPECT_EQ(tag_of(3), "c2");
  EXPECT_EQ(Count(s, "SELECT COUNT(*) FROM g.Paths P WHERE P.Length <= 2"),
            3);
}

TEST_F(SnapshotTxnTest, ReaderSeesNothingUntilCommitThenEverything) {
  Session writer(db_);
  Session reader(db_);
  ASSERT_TRUE(writer.Execute("BEGIN").ok());
  ASSERT_TRUE(writer.Execute("INSERT INTO v VALUES (4, 'd')").ok());
  ASSERT_TRUE(writer.Execute("INSERT INTO e VALUES (12, 3, 4, 1.0)").ok());
  ASSERT_TRUE(
      writer.Execute("UPDATE v SET tag = 'A' WHERE id = 1").ok());

  // A statement started before COMMIT observes none of the effects —
  // neither relational nor through the graph view.
  EXPECT_EQ(Count(reader, "SELECT COUNT(*) FROM v"), 3);
  EXPECT_EQ(Count(reader, "SELECT COUNT(*) FROM v WHERE tag = 'A'"), 0);
  EXPECT_EQ(Count(reader,
                  "SELECT COUNT(P) FROM g.Paths P WHERE P.Length = 1"),
            2);

  // The writer's own statements see all of them (its open epoch).
  EXPECT_EQ(Count(writer, "SELECT COUNT(*) FROM v"), 4);
  EXPECT_EQ(Count(writer, "SELECT COUNT(*) FROM v WHERE tag = 'A'"), 1);
  EXPECT_EQ(Count(writer,
                  "SELECT COUNT(P) FROM g.Paths P WHERE P.Length = 1"),
            3);

  ASSERT_TRUE(writer.Execute("COMMIT").ok());

  // A statement started after COMMIT observes all of the effects.
  EXPECT_EQ(Count(reader, "SELECT COUNT(*) FROM v"), 4);
  EXPECT_EQ(Count(reader, "SELECT COUNT(*) FROM v WHERE tag = 'A'"), 1);
  EXPECT_EQ(Count(reader,
                  "SELECT COUNT(P) FROM g.Paths P WHERE P.Length = 1"),
            3);
}

TEST_F(SnapshotTxnTest, AbortRestoresTablesAndGraphViews) {
  Session writer(db_);
  const GraphView* gv = db_.catalog().FindGraphView("g");
  ASSERT_NE(gv, nullptr);
  const auto before = Topology(*gv);

  ASSERT_TRUE(writer.Execute("BEGIN").ok());
  ASSERT_TRUE(writer.Execute("INSERT INTO v VALUES (4, 'd')").ok());
  ASSERT_TRUE(writer.Execute("INSERT INTO e VALUES (12, 3, 4, 2.0)").ok());
  ASSERT_TRUE(writer.Execute("DELETE FROM e WHERE id = 10").ok());
  ASSERT_TRUE(
      writer.Execute("UPDATE v SET tag = 'zzz' WHERE id = 2").ok());
  ASSERT_TRUE(writer.Execute("ABORT").ok());

  Session reader(db_);
  EXPECT_EQ(Count(reader, "SELECT COUNT(*) FROM v"), 3);
  EXPECT_EQ(Count(reader, "SELECT COUNT(*) FROM e"), 2);
  EXPECT_EQ(Count(reader, "SELECT COUNT(*) FROM v WHERE tag = 'zzz'"), 0);
  EXPECT_EQ(Topology(*gv), before);

  // The writer slot was released and epochs still advance: a fresh
  // transaction commits normally.
  ASSERT_TRUE(writer.Execute("BEGIN").ok());
  ASSERT_TRUE(writer.Execute("INSERT INTO v VALUES (5, 'e')").ok());
  ASSERT_TRUE(writer.Execute("COMMIT").ok());
  EXPECT_EQ(Count(reader, "SELECT COUNT(*) FROM v"), 4);
}

TEST_F(SnapshotTxnTest, TransactionStateErrors) {
  Session s(db_);
  EXPECT_FALSE(s.Execute("COMMIT").ok());  // No transaction in progress.
  EXPECT_FALSE(s.Execute("ABORT").ok());
  ASSERT_TRUE(s.Execute("BEGIN").ok());
  EXPECT_FALSE(s.Execute("BEGIN").ok());  // Already in progress.
  // DDL must not run inside a transaction (it needs the exclusive lock the
  // transaction's snapshot readers would deadlock against).
  EXPECT_FALSE(s.Execute("CREATE TABLE nope (id BIGINT)").ok());
  EXPECT_FALSE(s.Execute("DROP TABLE v").ok());
  ASSERT_TRUE(s.Execute("COMMIT").ok());
  // ROLLBACK is a synonym for ABORT.
  ASSERT_TRUE(s.Execute("BEGIN").ok());
  ASSERT_TRUE(s.Execute("ROLLBACK").ok());
}

TEST_F(SnapshotTxnTest, CommitFailpointAbortsAtomically) {
  FailpointRegistry::Global().DisarmAll();
  ASSERT_TRUE(
      FailpointRegistry::Global().ArmFromString("txn.commit", "oneshot").ok());
  Session writer(db_);
  ASSERT_TRUE(writer.Execute("BEGIN").ok());
  ASSERT_TRUE(writer.Execute("INSERT INTO v VALUES (4, 'd')").ok());
  auto commit = writer.Execute("COMMIT");
  ASSERT_FALSE(commit.ok());
  EXPECT_TRUE(FailpointRegistry::IsInjected(commit.status()));
  FailpointRegistry::Global().DisarmAll();

  // The injected commit aborted the transaction: nothing landed and the
  // session is back outside a transaction.
  Session reader(db_);
  EXPECT_EQ(Count(reader, "SELECT COUNT(*) FROM v"), 3);
  EXPECT_FALSE(writer.Execute("ABORT").ok());  // Nothing to abort.

  // Later transactions are unaffected.
  ASSERT_TRUE(writer.Execute("BEGIN").ok());
  ASSERT_TRUE(writer.Execute("INSERT INTO v VALUES (4, 'd')").ok());
  ASSERT_TRUE(writer.Execute("COMMIT").ok());
  EXPECT_EQ(Count(reader, "SELECT COUNT(*) FROM v"), 4);
}

TEST_F(SnapshotTxnTest, SessionDestructorAbortsOpenTransaction) {
  {
    Session doomed(db_);
    ASSERT_TRUE(doomed.Execute("BEGIN").ok());
    ASSERT_TRUE(doomed.Execute("INSERT INTO v VALUES (4, 'd')").ok());
    ASSERT_TRUE(doomed.Execute("DELETE FROM e WHERE id = 10").ok());
  }  // Destroyed with the transaction open: must abort and release the slot.
  Session s(db_);
  EXPECT_EQ(Count(s, "SELECT COUNT(*) FROM v"), 3);
  EXPECT_EQ(Count(s, "SELECT COUNT(*) FROM e"), 2);
  // The writer slot is free again.
  ASSERT_TRUE(s.Execute("BEGIN").ok());
  ASSERT_TRUE(s.Execute("COMMIT").ok());
}

TEST_F(SnapshotTxnTest, FailedStatementRollsBackToMarkOnly) {
  Session writer(db_);
  ASSERT_TRUE(writer.Execute("BEGIN").ok());
  ASSERT_TRUE(writer.Execute("INSERT INTO v VALUES (4, 'd')").ok());
  // Multi-row insert with a duplicate key in the middle: the statement is
  // atomic (second row's failure undoes the first), but the earlier
  // statement of the same transaction survives.
  EXPECT_FALSE(
      writer.Execute("INSERT INTO v VALUES (5, 'e'), (4, 'dup'), (6, 'f')")
          .ok());
  EXPECT_EQ(Count(writer, "SELECT COUNT(*) FROM v"), 4);
  ASSERT_TRUE(writer.Execute("COMMIT").ok());
  Session reader(db_);
  EXPECT_EQ(Count(reader, "SELECT COUNT(*) FROM v"), 4);
  EXPECT_EQ(Count(reader, "SELECT COUNT(*) FROM v WHERE id = 5"), 0);
}

TEST_F(SnapshotTxnTest, ImplicitMultiRowInsertIsAtomic) {
  Session s(db_);
  EXPECT_FALSE(
      s.Execute("INSERT INTO v VALUES (7, 'g'), (1, 'dup'), (8, 'h')").ok());
  EXPECT_EQ(Count(s, "SELECT COUNT(*) FROM v"), 3);
  const GraphView* gv = db_.catalog().FindGraphView("g");
  ASSERT_NE(gv, nullptr);
  // Rebuilding the view from base tables matches the maintained topology.
  auto rebuilt =
      GraphView::Create(gv->def(), gv->vertex_table(), gv->edge_table());
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(Topology(*gv), Topology(**rebuilt));
}

// --- Torture: 4 readers vs 1 writer ---------------------------------------
//
// The writer moves money between accounts inside transactions (sum
// invariant), inserts edges two-at-a-time (parity invariant), and aborts
// every third transaction. Readers hammer aggregate and traversal queries:
// any statement observing a half-applied transaction breaks an invariant.
TEST(SnapshotTortureTest, ReadersSeeCommitBoundaryConsistentStates) {
  Database db;
  ASSERT_TRUE(ExecScript(db, R"sql(
    CREATE TABLE acct (id BIGINT PRIMARY KEY, bal BIGINT);
    CREATE TABLE vx (id BIGINT PRIMARY KEY);
    CREATE TABLE ex (id BIGINT PRIMARY KEY, s BIGINT, d BIGINT);
    INSERT INTO acct VALUES (0, 100), (1, 100), (2, 100), (3, 100);
    INSERT INTO vx VALUES (0), (1), (2), (3);
  )sql")
                  .ok());
  ASSERT_TRUE(ExecScript(db, 
                    "CREATE DIRECTED GRAPH VIEW tg "
                    "VERTEXES (ID = id) FROM vx "
                    "EDGES (ID = id, FROM = s, TO = d) FROM ex;")
                  .ok());
  constexpr int64_t kTotal = 400;
  constexpr int kTxns = 150;
  constexpr int kReaders = 4;

  std::atomic<bool> done{false};
  std::atomic<int> violations{0};
  std::atomic<int> errors{0};

  std::thread writer([&] {
    Session s(db);
    for (int i = 0; i < kTxns; ++i) {
      const int from = i % 4;
      const int to = (i + 1) % 4;
      if (!s.Execute("BEGIN").ok()) ++errors;
      auto ok = [&](const char* sql) {
        auto r = s.Execute(sql);
        if (!r.ok()) ++errors;
      };
      ok(StrFormat("UPDATE acct SET bal = bal - 7 WHERE id = %d", from)
             .c_str());
      ok(StrFormat("UPDATE acct SET bal = bal + 7 WHERE id = %d", to)
             .c_str());
      // Two edges per transaction: committed edge count stays even.
      ok(StrFormat("INSERT INTO ex VALUES (%d, %d, %d)", 2 * i, from, to)
             .c_str());
      ok(StrFormat("INSERT INTO ex VALUES (%d, %d, %d)", 2 * i + 1, to,
                   from)
             .c_str());
      if (!s.Execute(i % 3 == 2 ? "ABORT" : "COMMIT").ok()) ++errors;
    }
    done.store(true, std::memory_order_release);
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      Session s(db);
      while (!done.load(std::memory_order_acquire)) {
        auto sum = s.Execute("SELECT SUM(bal) FROM acct");
        if (!sum.ok()) {
          ++errors;
        } else if (sum->ScalarValue().AsBigInt() != kTotal) {
          ++violations;
        }
        // Length-1 path count == edge count; committed states keep it even.
        auto paths = s.Execute(
            "SELECT COUNT(P) FROM tg.Paths P WHERE P.Length = 1");
        if (!paths.ok()) {
          ++errors;
        } else if (paths->ScalarValue().AsBigInt() % 2 != 0) {
          ++violations;
        }
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();

  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(violations.load(), 0);

  // Quiesced: aborted transactions left no trace, committed ones all landed.
  Session check(db);
  auto sum = check.Execute("SELECT SUM(bal) FROM acct");
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(sum->ScalarValue().AsBigInt(), kTotal);
  auto edges = check.Execute("SELECT COUNT(*) FROM ex");
  ASSERT_TRUE(edges.ok());
  // 2 edges per committed transaction; every third transaction aborted.
  EXPECT_EQ(edges->ScalarValue().AsBigInt(), 2 * (kTxns - kTxns / 3));
  const GraphView* gv = db.catalog().FindGraphView("tg");
  ASSERT_NE(gv, nullptr);
  auto rebuilt =
      GraphView::Create(gv->def(), gv->vertex_table(), gv->edge_table());
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(Topology(*gv), Topology(**rebuilt));
}

// --- Edge-attribute columns under attribute writes --------------------------------
//
// Traversals read edge weights and pushed-predicate attributes from flat
// columns built lazily from a snapshot. An UPDATE that leaves topology
// unchanged marks them stale before it can become visible, so every
// statement from then on reads tuples at its own snapshot, until the next
// maintenance boundary drops the columns and a reader rebuilds them.

class EdgeColumnSnapshotTest : public ::testing::Test {
 protected:
  // Two routes from 1 to 4: 1 -> 2 -> 4 (w 1 + 1) and 1 -> 3 -> 4 (2 + 2).
  void SetUp() override {
    ASSERT_TRUE(ExecScript(db_, R"sql(
      CREATE TABLE v (id BIGINT PRIMARY KEY);
      CREATE TABLE e (id BIGINT PRIMARY KEY, src BIGINT, dst BIGINT,
                      w DOUBLE, rank BIGINT);
      CREATE TABLE pad (id BIGINT);
      INSERT INTO v VALUES (1), (2), (3), (4);
      INSERT INTO e VALUES (10, 1, 2, 1.0, 10), (11, 2, 4, 1.0, 10),
                           (12, 1, 3, 2.0, 10), (13, 3, 4, 2.0, 10);
      CREATE DIRECTED GRAPH VIEW g VERTEXES (ID = id) FROM v
        EDGES (ID = id, FROM = src, TO = dst, w = w, rank = rank) FROM e;
    )sql")
                    .ok());
    gv_ = db_.catalog().FindGraphView("g");
    ASSERT_NE(gv_, nullptr);
  }

  /// First row of `sql` as "col|col|".
  std::string First(Session& s, const std::string& sql) {
    auto r = s.Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    if (!r.ok() || r->rows.empty()) return "";
    std::string line;
    for (const Value& v : r->rows[0]) line += v.ToString() + "|";
    return line;
  }
  std::string Shortest(Session& s) { return First(s, kShortest); }
  std::string Reach(Session& s) { return First(s, kReach); }

  static uint64_t TupleReads(const Session& s) {
    return s.last_stats().attr_tuple_reads;
  }

  /// Commits enough changes to cross the maintenance batch: the commit
  /// boundary drops stale columns (there is no topology delta to fold).
  void CrossMaintenanceBoundary() {
    std::vector<std::vector<Value>> rows(128, {Value::BigInt(0)});
    ASSERT_TRUE(db_.BulkInsert("pad", rows).ok());
  }

  static constexpr const char* kShortest =
      "SELECT TOP 1 PS.Cost, PS.PathString FROM g.Paths PS "
      "HINT(SHORTESTPATH(w)) WHERE PS.StartVertex.Id = 1 AND "
      "PS.EndVertex.Id = 4";
  static constexpr const char* kReach =
      "SELECT P.PathString FROM g.Paths P WHERE P.StartVertex.Id = 1 AND "
      "P.EndVertex.Id = 4 AND P.Edges[0..*].rank < 50 LIMIT 1";
  static constexpr const char* kViaTwo = "1 -[10]-> 2 -[11]-> 4|";
  static constexpr const char* kViaThree = "1 -[12]-> 3 -[13]-> 4|";

  Database db_;
  const GraphView* gv_ = nullptr;
};

TEST_F(EdgeColumnSnapshotTest, WeightWriteVisibleAtCommitServedAfterBoundary) {
  Session reader(db_);
  Session writer(db_);
  EXPECT_EQ(Shortest(reader), std::string("2|") + kViaTwo);
  EXPECT_EQ(TupleReads(reader), 0u) << "a fresh view is served by columns";
  auto bytes = reader.Execute("SELECT ATTR_BYTES FROM SYS.GRAPH_VIEWS");
  ASSERT_TRUE(bytes.ok());
  EXPECT_GT(bytes->ScalarValue().AsBigInt(), 0);

  ASSERT_TRUE(writer.Execute("BEGIN").ok());
  ASSERT_TRUE(writer.Execute("UPDATE e SET w = 10.0 WHERE id = 11").ok());
  EXPECT_TRUE(gv_->EdgeColumnsStale());
  // The writer's own statement sees its write; the reader, whose snapshot
  // predates the commit, the old weight. Both read tuples now.
  EXPECT_EQ(Shortest(writer), std::string("4|") + kViaThree);
  EXPECT_GT(TupleReads(writer), 0u);
  EXPECT_EQ(Shortest(reader), std::string("2|") + kViaTwo);
  EXPECT_GT(TupleReads(reader), 0u);

  ASSERT_TRUE(writer.Execute("COMMIT").ok());
  EXPECT_EQ(Shortest(reader), std::string("4|") + kViaThree);
  EXPECT_GT(TupleReads(reader), 0u);

  CrossMaintenanceBoundary();
  EXPECT_FALSE(gv_->EdgeColumnsStale());
  EXPECT_EQ(gv_->AttrBytes(), 0u);
  // The rebuilt column serves the committed weight.
  EXPECT_EQ(Shortest(reader), std::string("4|") + kViaThree);
  EXPECT_EQ(TupleReads(reader), 0u);
  EXPECT_GT(gv_->AttrBytes(), 0u);
}

TEST_F(EdgeColumnSnapshotTest, AbortedWeightWriteKeepsOldCost) {
  Session reader(db_);
  Session writer(db_);
  EXPECT_EQ(Shortest(reader), std::string("2|") + kViaTwo);
  ASSERT_TRUE(writer.Execute("BEGIN").ok());
  ASSERT_TRUE(writer.Execute("UPDATE e SET w = 10.0 WHERE id = 11").ok());
  EXPECT_EQ(Shortest(writer), std::string("4|") + kViaThree);
  ASSERT_TRUE(writer.Execute("ABORT").ok());
  // The mark outlives the abort: reads stay on tuples until the boundary.
  EXPECT_TRUE(gv_->EdgeColumnsStale());
  EXPECT_EQ(Shortest(reader), std::string("2|") + kViaTwo);
  EXPECT_GT(TupleReads(reader), 0u);

  CrossMaintenanceBoundary();
  EXPECT_EQ(Shortest(reader), std::string("2|") + kViaTwo);
  EXPECT_EQ(TupleReads(reader), 0u);
}

TEST_F(EdgeColumnSnapshotTest, RankWriteVisibleAtCommitServedAfterBoundary) {
  Session reader(db_);
  Session writer(db_);
  EXPECT_EQ(Reach(reader), kViaTwo);
  EXPECT_EQ(TupleReads(reader), 0u);

  ASSERT_TRUE(writer.Execute("BEGIN").ok());
  ASSERT_TRUE(writer.Execute("UPDATE e SET rank = 90 WHERE id = 11").ok());
  EXPECT_EQ(Reach(writer), kViaThree);
  EXPECT_EQ(Reach(reader), kViaTwo);
  EXPECT_GT(TupleReads(reader), 0u);
  ASSERT_TRUE(writer.Execute("COMMIT").ok());
  EXPECT_EQ(Reach(reader), kViaThree);
  EXPECT_GT(TupleReads(reader), 0u);

  CrossMaintenanceBoundary();
  EXPECT_EQ(Reach(reader), kViaThree);
  EXPECT_EQ(TupleReads(reader), 0u);

  // An aborted rank write leaves the committed answer in place.
  ASSERT_TRUE(writer.Execute("BEGIN").ok());
  ASSERT_TRUE(writer.Execute("UPDATE e SET rank = 10 WHERE id = 11").ok());
  EXPECT_EQ(Reach(writer), kViaTwo);
  ASSERT_TRUE(writer.Execute("ABORT").ok());
  EXPECT_EQ(Reach(reader), kViaThree);
  EXPECT_GT(TupleReads(reader), 0u);
  CrossMaintenanceBoundary();
  EXPECT_EQ(Reach(reader), kViaThree);
  EXPECT_EQ(TupleReads(reader), 0u);
}

// --- Fold/vacuum pressure under pinned readers -------------------------------------

// Readers keep statements pinned at their snapshot epoch while the writer
// churns enough versions to cross the vacuum-batch and fold-pressure
// thresholds many times over. The deferred maintenance must (a) actually run
// — the try-lock deferral cannot starve it forever once pressure mounts —
// and (b) never let a reader observe a state that is not a commit boundary:
// vacuum only reclaims versions no statement can still address.
TEST(SnapshotTortureTest, PinnedReadersSurviveFoldAndVacuumBatches) {
  Database db;
  constexpr int kRows = 8;
  constexpr int64_t kSum = 8 * 50;
  ASSERT_TRUE(
      ExecScript(db, "CREATE TABLE t (id BIGINT PRIMARY KEY, v BIGINT)")
          .ok());
  for (int i = 0; i < kRows; ++i) {
    ASSERT_TRUE(
        Exec(db, StrFormat("INSERT INTO t VALUES (%d, 50)", i)).ok());
  }
  EngineMetrics& m = EngineMetrics::Get();
  const uint64_t folds_before = m.mvcc_folds_total->value();
  const uint64_t vacuumed_before = m.mvcc_vacuumed_versions_total->value();

  // Every write keeps SUM(v) invariant: whole-table no-op updates dead-end
  // kRows versions per statement, and the +1/-1 money moves are wrapped in
  // a transaction so no commit boundary exposes a partial move. 1500 rounds
  // x ~9 changes crosses the 128-change vacuum batch dozens of times and
  // the 4096-change blocking threshold several times even if every
  // try-lock fails.
  std::atomic<bool> done{false};
  std::atomic<int> errors{0};
  std::atomic<int> violations{0};
  std::thread writer([&] {
    Session s(db);
    for (int i = 0; i < 1500; ++i) {
      if (i % 4 == 0) {
        if (!s.Execute("BEGIN").ok()) ++errors;
        if (!s.Execute(StrFormat("UPDATE t SET v = v + 1 WHERE id = %d",
                                 i % kRows))
                 .ok()) {
          ++errors;
        }
        if (!s.Execute(StrFormat("UPDATE t SET v = v - 1 WHERE id = %d",
                                 (i + 1) % kRows))
                 .ok()) {
          ++errors;
        }
        if (!s.Execute("COMMIT").ok()) ++errors;
      } else {
        if (!s.Execute("UPDATE t SET v = v + 0").ok()) ++errors;
      }
    }
    done.store(true, std::memory_order_release);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      Session s(db);
      while (!done.load(std::memory_order_acquire)) {
        auto sum = s.Execute("SELECT SUM(v) FROM t");
        if (!sum.ok()) {
          ++errors;
        } else if (sum->ScalarValue().AsBigInt() != kSum) {
          ++violations;
        }
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();

  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(violations.load(), 0);
  // Maintenance genuinely ran and reclaimed the dead churn.
  EXPECT_GT(m.mvcc_folds_total->value(), folds_before);
  EXPECT_GT(m.mvcc_vacuumed_versions_total->value(), vacuumed_before);
  // Quiescent state: the final values are intact after all that reclamation.
  auto sum = Exec(db, "SELECT SUM(v), COUNT(v) FROM t");
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(sum->rows[0][0].AsBigInt(), kSum);
  EXPECT_EQ(sum->rows[0][1].AsBigInt(), kRows);
}

}  // namespace
}  // namespace grfusion
