// Tests for the wire-protocol server front-end (src/server/): handshake and
// version negotiation, query/prepared/transaction round-trips, concurrent
// clients, admission control, wire-level cancel, mid-query disconnect
// reaping, graceful shutdown, and a malformed-frame fuzz loop. Also covers
// the two protocol building blocks added alongside the server: the stable
// numeric status-code table and ResultSet::NextBatch.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/status.h"
#include "engine/database.h"
#include "engine/result_set.h"
#include "engine/session.h"
#include "server/client.h"
#include "server/server.h"
#include "server/wire.h"

namespace grfusion {
namespace {

// --- Stable status codes -----------------------------------------------------

TEST(StatusCodeWireTest, RoundTripsEveryCode) {
  const StatusCode all[] = {
      StatusCode::kOk,
#define GRF_STATUS_TEST_ENTRY(name, value, str) StatusCode::name,
      GRF_STATUS_CODES(GRF_STATUS_TEST_ENTRY)
#undef GRF_STATUS_TEST_ENTRY
  };
  for (StatusCode code : all) {
    EXPECT_EQ(StatusCodeFromWire(StatusCodeToWire(code)), code)
        << StatusCodeToString(code);
  }
}

TEST(StatusCodeWireTest, NumericValuesAreStable) {
  // The wire values are a compatibility contract: changing one breaks every
  // deployed client. Pin them.
  EXPECT_EQ(StatusCodeToWire(StatusCode::kOk), 0);
  EXPECT_EQ(StatusCodeToWire(StatusCode::kInvalidArgument), 1);
  EXPECT_EQ(StatusCodeToWire(StatusCode::kNotFound), 2);
  EXPECT_EQ(StatusCodeToWire(StatusCode::kAlreadyExists), 3);
  EXPECT_EQ(StatusCodeToWire(StatusCode::kConstraintViolation), 4);
  EXPECT_EQ(StatusCodeToWire(StatusCode::kOutOfRange), 5);
  EXPECT_EQ(StatusCodeToWire(StatusCode::kResourceExhausted), 6);
  EXPECT_EQ(StatusCodeToWire(StatusCode::kUnsupported), 7);
  EXPECT_EQ(StatusCodeToWire(StatusCode::kInternal), 8);
  EXPECT_EQ(StatusCodeToWire(StatusCode::kAborted), 9);
  EXPECT_EQ(StatusCodeToWire(StatusCode::kCancelled), 10);
  EXPECT_EQ(StatusCodeToWire(StatusCode::kDeadlineExceeded), 11);
  EXPECT_EQ(StatusCodeToWire(StatusCode::kIOError), 12);
}

TEST(StatusCodeWireTest, UnknownWireCodeMapsToInternal) {
  EXPECT_EQ(StatusCodeFromWire(999), StatusCode::kInternal);
  EXPECT_EQ(StatusCodeFromWire(-1), StatusCode::kInternal);
}

// --- ResultSet::NextBatch ----------------------------------------------------

TEST(RowBatchTest, SlicesTypedColumnsWithNulls) {
  ResultSet rs;
  rs.column_names = {"id", "name"};
  rs.column_types = {ValueType::kBigInt, ValueType::kVarchar};
  for (int64_t i = 0; i < 10; ++i) {
    rs.rows.push_back({Value::BigInt(i), i % 3 == 0
                                             ? Value::Null()
                                             : Value::Varchar("n" +
                                                              std::to_string(
                                                                  i))});
  }

  RowBatch batch;
  ASSERT_TRUE(rs.NextBatch(4, &batch));
  EXPECT_EQ(batch.base_row, 0u);
  EXPECT_EQ(batch.num_rows, 4u);
  ASSERT_EQ(batch.columns.size(), 2u);
  // Column 0: uniform BIGINT, typed vector populated.
  EXPECT_EQ(batch.columns[0].type, ValueType::kBigInt);
  ASSERT_EQ(batch.columns[0].i64.size(), 4u);
  EXPECT_EQ(batch.columns[0].i64[2], 2);
  // Column 1: VARCHAR with nulls.
  EXPECT_EQ(batch.columns[1].type, ValueType::kVarchar);
  EXPECT_EQ(batch.columns[1].nulls[0], 1);
  EXPECT_EQ(batch.columns[1].nulls[1], 0);
  EXPECT_EQ(batch.columns[1].str[1], "n1");
  EXPECT_TRUE(batch.columns[1].ValueAt(0).is_null());
  EXPECT_EQ(batch.columns[1].ValueAt(2).AsVarchar(), "n2");

  ASSERT_TRUE(rs.NextBatch(4, &batch));
  EXPECT_EQ(batch.base_row, 4u);
  ASSERT_TRUE(rs.NextBatch(4, &batch));
  EXPECT_EQ(batch.base_row, 8u);
  EXPECT_EQ(batch.num_rows, 2u);
  EXPECT_FALSE(rs.NextBatch(4, &batch));

  rs.ResetBatches();
  ASSERT_TRUE(rs.NextBatch(100, &batch));
  EXPECT_EQ(batch.num_rows, 10u);
}

TEST(RowBatchTest, MixedTypeColumnFallsBackToGenericValues) {
  ResultSet rs;
  rs.column_names = {"v"};
  rs.column_types = {ValueType::kNull};
  rs.rows.push_back({Value::BigInt(1)});
  rs.rows.push_back({Value::Varchar("two")});

  RowBatch batch;
  ASSERT_TRUE(rs.NextBatch(16, &batch));
  EXPECT_EQ(batch.columns[0].type, ValueType::kNull);
  ASSERT_EQ(batch.columns[0].values.size(), 2u);
  EXPECT_EQ(batch.columns[0].ValueAt(0).AsBigInt(), 1);
  EXPECT_EQ(batch.columns[0].ValueAt(1).AsVarchar(), "two");
}

TEST(RowBatchTest, WireRowBatchRoundTrip) {
  ResultSet rs;
  rs.column_names = {"id", "score", "flag", "name"};
  rs.column_types = {ValueType::kBigInt, ValueType::kDouble,
                     ValueType::kBoolean, ValueType::kVarchar};
  for (int64_t i = 0; i < 100; ++i) {
    rs.rows.push_back({Value::BigInt(i), Value::Double(i * 0.5),
                       Value::Boolean(i % 2 == 0),
                       i % 7 == 0 ? Value::Null()
                                  : Value::Varchar(std::string(i % 13, 'x'))});
  }
  RowBatch batch;
  ASSERT_TRUE(rs.NextBatch(100, &batch));
  wire::Writer w;
  wire::EncodeRowBatch(batch, &w);

  std::string encoded = w.Take();
  wire::Reader r(encoded);
  std::vector<std::vector<Value>> decoded;
  ASSERT_TRUE(wire::DecodeRowBatch(&r, 4, &decoded).ok());
  ASSERT_EQ(decoded.size(), 100u);
  for (size_t i = 0; i < decoded.size(); ++i) {
    for (size_t c = 0; c < 4; ++c) {
      EXPECT_EQ(decoded[i][c].ToString(), rs.rows[i][c].ToString())
          << "row " << i << " col " << c;
    }
  }
}

// --- Server fixture ----------------------------------------------------------

/// Connects a raw TCP socket to the port (for protocol-violation tests the
/// Client class refuses to produce).
int RawDial(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Session session(db_);
    ASSERT_TRUE(session
                    .ExecuteScript(
                        "CREATE TABLE t (id BIGINT PRIMARY KEY, "
                        "name VARCHAR, score BIGINT);"
                        "CREATE TABLE v (id BIGINT PRIMARY KEY, "
                        "name VARCHAR);"
                        "CREATE TABLE e (id BIGINT PRIMARY KEY, src BIGINT, "
                        "dst BIGINT, w DOUBLE)")
                    .ok());
    std::vector<std::vector<Value>> rows;
    for (int64_t i = 1; i <= 1000; ++i) {
      rows.push_back({Value::BigInt(i), Value::Varchar("n" + std::to_string(i)),
                      Value::BigInt(i % 100)});
    }
    ASSERT_TRUE(db_.BulkInsert("t", rows).ok());

    // Dense directed graph: unbounded path enumeration over it explodes
    // combinatorially, which is exactly what the cancellation tests need —
    // a statement that will not finish on its own but unwinds cooperatively.
    constexpr int64_t kVertexes = 10;
    std::vector<std::vector<Value>> vrows;
    std::vector<std::vector<Value>> erows;
    int64_t eid = 0;
    for (int64_t i = 0; i < kVertexes; ++i) {
      vrows.push_back({Value::BigInt(i), Value::Varchar("v")});
    }
    for (int64_t i = 0; i < kVertexes; ++i) {
      for (int64_t j = 0; j < kVertexes; ++j) {
        if (i == j) continue;
        erows.push_back({Value::BigInt(eid++), Value::BigInt(i),
                         Value::BigInt(j), Value::Double(1.0)});
      }
    }
    ASSERT_TRUE(db_.BulkInsert("v", vrows).ok());
    ASSERT_TRUE(db_.BulkInsert("e", erows).ok());
    ASSERT_TRUE(session
                    .Execute(
                        "CREATE DIRECTED GRAPH VIEW g "
                        "VERTEXES (ID = id, name = name) FROM v "
                        "EDGES (ID = id, FROM = src, TO = dst, w = w) FROM e")
                    .ok());

    options_.drain_timeout_ms = 10'000;
    server_ = std::make_unique<Server>(db_, options_);
    ASSERT_TRUE(server_->Start().ok());
    port_ = server_->port();
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
  }

  static constexpr const char* kSlowSql =
      "SELECT P.PathString FROM g.Paths P";

  Database db_;
  ServerOptions options_;
  std::unique_ptr<Server> server_;
  uint16_t port_ = 0;
};

// --- Handshake ---------------------------------------------------------------

TEST_F(ServerTest, HandshakeQueryAndPing) {
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port_).ok());
  EXPECT_NE(client.conn_id(), 0u);
  EXPECT_TRUE(client.Ping().ok());

  auto rows = client.Query("SELECT name, score FROM t WHERE id = 42");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->NumRows(), 1u);
  EXPECT_EQ(rows->rows[0][0].AsVarchar(), "n42");
  EXPECT_EQ(rows->rows[0][1].AsBigInt(), 42);
  EXPECT_EQ(rows->column_names[0], "name");
  // The Done trailer carried the server-side work counters.
  EXPECT_GT(client.last_stats().rows_scanned, 0u);
  EXPECT_GT(client.last_stats().latency_us, 0u);
}

TEST_F(ServerTest, DoneTrailerDescribesTheStatementJustRun) {
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port_).ok());
  auto paths = client.Query(
      "SELECT COUNT(*) FROM g.Paths P WHERE P.Length <= 2");
  ASSERT_TRUE(paths.ok()) << paths.status().ToString();
  EXPECT_GT(client.last_stats().paths_emitted, 0u);
  EXPECT_GT(client.last_stats().edges_examined, 0u);

  StatusOr<uint64_t> insert = client.Prepare("INSERT INTO t VALUES (?, ?, ?)");
  ASSERT_TRUE(insert.ok()) << insert.status().ToString();
  auto inserted = client.Execute(
      *insert, {Value::BigInt(5001), Value::Varchar("x"), Value::BigInt(1)});
  ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();
  EXPECT_EQ(client.last_stats().rows_affected, 1u);
  // The INSERT ran no plan: none of the SELECT's work may leak into it.
  EXPECT_EQ(client.last_stats().paths_emitted, 0u);
  EXPECT_EQ(client.last_stats().edges_examined, 0u);
  EXPECT_EQ(client.last_stats().peak_bytes, 0u);
}

TEST_F(ServerTest, VersionMismatchRejected) {
  int fd = RawDial(port_);
  ASSERT_GE(fd, 0);
  wire::Hello hello;
  hello.version = 99;
  wire::Writer w;
  Encode(hello, &w);
  ASSERT_TRUE(wire::WriteFrame(fd, wire::MsgType::kHello, w.buf()).ok());

  wire::MsgType type;
  std::string payload;
  ASSERT_TRUE(
      wire::ReadFrame(fd, wire::kMaxFrameBytes, &type, &payload).ok());
  ASSERT_EQ(type, wire::MsgType::kError);
  wire::ErrorMsg err;
  wire::Reader r(payload);
  ASSERT_TRUE(Decode(&r, &err).ok());
  EXPECT_EQ(err.code, StatusCodeToWire(StatusCode::kUnsupported));
  ::close(fd);
}

TEST_F(ServerTest, BadMagicRejected) {
  int fd = RawDial(port_);
  ASSERT_GE(fd, 0);
  wire::Hello hello;
  hello.magic = 0xdeadbeef;
  wire::Writer w;
  Encode(hello, &w);
  ASSERT_TRUE(wire::WriteFrame(fd, wire::MsgType::kHello, w.buf()).ok());
  wire::MsgType type;
  std::string payload;
  ASSERT_TRUE(
      wire::ReadFrame(fd, wire::kMaxFrameBytes, &type, &payload).ok());
  EXPECT_EQ(type, wire::MsgType::kError);
  ::close(fd);
}

TEST_F(ServerTest, UnknownHandshakeOptionRejected) {
  Client client;
  Status s = client.Connect("127.0.0.1", port_, {{"bogus_option", "1"}});
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST_F(ServerTest, HandshakeOptionTightensStatementTimeout) {
  Client client;
  ASSERT_TRUE(client
                  .Connect("127.0.0.1", port_,
                           {{"statement_timeout_us", "20000"}})
                  .ok());
  auto result = client.Query(kSlowSql);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
      << result.status().ToString();
  // The connection survives a statement error.
  EXPECT_TRUE(client.Ping().ok());
}

// --- Statement errors carry stable codes ------------------------------------

TEST_F(ServerTest, ErrorCodesSurviveTheWire) {
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port_).ok());
  auto missing = client.Query("SELECT * FROM no_such_table");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  auto syntax = client.Query("SELECT FROM WHERE");
  ASSERT_FALSE(syntax.ok());
  EXPECT_EQ(syntax.status().code(), StatusCode::kInvalidArgument);

  auto dup = client.Query("INSERT INTO t VALUES (1, 'dup', 0)");
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kConstraintViolation);

  // SYS.LAST_QUERY exposes the same stable code for the failed statement.
  auto last = client.Query(
      "SELECT ERROR_CODE FROM SYS.LAST_QUERY");
  ASSERT_TRUE(last.ok()) << last.status().ToString();
  ASSERT_EQ(last->NumRows(), 1u);
  EXPECT_EQ(last->rows[0][0].AsBigInt(),
            StatusCodeToWire(StatusCode::kConstraintViolation));
}

// --- Prepared statements and transactions ------------------------------------

TEST_F(ServerTest, PreparedStatementLifecycle) {
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port_).ok());
  StatusOr<uint64_t> stmt =
      client.Prepare("SELECT name FROM t WHERE id = ?");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();

  for (int64_t id : {7, 99, 500}) {
    auto rows = client.Execute(*stmt, {Value::BigInt(id)});
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    ASSERT_EQ(rows->NumRows(), 1u);
    EXPECT_EQ(rows->rows[0][0].AsVarchar(), "n" + std::to_string(id));
  }

  EXPECT_TRUE(client.ClosePrepared(*stmt).ok());
  auto gone = client.Execute(*stmt, {Value::BigInt(1)});
  ASSERT_FALSE(gone.ok());
  EXPECT_EQ(gone.status().code(), StatusCode::kNotFound);
}

TEST_F(ServerTest, TransactionsOverTheWire) {
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port_).ok());

  ASSERT_TRUE(client.Begin().ok());
  ASSERT_TRUE(client.Query("INSERT INTO t VALUES (5001, 'tx', 1)").ok());
  ASSERT_TRUE(client.Abort().ok());
  auto gone = client.Query("SELECT name FROM t WHERE id = 5001");
  ASSERT_TRUE(gone.ok());
  EXPECT_EQ(gone->NumRows(), 0u);

  ASSERT_TRUE(client.Begin().ok());
  ASSERT_TRUE(client.Query("INSERT INTO t VALUES (5002, 'tx', 1)").ok());
  ASSERT_TRUE(client.Commit().ok());
  auto there = client.Query("SELECT name FROM t WHERE id = 5002");
  ASSERT_TRUE(there.ok());
  ASSERT_EQ(there->NumRows(), 1u);
  EXPECT_EQ(there->rows[0][0].AsVarchar(), "tx");
}

TEST_F(ServerTest, DisconnectAbortsOpenTransaction) {
  {
    Client client;
    ASSERT_TRUE(client.Connect("127.0.0.1", port_).ok());
    ASSERT_TRUE(client.Begin().ok());
    ASSERT_TRUE(client.Query("INSERT INTO t VALUES (6001, 'x', 1)").ok());
    // Client vanishes with the transaction open; the server-side session
    // teardown must abort it and release the single-writer slot.
  }
  Client other;
  ASSERT_TRUE(other.Connect("127.0.0.1", port_).ok());
  // If the dead connection pinned the writer slot this would hang/fail.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (;;) {
    auto write = other.Query("INSERT INTO t VALUES (6002, 'y', 1)");
    if (write.ok()) break;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << write.status().ToString();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  auto gone = other.Query("SELECT id FROM t WHERE id = 6001");
  ASSERT_TRUE(gone.ok());
  EXPECT_EQ(gone->NumRows(), 0u);
}

// --- Observability -----------------------------------------------------------

TEST_F(ServerTest, SysConnectionsListsClients) {
  Client a;
  Client b;
  ASSERT_TRUE(a.Connect("127.0.0.1", port_).ok());
  ASSERT_TRUE(b.Connect("127.0.0.1", port_).ok());
  auto rows = a.Query(
      "SELECT CONN_ID, STATE FROM SYS.CONNECTIONS");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->NumRows(), 2u);
  bool saw_self = false;
  for (const auto& row : rows->rows) {
    if (static_cast<uint64_t>(row[0].AsBigInt()) == a.conn_id()) {
      saw_self = true;
      EXPECT_EQ(row[1].AsVarchar(), "executing");  // Itself, mid-statement.
    }
  }
  EXPECT_TRUE(saw_self);
}

// --- Concurrency -------------------------------------------------------------

TEST_F(ServerTest, ConcurrentClientsMixedReadWrite) {
  constexpr int kClients = 5;
  constexpr int kOpsPerClient = 60;
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([this, c, &errors] {
      Client client;
      if (!client.Connect("127.0.0.1", port_).ok()) {
        ++errors;
        return;
      }
      StatusOr<uint64_t> point =
          client.Prepare("SELECT name FROM t WHERE id = ?");
      if (!point.ok()) {
        ++errors;
        return;
      }
      std::mt19937_64 rng(c * 7919 + 13);
      std::uniform_int_distribution<int64_t> key(1, 1000);
      for (int i = 0; i < kOpsPerClient; ++i) {
        Status s;
        if (i % 10 == 0) {
          s = client
                  .Query("INSERT INTO t VALUES (" +
                         std::to_string(10'000 + c * 1000 + i) + ", 'w', 0)")
                  .status();
        } else if (i % 10 == 5) {
          s = client
                  .Query("UPDATE t SET score = score + 1 WHERE id = " +
                         std::to_string(key(rng)))
                  .status();
        } else {
          auto r = client.Execute(*point, {Value::BigInt(key(rng))});
          s = r.status();
          if (s.ok() && r->NumRows() != 1) {
            s = Status::Internal("wrong row count");
          }
        }
        if (!s.ok()) {
          ADD_FAILURE() << "client " << c << " op " << i << ": "
                        << s.ToString();
          ++errors;
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(errors.load(), 0);

  Client check;
  ASSERT_TRUE(check.Connect("127.0.0.1", port_).ok());
  auto count = check.Query(
      "SELECT COUNT(*) FROM t WHERE id >= 10000");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->rows[0][0].AsBigInt(),
            kClients * (kOpsPerClient / 10));
}

// --- Cancellation ------------------------------------------------------------

TEST_F(ServerTest, WireCancelStopsRunningStatement) {
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port_).ok());
  const uint64_t conn_id = client.conn_id();
  const uint64_t secret = client.cancel_secret();

  std::atomic<bool> done{false};
  Status result = Status::OK();
  std::thread runner([&] {
    result = client.Query(kSlowSql).status();
    done.store(true);
  });
  // Fire cancels until the statement dies (cancels before the token
  // registers are no-ops, so poll).
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!done.load() && std::chrono::steady_clock::now() < deadline) {
    ASSERT_TRUE(
        Client::CancelConnection("127.0.0.1", port_, conn_id, secret).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  runner.join();
  ASSERT_TRUE(done.load()) << "statement never cancelled";
  EXPECT_EQ(result.code(), StatusCode::kCancelled) << result.ToString();
  // The connection survives its statement being killed.
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(ServerTest, WireCancelWithWrongSecretIsIgnored) {
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port_).ok());
  ASSERT_TRUE(Client::CancelConnection("127.0.0.1", port_, client.conn_id(),
                                       client.cancel_secret() ^ 1)
                  .ok());
  // A statement after the bogus cancel runs normally (the interrupt never
  // fired).
  auto rows = client.Query("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
}

TEST_F(ServerTest, MidQueryDisconnectCancelsStatement) {
  Counter* cancelled = EngineMetrics::Get().queries_cancelled;
  const uint64_t before = cancelled->value();

  int fd = RawDial(port_);
  ASSERT_GE(fd, 0);
  wire::Hello hello;
  wire::Writer hw;
  Encode(hello, &hw);
  ASSERT_TRUE(wire::WriteFrame(fd, wire::MsgType::kHello, hw.buf()).ok());
  wire::MsgType type;
  std::string payload;
  ASSERT_TRUE(
      wire::ReadFrame(fd, wire::kMaxFrameBytes, &type, &payload).ok());
  ASSERT_EQ(type, wire::MsgType::kHelloOk);

  wire::Writer qw;
  qw.PutString(kSlowSql);
  ASSERT_TRUE(wire::WriteFrame(fd, wire::MsgType::kQuery, qw.buf()).ok());
  // Give the statement a moment to start, then vanish.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ::close(fd);

  // The reaper must notice the dead peer and fire the statement's
  // cancellation token; the connection then drains away entirely.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    if (cancelled->value() > before && server_->Connections().empty()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GT(cancelled->value(), before)
      << "disconnect did not cancel the running statement";
  EXPECT_TRUE(server_->Connections().empty());
}

// --- Admission control -------------------------------------------------------

TEST(ServerAdmissionTest, OverflowReturnsResourceExhausted) {
  Database db;
  {
    Session session(db);
    ASSERT_TRUE(session
                    .ExecuteScript(
                        "CREATE TABLE v (id BIGINT PRIMARY KEY);"
                        "CREATE TABLE e (id BIGINT PRIMARY KEY, src BIGINT, "
                        "dst BIGINT)")
                    .ok());
    std::vector<std::vector<Value>> vrows;
    std::vector<std::vector<Value>> erows;
    int64_t eid = 0;
    for (int64_t i = 0; i < 10; ++i) vrows.push_back({Value::BigInt(i)});
    for (int64_t i = 0; i < 10; ++i) {
      for (int64_t j = 0; j < 10; ++j) {
        if (i != j) {
          erows.push_back(
              {Value::BigInt(eid++), Value::BigInt(i), Value::BigInt(j)});
        }
      }
    }
    ASSERT_TRUE(db.BulkInsert("v", vrows).ok());
    ASSERT_TRUE(db.BulkInsert("e", erows).ok());
    ASSERT_TRUE(session
                    .Execute(
                        "CREATE DIRECTED GRAPH VIEW g "
                        "VERTEXES (ID = id) FROM v "
                        "EDGES (ID = id, FROM = src, TO = dst) FROM e")
                    .ok());
  }

  ServerOptions opts;
  opts.max_concurrent_queries = 1;
  opts.max_queue = 0;
  opts.drain_timeout_ms = 100;
  Server server(db, opts);
  ASSERT_TRUE(server.Start().ok());

  Client blocker;
  ASSERT_TRUE(blocker.Connect("127.0.0.1", server.port()).ok());
  const uint64_t conn_id = blocker.conn_id();
  const uint64_t secret = blocker.cancel_secret();
  std::thread runner([&] {
    (void)blocker.Query("SELECT P.PathString FROM g.Paths P");
  });

  // Wait until the blocker actually occupies the one execution slot, then
  // every further statement must bounce with the stable overflow code.
  Client probe;
  ASSERT_TRUE(probe.Connect("127.0.0.1", server.port()).ok());
  Status rejected = Status::OK();
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    rejected = probe.Query("SELECT 1").status();
    if (rejected.code() == StatusCode::kResourceExhausted) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(rejected.code(), StatusCode::kResourceExhausted)
      << rejected.ToString();
  EXPECT_GT(EngineMetrics::Get().server_queries_rejected->value(), 0u);

  // Unblock and shut down.
  auto cancel_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  std::atomic<bool> runner_done{false};
  std::thread canceller([&] {
    while (!runner_done.load() &&
           std::chrono::steady_clock::now() < cancel_deadline) {
      (void)Client::CancelConnection("127.0.0.1", server.port(), conn_id,
                                     secret);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });
  runner.join();
  runner_done.store(true);
  canceller.join();
  server.Stop();
}

TEST(ServerAdmissionTest, QueueTimeoutReturnsResourceExhausted) {
  Database db;
  {
    Session session(db);
    ASSERT_TRUE(session
                    .ExecuteScript(
                        "CREATE TABLE v (id BIGINT PRIMARY KEY);"
                        "CREATE TABLE e (id BIGINT PRIMARY KEY, src BIGINT, "
                        "dst BIGINT)")
                    .ok());
    std::vector<std::vector<Value>> vrows;
    std::vector<std::vector<Value>> erows;
    int64_t eid = 0;
    for (int64_t i = 0; i < 10; ++i) vrows.push_back({Value::BigInt(i)});
    for (int64_t i = 0; i < 10; ++i) {
      for (int64_t j = 0; j < 10; ++j) {
        if (i != j) {
          erows.push_back(
              {Value::BigInt(eid++), Value::BigInt(i), Value::BigInt(j)});
        }
      }
    }
    ASSERT_TRUE(db.BulkInsert("v", vrows).ok());
    ASSERT_TRUE(db.BulkInsert("e", erows).ok());
    ASSERT_TRUE(session
                    .Execute(
                        "CREATE DIRECTED GRAPH VIEW g "
                        "VERTEXES (ID = id) FROM v "
                        "EDGES (ID = id, FROM = src, TO = dst) FROM e")
                    .ok());
  }

  ServerOptions opts;
  opts.max_concurrent_queries = 1;
  opts.max_queue = 4;
  opts.queue_timeout_ms = 100;  // Queued statements give up fast.
  opts.drain_timeout_ms = 100;
  Server server(db, opts);
  ASSERT_TRUE(server.Start().ok());

  Client blocker;
  ASSERT_TRUE(blocker.Connect("127.0.0.1", server.port()).ok());
  const uint64_t conn_id = blocker.conn_id();
  const uint64_t secret = blocker.cancel_secret();
  std::thread runner([&] {
    (void)blocker.Query("SELECT P.PathString FROM g.Paths P");
  });

  Client probe;
  ASSERT_TRUE(probe.Connect("127.0.0.1", server.port()).ok());
  Status timed_out = Status::OK();
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    timed_out = probe.Query("SELECT 1").status();
    if (timed_out.code() == StatusCode::kResourceExhausted) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(timed_out.code(), StatusCode::kResourceExhausted)
      << timed_out.ToString();

  std::atomic<bool> runner_done{false};
  auto cancel_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  std::thread canceller([&] {
    while (!runner_done.load() &&
           std::chrono::steady_clock::now() < cancel_deadline) {
      (void)Client::CancelConnection("127.0.0.1", server.port(), conn_id,
                                     secret);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });
  runner.join();
  runner_done.store(true);
  canceller.join();
  server.Stop();
}

TEST(ServerAdmissionTest, ConnectionLimitGreetsWithError) {
  Database db;
  ServerOptions opts;
  opts.max_connections = 2;
  opts.drain_timeout_ms = 100;
  Server server(db, opts);
  ASSERT_TRUE(server.Start().ok());

  Client a;
  Client b;
  ASSERT_TRUE(a.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(b.Connect("127.0.0.1", server.port()).ok());

  Client c;
  Status third = Status::OK();
  // The limit check runs when the server accepts, which may trail the TCP
  // connect; retry until the refusal (or an eventual accept) stabilizes.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    third = c.Connect("127.0.0.1", server.port());
    if (!third.ok()) break;
    c.Close();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_FALSE(third.ok());
  EXPECT_EQ(third.code(), StatusCode::kResourceExhausted)
      << third.ToString();
  server.Stop();
}

// --- Graceful shutdown -------------------------------------------------------

TEST(ServerShutdownTest, StopDrainsInFlightStatement) {
  Database db;
  {
    Session session(db);
    ASSERT_TRUE(session
                    .Execute(
                        "CREATE TABLE big (id BIGINT PRIMARY KEY, "
                        "score BIGINT)")
                    .ok());
    std::vector<std::vector<Value>> rows;
    for (int64_t i = 0; i < 2000; ++i) {
      rows.push_back({Value::BigInt(i), Value::BigInt(i % 7)});
    }
    ASSERT_TRUE(db.BulkInsert("big", rows).ok());
  }
  ServerOptions opts;
  opts.drain_timeout_ms = 30'000;
  Server server(db, opts);
  ASSERT_TRUE(server.Start().ok());

  std::atomic<bool> started{false};
  StatusOr<ResultSet> result = Status::Internal("never ran");
  std::thread runner([&] {
    Client client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
    started.store(true);
    // A few million joined pairs: slow enough that Stop() usually lands
    // mid-statement, fast enough to finish within the drain budget.
    result = client.Query(
        "SELECT COUNT(*) FROM big a, big b WHERE a.score = b.score");
  });
  while (!started.load()) std::this_thread::sleep_for(
      std::chrono::milliseconds(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server.Stop();  // Must wait for the statement, not kill it.
  runner.join();

  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->rows[0][0].AsBigInt(), 0);
}

// --- Malformed-frame fuzz ----------------------------------------------------

TEST_F(ServerTest, MalformedFramesNeverCrashTheServer) {
  std::mt19937_64 rng(20260808);

  // A valid Hello to mutate.
  wire::Hello hello;
  wire::Writer hw;
  Encode(hello, &hw);
  std::string valid_hello = hw.buf();
  wire::Writer qw;
  qw.PutString("SELECT COUNT(*) FROM t");
  std::string valid_query = qw.buf();

  for (int round = 0; round < 120; ++round) {
    int fd = RawDial(port_);
    ASSERT_GE(fd, 0) << "server stopped accepting after round " << round;

    const int mode = round % 4;
    std::string garbage;
    if (mode == 0) {
      // Pure noise, random length.
      size_t len = rng() % 64;
      for (size_t i = 0; i < len; ++i) {
        garbage.push_back(static_cast<char>(rng()));
      }
    } else if (mode == 1) {
      // Well-formed frame header, random type, random payload.
      wire::Writer w;
      std::string payload;
      size_t len = rng() % 48;
      for (size_t i = 0; i < len; ++i) {
        payload.push_back(static_cast<char>(rng()));
      }
      w.PutU32(static_cast<uint32_t>(payload.size()));
      w.PutU8(static_cast<uint8_t>(rng()));
      garbage = w.buf() + payload;
    } else if (mode == 2) {
      // Valid Hello frame, then bit-flipped.
      wire::Writer w;
      w.PutU32(static_cast<uint32_t>(valid_hello.size()));
      w.PutU8(static_cast<uint8_t>(wire::MsgType::kHello));
      garbage = w.buf() + valid_hello;
      size_t flips = 1 + rng() % 4;
      for (size_t i = 0; i < flips; ++i) {
        garbage[rng() % garbage.size()] ^=
            static_cast<char>(1u << (rng() % 8));
      }
    } else {
      // Valid handshake then a truncated/corrupted Query frame.
      wire::Writer w;
      w.PutU32(static_cast<uint32_t>(valid_hello.size()));
      w.PutU8(static_cast<uint8_t>(wire::MsgType::kHello));
      std::string frame;
      wire::Writer qf;
      qf.PutU32(static_cast<uint32_t>(valid_query.size()));
      qf.PutU8(static_cast<uint8_t>(wire::MsgType::kQuery));
      frame = qf.buf() + valid_query;
      frame.resize(rng() % frame.size());  // Truncate mid-frame.
      garbage = w.buf() + valid_hello + frame;
    }

    // Best-effort write (the server may already have closed on us) and
    // drain whatever it answers; both sides must simply not crash.
    if (!garbage.empty()) {
      (void)::send(fd, garbage.data(), garbage.size(), MSG_NOSIGNAL);
    }
    ::shutdown(fd, SHUT_WR);
    char sink[256];
    while (::recv(fd, sink, sizeof(sink), 0) > 0) {
    }
    ::close(fd);
  }

  // The server survived the barrage and still serves well-formed clients.
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port_).ok());
  auto rows = client.Query("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->rows[0][0].AsBigInt(), 1000);
}

}  // namespace
}  // namespace grfusion
