#ifndef GRFUSION_ENGINE_SESSION_H_
#define GRFUSION_ENGINE_SESSION_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/cancellation.h"
#include "common/status.h"
#include "engine/plan_cache.h"
#include "engine/result_set.h"
#include "exec/query_context.h"
#include "parser/ast.h"
#include "plan/planner.h"
#include "storage/table.h"
#include "storage/wal.h"

namespace grfusion {

class Database;
class Session;

/// The per-statement record. Every execution entry point (Session::Execute,
/// PreparedStatement::Execute, Session::ExecuteScript) opens one, dispatch
/// and the executor fill it in, and Session::Finish feeds it to every sink:
/// the metrics registry, SYS.STATEMENTS, the session's last_* accessors,
/// SYS.LAST_QUERY, the slow-query log, and the SYS.ACTIVE_QUERIES
/// unregister.
struct QueryProfile {
  struct OperatorRow {
    int depth = 0;
    std::string name;
    uint64_t actual_rows = 0;
    uint64_t next_calls = 0;
    double time_ms = 0.0;  ///< 0 unless per-operator timing was armed.
  };

  std::string sql;
  std::string kind;          ///< Statement kind, e.g. "SELECT".
  uint64_t session_id = 0;   ///< Session that executed the statement.
  /// Database-unique id (SYS.ACTIVE_QUERIES/KILL); 0 while unregistered.
  uint64_t query_id = 0;
  size_t num_params = 0;     ///< Bound parameter count (prepared statements).
  uint64_t latency_us = 0;   ///< Execute phase (executor loop or DML/DDL).
  uint64_t rows = 0;         ///< Rows returned (SELECT) or affected (DML).
  size_t peak_bytes = 0;
  bool plan_cache_hit = false;  ///< The plan was reused, not compiled.
  /// The plan read SYS.* tables; such statements leave SYS.LAST_QUERY on the
  /// profile they are inspecting.
  bool reads_system_tables = false;
  /// Terminal status of the execution, as the stable numeric wire code
  /// (StatusCodeToWire; 0 = OK) plus the message. SYS.LAST_QUERY exposes
  /// both so clients can branch on the same codes the wire protocol carries.
  int64_t error_code = 0;
  std::string error;
  ExecStats stats;
  std::vector<OperatorRow> operators;

  /// True once a physical plan ran (the operator rows are filled).
  bool valid() const { return !operators.empty(); }
};

/// Cross-thread statement interruption. Obtained from
/// Session::interrupt_handle(); copies share the same target. Interrupt()
/// cancels the statement currently executing on the owning session (a no-op
/// when the session is idle), and is safe from any thread, including while
/// the session is mid-statement — the statement observes the cancellation
/// at its next cooperative check and returns Status::Cancelled.
class InterruptHandle {
 public:
  void Interrupt();

 private:
  friend class Session;
  struct State {
    std::mutex mu;
    CancellationToken* active = nullptr;  ///< Statement's stack token.
  };
  explicit InterruptHandle(std::shared_ptr<State> state)
      : state_(std::move(state)) {}
  std::shared_ptr<State> state_;
};

/// A compiled statement bound to the session that prepared it. SELECTs hold
/// their physical plan across executions (re-validated against the catalog
/// version each run); DML re-binds per execution but skips re-parsing.
/// Placeholders (`?` or `$n`) are filled by Execute(); values are
/// type-checked against the types the binder inferred, with only the
/// BIGINT<->DOUBLE widening applied implicitly.
///
/// Move-only. Must not outlive the Session that created it.
class PreparedStatement {
 public:
  PreparedStatement() = default;  ///< Empty shell (for StatusOr).
  ~PreparedStatement();
  PreparedStatement(PreparedStatement&& other) noexcept;
  PreparedStatement& operator=(PreparedStatement&& other) noexcept;
  PreparedStatement(const PreparedStatement&) = delete;
  PreparedStatement& operator=(const PreparedStatement&) = delete;

  /// Executes with the given parameter values (one per placeholder slot,
  /// in ordinal order). Arity and type mismatches are InvalidArgument.
  StatusOr<ResultSet> Execute(std::vector<Value> params = {});

  size_t num_params() const { return num_params_; }
  const std::string& sql() const { return sql_; }

 private:
  friend class Session;

  Session* session_ = nullptr;
  std::string sql_;  ///< Normalized statement text.
  std::string key_;  ///< Plan-cache key (options shape + sql_).
  std::unique_ptr<Statement> ast_;
  size_t num_params_ = 0;
  bool is_select_ = false;
  /// Checked-out plan instance (SELECT only); returned to the shared cache
  /// on destruction.
  std::unique_ptr<CachedPlanInstance> plan_;
};

/// One client's view of a Database: the statement entry points, a private
/// copy of the planner options (mutable without racing other sessions), a
/// private interrupt handle, and the per-session last-query statistics.
///
/// Concurrency: any number of sessions may use one Database from different
/// threads. Read-only statements (SELECT, EXPLAIN) run concurrently against
/// the committed epoch they start at and never block on writers. DML runs as
/// a write transaction — implicit (one statement) or explicit
/// (BEGIN .. COMMIT/ABORT) — serialized by the database's single-writer
/// mutex; only DDL still takes the statement lock exclusively. One Session
/// object itself is NOT thread-safe — give each thread its own session.
///
/// SELECT plans are cached in the database-wide plan cache keyed on the
/// normalized SQL text and the plan-shaping options; a repeat Execute() or a
/// PreparedStatement re-execution skips parse/bind/plan entirely
/// (plan_cache_hits counts exactly those skips).
class Session {
 public:
  /// Creates a session on `db`, snapshotting the database's default planner
  /// options. The session must not outlive the database.
  explicit Session(Database& db);

  /// Aborts any transaction still open on this session (a client vanishing
  /// mid-transaction must not leave the single-writer slot held forever).
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Parses and executes exactly one statement. EXPLAIN <select> renders the
  /// physical plan; EXPLAIN ANALYZE <select> executes it and annotates every
  /// operator with observed rows and timings. Statements with parameter
  /// placeholders must go through Prepare(). A failed statement publishes
  /// its stable error code to SYS.LAST_QUERY even when it never built a
  /// plan (parse/bind/DML errors).
  StatusOr<ResultSet> Execute(std::string_view sql);

  /// Executes a ';'-separated script, discarding SELECT results.
  Status ExecuteScript(std::string_view sql);

  /// Compiles one statement with optional `?` / `$n` placeholders for
  /// repeated execution.
  StatusOr<PreparedStatement> Prepare(std::string_view sql);

  /// This session's planner options. Mutating them affects only this
  /// session (and changes its plan-cache key, so plans compiled under other
  /// option values are not reused).
  PlannerOptions& options() { return options_; }
  const PlannerOptions& options() const { return options_; }

  /// A handle other threads use to cancel whatever statement this session
  /// is currently executing. Valid indefinitely; Interrupt() on a dead
  /// session is a no-op.
  InterruptHandle interrupt_handle() const {
    return InterruptHandle(interrupt_state_);
  }

  /// Database-unique id of this session (SYS.ACTIVE_QUERIES.SESSION_ID).
  uint64_t id() const { return id_; }

  /// Query id assigned to this session's most recent registered statement —
  /// the id SYS.ACTIVE_QUERIES showed (and KILL targets) while it ran.
  uint64_t last_query_id() const { return last_query_id_; }

  /// Statistics of this session's most recent statement (zeros when it ran
  /// no plan).
  const ExecStats& last_stats() const { return last_profile_.stats; }
  /// Peak intermediate-result memory of this session's most recent
  /// statement (0 when it ran no plan).
  size_t last_peak_bytes() const { return last_profile_.peak_bytes; }
  /// Full record of this session's most recent statement.
  const QueryProfile& last_profile() const { return last_profile_; }

  Database& database() { return db_; }

 private:
  friend class PreparedStatement;

  /// Builds this session's plan-cache key for a normalized statement.
  std::string CacheKey(const std::string& normalized_sql) const;

  /// Execute() body: the plan-cache fast path, else parse and dispatch.
  StatusOr<ResultSet> ExecuteAdHoc(std::string_view sql, QueryProfile& rec);

  /// Runs one parsed statement under the appropriate lock mode. SELECTs
  /// reaching here (script statements) plan without the plan cache.
  StatusOr<ResultSet> Dispatch(const Statement& stmt, QueryProfile& rec,
                               ParamSet* params);

  /// Runs a prepared statement (arity already checked).
  StatusOr<ResultSet> ExecutePrepared(PreparedStatement& prep,
                                      std::vector<Value> values);

  /// The one plan lookup of a SELECT execution: checks `key` out of the
  /// shared plan cache (counting plan_cache_hits and setting
  /// rec.plan_cache_hit), or on a miss calls `parse` and compiles the SELECT
  /// it returns (counting plan_cache_misses). Returns null when `parse`
  /// yields no SELECT. Plans for rec.num_params placeholders. Caller holds
  /// the shared statement lock.
  StatusOr<std::unique_ptr<CachedPlanInstance>> AcquirePlan(
      const std::string& key, QueryProfile& rec,
      const std::function<StatusOr<const SelectStmt*>()>& parse);

  /// Ensures `prep` holds a plan instance compiled at the current catalog
  /// version: reuses its own (a hit), else goes through AcquirePlan. Caller
  /// holds the (shared) statement lock.
  Status EnsurePreparedPlanLocked(PreparedStatement& prep, QueryProfile& rec);

  /// Type-checks and installs execute-time parameter values into `params`.
  Status BindParamValues(ParamSet& params, std::vector<Value> values) const;

  /// Returns a prepared statement's plan instance to the shared cache.
  void ReleasePlan(std::unique_ptr<CachedPlanInstance> plan);

  // Statement executors. These run lock-free: the caller (Execute /
  // ExecuteScript / PreparedStatement::Execute) holds the database's
  // statement lock in the right mode. Internal nesting (INSERT ... SELECT,
  // CREATE MATERIALIZED VIEW) therefore cannot self-deadlock.
  StatusOr<ResultSet> ExecuteDdl(const Statement& stmt, QueryProfile& rec);
  StatusOr<ResultSet> ExecuteCreateTable(const CreateTableStmt& stmt);
  StatusOr<ResultSet> ExecuteCreateIndex(const CreateIndexStmt& stmt);
  StatusOr<ResultSet> ExecuteCreateGraphView(const CreateGraphViewStmt& stmt);
  StatusOr<ResultSet> ExecuteCreateMaterializedView(
      const CreateMaterializedViewStmt& stmt, QueryProfile& rec);
  StatusOr<ResultSet> ExecuteDrop(const DropStmt& stmt);
  StatusOr<ResultSet> ExecuteInsert(const InsertStmt& stmt, ParamSet* params,
                                    QueryProfile& rec);
  StatusOr<ResultSet> ExecuteUpdate(const UpdateStmt& stmt, ParamSet* params);
  StatusOr<ResultSet> ExecuteDelete(const DeleteStmt& stmt, ParamSet* params);
  StatusOr<ResultSet> ExecuteSelect(const SelectStmt& stmt, QueryProfile& rec,
                                    ParamSet* params);
  StatusOr<ResultSet> ExecuteExplain(const ExplainStmt& stmt,
                                     QueryProfile& rec);
  StatusOr<ResultSet> ExecuteKill(const KillStmt& stmt);
  StatusOr<ResultSet> ExecuteTxn(const TxnStmt& stmt);
  StatusOr<ResultSet> ExecuteCheckpoint();

  // --- Write transactions ----------------------------------------------------
  // Every DML statement runs inside a write transaction at a private epoch:
  // implicit (a standalone statement commits or fully rolls back on its own)
  // or explicit (BEGIN holds the database's single-writer slot until
  // COMMIT/ABORT). Mutations append compensation records to undo_log_;
  // statement failure rolls back to the statement's mark, ABORT to zero.

  /// One applied table mutation, reversible via Table::UndoApplied*.
  struct UndoRecord {
    enum class Kind { kInsert, kDelete, kUpdate };
    Kind kind = Kind::kInsert;
    Table* table = nullptr;
    TupleSlot slot = 0;
    Tuple before;  ///< Image removed/replaced (kDelete, kUpdate).
    Tuple after;   ///< Image introduced, post-coercion (kInsert, kUpdate).
  };

  /// Runs one DML statement in the appropriate transaction scope: inside an
  /// open explicit transaction, or as an implicit single-statement one.
  StatusOr<ResultSet> ExecuteDml(const Statement& stmt, ParamSet* params,
                                 QueryProfile& rec);

  /// Publishes this transaction's effects at its epoch; on a commit-site
  /// failpoint injection, aborts instead and returns the injected error.
  Status CommitTxn();

  /// Rolls back the whole transaction and releases the writer slot.
  void AbortTxn();

  /// Replays undo_log_ entries above `mark` in reverse and pops them.
  void RollbackToMark(size_t mark);

  /// Appends the undo record for a just-applied insert/update (reads the
  /// stored, post-coercion image back from the table).
  Status LogAppliedInsert(Table* table, TupleSlot slot);
  Status LogAppliedUpdate(Table* table, TupleSlot slot, Tuple before);

  // --- Write-ahead logging ---------------------------------------------------
  // The undo log doubles as the WAL source: every entry above a statement's
  // mark is an applied, post-coercion effect, so encoding the surviving
  // entries at commit time logs exactly what the statement did (rolled-back
  // statements never reach the log at all).

  /// Encodes undo_log_[from..end) as WAL DML records into `batch`.
  void EncodeUndoAsWal(size_t from, WalBatch* batch) const;

  /// Appends one complete begin..commit unit (DDL at epoch 0) and makes it
  /// durable before returning. Caller holds the exclusive statement lock.
  /// No-op on a memory-only database.
  Status AppendDdlUnit(const std::vector<WalRecord>& records);

  /// Executes a planned SELECT: the Volcano loop, filling `rec` with the
  /// run's latency, rows, stats, operator rows and (on failure) status. A
  /// top-level run registers in SYS.ACTIVE_QUERIES; a nested one (the SELECT
  /// half of INSERT ... SELECT) runs inside the enclosing registration.
  /// `force_timing` arms per-operator clocks regardless of the slow-query
  /// threshold (EXPLAIN ANALYZE).
  StatusOr<ResultSet> RunPlan(const PlannedQuery& planned, QueryProfile& rec,
                              bool force_timing);

  /// Closes a statement: the only code that feeds its record to the sinks
  /// (see QueryProfile). `status` is the statement's outcome; an error the
  /// executor already recorded (a cancelled EXPLAIN ANALYZE still renders)
  /// takes precedence.
  void Finish(QueryProfile rec, const Status& status);

  void EmitSlowQueryTrace(const QueryProfile& profile) const;

  Database& db_;
  PlannerOptions options_;  ///< Private copy, taken at session creation.
  const uint64_t id_;       ///< Process-unique session id.
  std::shared_ptr<InterruptHandle::State> interrupt_state_ =
      std::make_shared<InterruptHandle::State>();
  /// Record of the most recent finished statement.
  QueryProfile last_profile_;
  /// Span trace armed for the current statement (EXPLAIN TRACE or the
  /// sampling sink); null — one pointer test per span site — otherwise.
  QueryTrace* active_trace_ = nullptr;
  uint64_t last_query_id_ = 0;
  /// Cancellation token and live row counter of the running plan, reset by
  /// each RunPlan. Session-owned so they outlive the SYS.ACTIVE_QUERIES
  /// entry that Finish removes after the plan has unwound.
  CancellationToken token_;
  std::atomic<uint64_t> live_rows_{0};

  // --- Transaction state (one open transaction per session, max) ------------
  bool in_txn_ = false;   ///< An explicit BEGIN is open.
  /// The explicit transaction's kTxnBegin marker has been appended to the
  /// WAL (written lazily with the first logged statement, so an effect-free
  /// BEGIN..COMMIT leaves no trace in the log).
  bool txn_begin_logged_ = false;
  Epoch txn_epoch_ = 0;   ///< Epoch of the in-flight write txn; 0 = none.
  /// Holds Database::writer_mutex_ for the span of an explicit transaction.
  std::unique_lock<std::mutex> txn_writer_lock_;
  std::vector<UndoRecord> undo_log_;
};

}  // namespace grfusion

#endif  // GRFUSION_ENGINE_SESSION_H_
