#include "engine/session.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <shared_mutex>
#include <utility>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "common/task_pool.h"
#include "common/tracer.h"
#include "engine/active_queries.h"
#include "engine/database.h"
#include "engine/statement_stats.h"
#include "parser/parser.h"
#include "plan/binder.h"

namespace grfusion {

namespace {

/// Splits a rendered plan into one VARCHAR row per line.
ResultSet PlanTextToResult(const std::string& plan) {
  ResultSet result;
  result.column_names = {"plan"};
  result.column_types = {ValueType::kVarchar};
  size_t start = 0;
  while (start < plan.size()) {
    size_t end = plan.find('\n', start);
    if (end == std::string::npos) end = plan.size();
    result.rows.push_back({Value::Varchar(plan.substr(start, end - start))});
    start = end + 1;
  }
  return result;
}

/// Flattens the operator tree into (depth, name, counters) rows, pre-order.
void CollectOperatorRows(const PhysicalOperator* op, int depth,
                         std::vector<QueryProfile::OperatorRow>* out) {
  const OperatorProfile& p = op->profile();
  QueryProfile::OperatorRow row;
  row.depth = depth;
  row.name = op->name();
  row.actual_rows = p.rows_emitted;
  row.next_calls = p.next_calls;
  row.time_ms = static_cast<double>(p.total_ns()) / 1e6;
  out->push_back(std::move(row));
  for (const PhysicalOperator* child : op->children()) {
    CollectOperatorRows(child, depth + 1, out);
  }
}

/// Statement kind for SYS.ACTIVE_QUERIES / SYS.STATEMENTS rows.
const char* StatementKindName(const Statement& stmt) {
  return std::visit(
      [](const auto& s) -> const char* {
        using T = std::decay_t<decltype(s)>;
        if constexpr (std::is_same_v<T, CreateTableStmt>) {
          return "CREATE TABLE";
        } else if constexpr (std::is_same_v<T, CreateIndexStmt>) {
          return "CREATE INDEX";
        } else if constexpr (std::is_same_v<T, CreateGraphViewStmt>) {
          return "CREATE GRAPH VIEW";
        } else if constexpr (std::is_same_v<T, CreateMaterializedViewStmt>) {
          return "CREATE MATERIALIZED VIEW";
        } else if constexpr (std::is_same_v<T, DropStmt>) {
          return "DROP";
        } else if constexpr (std::is_same_v<T, InsertStmt>) {
          return "INSERT";
        } else if constexpr (std::is_same_v<T, UpdateStmt>) {
          return "UPDATE";
        } else if constexpr (std::is_same_v<T, DeleteStmt>) {
          return "DELETE";
        } else if constexpr (std::is_same_v<T, ExplainStmt>) {
          return "EXPLAIN";
        } else if constexpr (std::is_same_v<T, KillStmt>) {
          return "KILL";
        } else if constexpr (std::is_same_v<T, TxnStmt>) {
          switch (s.kind) {
            case TxnStmt::Kind::kBegin: return "BEGIN";
            case TxnStmt::Kind::kCommit: return "COMMIT";
            case TxnStmt::Kind::kAbort: return "ABORT";
          }
          return "BEGIN";
        } else if constexpr (std::is_same_v<T, CheckpointStmt>) {
          return "CHECKPOINT";
        } else {
          return "SELECT";
        }
      },
      stmt);
}

/// Opens the record of one statement execution.
QueryProfile OpenRecord(std::string sql, std::string kind,
                        uint64_t session_id, size_t num_params = 0) {
  QueryProfile rec;
  rec.sql = std::move(sql);
  rec.kind = std::move(kind);
  rec.session_id = session_id;
  rec.num_params = num_params;
  return rec;
}

bool IsDml(const Statement& stmt) {
  return std::holds_alternative<InsertStmt>(stmt) ||
         std::holds_alternative<UpdateStmt>(stmt) ||
         std::holds_alternative<DeleteStmt>(stmt);
}

uint64_t MicrosSince(std::chrono::steady_clock::time_point t0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

/// Arms the session's statement trace from the process-wide sampling sink
/// (GRF_TRACE_DIR) for one top-level statement, and writes the file on exit.
/// A no-op when the sink is disabled, the statement was not sampled, or a
/// trace is already armed (EXPLAIN TRACE owns the slot).
class SampledTraceScope {
 public:
  SampledTraceScope(QueryTrace** slot, const uint64_t* query_id)
      : slot_(slot), query_id_(query_id) {
    TraceSink& sink = TraceSink::Global();
    if (*slot_ == nullptr && sink.ShouldSample()) {
      trace_ = std::make_unique<QueryTrace>();
      *slot_ = trace_.get();
    }
  }

  ~SampledTraceScope() {
    if (trace_ == nullptr) return;
    *slot_ = nullptr;
    // `query_id` is read at exit, after Finish recorded it.
    if (trace_->NumEvents() > 0) {
      TraceSink::Global().Write(*query_id_, *trace_);
    }
  }

  SampledTraceScope(const SampledTraceScope&) = delete;
  SampledTraceScope& operator=(const SampledTraceScope&) = delete;

 private:
  QueryTrace** slot_;
  const uint64_t* query_id_;
  std::unique_ptr<QueryTrace> trace_;
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

// --- InterruptHandle ---------------------------------------------------------------

void InterruptHandle::Interrupt() {
  if (state_ == nullptr) return;
  std::lock_guard<std::mutex> lock(state_->mu);
  if (state_->active != nullptr) state_->active->Cancel();
}

// --- PreparedStatement -------------------------------------------------------------

PreparedStatement::~PreparedStatement() {
  if (session_ != nullptr && plan_ != nullptr) {
    session_->ReleasePlan(std::move(plan_));
  }
}

PreparedStatement::PreparedStatement(PreparedStatement&& other) noexcept
    : session_(std::exchange(other.session_, nullptr)),
      sql_(std::move(other.sql_)),
      key_(std::move(other.key_)),
      ast_(std::move(other.ast_)),
      num_params_(other.num_params_),
      is_select_(other.is_select_),
      plan_(std::move(other.plan_)) {}

PreparedStatement& PreparedStatement::operator=(
    PreparedStatement&& other) noexcept {
  if (this != &other) {
    if (session_ != nullptr && plan_ != nullptr) {
      session_->ReleasePlan(std::move(plan_));
    }
    session_ = std::exchange(other.session_, nullptr);
    sql_ = std::move(other.sql_);
    key_ = std::move(other.key_);
    ast_ = std::move(other.ast_);
    num_params_ = other.num_params_;
    is_select_ = other.is_select_;
    plan_ = std::move(other.plan_);
  }
  return *this;
}

StatusOr<ResultSet> PreparedStatement::Execute(std::vector<Value> params) {
  if (session_ == nullptr) {
    return Status::Internal("empty prepared statement");
  }
  if (params.size() != num_params_) {
    return Status::InvalidArgument(
        StrFormat("statement expects %zu parameters, got %zu", num_params_,
                  params.size()));
  }
  return session_->ExecutePrepared(*this, std::move(params));
}

// --- Session entry points ----------------------------------------------------------

namespace {
uint64_t NextSessionId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace

Session::Session(Database& db)
    : db_(db), options_(db.options()), id_(NextSessionId()) {}

Session::~Session() {
  if (in_txn_) AbortTxn();
}

std::string Session::CacheKey(const std::string& normalized_sql) const {
  return options_.PlanShapeKey() + '\n' + normalized_sql;
}

StatusOr<ResultSet> Session::Execute(std::string_view sql) {
  SampledTraceScope sampled(&active_trace_, &last_query_id_);
  // The kind stays "ERROR" for text that does not parse.
  QueryProfile rec = OpenRecord(NormalizeSqlWhitespace(sql), "ERROR", id_);
  StatusOr<ResultSet> result = ExecuteAdHoc(sql, rec);
  Finish(std::move(rec), result.status());
  return result;
}

StatusOr<ResultSet> Session::ExecuteAdHoc(std::string_view sql,
                                          QueryProfile& rec) {
  Statement stmt;
  {
    std::shared_lock<std::shared_mutex> lock(db_.statement_mutex_);
    // Pin the snapshot before PLANNING, not just execution: the planner
    // reads graph-view statistics (NumVertexes/NumEdges), and a scope-less
    // read would touch a concurrent writer's open delta.
    GraphReadScope plan_scope(
        txn_epoch_ != 0 ? txn_epoch_ : db_.epochs_.committed(),
        /*include_open=*/txn_epoch_ != 0);
    // A cached plan means the statement is a known SELECT: parse, bind, and
    // plan are skipped entirely. Only a miss parses.
    auto parse = [&]() -> StatusOr<const SelectStmt*> {
      TraceSpan parse_span(active_trace_, "session", "parse");
      GRF_ASSIGN_OR_RETURN(stmt, Parser::ParseSingle(sql));
      rec.kind = StatementKindName(stmt);
      return std::get_if<SelectStmt>(&stmt);
    };
    GRF_ASSIGN_OR_RETURN(std::unique_ptr<CachedPlanInstance> inst,
                         AcquirePlan(CacheKey(rec.sql), rec, parse));
    if (inst != nullptr) {
      rec.kind = "SELECT";
      StatusOr<ResultSet> result =
          RunPlan(inst->planned, rec, /*force_timing=*/false);
      db_.plan_cache_.Release(std::move(inst));
      return result;
    }
  }
  return Dispatch(stmt, rec, /*params=*/nullptr);
}

Status Session::ExecuteScript(std::string_view sql) {
  GRF_ASSIGN_OR_RETURN(std::vector<Statement> statements, Parser::Parse(sql));
  std::string text(Trim(sql));
  for (const Statement& stmt : statements) {
    // Parser::Parse does not preserve per-statement source spans, so a
    // multi-statement script is attributed to per-kind buckets — keying
    // SYS.STATEMENTS (and SYS.ACTIVE_QUERIES) on the full script blob would
    // merge unrelated statements under one giant SQL text.
    const char* kind = StatementKindName(stmt);
    QueryProfile rec = OpenRecord(
        statements.size() == 1 ? text : std::string("<script> ") + kind, kind,
        id_);
    StatusOr<ResultSet> result = Dispatch(stmt, rec, /*params=*/nullptr);
    Finish(std::move(rec), result.status());
    GRF_RETURN_IF_ERROR(result.status());
  }
  return Status::OK();
}

StatusOr<PreparedStatement> Session::Prepare(std::string_view sql) {
  size_t num_params = 0;
  GRF_ASSIGN_OR_RETURN(Statement stmt, Parser::ParseSingle(sql, &num_params));

  PreparedStatement prep;
  prep.session_ = this;
  prep.sql_ = NormalizeSqlWhitespace(sql);
  prep.key_ = CacheKey(prep.sql_);
  prep.num_params_ = num_params;
  prep.is_select_ = std::holds_alternative<SelectStmt>(stmt);
  if (num_params > 0 && !prep.is_select_ && !IsDml(stmt)) {
    return Status::InvalidArgument(
        "parameter placeholders are only supported in SELECT and DML "
        "statements");
  }
  prep.ast_ = std::make_unique<Statement>(std::move(stmt));

  if (prep.is_select_) {
    // Compile (or adopt a cached instance) now so Execute() can run the
    // plan immediately and Prepare surfaces planning errors early. Preparing
    // executes nothing, so this record reaches no sink.
    std::shared_lock<std::shared_mutex> lock(db_.statement_mutex_);
    GraphReadScope plan_scope(
        txn_epoch_ != 0 ? txn_epoch_ : db_.epochs_.committed(),
        /*include_open=*/txn_epoch_ != 0);
    QueryProfile compile = OpenRecord(prep.sql_, "SELECT", id_, num_params);
    GRF_RETURN_IF_ERROR(EnsurePreparedPlanLocked(prep, compile));
  }
  return prep;
}

StatusOr<ResultSet> Session::Dispatch(const Statement& stmt,
                                      QueryProfile& rec, ParamSet* params) {
  // KILL is dispatched before the statement lock on purpose: the registry
  // has its own mutex, so a KILL aimed at a long reader is never queued
  // behind an exclusive writer (or the very statement it is cancelling).
  if (const auto* kill = std::get_if<KillStmt>(&stmt)) {
    return ExecuteKill(*kill);
  }
  // Transaction control manipulates this session's writer slot and must not
  // queue behind the statement lock (COMMIT takes it in the right order
  // itself).
  if (const auto* txn = std::get_if<TxnStmt>(&stmt)) {
    return ExecuteTxn(*txn);
  }
  const auto* select = std::get_if<SelectStmt>(&stmt);
  const auto* explain = std::get_if<ExplainStmt>(&stmt);
  if (select != nullptr || explain != nullptr) {
    std::shared_lock<std::shared_mutex> lock(db_.statement_mutex_);
    GraphReadScope plan_scope(
        txn_epoch_ != 0 ? txn_epoch_ : db_.epochs_.committed(),
        /*include_open=*/txn_epoch_ != 0);
    return select != nullptr ? ExecuteSelect(*select, rec, params)
                             : ExecuteExplain(*explain, rec);
  }
  // DML and DDL are not cooperatively interruptible, so they register
  // without a token (KILL reports InvalidArgument) but still show in
  // SYS.ACTIVE_QUERIES and feed the cumulative statement stats.
  rec.query_id = db_.active_queries_.Register(
      id_, rec.sql, rec.kind, /*token=*/nullptr, /*rows=*/nullptr);
  const auto t0 = std::chrono::steady_clock::now();
  // DML: write transaction at a private epoch, under the SHARED statement
  // lock — snapshot readers keep running.
  StatusOr<ResultSet> result =
      IsDml(stmt) ? ExecuteDml(stmt, params, rec) : ExecuteDdl(stmt, rec);
  rec.latency_us = MicrosSince(t0);
  rec.rows = result.ok() ? result->rows_affected : 0;
  return result;
}

StatusOr<ResultSet> Session::ExecuteDdl(const Statement& stmt,
                                        QueryProfile& rec) {
  // DDL (and CHECKPOINT) still excludes everything: writer slot first (no
  // write transaction in flight, so no graph view has an open delta), then
  // the statement lock exclusively (no reader mid-statement).
  if (in_txn_) {
    return Status::InvalidArgument(
        std::holds_alternative<CheckpointStmt>(stmt)
            ? "CHECKPOINT is not allowed inside a transaction"
            : "DDL is not allowed inside a transaction");
  }
  GRF_RETURN_IF_ERROR(db_.durability_status());
  std::lock_guard<std::mutex> writer(db_.writer_mutex_);
  std::unique_lock<std::shared_mutex> lock(db_.statement_mutex_);
  if (const auto* s = std::get_if<CreateTableStmt>(&stmt)) {
    return ExecuteCreateTable(*s);
  }
  if (const auto* s = std::get_if<CreateIndexStmt>(&stmt)) {
    return ExecuteCreateIndex(*s);
  }
  if (const auto* s = std::get_if<CreateGraphViewStmt>(&stmt)) {
    return ExecuteCreateGraphView(*s);
  }
  if (const auto* s = std::get_if<CreateMaterializedViewStmt>(&stmt)) {
    return ExecuteCreateMaterializedView(*s, rec);
  }
  if (const auto* s = std::get_if<DropStmt>(&stmt)) {
    return ExecuteDrop(*s);
  }
  return ExecuteCheckpoint();
}

StatusOr<ResultSet> Session::ExecuteKill(const KillStmt& stmt) {
  if (stmt.query_id <= 0) {
    return Status::InvalidArgument("KILL expects a positive query id");
  }
  GRF_RETURN_IF_ERROR(
      db_.active_queries_.Kill(static_cast<uint64_t>(stmt.query_id)));
  return ResultSet();
}

// --- Write transactions ------------------------------------------------------------

StatusOr<ResultSet> Session::ExecuteTxn(const TxnStmt& stmt) {
  switch (stmt.kind) {
    case TxnStmt::Kind::kBegin:
      if (in_txn_) {
        return Status::InvalidArgument("transaction already in progress");
      }
      GRF_RETURN_IF_ERROR(db_.durability_status());
      // Claim the single-writer slot for the life of the transaction and
      // fix its epoch. Readers are unaffected; other writers queue here.
      txn_writer_lock_ = std::unique_lock<std::mutex>(db_.writer_mutex_);
      txn_epoch_ = db_.epochs_.BeginWriter();
      in_txn_ = true;
      txn_begin_logged_ = false;
      return ResultSet();
    case TxnStmt::Kind::kCommit:
      if (!in_txn_) {
        return Status::InvalidArgument("no transaction in progress");
      }
      GRF_RETURN_IF_ERROR(CommitTxn());
      return ResultSet();
    case TxnStmt::Kind::kAbort:
      if (!in_txn_) {
        return Status::InvalidArgument("no transaction in progress");
      }
      AbortTxn();
      return ResultSet();
  }
  return Status::Internal("unknown transaction statement");
}

StatusOr<ResultSet> Session::ExecuteDml(const Statement& stmt,
                                        ParamSet* params, QueryProfile& rec) {
  auto dispatch = [&]() -> StatusOr<ResultSet> {
    if (const auto* insert = std::get_if<InsertStmt>(&stmt)) {
      return ExecuteInsert(*insert, params, rec);
    }
    if (const auto* update = std::get_if<UpdateStmt>(&stmt)) {
      return ExecuteUpdate(*update, params);
    }
    return ExecuteDelete(std::get<DeleteStmt>(stmt), params);
  };

  if (in_txn_) {
    // Explicit transaction: the writer slot and epoch are already held.
    // Statement-level atomicity: a failed statement rolls back to its own
    // mark, leaving the transaction's earlier statements intact.
    std::shared_lock<std::shared_mutex> lock(db_.statement_mutex_);
    const size_t mark = undo_log_.size();
    StatusOr<ResultSet> result = dispatch();
    if (!result.ok()) {
      RollbackToMark(mark);
      return result;
    }
    if (db_.durability_ != nullptr && undo_log_.size() > mark) {
      // Per-statement WAL append, no commit marker: only the kTxnCommit
      // written by COMMIT makes any of it replayable. The begin marker goes
      // out with the first logged statement.
      WalBatch batch;
      if (!txn_begin_logged_) batch.TxnBegin(txn_epoch_);
      EncodeUndoAsWal(mark, &batch);
      Status wal = db_.durability_->Append(batch, /*lsn=*/nullptr);
      if (!wal.ok()) {
        // The statement's bytes never reached the log; roll it back in
        // memory too so log and state agree (the transaction stays open —
        // the client decides whether to COMMIT what came before).
        RollbackToMark(mark);
        return wal;
      }
      txn_begin_logged_ = true;
    }
    return result;
  }

  GRF_RETURN_IF_ERROR(db_.durability_status());
  // Implicit single-statement transaction: claim the writer slot, execute
  // under the SHARED statement lock (snapshot readers keep running), and
  // publish — or fully undo — at one epoch boundary.
  std::unique_lock<std::mutex> writer(db_.writer_mutex_);
  txn_epoch_ = db_.epochs_.BeginWriter();
  StatusOr<ResultSet> result = Status::Internal("DML did not execute");
  uint64_t lsn = 0;
  {
    std::shared_lock<std::shared_mutex> lock(db_.statement_mutex_);
    result = dispatch();
    if (result.ok() && db_.durability_ != nullptr && !undo_log_.empty()) {
      // WAL append sits before the publish: a batch that cannot be logged
      // must not commit (the statement rolls back below instead).
      WalBatch batch;
      batch.TxnBegin(txn_epoch_);
      EncodeUndoAsWal(0, &batch);
      batch.TxnCommit(txn_epoch_);
      Status wal = db_.durability_->Append(batch, &lsn);
      if (!wal.ok()) result = wal;
    }
    if (result.ok()) {
      const size_t changes = undo_log_.size();
      for (GraphView* gv : db_.catalog_.GraphViews()) {
        gv->PublishOpenDelta(txn_epoch_);
      }
      db_.epochs_.Commit(txn_epoch_);
      db_.epochs_.AddPending(changes + 1);
    } else {
      const size_t aborted = undo_log_.size();
      RollbackToMark(0);
      for (GraphView* gv : db_.catalog_.GraphViews()) {
        gv->DiscardOpenDelta();
      }
      // Commit the (now effect-free) epoch anyway: epochs are never reused,
      // which keeps undo's revive scans unambiguous.
      db_.epochs_.Commit(txn_epoch_);
      db_.epochs_.AddPending(aborted + 1);
    }
  }
  undo_log_.clear();
  txn_epoch_ = 0;
  // Deferred maintenance runs with the writer slot still held (so no graph
  // view can have an open delta) and no statement lock of our own.
  db_.MaybeFoldAndVacuum();
  writer.unlock();
  // Early lock release: the commit waits for durability OUTSIDE the writer
  // slot, so the next writer can append while this fdatasync is in flight —
  // that queue is exactly what group commit folds into one sync.
  if (lsn != 0 && db_.durability_ != nullptr) {
    Status sync = db_.durability_->Sync(lsn);
    if (!sync.ok() && result.ok()) {
      // Applied in memory but not durable; the sticky WAL failure blocks
      // every later write, so the in-memory lead can never widen.
      return sync;
    }
  }
  return result;
}

Status Session::CommitTxn() {
  // Commit-boundary failpoint: an injected failure here must look like a
  // crash before the commit point — the transaction aborts wholesale.
  Status inject = []() -> Status {
    GRF_FAILPOINT("txn.commit");
    return Status::OK();
  }();
  if (!inject.ok()) {
    AbortTxn();
    return inject;
  }
  // The commit marker is the transaction's commit point on disk: replay
  // discards everything since the begin marker unless it sees this record.
  // An effect-free transaction logged nothing and commits silently.
  uint64_t lsn = 0;
  if (db_.durability_ != nullptr && txn_begin_logged_) {
    WalBatch batch;
    batch.TxnCommit(txn_epoch_);
    Status wal = db_.durability_->Append(batch, &lsn);
    if (!wal.ok()) {
      AbortTxn();
      return wal;
    }
    txn_begin_logged_ = false;
  }
  // Publish every view's buffered delta first, then advance the committed
  // epoch (both release stores): a reader that observes the new epoch is
  // guaranteed to observe the published deltas and end-stamps behind it.
  for (GraphView* gv : db_.catalog_.GraphViews()) {
    gv->PublishOpenDelta(txn_epoch_);
  }
  db_.epochs_.Commit(txn_epoch_);
  db_.epochs_.AddPending(undo_log_.size() + 1);
  undo_log_.clear();
  in_txn_ = false;
  txn_epoch_ = 0;
  db_.MaybeFoldAndVacuum();
  txn_writer_lock_.unlock();
  // Durability wait happens outside the writer slot (group commit window).
  if (lsn != 0 && db_.durability_ != nullptr) {
    GRF_RETURN_IF_ERROR(db_.durability_->Sync(lsn));
  }
  return Status::OK();
}

void Session::AbortTxn() {
  if (db_.durability_ != nullptr && txn_begin_logged_) {
    // Best-effort abort marker, no sync: replay discards an unterminated
    // transaction anyway, the marker just keeps the log self-describing.
    WalBatch batch;
    batch.TxnAbort(txn_epoch_);
    (void)db_.durability_->Append(batch, /*lsn=*/nullptr);
    txn_begin_logged_ = false;
  }
  const size_t aborted = undo_log_.size();
  // Reverse-compensate table state (which re-notifies graph views through
  // their Undo* hooks, unwinding the open delta symmetrically), then throw
  // the delta buffers away and retire the epoch without effects.
  RollbackToMark(0);
  for (GraphView* gv : db_.catalog_.GraphViews()) gv->DiscardOpenDelta();
  db_.epochs_.Commit(txn_epoch_);
  db_.epochs_.AddPending(aborted + 1);
  in_txn_ = false;
  txn_epoch_ = 0;
  db_.MaybeFoldAndVacuum();
  txn_writer_lock_.unlock();
}

void Session::RollbackToMark(size_t mark) {
  while (undo_log_.size() > mark) {
    UndoRecord& rec = undo_log_.back();
    switch (rec.kind) {
      case UndoRecord::Kind::kInsert:
        rec.table->UndoAppliedInsert(rec.slot, rec.after, txn_epoch_);
        break;
      case UndoRecord::Kind::kDelete:
        rec.table->UndoAppliedDelete(rec.slot, rec.before, txn_epoch_);
        break;
      case UndoRecord::Kind::kUpdate:
        rec.table->UndoAppliedUpdate(rec.slot, rec.before, rec.after,
                                     txn_epoch_);
        break;
    }
    undo_log_.pop_back();
  }
}

Status Session::LogAppliedInsert(Table* table, TupleSlot slot) {
  const Tuple* stored =
      table->Get(slot, txn_epoch_ == 0 ? kEpochLatest : txn_epoch_);
  if (stored == nullptr) {
    return Status::Internal("inserted tuple not visible to its own writer");
  }
  UndoRecord rec;
  rec.kind = UndoRecord::Kind::kInsert;
  rec.table = table;
  rec.slot = slot;
  rec.after = *stored;
  undo_log_.push_back(std::move(rec));
  return Status::OK();
}

Status Session::LogAppliedUpdate(Table* table, TupleSlot slot, Tuple before) {
  const Tuple* stored =
      table->Get(slot, txn_epoch_ == 0 ? kEpochLatest : txn_epoch_);
  if (stored == nullptr) {
    return Status::Internal("updated tuple not visible to its own writer");
  }
  UndoRecord rec;
  rec.kind = UndoRecord::Kind::kUpdate;
  rec.table = table;
  rec.slot = slot;
  rec.before = std::move(before);
  rec.after = *stored;
  undo_log_.push_back(std::move(rec));
  return Status::OK();
}

StatusOr<ResultSet> Session::ExecutePrepared(PreparedStatement& prep,
                                             std::vector<Value> values) {
  SampledTraceScope sampled(&active_trace_, &last_query_id_);
  QueryProfile rec = OpenRecord(prep.sql_, StatementKindName(*prep.ast_), id_,
                                prep.num_params_);
  StatusOr<ResultSet> result = [&]() -> StatusOr<ResultSet> {
    if (!prep.is_select_) {
      // Prepared DML re-binds against the current schema each run (only the
      // parse is skipped); placeholder values land in a per-execution
      // ParamSet that the binder wires ParameterExpr nodes into.
      ParamSet pset;
      if (prep.num_params_ > 0) pset.EnsureSlot(prep.num_params_ - 1);
      pset.values = std::move(values);
      return Dispatch(*prep.ast_, rec, &pset);
    }
    std::shared_lock<std::shared_mutex> lock(db_.statement_mutex_);
    GraphReadScope plan_scope(
        txn_epoch_ != 0 ? txn_epoch_ : db_.epochs_.committed(),
        /*include_open=*/txn_epoch_ != 0);
    GRF_RETURN_IF_ERROR(EnsurePreparedPlanLocked(prep, rec));
    GRF_RETURN_IF_ERROR(
        BindParamValues(prep.plan_->params, std::move(values)));
    return RunPlan(prep.plan_->planned, rec, /*force_timing=*/false);
  }();
  Finish(std::move(rec), result.status());
  return result;
}

StatusOr<std::unique_ptr<CachedPlanInstance>> Session::AcquirePlan(
    const std::string& key, QueryProfile& rec,
    const std::function<StatusOr<const SelectStmt*>()>& parse) {
  EngineMetrics& metrics = EngineMetrics::Get();
  const uint64_t version = db_.catalog_.version();
  TraceSpan lookup_span(active_trace_, "session", "plan_cache.lookup");
  std::unique_ptr<CachedPlanInstance> inst =
      db_.plan_cache_.Acquire(key, version);
  lookup_span.AddArg("hit", inst != nullptr ? "true" : "false");
  lookup_span.End();
  if (inst != nullptr && inst->num_params == rec.num_params) {
    metrics.plan_cache_hits->Increment();
    rec.plan_cache_hit = true;
    return inst;
  }
  // An instance compiled for another placeholder count (this text prepared
  // elsewhere) is unusable here.
  if (inst != nullptr) db_.plan_cache_.Release(std::move(inst));

  GRF_ASSIGN_OR_RETURN(const SelectStmt* select, parse());
  if (select == nullptr) return std::unique_ptr<CachedPlanInstance>();
  TraceSpan plan_span(active_trace_, "session", "plan");
  inst = std::make_unique<CachedPlanInstance>();
  Planner planner(&db_.catalog_, options_);
  // Without a parameter set the binder rejects placeholders, which only
  // prepared statements may carry.
  GRF_ASSIGN_OR_RETURN(
      inst->planned,
      planner.PlanSelect(*select,
                         rec.num_params > 0 ? &inst->params : nullptr));
  if (rec.num_params > 0) inst->params.EnsureSlot(rec.num_params - 1);
  inst->num_params = rec.num_params;
  inst->catalog_version = version;
  inst->key = key;
  inst->sql = rec.sql;
  metrics.plan_cache_misses->Increment();
  db_.plan_cache_.NoteMiss(key);
  return inst;
}

Status Session::EnsurePreparedPlanLocked(PreparedStatement& prep,
                                         QueryProfile& rec) {
  if (prep.plan_ != nullptr) {
    if (prep.plan_->catalog_version == db_.catalog_.version()) {
      EngineMetrics::Get().plan_cache_hits->Increment();
      rec.plan_cache_hit = true;
      return Status::OK();
    }
    // Schema changed since this plan compiled; it may point at dropped
    // tables or graph views.
    EngineMetrics::Get().plan_cache_evictions->Increment();
    prep.plan_.reset();
  }
  GRF_ASSIGN_OR_RETURN(
      prep.plan_,
      AcquirePlan(prep.key_, rec, [&]() -> StatusOr<const SelectStmt*> {
        return &std::get<SelectStmt>(*prep.ast_);
      }));
  return Status::OK();
}

Status Session::BindParamValues(ParamSet& params,
                                std::vector<Value> values) const {
  params.values.clear();
  params.values.reserve(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    Value v = std::move(values[i]);
    const ValueType want =
        i < params.expected.size() ? params.expected[i] : ValueType::kNull;
    if (!v.is_null() && want != ValueType::kNull && v.type() != want) {
      const bool numeric_widening =
          (v.type() == ValueType::kBigInt && want == ValueType::kDouble) ||
          (v.type() == ValueType::kDouble && want == ValueType::kBigInt);
      if (!numeric_widening) {
        return Status::InvalidArgument(
            StrFormat("parameter $%zu expects %s, got %s", i + 1,
                      ValueTypeToString(want), ValueTypeToString(v.type())));
      }
      GRF_ASSIGN_OR_RETURN(v, v.CastTo(want));
    }
    params.values.push_back(std::move(v));
  }
  return Status::OK();
}

void Session::ReleasePlan(std::unique_ptr<CachedPlanInstance> plan) {
  db_.plan_cache_.Release(std::move(plan));
}

// --- DDL ---------------------------------------------------------------------------

StatusOr<ResultSet> Session::ExecuteCreateTable(const CreateTableStmt& stmt) {
  if (stmt.if_not_exists && db_.catalog_.FindTable(stmt.name) != nullptr) {
    return ResultSet();
  }
  Schema schema;
  int primary_key = -1;
  for (size_t i = 0; i < stmt.columns.size(); ++i) {
    const ColumnDef& def = stmt.columns[i];
    if (schema.FindColumn(def.name) >= 0) {
      return Status::InvalidArgument("duplicate column '" + def.name + "'");
    }
    schema.AddColumn(Column(def.name, def.type));
    if (def.primary_key) {
      if (primary_key >= 0) {
        return Status::InvalidArgument("multiple PRIMARY KEY columns");
      }
      primary_key = static_cast<int>(i);
    }
  }
  GRF_ASSIGN_OR_RETURN(Table * table,
                       db_.catalog_.CreateTable(stmt.name, std::move(schema)));
  if (primary_key >= 0) {
    GRF_RETURN_IF_ERROR(table->CreateIndex(
        "pk_" + stmt.name, static_cast<size_t>(primary_key), true));
  }
  std::vector<WalRecord> unit;
  WalRecord create;
  create.type = WalRecord::Type::kCreateTable;
  create.table = stmt.name;
  create.schema = table->schema();
  unit.push_back(std::move(create));
  if (primary_key >= 0) {
    WalRecord pk;
    pk.type = WalRecord::Type::kCreateIndex;
    pk.table = stmt.name;
    pk.index_name = "pk_" + stmt.name;
    pk.index_column = static_cast<uint64_t>(primary_key);
    pk.index_unique = true;
    unit.push_back(std::move(pk));
  }
  Status wal = AppendDdlUnit(unit);
  if (!wal.ok()) {
    // The log rejected the unit: undo the catalog change so readers never
    // see a table that would vanish at restart.
    (void)db_.catalog_.DropTable(stmt.name);
    return wal;
  }
  return ResultSet();
}

StatusOr<ResultSet> Session::ExecuteCreateIndex(const CreateIndexStmt& stmt) {
  Table* table = db_.catalog_.FindTable(stmt.table);
  if (table == nullptr) {
    return Status::NotFound("table '" + stmt.table + "' does not exist");
  }
  GRF_ASSIGN_OR_RETURN(size_t column, table->schema().ColumnIndex(stmt.column));
  GRF_RETURN_IF_ERROR(table->CreateIndex(stmt.index_name, column, stmt.unique));
  // A new index changes the best available plan shape for scans over this
  // table; cached plans compiled without it must be recompiled.
  db_.catalog_.BumpVersion();
  WalRecord rec;
  rec.type = WalRecord::Type::kCreateIndex;
  rec.table = stmt.table;
  rec.index_name = stmt.index_name;
  rec.index_column = static_cast<uint64_t>(column);
  rec.index_unique = stmt.unique;
  Status wal = AppendDdlUnit({std::move(rec)});
  if (!wal.ok()) {
    // Unlogged index must not survive in memory (it would vanish at
    // restart); the version bump already invalidated cached plans.
    (void)table->DropIndex(stmt.index_name);
    db_.catalog_.BumpVersion();
    return wal;
  }
  return ResultSet();
}

StatusOr<ResultSet> Session::ExecuteCreateGraphView(
    const CreateGraphViewStmt& stmt) {
  GraphBuildOptions build;
  const size_t parallelism = options_.effective_parallelism();
  if (parallelism > 1) {
    build.pool = &TaskPool::Shared();
    build.max_parallelism = parallelism;
    build.min_rows = options_.parallel_min_rows;
  }
  GRF_ASSIGN_OR_RETURN(GraphView * gv,
                       db_.catalog_.CreateGraphView(stmt.def, build));
  // Only the definition is logged — never the topology. Recovery rebuilds
  // the view from the recovered base tables, so view == rebuild by
  // construction.
  WalRecord rec;
  rec.type = WalRecord::Type::kCreateGraphView;
  rec.view_def = gv->def();
  Status wal = AppendDdlUnit({std::move(rec)});
  if (!wal.ok()) {
    // Copied name: the drop destroys the view the reference lives in.
    const std::string view_name = gv->def().name;
    (void)db_.catalog_.DropGraphView(view_name);
    return wal;
  }
  return ResultSet();
}

StatusOr<ResultSet> Session::ExecuteCreateMaterializedView(
    const CreateMaterializedViewStmt& stmt, QueryProfile& rec) {
  // Materialize the query result as an ordinary table: downstream DDL
  // (indexes, graph views over it) then works unchanged. The view is a
  // snapshot — it does not track its base tables (the paper only requires
  // topological updates for single-table sources, §3.3.2).
  Planner planner(&db_.catalog_, options_);
  GRF_ASSIGN_OR_RETURN(PlannedQuery planned, planner.PlanSelect(*stmt.select));
  Schema schema;
  for (size_t i = 0; i < planned.output_names.size(); ++i) {
    schema.AddColumn(Column(planned.output_names[i],
                            planned.root->schema().column(i).type));
  }
  GRF_ASSIGN_OR_RETURN(ResultSet rows,
                       RunPlan(planned, rec, /*force_timing=*/false));
  GRF_ASSIGN_OR_RETURN(Table * table,
                       db_.catalog_.CreateTable(stmt.name, std::move(schema)));
  std::vector<WalRecord> unit;
  unit.reserve(rows.rows.size() + 1);
  WalRecord create;
  create.type = WalRecord::Type::kCreateTable;
  create.table = stmt.name;
  create.schema = table->schema();
  unit.push_back(std::move(create));
  for (auto& row : rows.rows) {
    auto slot = table->Insert(Tuple(std::move(row)));
    if (!slot.ok()) {
      (void)db_.catalog_.DropTable(stmt.name);
      return slot.status();
    }
    WalRecord ins;
    ins.type = WalRecord::Type::kInsert;
    ins.table = stmt.name;
    ins.after = *table->Get(*slot);
    unit.push_back(std::move(ins));
  }
  Status wal = AppendDdlUnit(unit);
  if (!wal.ok()) {
    (void)db_.catalog_.DropTable(stmt.name);
    return wal;
  }
  ResultSet result;
  result.rows_affected = rows.rows.size();
  return result;
}

StatusOr<ResultSet> Session::ExecuteDrop(const DropStmt& stmt) {
  // The object is DETACHED (removed from the catalog but kept alive), the
  // drop logged, and only then destroyed — so a WAL failure can put it back
  // and memory never commits a drop the log rejected.
  Status status;
  std::unique_ptr<Table> detached_table;
  std::unique_ptr<GraphView> detached_view;
  switch (stmt.kind) {
    case DropStmt::Kind::kTable: {
      auto detached = db_.catalog_.DetachTable(stmt.name);
      if (detached.ok()) {
        detached_table = std::move(*detached);
      } else {
        status = detached.status();
      }
      break;
    }
    case DropStmt::Kind::kGraphView: {
      auto detached = db_.catalog_.DetachGraphView(stmt.name);
      if (detached.ok()) {
        detached_view = std::move(*detached);
      } else {
        status = detached.status();
      }
      break;
    }
    case DropStmt::Kind::kIndex:
      return Status::Unsupported("DROP INDEX is not implemented");
  }
  if (!status.ok() && stmt.if_exists &&
      status.code() == StatusCode::kNotFound) {
    return ResultSet();
  }
  GRF_RETURN_IF_ERROR(status);
  WalRecord rec;
  rec.type = WalRecord::Type::kDrop;
  rec.table = stmt.name;
  rec.drop_kind = stmt.kind == DropStmt::Kind::kGraphView
                      ? WalRecord::kDropGraphView
                      : WalRecord::kDropTable;
  Status wal = AppendDdlUnit({std::move(rec)});
  if (!wal.ok()) {
    if (detached_table != nullptr) {
      db_.catalog_.ReattachTable(std::move(detached_table));
    }
    if (detached_view != nullptr) {
      db_.catalog_.ReattachGraphView(std::move(detached_view));
    }
    return wal;
  }
  return ResultSet();
}

StatusOr<ResultSet> Session::ExecuteCheckpoint() {
  if (db_.durability_ == nullptr) {
    return Status::InvalidArgument(
        "CHECKPOINT requires a database opened with a data directory");
  }
  // Runs through the DDL dispatch branch: writer slot + exclusive statement
  // lock are held, so the committed epoch is a stable, fully-published
  // snapshot for the duration of the file write.
  GRF_RETURN_IF_ERROR(
      db_.durability_->WriteCheckpoint(&db_.catalog_, db_.epochs_.committed()));
  return ResultSet();
}

// --- WAL helpers -------------------------------------------------------------------

void Session::EncodeUndoAsWal(size_t from, WalBatch* batch) const {
  // The undo log carries the statement's applied, post-coercion images —
  // encoding the surviving entries logs exactly what the statement did.
  for (size_t i = from; i < undo_log_.size(); ++i) {
    const UndoRecord& undo = undo_log_[i];
    WalRecord rec;
    rec.table = undo.table->name();
    switch (undo.kind) {
      case UndoRecord::Kind::kInsert:
        rec.type = WalRecord::Type::kInsert;
        rec.after = undo.after;
        break;
      case UndoRecord::Kind::kDelete:
        rec.type = WalRecord::Type::kDelete;
        rec.before = undo.before;
        break;
      case UndoRecord::Kind::kUpdate:
        rec.type = WalRecord::Type::kUpdate;
        rec.before = undo.before;
        rec.after = undo.after;
        break;
    }
    batch->Add(std::move(rec));
  }
}

Status Session::AppendDdlUnit(const std::vector<WalRecord>& records) {
  if (db_.durability_ == nullptr) return Status::OK();
  // DDL runs outside any epoch (catalog changes are not versioned), so its
  // unit is framed at epoch 0 and synced before the statement returns.
  WalBatch batch;
  batch.TxnBegin(0);
  for (const WalRecord& rec : records) batch.Add(rec);
  batch.TxnCommit(0);
  uint64_t lsn = 0;
  GRF_RETURN_IF_ERROR(db_.durability_->Append(batch, &lsn));
  return db_.durability_->Sync(lsn);
}

// --- DML ---------------------------------------------------------------------------

StatusOr<ResultSet> Session::ExecuteInsert(const InsertStmt& stmt,
                                           ParamSet* params,
                                           QueryProfile& rec) {
  Table* table = db_.catalog_.FindTable(stmt.table);
  if (table == nullptr) {
    return Status::NotFound("table '" + stmt.table + "' does not exist");
  }
  const Schema& schema = table->schema();

  // Map the column list (or positional) to schema indexes.
  std::vector<size_t> targets;
  if (stmt.columns.empty()) {
    for (size_t i = 0; i < schema.NumColumns(); ++i) targets.push_back(i);
  } else {
    for (const std::string& name : stmt.columns) {
      GRF_ASSIGN_OR_RETURN(size_t idx, schema.ColumnIndex(name));
      targets.push_back(idx);
    }
  }

  // INSERT INTO ... SELECT: evaluate the query, then load its rows through
  // the same constraint-checked path. Statement-level atomicity comes from
  // the caller's undo-log mark (ExecuteDml rolls back on any error).
  if (stmt.select != nullptr) {
    GRF_ASSIGN_OR_RETURN(ResultSet selected,
                         ExecuteSelect(*stmt.select, rec, params));
    size_t inserted = 0;
    for (auto& row : selected.rows) {
      if (row.size() != targets.size()) {
        return Status::InvalidArgument(StrFormat(
            "INSERT expects %zu values, SELECT produced %zu", targets.size(),
            row.size()));
      }
      std::vector<Value> values(schema.NumColumns(), Value::Null());
      for (size_t i = 0; i < targets.size(); ++i) {
        values[targets[i]] = std::move(row[i]);
      }
      auto slot = table->Insert(Tuple(std::move(values)), txn_epoch_);
      if (!slot.ok()) return slot.status();
      GRF_RETURN_IF_ERROR(LogAppliedInsert(table, *slot));
      ++inserted;
    }
    ResultSet result;
    result.rows_affected = inserted;
    return result;
  }

  // Value expressions may be arbitrary constant expressions (including
  // parameter placeholders when prepared).
  BindingScope empty_scope;
  Binder binder(&empty_scope, params);
  ExecRow empty_row;

  size_t inserted = 0;
  for (const auto& row_exprs : stmt.rows) {
    if (row_exprs.size() != targets.size()) {
      return Status::InvalidArgument(
          StrFormat("INSERT expects %zu values, got %zu", targets.size(),
                    row_exprs.size()));
    }
    std::vector<Value> values(schema.NumColumns(), Value::Null());
    for (size_t i = 0; i < targets.size(); ++i) {
      GRF_ASSIGN_OR_RETURN(ExprPtr bound, binder.Bind(*row_exprs[i]));
      GRF_ASSIGN_OR_RETURN(Value v, bound->Eval(empty_row));
      values[targets[i]] = std::move(v);
    }
    auto slot = table->Insert(Tuple(std::move(values)), txn_epoch_);
    if (!slot.ok()) return slot.status();
    GRF_RETURN_IF_ERROR(LogAppliedInsert(table, *slot));
    ++inserted;
  }
  ResultSet result;
  result.rows_affected = inserted;
  return result;
}

namespace {

/// Recognizes `column = <literal>` (either orientation) against an indexed
/// column and returns the matching slots, so UPDATE/DELETE avoid full scans.
/// nullopt means "no usable index — scan". Parameter placeholders don't
/// qualify (their value isn't known until bind), so prepared DML over an
/// indexed column falls back to the scan path.
std::optional<std::vector<TupleSlot>> TryIndexLookup(const Table* table,
                                                     const ParsedExpr* where) {
  if (where == nullptr || where->kind != ParsedExpr::Kind::kCompare ||
      where->compare_op != CompareOp::kEq) {
    return std::nullopt;
  }
  const ParsedExpr* ref = where->children[0].get();
  const ParsedExpr* lit = where->children[1].get();
  if (ref->kind != ParsedExpr::Kind::kRef) std::swap(ref, lit);
  if (ref->kind != ParsedExpr::Kind::kRef ||
      lit->kind != ParsedExpr::Kind::kLiteral || ref->ref.size() != 1 ||
      ref->ref[0].has_index) {
    return std::nullopt;
  }
  int column = table->schema().FindColumn(ref->ref[0].name);
  if (column < 0) return std::nullopt;
  const HashIndex* index =
      table->FindIndexOnColumn(static_cast<size_t>(column));
  if (index == nullptr) return std::nullopt;
  Value key = lit->literal;
  ValueType want = table->schema().column(static_cast<size_t>(column)).type;
  if (!key.is_null() && key.type() != want) {
    auto cast = key.CastTo(want);
    if (!cast.ok()) return std::vector<TupleSlot>();
    key = std::move(cast).value();
  }
  // Snapshot copy: index entries for versions dead at the caller's epoch may
  // linger until vacuum; the caller re-reads each slot at its snapshot (and
  // re-evaluates the WHERE), so stale entries are filtered naturally.
  return index->LookupSnapshot(key);
}

/// Builds the single-table scope used by UPDATE/DELETE WHERE clauses.
BindingScope SingleTableScope(const Table* table) {
  BindingScope scope;
  TableBinding binding;
  binding.kind = TableBinding::Kind::kTable;
  binding.alias = table->name();
  binding.table = table;
  binding.visible = table->schema();
  scope.AddBinding(std::move(binding));
  return scope;
}

}  // namespace

StatusOr<ResultSet> Session::ExecuteUpdate(const UpdateStmt& stmt,
                                           ParamSet* params) {
  Table* table = db_.catalog_.FindTable(stmt.table);
  if (table == nullptr) {
    return Status::NotFound("table '" + stmt.table + "' does not exist");
  }
  BindingScope scope = SingleTableScope(table);
  Binder binder(&scope, params);

  ExprPtr where;
  if (stmt.where != nullptr) {
    GRF_ASSIGN_OR_RETURN(where, binder.Bind(*stmt.where));
  }
  std::vector<std::pair<size_t, ExprPtr>> assignments;
  for (const auto& [column, parsed] : stmt.assignments) {
    GRF_ASSIGN_OR_RETURN(size_t idx, table->schema().ColumnIndex(column));
    GRF_ASSIGN_OR_RETURN(ExprPtr bound, binder.Bind(*parsed));
    assignments.emplace_back(idx, std::move(bound));
  }

  // Phase 1: collect new images (no mutation while scanning), reading at
  // this transaction's epoch so earlier statements of the same transaction
  // are visible. A usable index on a `col = literal` WHERE avoids the scan.
  const Epoch snap = txn_epoch_ == 0 ? kEpochLatest : txn_epoch_;
  std::vector<std::pair<TupleSlot, Tuple>> updates;
  Status status = Status::OK();
  auto visit = [&](TupleSlot slot, const Tuple& tuple) {
    ExecRow row;
    row.columns = tuple.values();
    if (where != nullptr) {
      auto pass = EvalPredicate(*where, row);
      if (!pass.ok()) {
        status = pass.status();
        return false;
      }
      if (!*pass) return true;
    }
    Tuple updated = tuple;
    for (const auto& [idx, expr] : assignments) {
      auto v = expr->Eval(row);
      if (!v.ok()) {
        status = v.status();
        return false;
      }
      updated.SetValue(idx, std::move(v).value());
    }
    updates.emplace_back(slot, std::move(updated));
    return true;
  };
  if (auto slots = TryIndexLookup(table, stmt.where.get());
      slots.has_value()) {
    for (TupleSlot slot : *slots) {
      const Tuple* tuple = table->Get(slot, snap);
      if (tuple == nullptr) continue;
      if (!visit(slot, *tuple)) break;
    }
  } else {
    table->ForEach(visit, snap);
  }
  GRF_RETURN_IF_ERROR(status);

  // Phase 2: apply. Statement-level rollback on failure is the caller's
  // undo-log mark (ExecuteDml).
  size_t applied = 0;
  for (auto& [slot, new_tuple] : updates) {
    const Tuple* old_tuple = table->Get(slot, snap);
    if (old_tuple == nullptr) continue;
    Tuple backup = *old_tuple;
    Status s = table->Update(slot, std::move(new_tuple), txn_epoch_);
    GRF_RETURN_IF_ERROR(s);
    GRF_RETURN_IF_ERROR(LogAppliedUpdate(table, slot, std::move(backup)));
    ++applied;
  }
  ResultSet result;
  result.rows_affected = applied;
  return result;
}

StatusOr<ResultSet> Session::ExecuteDelete(const DeleteStmt& stmt,
                                           ParamSet* params) {
  Table* table = db_.catalog_.FindTable(stmt.table);
  if (table == nullptr) {
    return Status::NotFound("table '" + stmt.table + "' does not exist");
  }
  BindingScope scope = SingleTableScope(table);
  Binder binder(&scope, params);
  ExprPtr where;
  if (stmt.where != nullptr) {
    GRF_ASSIGN_OR_RETURN(where, binder.Bind(*stmt.where));
  }

  const Epoch snap = txn_epoch_ == 0 ? kEpochLatest : txn_epoch_;
  std::vector<std::pair<TupleSlot, Tuple>> victims;
  Status status = Status::OK();
  auto visit = [&](TupleSlot slot, const Tuple& tuple) {
    ExecRow row;
    row.columns = tuple.values();
    if (where != nullptr) {
      auto pass = EvalPredicate(*where, row);
      if (!pass.ok()) {
        status = pass.status();
        return false;
      }
      if (!*pass) return true;
    }
    victims.emplace_back(slot, tuple);
    return true;
  };
  if (auto slots = TryIndexLookup(table, stmt.where.get());
      slots.has_value()) {
    for (TupleSlot slot : *slots) {
      const Tuple* tuple = table->Get(slot, snap);
      if (tuple == nullptr) continue;
      if (!visit(slot, *tuple)) break;
    }
  } else {
    table->ForEach(visit, snap);
  }
  GRF_RETURN_IF_ERROR(status);

  // Apply. A mid-statement failure (e.g. a graph view vetoing the delete of
  // a still-referenced vertex) is rolled back by the caller's undo-log mark.
  size_t deleted = 0;
  for (auto& [slot, backup] : victims) {
    GRF_RETURN_IF_ERROR(table->Delete(slot, txn_epoch_));
    UndoRecord rec;
    rec.kind = UndoRecord::Kind::kDelete;
    rec.table = table;
    rec.slot = slot;
    rec.before = std::move(backup);
    undo_log_.push_back(std::move(rec));
    ++deleted;
  }
  ResultSet result;
  result.rows_affected = deleted;
  return result;
}

// --- SELECT -------------------------------------------------------------------------

StatusOr<ResultSet> Session::ExecuteSelect(const SelectStmt& stmt,
                                           QueryProfile& rec,
                                           ParamSet* params) {
  Planner planner(&db_.catalog_, options_);
  GRF_ASSIGN_OR_RETURN(PlannedQuery planned, planner.PlanSelect(stmt, params));
  return RunPlan(planned, rec, /*force_timing=*/false);
}

StatusOr<ResultSet> Session::RunPlan(const PlannedQuery& planned,
                                     QueryProfile& rec, bool force_timing) {
  QueryContext ctx(options_.memory_cap);
  // MVCC snapshot. A statement inside a write transaction reads at the
  // transaction's own epoch (its earlier statements are visible, including
  // the views' open deltas); everything else fixes the committed epoch at
  // statement start — the snapshot a concurrent writer can never move.
  // The GraphReadScope pins graph-view reads on this thread to the same
  // snapshot; parallel operators re-install it on their workers.
  const Epoch snapshot =
      txn_epoch_ != 0 ? txn_epoch_ : db_.epochs_.committed();
  const bool include_open = txn_epoch_ != 0;
  ctx.set_snapshot_epoch(snapshot);
  ctx.set_include_open(include_open);
  GraphReadScope graph_scope(snapshot, include_open);
  ctx.set_profile_timing(force_timing || options_.slow_query_threshold_us >= 0);
  ctx.set_trace(active_trace_);
  const size_t parallelism = options_.effective_parallelism();
  if (parallelism > 1) {
    ctx.set_task_pool(&TaskPool::Shared());
    ctx.set_max_parallelism(parallelism);
    ctx.set_parallel_min_rows(options_.parallel_min_rows);
  }

  // Statement cancellation token. Left off the context (bench baseline)
  // only when both interrupts and the timeout are off; a null token reduces
  // every cooperative check to one pointer test.
  token_.Reset();
  live_rows_.store(0, std::memory_order_relaxed);
  const bool arm_token =
      options_.enable_interrupts || options_.statement_timeout_us >= 0;
  if (options_.statement_timeout_us >= 0) {
    token_.SetTimeoutUs(options_.statement_timeout_us);
  }
  if (arm_token) ctx.set_cancellation(&token_);
  if (options_.enable_interrupts) {
    std::lock_guard<std::mutex> lock(interrupt_state_->mu);
    interrupt_state_->active = &token_;
  }

  // Publish to SYS.ACTIVE_QUERIES until Finish. A nested run (the SELECT
  // half of INSERT ... SELECT or CREATE MATERIALIZED VIEW) is already
  // covered by the enclosing statement's registration: one statement
  // appears (and is counted) once.
  if (rec.query_id == 0) {
    rec.query_id = db_.active_queries_.Register(
        id_, rec.sql, rec.kind, arm_token ? &token_ : nullptr, &live_rows_);
  }

  ResultSet result;
  result.column_names = planned.output_names;
  result.column_types.reserve(planned.output_names.size());
  for (size_t i = 0; i < planned.output_names.size(); ++i) {
    result.column_types.push_back(planned.root->schema().column(i).type);
  }

  const auto t0 = std::chrono::steady_clock::now();
  TraceSpan exec_span(active_trace_, "session", "execute");
  Status status = planned.root->Open(&ctx);
  if (status.ok()) {
    ExecRow row;
    while (true) {
      auto has = planned.root->Next(&row);
      if (!has.ok()) {
        status = has.status();
        break;
      }
      if (!*has) break;
      result.rows.push_back(std::move(row.columns));
      live_rows_.store(result.rows.size(), std::memory_order_relaxed);
    }
  }
  planned.root->Close();
  exec_span.AddArg("rows", std::to_string(result.rows.size()));
  exec_span.AddArg("status", StatusCodeToString(status.code()));
  exec_span.End();
  // Disarm only after Close: the token must stay reachable for any worker
  // that might still observe it while the operator tree unwinds.
  if (options_.enable_interrupts) {
    std::lock_guard<std::mutex> lock(interrupt_state_->mu);
    interrupt_state_->active = nullptr;
  }

  rec.latency_us = MicrosSince(t0);
  rec.rows = result.rows.size();
  rec.peak_bytes = ctx.peak_bytes();
  rec.stats = ctx.stats();
  rec.reads_system_tables = planned.reads_system_tables;
  CollectOperatorRows(planned.root.get(), 0, &rec.operators);
  if (!status.ok()) {
    rec.error_code = StatusCodeToWire(status.code());
    rec.error = status.message();
  }
  GRF_RETURN_IF_ERROR(status);
  return result;
}

void Session::Finish(QueryProfile rec, const Status& status) {
  if (rec.error_code == 0 && !status.ok()) {
    rec.error_code = StatusCodeToWire(status.code());
    rec.error = status.message();
  }
  const StatusCode code =
      StatusCodeFromWire(static_cast<int32_t>(rec.error_code));
  EngineMetrics& metrics = EngineMetrics::Get();

  if (rec.query_id != 0) {
    db_.active_queries_.Unregister(rec.query_id);
    last_query_id_ = rec.query_id;
    // Fold into the cumulative per-statement store (SYS.STATEMENTS). Keyed
    // on the normalized text, so every session running the same statement
    // lands in one row.
    StatementStats::Execution ex;
    ex.kind = rec.kind;
    ex.latency_us = rec.latency_us;
    ex.rows = rec.rows;
    ex.peak_bytes = rec.peak_bytes;
    ex.plan_cache_hit = rec.plan_cache_hit;
    ex.code = code;
    db_.statement_stats_.Record(rec.sql, ex);
  }

  // Fold a plan's work into the engine-wide registry.
  if (rec.valid()) {
    metrics.queries_total->Increment();
    if (code != StatusCode::kOk) metrics.query_errors_total->Increment();
    if (code == StatusCode::kCancelled) {
      metrics.queries_cancelled->Increment();
    } else if (code == StatusCode::kDeadlineExceeded) {
      metrics.queries_deadline_exceeded->Increment();
    }
    metrics.query_latency_us->Observe(rec.latency_us);
    metrics.rows_returned_total->Increment(rec.rows);
    metrics.rows_scanned_total->Increment(rec.stats.rows_scanned);
    metrics.rows_joined_total->Increment(rec.stats.rows_joined);
    metrics.vertexes_expanded_total->Increment(rec.stats.vertexes_expanded);
    metrics.edges_examined_total->Increment(rec.stats.edges_examined);
    metrics.paths_emitted_total->Increment(rec.stats.paths_emitted);
    metrics.paths_pruned_total->Increment(rec.stats.paths_pruned);
    metrics.peak_query_bytes->SetMax(static_cast<int64_t>(rec.peak_bytes));
  }

  // SYS.LAST_QUERY shows every plan and every failure, except statements
  // over SYS.* tables, which inspect the previous profile and must not
  // clobber it.
  if (!rec.reads_system_tables &&
      (rec.valid() || code != StatusCode::kOk)) {
    if (rec.valid() && options_.slow_query_threshold_us >= 0 &&
        rec.latency_us >=
            static_cast<uint64_t>(options_.slow_query_threshold_us)) {
      metrics.slow_queries_total->Increment();
      EmitSlowQueryTrace(rec);
    }
    std::lock_guard<std::mutex> lock(db_.profile_mu_);
    db_.published_profile_ = rec;
  }
  last_profile_ = std::move(rec);
}

StatusOr<ResultSet> Session::ExecuteExplain(const ExplainStmt& stmt,
                                            QueryProfile& rec) {
  if (stmt.trace) {
    // EXPLAIN TRACE: arm a statement-local span trace, execute, and return
    // the Chrome trace-event JSON document (one result row per line).
    QueryTrace trace;
    QueryTrace* saved = active_trace_;
    active_trace_ = &trace;
    PlannedQuery planned;
    {
      TraceSpan plan_span(active_trace_, "session", "plan");
      Planner planner(&db_.catalog_, options_);
      StatusOr<PlannedQuery> planned_or = planner.PlanSelect(*stmt.select);
      if (!planned_or.ok()) {
        active_trace_ = saved;
        return planned_or.status();
      }
      planned = std::move(planned_or).value();
    }
    StatusOr<ResultSet> executed =
        RunPlan(planned, rec, /*force_timing=*/false);
    active_trace_ = saved;
    // Like ANALYZE, a cancelled or timed-out statement still renders: its
    // spans show how far execution got before the interrupt fired.
    if (!executed.ok() &&
        executed.status().code() != StatusCode::kCancelled &&
        executed.status().code() != StatusCode::kDeadlineExceeded) {
      return executed.status();
    }
    return PlanTextToResult(trace.ToChromeJson());
  }
  Planner planner(&db_.catalog_, options_);
  GRF_ASSIGN_OR_RETURN(PlannedQuery planned, planner.PlanSelect(*stmt.select));
  if (!stmt.analyze) {
    return PlanTextToResult(planned.root->ToString(0));
  }
  StatusOr<ResultSet> executed = RunPlan(planned, rec, /*force_timing=*/true);
  if (!executed.ok() &&
      executed.status().code() != StatusCode::kCancelled &&
      executed.status().code() != StatusCode::kDeadlineExceeded) {
    return executed.status();
  }
  // A stopped statement still renders: the per-operator counters show how
  // far execution got before the interrupt or deadline fired.
  std::string text = planned.root->ToAnalyzedString(0, 0);
  if (executed.ok()) {
    text += StrFormat("Execution: rows=%zu latency_ms=%.3f peak_bytes=%zu\n",
                      executed->rows.size(),
                      static_cast<double>(rec.latency_us) / 1e3,
                      rec.peak_bytes);
  } else {
    text += StrFormat(
        "Execution: PARTIAL (%s) latency_ms=%.3f peak_bytes=%zu\n",
        StatusCodeToString(executed.status().code()),
        static_cast<double>(rec.latency_us) / 1e3, rec.peak_bytes);
  }
  return PlanTextToResult(text);
}

void Session::EmitSlowQueryTrace(const QueryProfile& profile) const {
  std::string line = StrFormat(
      "{\"event\":\"slow_query\",\"sql\":\"%s\",\"session_id\":%llu,"
      "\"kind\":\"%s\",\"params\":%zu,\"latency_us\":%llu,"
      "\"threshold_us\":%lld,\"peak_bytes\":%zu,\"rows_scanned\":%llu,"
      "\"rows_joined\":%llu,\"vertexes_expanded\":%llu,"
      "\"edges_examined\":%llu,\"paths_emitted\":%llu,\"operators\":[",
      JsonEscape(profile.sql).c_str(),
      static_cast<unsigned long long>(profile.session_id),
      JsonEscape(profile.kind).c_str(), profile.num_params,
      static_cast<unsigned long long>(profile.latency_us),
      static_cast<long long>(options_.slow_query_threshold_us),
      profile.peak_bytes,
      static_cast<unsigned long long>(profile.stats.rows_scanned),
      static_cast<unsigned long long>(profile.stats.rows_joined),
      static_cast<unsigned long long>(profile.stats.vertexes_expanded),
      static_cast<unsigned long long>(profile.stats.edges_examined),
      static_cast<unsigned long long>(profile.stats.paths_emitted));
  for (size_t i = 0; i < profile.operators.size(); ++i) {
    const QueryProfile::OperatorRow& op = profile.operators[i];
    if (i > 0) line += ",";
    line += StrFormat(
        "{\"depth\":%d,\"op\":\"%s\",\"actual_rows\":%llu,"
        "\"next_calls\":%llu,\"time_ms\":%.3f}",
        op.depth, JsonEscape(op.name).c_str(),
        static_cast<unsigned long long>(op.actual_rows),
        static_cast<unsigned long long>(op.next_calls), op.time_ms);
  }
  line += "]}\n";
  if (options_.slow_query_log_path.empty()) {
    std::fputs(line.c_str(), stderr);
    return;
  }
  std::FILE* f = std::fopen(options_.slow_query_log_path.c_str(), "a");
  if (f == nullptr) {
    GRF_LOG(kWarn, "cannot open slow-query log '%s'; trace dropped",
            options_.slow_query_log_path.c_str());
    return;
  }
  std::fputs(line.c_str(), f);
  std::fclose(f);
}

}  // namespace grfusion
