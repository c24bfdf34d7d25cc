#include "engine/database.h"

#include "common/logging.h"
#include "common/metrics.h"

namespace grfusion {

Database::Database(PlannerOptions options, DurabilityOptions durability)
    : options_(options) {
  // Engine-owned graph views maintain themselves through MVCC delta
  // overlays so snapshot readers never see a half-applied transaction.
  catalog_.set_managed_views(true);
  if (durability.enabled()) {
    durability_ = std::make_unique<DurabilityManager>(std::move(durability));
    recovery_status_ = durability_->OpenAndRecover(&catalog_, &epochs_);
    if (!recovery_status_.ok()) {
      // The database still opens (whatever was recovered stays readable),
      // but no write may extend a log we could not interpret.
      GRF_LOG(kWarn, "recovery failed, writes disabled: %s",
              recovery_status_.ToString().c_str());
    }
  }
  RegisterSystemTables();
}

Status Database::durability_status() const {
  if (durability_ == nullptr) return Status::OK();
  if (!recovery_status_.ok()) return recovery_status_;
  // Sticky WAL failure: once an append or fsync failed, the on-disk tail may
  // be torn and no later write is allowed to extend it.
  return durability_->wal()->failed_status();
}

Status Database::BulkInsert(const std::string& table_name,
                            const std::vector<std::vector<Value>>& rows) {
  GRF_RETURN_IF_ERROR(durability_status());
  // Bulk loading is one write transaction: claim the writer slot, stamp all
  // rows with one epoch, publish at a single commit boundary. Snapshot
  // readers keep running under the shared statement lock throughout.
  std::unique_lock<std::mutex> writer(writer_mutex_);
  const Epoch epoch = epochs_.BeginWriter();
  Status status = Status::OK();
  uint64_t lsn = 0;
  {
    std::shared_lock<std::shared_mutex> lock(statement_mutex_);
    Table* table = catalog_.FindTable(table_name);
    if (table == nullptr) {
      epochs_.Commit(epoch);  // Epochs are never reused, even when unused.
      return Status::NotFound("table '" + table_name + "' does not exist");
    }
    WalBatch batch;
    if (durability_ != nullptr) batch.TxnBegin(epoch);
    struct AppliedRow {
      TupleSlot slot;
      Tuple after;
    };
    std::vector<AppliedRow> applied;
    applied.reserve(rows.size());
    for (const auto& row : rows) {
      StatusOr<TupleSlot> slot = table->Insert(Tuple(row), epoch);
      if (!slot.ok()) {
        status = slot.status();
        break;
      }
      // The applied (post-coercion) image, not the caller's row: logged to
      // the WAL and kept for the rollback path below.
      const Tuple& stored = *table->Get(*slot, epoch);
      if (durability_ != nullptr) {
        WalRecord rec;
        rec.type = WalRecord::Type::kInsert;
        rec.table = table->name();
        rec.after = stored;
        batch.Add(rec);
      }
      applied.push_back({*slot, stored});
    }
    // Rows already applied persist on a row error (pre-MVCC bulk-load
    // semantics), so the commit boundary publishes whatever succeeded — and
    // the WAL logs exactly that applied prefix.
    bool rolled_back = false;
    if (durability_ != nullptr && !applied.empty()) {
      batch.TxnCommit(epoch);
      Status append = durability_->Append(batch, &lsn);
      if (!append.ok()) {
        // The log rejected the batch: nothing of it may commit in memory,
        // or the rows would be visible now and gone after restart. Undo in
        // strict reverse order, then discard the buffered graph deltas.
        for (auto it = applied.rbegin(); it != applied.rend(); ++it) {
          table->UndoAppliedInsert(it->slot, it->after, epoch);
        }
        for (GraphView* gv : catalog_.GraphViews()) gv->DiscardOpenDelta();
        rolled_back = true;
        if (status.ok()) status = append;
      }
    }
    if (!rolled_back) {
      for (GraphView* gv : catalog_.GraphViews()) gv->PublishOpenDelta(epoch);
    }
    epochs_.Commit(epoch);
    epochs_.AddPending(applied.size());
  }
  MaybeFoldAndVacuum();
  writer.unlock();
  // Early lock release: the fdatasync (group commit) happens outside the
  // writer slot so concurrent committers can batch into one sync.
  if (durability_ != nullptr && lsn != 0) {
    Status sync = durability_->Sync(lsn);
    if (!sync.ok() && status.ok()) status = sync;
  }
  return status;
}

void Database::RegisterExternalVirtualTable(
    std::unique_ptr<VirtualTable> vtable) {
  std::unique_lock<std::shared_mutex> lock(statement_mutex_);
  catalog_.RegisterVirtualTable(std::move(vtable));
}

void Database::MaybeFoldAndVacuum() {
  // Batched maintenance: folding delta chains and vacuuming dead versions
  // scans every table, so running it at each commit boundary would cost far
  // more than the garbage it reclaims (and would grab the exclusive lock in
  // every commit's wake). Below the batch threshold, skip; past it, try-lock
  // so an in-flight read burst defers the work to a later boundary; past the
  // pressure threshold, block until the readers drain so garbage cannot grow
  // without bound under a read-heavy load.
  static constexpr size_t kVacuumBatch = 128;
  static constexpr size_t kFoldPressure = 4096;
  EngineMetrics& m = EngineMetrics::Get();
  m.mvcc_pending_changes->Set(static_cast<int64_t>(epochs_.pending()));
  if (epochs_.pending() < kVacuumBatch) return;
  std::unique_lock<std::shared_mutex> lock(statement_mutex_,
                                           std::try_to_lock);
  if (!lock.owns_lock()) {
    if (epochs_.pending() < kFoldPressure) return;
    lock.lock();
  }
  for (GraphView* gv : catalog_.GraphViews()) {
    // An injected fold failure leaves the delta chain intact; keep the
    // pending count so a later boundary retries.
    if (!gv->FoldDeltas().ok()) return;
  }
  size_t freed = 0;
  for (Table* table : catalog_.Tables()) freed += table->Vacuum();
  epochs_.TakePending();
  m.mvcc_folds_total->Increment();
  m.mvcc_vacuumed_versions_total->Increment(freed);
  m.mvcc_pending_changes->Set(0);
}

// --- SYS.* virtual tables -----------------------------------------------------------

void Database::RegisterSystemTables() {
  // SYS.METRICS: one row per exported sample of the global registry.
  {
    Schema schema;
    schema.AddColumn(Column("NAME", ValueType::kVarchar));
    schema.AddColumn(Column("KIND", ValueType::kVarchar));
    schema.AddColumn(Column("VALUE", ValueType::kDouble));
    catalog_.RegisterVirtualTable(std::make_unique<FuncVirtualTable>(
        "SYS.METRICS", std::move(schema),
        []() -> StatusOr<std::vector<std::vector<Value>>> {
          std::vector<std::vector<Value>> rows;
          for (const MetricsRegistry::Sample& s :
               MetricsRegistry::Global().Samples()) {
            rows.push_back({Value::Varchar(s.name), Value::Varchar(s.kind),
                            Value::Double(s.value)});
          }
          return rows;
        }));
  }
  // SYS.LAST_QUERY: per-operator breakdown of the most recent SELECT
  // published by any session.
  {
    Schema schema;
    schema.AddColumn(Column("SQL", ValueType::kVarchar));
    schema.AddColumn(Column("LATENCY_US", ValueType::kBigInt));
    schema.AddColumn(Column("DEPTH", ValueType::kBigInt));
    schema.AddColumn(Column("OPERATOR", ValueType::kVarchar));
    schema.AddColumn(Column("ACTUAL_ROWS", ValueType::kBigInt));
    schema.AddColumn(Column("NEXT_CALLS", ValueType::kBigInt));
    schema.AddColumn(Column("TIME_MS", ValueType::kDouble));
    schema.AddColumn(Column("ERROR_CODE", ValueType::kBigInt));
    schema.AddColumn(Column("ERROR", ValueType::kVarchar));
    catalog_.RegisterVirtualTable(std::make_unique<FuncVirtualTable>(
        "SYS.LAST_QUERY", std::move(schema),
        [this]() -> StatusOr<std::vector<std::vector<Value>>> {
          QueryProfile p;
          {
            std::lock_guard<std::mutex> lock(profile_mu_);
            p = published_profile_;
          }
          std::vector<std::vector<Value>> rows;
          // ERROR_CODE carries the stable numeric status code
          // (GRF_STATUS_CODES) of the profiled execution — the same table
          // the wire protocol's Error frames use.
          for (const QueryProfile::OperatorRow& op : p.operators) {
            rows.push_back({Value::Varchar(p.sql),
                            Value::BigInt(static_cast<int64_t>(p.latency_us)),
                            Value::BigInt(op.depth),
                            Value::Varchar(op.name),
                            Value::BigInt(static_cast<int64_t>(op.actual_rows)),
                            Value::BigInt(static_cast<int64_t>(op.next_calls)),
                            Value::Double(op.time_ms),
                            Value::BigInt(p.error_code),
                            Value::Varchar(p.error)});
          }
          // A statement that failed before building a plan (parse/bind/DML
          // errors) has no operator rows; surface its error code in one
          // plan-less summary row.
          if (rows.empty() && !p.sql.empty()) {
            rows.push_back({Value::Varchar(p.sql),
                            Value::BigInt(static_cast<int64_t>(p.latency_us)),
                            Value::BigInt(0), Value::Varchar(""),
                            Value::BigInt(0), Value::BigInt(0),
                            Value::Double(0.0), Value::BigInt(p.error_code),
                            Value::Varchar(p.error)});
          }
          return rows;
        }));
  }
  // SYS.TABLES: every named object the planner can scan.
  {
    Schema schema;
    schema.AddColumn(Column("NAME", ValueType::kVarchar));
    schema.AddColumn(Column("KIND", ValueType::kVarchar));
    schema.AddColumn(Column("ROWS", ValueType::kBigInt));
    catalog_.RegisterVirtualTable(std::make_unique<FuncVirtualTable>(
        "SYS.TABLES", std::move(schema),
        [this]() -> StatusOr<std::vector<std::vector<Value>>> {
          std::vector<std::vector<Value>> rows;
          for (const std::string& name : catalog_.TableNames()) {
            const Table* table = catalog_.FindTable(name);
            rows.push_back({Value::Varchar(name), Value::Varchar("table"),
                            Value::BigInt(static_cast<int64_t>(
                                table == nullptr ? 0 : table->NumRows()))});
          }
          for (const std::string& name : catalog_.VirtualTableNames()) {
            rows.push_back({Value::Varchar(name), Value::Varchar("virtual"),
                            Value::Null()});
          }
          return rows;
        }));
  }
  // SYS.GRAPH_VIEWS: live topology sizes per graph view (paper §3).
  {
    Schema schema;
    schema.AddColumn(Column("NAME", ValueType::kVarchar));
    schema.AddColumn(Column("DIRECTED", ValueType::kBoolean));
    schema.AddColumn(Column("VERTEXES", ValueType::kBigInt));
    schema.AddColumn(Column("EDGES", ValueType::kBigInt));
    schema.AddColumn(Column("TOPOLOGY", ValueType::kVarchar));
    schema.AddColumn(Column("CSR_BYTES", ValueType::kBigInt));
    schema.AddColumn(Column("FOLDS", ValueType::kBigInt));
    catalog_.RegisterVirtualTable(std::make_unique<FuncVirtualTable>(
        "SYS.GRAPH_VIEWS", std::move(schema),
        [this]() -> StatusOr<std::vector<std::vector<Value>>> {
          std::vector<std::vector<Value>> rows;
          for (const std::string& name : catalog_.GraphViewNames()) {
            const GraphView* gv = catalog_.FindGraphView(name);
            if (gv == nullptr) continue;
            // TOPOLOGY: "csr" when readers resolve the snapshot alone,
            // "delta-overlay" while unfolded deltas (or base edits since the
            // last fold) overlay it.
            const bool overlaid = !gv->PureCsr() || gv->HasOpenDelta() ||
                                  gv->PendingDeltaOps() > 0;
            const char* topology = overlaid ? "delta-overlay" : "csr";
            rows.push_back(
                {Value::Varchar(name), Value::Boolean(gv->directed()),
                 Value::BigInt(static_cast<int64_t>(gv->NumVertexes())),
                 Value::BigInt(static_cast<int64_t>(gv->NumEdges())),
                 Value::Varchar(topology),
                 Value::BigInt(static_cast<int64_t>(gv->CsrBytes())),
                 Value::BigInt(static_cast<int64_t>(gv->Folds()))});
          }
          return rows;
        }));
  }
  // SYS.PLAN_CACHE: one row per cached statement, most recently used first.
  {
    Schema schema;
    schema.AddColumn(Column("SQL", ValueType::kVarchar));
    schema.AddColumn(Column("ENTRY_HITS", ValueType::kBigInt));
    schema.AddColumn(Column("MISSES", ValueType::kBigInt));
    schema.AddColumn(Column("HIT_RATE", ValueType::kDouble));
    schema.AddColumn(Column("IDLE_INSTANCES", ValueType::kBigInt));
    schema.AddColumn(Column("CATALOG_VERSION", ValueType::kBigInt));
    catalog_.RegisterVirtualTable(std::make_unique<FuncVirtualTable>(
        "SYS.PLAN_CACHE", std::move(schema),
        [this]() -> StatusOr<std::vector<std::vector<Value>>> {
          std::vector<std::vector<Value>> rows;
          for (const PlanCache::EntryInfo& e : plan_cache_.Snapshot()) {
            rows.push_back(
                {Value::Varchar(e.sql),
                 Value::BigInt(static_cast<int64_t>(e.hits)),
                 Value::BigInt(static_cast<int64_t>(e.misses)),
                 Value::Double(e.hit_rate),
                 Value::BigInt(static_cast<int64_t>(e.idle_instances)),
                 Value::BigInt(static_cast<int64_t>(e.catalog_version))});
          }
          return rows;
        }));
  }
  // SYS.STATEMENTS: pg_stat_statements-style cumulative store, one row per
  // normalized statement text, aggregated across every session.
  {
    Schema schema;
    schema.AddColumn(Column("SQL", ValueType::kVarchar));
    schema.AddColumn(Column("KIND", ValueType::kVarchar));
    schema.AddColumn(Column("CALLS", ValueType::kBigInt));
    schema.AddColumn(Column("ERRORS", ValueType::kBigInt));
    schema.AddColumn(Column("TOTAL_US", ValueType::kBigInt));
    schema.AddColumn(Column("MIN_US", ValueType::kBigInt));
    schema.AddColumn(Column("MAX_US", ValueType::kBigInt));
    schema.AddColumn(Column("MEAN_US", ValueType::kDouble));
    schema.AddColumn(Column("P99_US", ValueType::kBigInt));
    schema.AddColumn(Column("ROWS", ValueType::kBigInt));
    schema.AddColumn(Column("PEAK_BYTES", ValueType::kBigInt));
    schema.AddColumn(Column("PLAN_CACHE_HITS", ValueType::kBigInt));
    schema.AddColumn(Column("CANCELLED", ValueType::kBigInt));
    schema.AddColumn(Column("DEADLINE_EXCEEDED", ValueType::kBigInt));
    catalog_.RegisterVirtualTable(std::make_unique<FuncVirtualTable>(
        "SYS.STATEMENTS", std::move(schema),
        [this]() -> StatusOr<std::vector<std::vector<Value>>> {
          std::vector<std::vector<Value>> rows;
          for (const StatementStats::Row& r : statement_stats_.Snapshot()) {
            rows.push_back(
                {Value::Varchar(r.sql), Value::Varchar(r.kind),
                 Value::BigInt(static_cast<int64_t>(r.calls)),
                 Value::BigInt(static_cast<int64_t>(r.errors)),
                 Value::BigInt(static_cast<int64_t>(r.total_us)),
                 Value::BigInt(static_cast<int64_t>(r.min_us)),
                 Value::BigInt(static_cast<int64_t>(r.max_us)),
                 Value::Double(r.mean_us),
                 Value::BigInt(static_cast<int64_t>(r.p99_us)),
                 Value::BigInt(static_cast<int64_t>(r.rows)),
                 Value::BigInt(static_cast<int64_t>(r.peak_bytes)),
                 Value::BigInt(static_cast<int64_t>(r.plan_cache_hits)),
                 Value::BigInt(static_cast<int64_t>(r.cancelled)),
                 Value::BigInt(static_cast<int64_t>(r.deadline_exceeded))});
          }
          return rows;
        }));
  }
  // SYS.ACTIVE_QUERIES: statements executing right now, oldest first. The
  // QUERY_ID column is what KILL takes.
  {
    Schema schema;
    schema.AddColumn(Column("QUERY_ID", ValueType::kBigInt));
    schema.AddColumn(Column("SESSION_ID", ValueType::kBigInt));
    schema.AddColumn(Column("SQL", ValueType::kVarchar));
    schema.AddColumn(Column("KIND", ValueType::kVarchar));
    schema.AddColumn(Column("STATE", ValueType::kVarchar));
    schema.AddColumn(Column("ELAPSED_US", ValueType::kBigInt));
    schema.AddColumn(Column("ROWS", ValueType::kBigInt));
    schema.AddColumn(Column("KILLABLE", ValueType::kBoolean));
    catalog_.RegisterVirtualTable(std::make_unique<FuncVirtualTable>(
        "SYS.ACTIVE_QUERIES", std::move(schema),
        [this]() -> StatusOr<std::vector<std::vector<Value>>> {
          std::vector<std::vector<Value>> rows;
          for (const ActiveQueryRegistry::Info& q :
               active_queries_.Snapshot()) {
            rows.push_back(
                {Value::BigInt(static_cast<int64_t>(q.query_id)),
                 Value::BigInt(static_cast<int64_t>(q.session_id)),
                 Value::Varchar(q.sql), Value::Varchar(q.kind),
                 Value::Varchar(q.state),
                 Value::BigInt(static_cast<int64_t>(q.elapsed_us)),
                 Value::BigInt(static_cast<int64_t>(q.rows)),
                 Value::Boolean(q.killable)});
          }
          return rows;
        }));
  }
  // SYS.WAL: one row describing the durability subsystem — WAL position,
  // sync mode, and what the open-time recovery pass found. Empty on a
  // memory-only database.
  {
    Schema schema;
    schema.AddColumn(Column("DATA_DIR", ValueType::kVarchar));
    schema.AddColumn(Column("SYNC_MODE", ValueType::kVarchar));
    schema.AddColumn(Column("GENERATION", ValueType::kBigInt));
    schema.AddColumn(Column("APPENDED_BYTES", ValueType::kBigInt));
    schema.AddColumn(Column("DURABLE_BYTES", ValueType::kBigInt));
    schema.AddColumn(Column("RECORDS_APPENDED", ValueType::kBigInt));
    schema.AddColumn(Column("FSYNCS", ValueType::kBigInt));
    schema.AddColumn(Column("CHECKPOINTS", ValueType::kBigInt));
    schema.AddColumn(Column("RECOVERY_CHECKPOINT_TABLES", ValueType::kBigInt));
    schema.AddColumn(Column("RECOVERY_CHECKPOINT_ROWS", ValueType::kBigInt));
    schema.AddColumn(Column("RECOVERY_WAL_RECORDS", ValueType::kBigInt));
    schema.AddColumn(Column("RECOVERY_TXNS_COMMITTED", ValueType::kBigInt));
    schema.AddColumn(Column("RECOVERY_TXNS_DISCARDED", ValueType::kBigInt));
    schema.AddColumn(Column("RECOVERY_TORN_TAIL", ValueType::kBoolean));
    schema.AddColumn(Column("STATUS", ValueType::kVarchar));
    catalog_.RegisterVirtualTable(std::make_unique<FuncVirtualTable>(
        "SYS.WAL", std::move(schema),
        [this]() -> StatusOr<std::vector<std::vector<Value>>> {
          std::vector<std::vector<Value>> rows;
          if (durability_ == nullptr) return rows;
          const DurabilityManager& d = *durability_;
          const DurabilityManager::RecoveryStats& rec = d.recovery_stats();
          const WalWriter* wal = d.wal();
          rows.push_back(
              {Value::Varchar(d.options().data_dir),
               Value::Varchar(WalSyncModeToString(d.options().sync)),
               Value::BigInt(wal == nullptr
                                 ? -1
                                 : static_cast<int64_t>(wal->generation())),
               Value::BigInt(
                   wal == nullptr
                       ? 0
                       : static_cast<int64_t>(wal->appended_bytes())),
               Value::BigInt(wal == nullptr
                                 ? 0
                                 : static_cast<int64_t>(wal->durable_bytes())),
               Value::BigInt(
                   wal == nullptr
                       ? 0
                       : static_cast<int64_t>(wal->records_appended())),
               Value::BigInt(
                   wal == nullptr ? 0 : static_cast<int64_t>(wal->fsyncs())),
               Value::BigInt(static_cast<int64_t>(d.checkpoints_taken())),
               Value::BigInt(static_cast<int64_t>(rec.checkpoint_tables)),
               Value::BigInt(static_cast<int64_t>(rec.checkpoint_rows)),
               Value::BigInt(static_cast<int64_t>(rec.wal_records)),
               Value::BigInt(static_cast<int64_t>(rec.txns_committed)),
               Value::BigInt(static_cast<int64_t>(rec.txns_discarded)),
               Value::Boolean(rec.torn_tail),
               Value::Varchar(durability_status().ToString())});
          return rows;
        }));
  }
}

}  // namespace grfusion
