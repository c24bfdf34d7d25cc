#include "graph/graph_view.h"

#include <algorithm>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "common/task_pool.h"

namespace grfusion {

namespace {

/// Counts one online maintenance event; vetoed changes (a graph-side
/// constraint rejected the relational mutation) count separately.
Status NoteMaintenance(Status status) {
  EngineMetrics::Get().graph_view_updates_total->Increment();
  if (!status.ok()) EngineMetrics::Get().graph_view_vetoes_total->Increment();
  return status;
}

thread_local const GraphReadScope* g_graph_read_scope = nullptr;

/// Approximate heap bytes of a published delta (gauge accounting: fold
/// pressure visible in SYS.METRICS). Entry edit vectors are small by
/// construction — the whole point of the edit representation.
size_t DeltaBytes(const GraphDelta& d) {
  size_t bytes = sizeof(GraphDelta);
  bytes += d.vertex_order.capacity() * sizeof(VertexId);
  bytes += d.edge_order.capacity() * sizeof(EdgeId);
  bytes += d.vmap.size() * (sizeof(VertexId) + sizeof(void*) + 16);
  for (const auto& [id, v] : d.vmap) {
    if (v == nullptr) continue;
    bytes += sizeof(VertexEntry) +
             (v->out_edges.capacity() + v->in_edges.capacity() +
              v->out_removed.capacity() + v->in_removed.capacity()) *
                 sizeof(EdgeId);
  }
  bytes += d.emap.size() * (sizeof(EdgeId) + sizeof(void*) + 16);
  for (const auto& [id, e] : d.emap) {
    if (e != nullptr) bytes += sizeof(EdgeEntry);
  }
  return bytes;
}

}  // namespace

// --- GraphReadScope ---------------------------------------------------------

GraphReadScope::GraphReadScope(Epoch epoch, bool include_open)
    : epoch_(epoch),
      include_open_(include_open),
      prev_(g_graph_read_scope) {
  g_graph_read_scope = this;
}

GraphReadScope::~GraphReadScope() { g_graph_read_scope = prev_; }

const GraphReadScope* GraphReadScope::Current() { return g_graph_read_scope; }

Epoch GraphReadScope::CurrentEpoch() {
  const GraphReadScope* s = g_graph_read_scope;
  return s != nullptr ? s->epoch() : kEpochLatest;
}

// --- SourceListener -------------------------------------------------------

// The failpoints sit on the listener (online-maintenance) path, not inside
// the On* handlers, so the initial Create() build is never injected into —
// only DML against an existing view.

Status GraphView::SourceListener::OnInsert(TupleSlot slot, const Tuple& tuple) {
  GRF_FAILPOINT(vertex_source_ ? "graph_view.vertex_insert"
                               : "graph_view.edge_insert");
  return NoteMaintenance(vertex_source_
                             ? owner_->OnVertexInsert(slot, tuple)
                             : owner_->OnEdgeInsert(slot, tuple));
}

Status GraphView::SourceListener::OnDelete(TupleSlot /*slot*/,
                                           const Tuple& tuple) {
  GRF_FAILPOINT(vertex_source_ ? "graph_view.vertex_delete"
                               : "graph_view.edge_delete");
  return NoteMaintenance(vertex_source_ ? owner_->OnVertexDelete(tuple)
                                        : owner_->OnEdgeDelete(tuple));
}

Status GraphView::SourceListener::OnUpdate(TupleSlot slot,
                                           const Tuple& old_tuple,
                                           const Tuple& new_tuple) {
  GRF_FAILPOINT(vertex_source_ ? "graph_view.vertex_update"
                               : "graph_view.edge_update");
  return NoteMaintenance(
      vertex_source_ ? owner_->OnVertexUpdate(slot, old_tuple, new_tuple)
                     : owner_->OnEdgeUpdate(slot, old_tuple, new_tuple));
}

void GraphView::SourceListener::UndoInsert(TupleSlot /*slot*/,
                                           const Tuple& tuple) {
  EngineMetrics::Get().graph_view_undo_total->Increment();
  if (vertex_source_) {
    owner_->UndoVertexInsert(tuple);
  } else {
    owner_->UndoEdgeInsert(tuple);
  }
}

void GraphView::SourceListener::UndoDelete(TupleSlot slot, const Tuple& tuple) {
  EngineMetrics::Get().graph_view_undo_total->Increment();
  if (vertex_source_) {
    owner_->UndoVertexDelete(slot, tuple);
  } else {
    owner_->UndoEdgeDelete(slot, tuple);
  }
}

void GraphView::SourceListener::UndoUpdate(TupleSlot slot,
                                           const Tuple& old_tuple,
                                           const Tuple& new_tuple) {
  EngineMetrics::Get().graph_view_undo_total->Increment();
  if (vertex_source_) {
    owner_->UndoVertexUpdate(slot, old_tuple, new_tuple);
  } else {
    owner_->UndoEdgeUpdate(slot, old_tuple, new_tuple);
  }
}

// --- Creation ---------------------------------------------------------------

StatusOr<std::unique_ptr<GraphView>> GraphView::Create(
    GraphViewDef def, Table* vertex_table, Table* edge_table,
    const GraphBuildOptions& build) {
  if (vertex_table == nullptr || edge_table == nullptr) {
    return Status::InvalidArgument("graph view requires both sources");
  }
  if (vertex_table == edge_table) {
    return Status::InvalidArgument(
        "vertex and edge relational sources must be distinct tables");
  }
  std::unique_ptr<GraphView> gv(
      new GraphView(std::move(def), vertex_table, edge_table));
  GRF_RETURN_IF_ERROR(gv->ResolveColumns());
  const size_t edge_columns = edge_table->schema().NumColumns();
  gv->edge_columns_.resize(edge_columns);
  gv->edge_column_heads_ =
      std::make_unique<std::atomic<const EdgeAttrColumn*>[]>(edge_columns);

  const bool parallel =
      build.pool != nullptr && build.max_parallelism > 1 &&
      vertex_table->NumRows() + edge_table->NumRows() >= build.min_rows;
  if (parallel) {
    GRF_RETURN_IF_ERROR(gv->ParallelBuild(build));
  } else {
    // Single pass over the vertexes relational-source.
    Status status = Status::OK();
    vertex_table->ForEach([&](TupleSlot slot, const Tuple& tuple) {
      status = gv->OnVertexInsert(slot, tuple);
      return status.ok();
    });
    GRF_RETURN_IF_ERROR(status);

    // Single pass over the edges relational-source.
    edge_table->ForEach([&](TupleSlot slot, const Tuple& tuple) {
      status = gv->OnEdgeInsert(slot, tuple);
      return status.ok();
    });
    GRF_RETURN_IF_ERROR(status);
  }

  // The initial build above mutates the base directly; managed mode (delta
  // overlays) only governs online maintenance from here on.
  gv->managed_ = build.managed;
  gv->RebuildCsr();

  // From now on, source mutations flow into the topology transactionally.
  gv->vertex_listener_ = std::make_unique<SourceListener>(gv.get(), true);
  gv->edge_listener_ = std::make_unique<SourceListener>(gv.get(), false);
  vertex_table->AddListener(gv->vertex_listener_.get());
  edge_table->AddListener(gv->edge_listener_.get());
  return gv;
}

Status GraphView::ParallelBuild(const GraphBuildOptions& build) {
  const size_t k = build.max_parallelism;
  auto morsel_size_for = [k](size_t n) {
    return std::max<size_t>(
        1, std::min<size_t>(2048, (n + 4 * k - 1) / (4 * k)));
  };

  // --- Vertex phase: parallel id extraction, sequential slot-order merge.
  std::vector<TupleSlot> vslots;
  vslots.reserve(vertex_table_->NumRows());
  vertex_table_->ForEach([&](TupleSlot slot, const Tuple&) {
    vslots.push_back(slot);
    return true;
  });
  struct VertexRec {
    VertexId id = kInvalidVertexId;
    TupleSlot slot = kInvalidTupleSlot;
  };
  {
    const size_t n = vslots.size();
    const size_t morsel = morsel_size_for(n);
    const size_t num_morsels = n == 0 ? 0 : (n + morsel - 1) / morsel;
    std::vector<VertexRec> recs(n);
    std::vector<Status> statuses(num_morsels, Status::OK());
    GRF_RETURN_IF_ERROR(
        ParallelFor(build.pool, n, morsel, [&](size_t begin, size_t end) {
      const size_t m = begin / morsel;
      for (size_t i = begin; i < end; ++i) {
        const Tuple* tuple = vertex_table_->Get(vslots[i]);
        if (tuple == nullptr) continue;  // Deleted between snapshot and now.
        StatusOr<int64_t> id = IdFromTuple(*tuple, vertex_id_col_, "vertex");
        if (!id.ok()) {
          statuses[m] = id.status();
          return;
        }
        recs[i] = {*id, vslots[i]};
      }
    }));
    for (const Status& s : statuses) GRF_RETURN_IF_ERROR(s);
    for (const VertexRec& rec : recs) {
      if (rec.slot == kInvalidTupleSlot) continue;
      GRF_RETURN_IF_ERROR(AddVertex(rec.id, rec.slot));
    }
  }

  // --- Edge phase. The vertex set is now immutable, so workers resolve
  // endpoints against vertex_index_ concurrently (read-only hash lookups —
  // the expensive part of edge insertion). Each morsel's (vertex, edge-id)
  // adjacency contributions stay in slot order; the sequential merge appends
  // them in that order, so every adjacency list is byte-identical to the
  // one the serial single-pass build produces.
  std::vector<TupleSlot> eslots;
  eslots.reserve(edge_table_->NumRows());
  edge_table_->ForEach([&](TupleSlot slot, const Tuple&) {
    eslots.push_back(slot);
    return true;
  });
  struct EdgeRec {
    EdgeId id = kInvalidEdgeId;
    TupleSlot slot = kInvalidTupleSlot;
    size_t from_pos = 0;
    size_t to_pos = 0;
  };
  const size_t n = eslots.size();
  const size_t morsel = morsel_size_for(n);
  const size_t num_morsels = n == 0 ? 0 : (n + morsel - 1) / morsel;
  std::vector<EdgeRec> recs(n);
  std::vector<Status> statuses(num_morsels, Status::OK());
  GRF_RETURN_IF_ERROR(
      ParallelFor(build.pool, n, morsel, [&](size_t begin, size_t end) {
    const size_t m = begin / morsel;
    for (size_t i = begin; i < end; ++i) {
      const Tuple* tuple = edge_table_->Get(eslots[i]);
      if (tuple == nullptr) continue;
      StatusOr<int64_t> id = IdFromTuple(*tuple, edge_id_col_, "edge");
      StatusOr<int64_t> from =
          id.ok() ? IdFromTuple(*tuple, edge_from_col_, "edge-from") : id;
      StatusOr<int64_t> to =
          from.ok() ? IdFromTuple(*tuple, edge_to_col_, "edge-to") : from;
      if (!to.ok()) {
        statuses[m] = to.status();
        return;
      }
      auto from_it = vertex_index_.find(*from);
      if (from_it == vertex_index_.end() ||
          !vertexes_[from_it->second].live) {
        statuses[m] = Status::ConstraintViolation(
            StrFormat("edge %lld references missing start vertex %lld",
                      static_cast<long long>(*id),
                      static_cast<long long>(*from)));
        return;
      }
      auto to_it = vertex_index_.find(*to);
      if (to_it == vertex_index_.end() || !vertexes_[to_it->second].live) {
        statuses[m] = Status::ConstraintViolation(
            StrFormat("edge %lld references missing end vertex %lld",
                      static_cast<long long>(*id),
                      static_cast<long long>(*to)));
        return;
      }
      recs[i] = {*id, eslots[i], from_it->second, to_it->second};
    }
  }));
  for (const Status& s : statuses) GRF_RETURN_IF_ERROR(s);

  // Sequential merge in slot order: entry creation, id-index insertion, and
  // adjacency appends (duplicate ids surface here, as in the serial build).
  for (const EdgeRec& rec : recs) {
    if (rec.slot == kInvalidTupleSlot) continue;
    auto it = edge_index_.find(rec.id);
    if (it != edge_index_.end() && edges_[it->second].live) {
      return Status::ConstraintViolation(
          StrFormat("duplicate edge id %lld in graph view '%s'",
                    static_cast<long long>(rec.id), def_.name.c_str()));
    }
    const size_t pos = edges_.size();
    edges_.emplace_back();
    EdgeEntry& e = edges_[pos];
    e.id = rec.id;
    e.from = vertexes_[rec.from_pos].id;
    e.to = vertexes_[rec.to_pos].id;
    e.tuple = rec.slot;
    e.live = true;
    edge_index_[rec.id] = pos;
    vertexes_[rec.from_pos].out_edges.push_back(rec.id);
    vertexes_[rec.to_pos].in_edges.push_back(rec.id);
    ++num_live_edges_;
  }
  MetricsRegistry::Global()
      .GetCounter("graph_view_parallel_builds_total")
      ->Increment();
  return Status::OK();
}

GraphView::~GraphView() {
  if (vertex_listener_ != nullptr) {
    vertex_table_->RemoveListener(vertex_listener_.get());
  }
  if (edge_listener_ != nullptr) {
    edge_table_->RemoveListener(edge_listener_.get());
  }
  if (published_delta_bytes_ > 0) {
    EngineMetrics::Get().graph_view_delta_bytes->Add(
        -static_cast<int64_t>(published_delta_bytes_));
  }
  DropEdgeColumns();
}

// --- CSR snapshot -----------------------------------------------------------

void GraphView::RebuildCsr() {
  // Resolve every live vertex's effective adjacency (old slice minus
  // removals, then appends) into fresh contiguous arrays, keyed by edge id;
  // the old snapshot, if any, stays readable throughout. Callers guarantee
  // quiescence: initial build, or FoldDeltas under the exclusive lock.
  // Columns are aligned with the old snapshot's slots.
  DropEdgeColumns();
  auto fresh = std::make_unique<CsrTopology>();
  CsrTopology& c = *fresh;
  const CsrTopology* old = csr_.get();
  c.vertex_ids.reserve(num_live_vertexes_);
  c.vertex_tuple.reserve(num_live_vertexes_);
  c.vertex_pos.reserve(num_live_vertexes_);
  c.out_offsets.reserve(num_live_vertexes_ + 1);
  c.in_offsets.reserve(num_live_vertexes_ + 1);
  const size_t traversable =
      num_live_edges_;
  c.out_edge_ids.reserve(traversable);
  c.in_edge_ids.reserve(traversable);

  auto append_side = [&](const VertexEntry& v, bool out_side,
                         std::vector<EdgeId>* ids) {
    if (old != nullptr && v.csr_pos != kNoCsrPos) {
      const size_t begin =
          out_side ? old->OutBegin(v.csr_pos) : old->InBegin(v.csr_pos);
      const size_t end =
          out_side ? old->OutEnd(v.csr_pos) : old->InEnd(v.csr_pos);
      const std::vector<EdgeId>& slice =
          out_side ? old->out_edge_ids : old->in_edge_ids;
      const std::vector<EdgeId>& removed =
          out_side ? v.out_removed : v.in_removed;
      for (size_t i = begin; i < end; ++i) {
        if (!removed.empty() &&
            std::find(removed.begin(), removed.end(), slice[i]) !=
                removed.end()) {
          continue;
        }
        ids->push_back(slice[i]);
      }
    }
    const std::vector<EdgeId>& adds = out_side ? v.out_edges : v.in_edges;
    ids->insert(ids->end(), adds.begin(), adds.end());
  };

  c.out_offsets.push_back(0);
  c.in_offsets.push_back(0);
  for (size_t pos = 0; pos < vertexes_.size(); ++pos) {
    const VertexEntry& v = vertexes_[pos];
    if (!v.live) continue;
    c.vertex_ids.push_back(v.id);
    c.vertex_tuple.push_back(v.tuple);
    c.vertex_pos.push_back(pos);
    append_side(v, true, &c.out_edge_ids);
    append_side(v, false, &c.in_edge_ids);
    c.out_offsets.push_back(c.out_edge_ids.size());
    c.in_offsets.push_back(c.in_edge_ids.size());
  }

  // Second pass: edge id -> deque position + far endpoint, via the (now
  // final) edge index.
  auto resolve_edges = [&](const std::vector<EdgeId>& ids, bool out_side,
                           std::vector<size_t>* pos_out,
                           std::vector<VertexId>* nbr_out) {
    pos_out->reserve(ids.size());
    nbr_out->reserve(ids.size());
    for (EdgeId eid : ids) {
      auto it = edge_index_.find(eid);
      GRF_CHECK(it != edge_index_.end() && edges_[it->second].live);
      pos_out->push_back(it->second);
      const EdgeEntry& e = edges_[it->second];
      nbr_out->push_back(out_side ? e.to : e.from);
    }
  };
  resolve_edges(c.out_edge_ids, true, &c.out_edge_pos, &c.out_nbr);
  resolve_edges(c.in_edge_ids, false, &c.in_edge_pos, &c.in_nbr);
  if (directed()) {
    // Each edge sits once in each side: map its deque position to its
    // out-side slot, then read that map through in_edge_pos.
    std::vector<size_t> out_slot_of(edges_.size(), 0);
    for (size_t k = 0; k < c.out_edge_pos.size(); ++k) {
      out_slot_of[c.out_edge_pos[k]] = k;
    }
    c.in_out_slot.reserve(c.in_edge_pos.size());
    for (size_t pos : c.in_edge_pos) c.in_out_slot.push_back(out_slot_of[pos]);
  }
  c.BuildIndex();

  csr_ = std::move(fresh);
  csr_dirty_ = false;
  // The snapshot now IS the base adjacency: drop the edit vectors and point
  // every live vertex at its slice.
  for (size_t ci = 0; ci < csr_->vertex_pos.size(); ++ci) {
    VertexEntry& v = vertexes_[csr_->vertex_pos[ci]];
    v.csr_pos = ci;
    v.out_edges.clear();
    v.out_edges.shrink_to_fit();
    v.in_edges.clear();
    v.in_edges.shrink_to_fit();
    v.out_removed.clear();
    v.out_removed.shrink_to_fit();
    v.in_removed.clear();
    v.in_removed.shrink_to_fit();
  }
}

void GraphView::DetachEdge(VertexEntry* v, EdgeId id, bool out_side) {
  std::vector<EdgeId>& adds = out_side ? v->out_edges : v->in_edges;
  auto it = std::find(adds.begin(), adds.end(), id);
  if (it != adds.end()) {
    adds.erase(it);
    return;
  }
  (out_side ? v->out_removed : v->in_removed).push_back(id);
}

Status GraphView::ResolveColumns() {
  auto resolve = [](const Table* table, const std::string& column,
                    const char* what, size_t* out) -> Status {
    GRF_ASSIGN_OR_RETURN(*out, table->schema().ColumnIndex(column));
    (void)what;
    return Status::OK();
  };
  GRF_RETURN_IF_ERROR(resolve(vertex_table_, def_.vertex_id_column,
                              "vertex id", &vertex_id_col_));
  GRF_RETURN_IF_ERROR(
      resolve(edge_table_, def_.edge_id_column, "edge id", &edge_id_col_));
  GRF_RETURN_IF_ERROR(resolve(edge_table_, def_.edge_from_column, "edge from",
                              &edge_from_col_));
  GRF_RETURN_IF_ERROR(
      resolve(edge_table_, def_.edge_to_column, "edge to", &edge_to_col_));

  for (const AttributeMapping& m : def_.vertex_attributes) {
    if (vertex_table_->schema().FindColumn(m.source_column) < 0) {
      return Status::NotFound("vertex attribute source column '" +
                              m.source_column + "' not found");
    }
  }
  for (const AttributeMapping& m : def_.edge_attributes) {
    if (edge_table_->schema().FindColumn(m.source_column) < 0) {
      return Status::NotFound("edge attribute source column '" +
                              m.source_column + "' not found");
    }
  }
  return Status::OK();
}

// --- Delta overlay resolution ----------------------------------------------

const GraphDelta* GraphView::VisibleDelta() const {
  if (!managed_) return nullptr;
  const GraphReadScope* scope = GraphReadScope::Current();
  if (scope == nullptr) {
    // Scope-less callers — the writer's own DML (listener path) and quiesced
    // direct reads (tests, rebuild verification) — see the newest state
    // including the open overlay.
    if (open_ != nullptr) return open_.get();
    return delta_head_.load(std::memory_order_acquire);
  }
  if (scope->include_open() && open_ != nullptr) return open_.get();
  // Cumulative deltas: the newest one published at or before the snapshot
  // epoch carries the complete overlay for that snapshot.
  for (const GraphDelta* d = delta_head_.load(std::memory_order_acquire);
       d != nullptr; d = d->prev) {
    if (d->epoch <= scope->epoch()) return d;
  }
  return nullptr;
}

GraphDelta* GraphView::EnsureOpen() {
  if (open_ != nullptr) return open_.get();
  open_ = std::make_unique<GraphDelta>();
  const GraphDelta* head = delta_head_.load(std::memory_order_relaxed);
  if (head != nullptr) {
    // Deep-copy the newest published delta: keeping every delta cumulative
    // means a reader resolves exactly one chain node.
    open_->vertex_order = head->vertex_order;
    open_->edge_order = head->edge_order;
    open_->vmap.reserve(head->vmap.size());
    for (const auto& [id, entry] : head->vmap) {
      open_->vmap.emplace(
          id, entry ? std::make_unique<VertexEntry>(*entry) : nullptr);
    }
    open_->emap.reserve(head->emap.size());
    for (const auto& [id, entry] : head->emap) {
      open_->emap.emplace(
          id, entry ? std::make_unique<EdgeEntry>(*entry) : nullptr);
    }
    open_->num_vertexes = head->num_vertexes;
    open_->num_edges = head->num_edges;
    open_->ops = head->ops;
  } else {
    open_->num_vertexes = num_live_vertexes_;
    open_->num_edges = num_live_edges_;
  }
  return open_.get();
}

const VertexEntry* GraphView::OpenFindVertex(const GraphDelta* d,
                                             VertexId id) const {
  auto it = d->vmap.find(id);
  if (it != d->vmap.end()) return it->second.get();
  return BaseFindVertex(id);
}

const EdgeEntry* GraphView::OpenFindEdge(const GraphDelta* d,
                                         EdgeId id) const {
  auto it = d->emap.find(id);
  if (it != d->emap.end()) return it->second.get();
  return BaseFindEdge(id);
}

void GraphView::SetOverlayVertex(GraphDelta* d, VertexId id,
                                 std::unique_ptr<VertexEntry> entry) {
  auto [it, inserted] = d->vmap.try_emplace(id);
  if (inserted) d->vertex_order.push_back(id);
  it->second = std::move(entry);
}

void GraphView::SetOverlayEdge(GraphDelta* d, EdgeId id,
                               std::unique_ptr<EdgeEntry> entry) {
  auto [it, inserted] = d->emap.try_emplace(id);
  if (inserted) d->edge_order.push_back(id);
  it->second = std::move(entry);
}

VertexEntry* GraphView::MutableOpenVertex(VertexId id) {
  GraphDelta* d = EnsureOpen();
  auto it = d->vmap.find(id);
  if (it != d->vmap.end()) return it->second.get();
  const VertexEntry* base = BaseFindVertex(id);
  if (base == nullptr) return nullptr;
  auto copy = std::make_unique<VertexEntry>(*base);
  VertexEntry* out = copy.get();
  SetOverlayVertex(d, id, std::move(copy));
  return out;
}

// --- Transaction lifecycle --------------------------------------------------

void GraphView::PublishOpenDelta(Epoch epoch) {
  if (open_ == nullptr) return;
  open_->epoch = epoch;
  open_->prev = delta_head_.load(std::memory_order_relaxed);
  const size_t bytes = DeltaBytes(*open_);
  published_delta_bytes_ += bytes;
  EngineMetrics::Get().graph_view_delta_bytes->Add(
      static_cast<int64_t>(bytes));
  const GraphDelta* published = open_.get();
  delta_chain_.push_back(std::move(open_));
  delta_head_.store(published, std::memory_order_release);
}

Status GraphView::FoldDeltas() {
  GRF_CHECK(open_ == nullptr);
  // Maintenance boundary: no writer is open and no reader is in flight, so
  // every attribute write is committed (or undone) and the next reader can
  // rebuild a column from its own snapshot.
  if (EdgeColumnsStale()) DropEdgeColumns();
  const GraphDelta* d = delta_head_.load(std::memory_order_relaxed);
  if (d == nullptr) return Status::OK();
  // An injected failure defers the fold: the published chain stays intact
  // and readers keep resolving it, so this is never fatal to a commit.
  GRF_FAILPOINT("graph_view.fold");
  // The base changes under the snapshot from here until RebuildCsr.
  csr_dirty_ = true;

  // Phase 1: edges. Shadowed base entries are killed without adjacency
  // detach — any vertex whose adjacency changed is itself in the overlay
  // and is replaced wholesale in phase 2.
  for (EdgeId id : d->edge_order) {
    auto oit = d->emap.find(id);
    GRF_DCHECK(oit != d->emap.end());
    auto bit = edge_index_.find(id);
    if (bit != edge_index_.end()) {
      EdgeEntry& e = edges_[bit->second];
      if (e.live) {
        e.live = false;
        edge_free_list_.push_back(bit->second);
      }
      edge_index_.erase(bit);
    }
    if (oit->second == nullptr) continue;  // Tombstone: absent after fold.
    size_t pos;
    if (!edge_free_list_.empty()) {
      pos = edge_free_list_.back();
      edge_free_list_.pop_back();
    } else {
      pos = edges_.size();
      edges_.emplace_back();
    }
    edges_[pos] = *oit->second;
    edge_index_[id] = pos;
  }

  // Phase 2: vertices. Overlay entries carry csr_pos + edit vectors relative
  // to the current snapshot, which stays valid until the rebuild below.
  for (VertexId id : d->vertex_order) {
    auto oit = d->vmap.find(id);
    GRF_DCHECK(oit != d->vmap.end());
    auto bit = vertex_index_.find(id);
    if (bit != vertex_index_.end()) {
      VertexEntry& v = vertexes_[bit->second];
      if (v.live) {
        v.live = false;
        vertex_free_list_.push_back(bit->second);
      }
      vertex_index_.erase(bit);
    }
    if (oit->second == nullptr) continue;
    size_t pos;
    if (!vertex_free_list_.empty()) {
      pos = vertex_free_list_.back();
      vertex_free_list_.pop_back();
    } else {
      pos = vertexes_.size();
      vertexes_.emplace_back();
    }
    vertexes_[pos] = *oit->second;
    vertex_index_[id] = pos;
  }

  num_live_vertexes_ = d->num_vertexes;
  num_live_edges_ = d->num_edges;
  delta_head_.store(nullptr, std::memory_order_release);
  delta_chain_.clear();
  if (published_delta_bytes_ > 0) {
    EngineMetrics::Get().graph_view_delta_bytes->Add(
        -static_cast<int64_t>(published_delta_bytes_));
    published_delta_bytes_ = 0;
  }
  // Re-materialize the CSR snapshot over the folded base (and absorb the
  // folded entries' edit vectors back into contiguous arrays).
  RebuildCsr();
  ++folds_;
  return Status::OK();
}

// --- Lookup -----------------------------------------------------------------

const VertexEntry* GraphView::BaseFindVertex(VertexId id) const {
  if (csr_ != nullptr && !csr_dirty_) {
    // A clean snapshot lists exactly the live base vertexes, and its id map
    // is a direct-mapped array for compact id ranges: no hash probe.
    const size_t i = csr_->IndexOf(id);
    if (i == CsrTopology::kAbsent) return nullptr;
    return &vertexes_[csr_->vertex_pos[i]];
  }
  auto it = vertex_index_.find(id);
  if (it == vertex_index_.end()) return nullptr;
  const VertexEntry& v = vertexes_[it->second];
  return v.live ? &v : nullptr;
}

const EdgeEntry* GraphView::BaseFindEdge(EdgeId id) const {
  auto it = edge_index_.find(id);
  if (it == edge_index_.end()) return nullptr;
  const EdgeEntry& e = edges_[it->second];
  return e.live ? &e : nullptr;
}

const VertexEntry* GraphView::FindVertex(VertexId id) const {
  const GraphDelta* d = VisibleDelta();
  if (d != nullptr) {
    auto it = d->vmap.find(id);
    // A hit shadows the base entirely; a null value is a tombstone.
    if (it != d->vmap.end()) return it->second.get();
  }
  return BaseFindVertex(id);
}

const EdgeEntry* GraphView::FindEdge(EdgeId id) const {
  const GraphDelta* d = VisibleDelta();
  if (d != nullptr) {
    auto it = d->emap.find(id);
    if (it != d->emap.end()) return it->second.get();
  }
  return BaseFindEdge(id);
}

size_t GraphView::FanOut(const VertexEntry& v) const {
  return directed() ? OutDegree(v) : OutDegree(v) + InDegree(v);
}

size_t GraphView::FanIn(const VertexEntry& v) const {
  return directed() ? InDegree(v) : OutDegree(v) + InDegree(v);
}

double GraphView::AverageFanOut() const {
  const size_t num_vertexes = NumVertexes();
  if (num_vertexes == 0) return 0.0;
  // Every directed edge contributes one out-slot; undirected edges are
  // traversable from both endpoints.
  double traversable = static_cast<double>(NumEdges()) *
                       (directed() ? 1.0 : 2.0);
  return traversable / static_cast<double>(num_vertexes);
}

size_t GraphView::TopologyBytes() const {
  size_t bytes = sizeof(GraphView);
  bytes += vertexes_.size() * sizeof(VertexEntry);
  bytes += edges_.size() * sizeof(EdgeEntry);
  for (const VertexEntry& v : vertexes_) {
    bytes += (v.out_edges.capacity() + v.in_edges.capacity() +
              v.out_removed.capacity() + v.in_removed.capacity()) *
             sizeof(EdgeId);
  }
  bytes += vertex_index_.size() * (sizeof(VertexId) + sizeof(size_t) + 16);
  bytes += edge_index_.size() * (sizeof(EdgeId) + sizeof(size_t) + 16);
  bytes += CsrBytes();
  return bytes;
}

// --- Edge-attribute columns -------------------------------------------------

const EdgeAttrColumn* GraphView::EdgeColumn(int column) const {
  if (column < 0 || static_cast<size_t>(column) >= edge_columns_.size() ||
      EdgeColumnsStale()) {
    return nullptr;
  }
  const EdgeAttrColumn* built =
      edge_column_heads_[column].load(std::memory_order_acquire);
  return built != nullptr ? built
                          : BuildEdgeColumn(static_cast<size_t>(column));
}

const EdgeAttrColumn* GraphView::BuildEdgeColumn(size_t column) const {
  std::lock_guard<std::mutex> lock(edge_columns_mu_);
  const EdgeAttrColumn* built =
      edge_column_heads_[column].load(std::memory_order_relaxed);
  if (built != nullptr || csr_ == nullptr) return built;
  const ValueType type = edge_table_->schema().column(column).type;
  if (type != ValueType::kBigInt && type != ValueType::kDouble) return nullptr;

  // Read every slot's tuple at the caller's snapshot. The caller saw no
  // attribute write since the boundary, so those values are the boundary's.
  // An edge the visible overlay shadows was removed or re-linked since (its
  // tuple may hold a newer version); its slot stays undescribed, as does any
  // slot whose base entry no longer carries the snapshot's edge (standalone
  // views recycle entries).
  const CsrTopology& c = *csr_;
  const size_t edges = c.NumEdges();
  const GraphDelta* d = VisibleDelta();
  const Epoch epoch = GraphReadScope::CurrentEpoch();
  auto col = std::make_unique<EdgeAttrColumn>(
      type, directed() ? edges : 2 * edges);
  auto fill = [&](const std::vector<size_t>& pos,
                  const std::vector<EdgeId>& ids, size_t base) {
    for (size_t i = 0; i < pos.size(); ++i) {
      const EdgeEntry& e = edges_[pos[i]];
      const Tuple* tuple = nullptr;
      if (e.live && e.id == ids[i] &&
          (d == nullptr || d->emap.count(e.id) == 0)) {
        tuple = edge_table_->Get(e.tuple, epoch);
      }
      col->Set(base + i, tuple != nullptr ? &tuple->value(column) : nullptr);
    }
  };
  fill(c.out_edge_pos, c.out_edge_ids, 0);
  if (!directed()) fill(c.in_edge_pos, c.in_edge_ids, edges);

  const size_t bytes = col->Bytes();
  attr_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  EngineMetrics::Get().graph_view_attr_bytes->Add(static_cast<int64_t>(bytes));
  built = col.get();
  edge_columns_[column] = std::move(col);
  edge_column_heads_[column].store(built, std::memory_order_release);
  return built;
}

void GraphView::DropEdgeColumns() {
  std::lock_guard<std::mutex> lock(edge_columns_mu_);
  for (size_t i = 0; i < edge_columns_.size(); ++i) {
    edge_column_heads_[i].store(nullptr, std::memory_order_relaxed);
    edge_columns_[i].reset();
  }
  const size_t bytes = attr_bytes_.exchange(0, std::memory_order_relaxed);
  if (bytes > 0) {
    EngineMetrics::Get().graph_view_attr_bytes->Add(
        -static_cast<int64_t>(bytes));
  }
  edge_columns_stale_.store(false, std::memory_order_relaxed);
}

int GraphView::ResolveVertexAttribute(std::string_view exposed_name) const {
  if (EqualsIgnoreCase(exposed_name, "ID")) {
    return static_cast<int>(vertex_id_col_);
  }
  for (const AttributeMapping& m : def_.vertex_attributes) {
    if (EqualsIgnoreCase(m.exposed_name, exposed_name)) {
      return vertex_table_->schema().FindColumn(m.source_column);
    }
  }
  return -1;
}

int GraphView::ResolveEdgeAttribute(std::string_view exposed_name) const {
  if (EqualsIgnoreCase(exposed_name, "ID")) {
    return static_cast<int>(edge_id_col_);
  }
  if (EqualsIgnoreCase(exposed_name, "FROM")) {
    return static_cast<int>(edge_from_col_);
  }
  if (EqualsIgnoreCase(exposed_name, "TO")) {
    return static_cast<int>(edge_to_col_);
  }
  for (const AttributeMapping& m : def_.edge_attributes) {
    if (EqualsIgnoreCase(m.exposed_name, exposed_name)) {
      return edge_table_->schema().FindColumn(m.source_column);
    }
  }
  return -1;
}

Schema GraphView::ExposedVertexSchema() const {
  Schema schema;
  schema.AddColumn(Column("ID", ValueType::kBigInt));
  for (const AttributeMapping& m : def_.vertex_attributes) {
    int col = vertex_table_->schema().FindColumn(m.source_column);
    GRF_CHECK(col >= 0);
    schema.AddColumn(Column(m.exposed_name,
                            vertex_table_->schema().column(col).type));
  }
  schema.AddColumn(Column("FANOUT", ValueType::kBigInt));
  schema.AddColumn(Column("FANIN", ValueType::kBigInt));
  return schema;
}

Schema GraphView::ExposedEdgeSchema() const {
  Schema schema;
  schema.AddColumn(Column("ID", ValueType::kBigInt));
  schema.AddColumn(Column("FROM", ValueType::kBigInt));
  schema.AddColumn(Column("TO", ValueType::kBigInt));
  for (const AttributeMapping& m : def_.edge_attributes) {
    int col = edge_table_->schema().FindColumn(m.source_column);
    GRF_CHECK(col >= 0);
    schema.AddColumn(
        Column(m.exposed_name, edge_table_->schema().column(col).type));
  }
  return schema;
}

// --- Topology mutation ------------------------------------------------------

StatusOr<int64_t> GraphView::IdFromTuple(const Tuple& tuple, size_t column,
                                         const char* what) {
  const Value& v = tuple.value(column);
  if (v.is_null()) {
    return Status::ConstraintViolation(std::string(what) +
                                       " identifier must not be NULL");
  }
  if (v.type() == ValueType::kBigInt) return v.AsBigInt();
  GRF_ASSIGN_OR_RETURN(Value cast, v.CastTo(ValueType::kBigInt));
  return cast.AsBigInt();
}

Status GraphView::AddVertex(VertexId id, TupleSlot slot) {
  auto it = vertex_index_.find(id);
  if (it != vertex_index_.end() && vertexes_[it->second].live) {
    return Status::ConstraintViolation(
        StrFormat("duplicate vertex id %lld in graph view '%s'",
                  static_cast<long long>(id), def_.name.c_str()));
  }
  size_t pos;
  if (!vertex_free_list_.empty()) {
    pos = vertex_free_list_.back();
    vertex_free_list_.pop_back();
  } else {
    pos = vertexes_.size();
    vertexes_.emplace_back();
  }
  VertexEntry& v = vertexes_[pos];
  v.id = id;
  v.tuple = slot;
  v.out_edges.clear();
  v.in_edges.clear();
  v.out_removed.clear();
  v.in_removed.clear();
  v.csr_pos = kNoCsrPos;
  v.live = true;
  vertex_index_[id] = pos;
  ++num_live_vertexes_;
  csr_dirty_ = true;
  return Status::OK();
}

Status GraphView::AddEdge(EdgeId id, VertexId from, VertexId to,
                          TupleSlot slot) {
  auto it = edge_index_.find(id);
  if (it != edge_index_.end() && edges_[it->second].live) {
    return Status::ConstraintViolation(
        StrFormat("duplicate edge id %lld in graph view '%s'",
                  static_cast<long long>(id), def_.name.c_str()));
  }
  auto from_it = vertex_index_.find(from);
  if (from_it == vertex_index_.end() || !vertexes_[from_it->second].live) {
    return Status::ConstraintViolation(
        StrFormat("edge %lld references missing start vertex %lld",
                  static_cast<long long>(id), static_cast<long long>(from)));
  }
  auto to_it = vertex_index_.find(to);
  if (to_it == vertex_index_.end() || !vertexes_[to_it->second].live) {
    return Status::ConstraintViolation(
        StrFormat("edge %lld references missing end vertex %lld",
                  static_cast<long long>(id), static_cast<long long>(to)));
  }
  size_t pos;
  if (!edge_free_list_.empty()) {
    pos = edge_free_list_.back();
    edge_free_list_.pop_back();
  } else {
    pos = edges_.size();
    edges_.emplace_back();
  }
  EdgeEntry& e = edges_[pos];
  e.id = id;
  e.from = from;
  e.to = to;
  e.tuple = slot;
  e.live = true;
  edge_index_[id] = pos;
  vertexes_[from_it->second].out_edges.push_back(id);
  vertexes_[to_it->second].in_edges.push_back(id);
  ++num_live_edges_;
  csr_dirty_ = true;
  return Status::OK();
}

Status GraphView::RemoveEdge(EdgeId id) {
  auto it = edge_index_.find(id);
  if (it == edge_index_.end() || !edges_[it->second].live) {
    return Status::NotFound(StrFormat("edge %lld not in graph view '%s'",
                                      static_cast<long long>(id),
                                      def_.name.c_str()));
  }
  EdgeEntry& e = edges_[it->second];
  auto from_it = vertex_index_.find(e.from);
  if (from_it != vertex_index_.end()) {
    DetachEdge(&vertexes_[from_it->second], id, /*out_side=*/true);
  }
  auto to_it = vertex_index_.find(e.to);
  if (to_it != vertex_index_.end()) {
    DetachEdge(&vertexes_[to_it->second], id, /*out_side=*/false);
  }
  e.live = false;
  edge_free_list_.push_back(it->second);
  edge_index_.erase(it);
  --num_live_edges_;
  csr_dirty_ = true;
  return Status::OK();
}

Status GraphView::RemoveVertex(VertexId id) {
  auto it = vertex_index_.find(id);
  if (it == vertex_index_.end() || !vertexes_[it->second].live) {
    return Status::NotFound(StrFormat("vertex %lld not in graph view '%s'",
                                      static_cast<long long>(id),
                                      def_.name.c_str()));
  }
  VertexEntry& v = vertexes_[it->second];
  const size_t incident = OutDegree(v) + InDegree(v);
  if (incident != 0) {
    return Status::ConstraintViolation(StrFormat(
        "cannot remove vertex %lld: %zu incident edge(s) still reference it",
        static_cast<long long>(id), incident));
  }
  v.live = false;
  vertex_free_list_.push_back(it->second);
  vertex_index_.erase(it);
  --num_live_vertexes_;
  csr_dirty_ = true;
  return Status::OK();
}

// --- Delta-overlay mutation (managed views) ---------------------------------
//
// Overlay counterparts of the base primitives: same veto semantics and
// byte-identical error messages, but every change lands in the writer's open
// GraphDelta so concurrent snapshot readers keep traversing the published
// state untouched.

Status GraphView::DeltaAddVertex(VertexId id, TupleSlot slot) {
  GraphDelta* d = EnsureOpen();
  if (OpenFindVertex(d, id) != nullptr) {
    return Status::ConstraintViolation(
        StrFormat("duplicate vertex id %lld in graph view '%s'",
                  static_cast<long long>(id), def_.name.c_str()));
  }
  auto v = std::make_unique<VertexEntry>();
  v->id = id;
  v->tuple = slot;
  v->live = true;
  SetOverlayVertex(d, id, std::move(v));
  ++d->num_vertexes;
  ++d->ops;
  return Status::OK();
}

Status GraphView::DeltaAddEdge(EdgeId id, VertexId from, VertexId to,
                               TupleSlot slot) {
  GraphDelta* d = EnsureOpen();
  if (OpenFindEdge(d, id) != nullptr) {
    return Status::ConstraintViolation(
        StrFormat("duplicate edge id %lld in graph view '%s'",
                  static_cast<long long>(id), def_.name.c_str()));
  }
  if (OpenFindVertex(d, from) == nullptr) {
    return Status::ConstraintViolation(
        StrFormat("edge %lld references missing start vertex %lld",
                  static_cast<long long>(id), static_cast<long long>(from)));
  }
  if (OpenFindVertex(d, to) == nullptr) {
    return Status::ConstraintViolation(
        StrFormat("edge %lld references missing end vertex %lld",
                  static_cast<long long>(id), static_cast<long long>(to)));
  }
  // Copy-on-write the endpoints so their adjacency lists pick up the edge.
  VertexEntry* fv = MutableOpenVertex(from);
  VertexEntry* tv = MutableOpenVertex(to);
  GRF_CHECK(fv != nullptr && tv != nullptr);
  fv->out_edges.push_back(id);
  tv->in_edges.push_back(id);
  auto e = std::make_unique<EdgeEntry>();
  e->id = id;
  e->from = from;
  e->to = to;
  e->tuple = slot;
  e->live = true;
  SetOverlayEdge(d, id, std::move(e));
  ++d->num_edges;
  ++d->ops;
  return Status::OK();
}

Status GraphView::DeltaRemoveEdge(EdgeId id) {
  GraphDelta* d = EnsureOpen();
  const EdgeEntry* e = OpenFindEdge(d, id);
  if (e == nullptr) {
    return Status::NotFound(StrFormat("edge %lld not in graph view '%s'",
                                      static_cast<long long>(id),
                                      def_.name.c_str()));
  }
  const VertexId from = e->from;
  const VertexId to = e->to;
  if (VertexEntry* fv = MutableOpenVertex(from)) {
    DetachEdge(fv, id, /*out_side=*/true);
  }
  if (VertexEntry* tv = MutableOpenVertex(to)) {
    DetachEdge(tv, id, /*out_side=*/false);
  }
  SetOverlayEdge(d, id, nullptr);
  --d->num_edges;
  ++d->ops;
  return Status::OK();
}

Status GraphView::DeltaRemoveVertex(VertexId id) {
  GraphDelta* d = EnsureOpen();
  const VertexEntry* v = OpenFindVertex(d, id);
  if (v == nullptr) {
    return Status::NotFound(StrFormat("vertex %lld not in graph view '%s'",
                                      static_cast<long long>(id),
                                      def_.name.c_str()));
  }
  const size_t incident = OutDegree(*v) + InDegree(*v);
  if (incident != 0) {
    return Status::ConstraintViolation(StrFormat(
        "cannot remove vertex %lld: %zu incident edge(s) still reference it",
        static_cast<long long>(id), incident));
  }
  SetOverlayVertex(d, id, nullptr);
  --d->num_vertexes;
  ++d->ops;
  return Status::OK();
}

Status GraphView::DeltaVertexUpdate(TupleSlot slot, VertexId old_id,
                                    VertexId new_id) {
  GraphDelta* d = EnsureOpen();
  const VertexEntry* v = OpenFindVertex(d, old_id);
  if (v == nullptr) {
    return Status::Internal("vertex id map out of sync on update");
  }
  if (OutDegree(*v) + InDegree(*v) != 0) {
    return Status::ConstraintViolation(StrFormat(
        "cannot change id of vertex %lld: incident edges reference it",
        static_cast<long long>(old_id)));
  }
  if (OpenFindVertex(d, new_id) != nullptr) {
    return Status::ConstraintViolation(
        StrFormat("vertex id %lld already exists",
                  static_cast<long long>(new_id)));
  }
  // Rename as tombstone + re-add (copy first: `v` may live in the overlay).
  // The vertex is isolated (degree 0 — possibly a fully-removed CSR slice),
  // so the copy drops its snapshot linkage and edit vectors outright: the
  // renamed vertex no longer matches the snapshot's id arrays.
  auto copy = std::make_unique<VertexEntry>(*v);
  copy->id = new_id;
  copy->tuple = slot;
  copy->csr_pos = kNoCsrPos;
  copy->out_edges.clear();
  copy->in_edges.clear();
  copy->out_removed.clear();
  copy->in_removed.clear();
  SetOverlayVertex(d, old_id, nullptr);
  SetOverlayVertex(d, new_id, std::move(copy));
  ++d->ops;
  return Status::OK();
}

// --- Online updates (paper §3.3) --------------------------------------------

Status GraphView::OnVertexInsert(TupleSlot slot, const Tuple& tuple) {
  GRF_ASSIGN_OR_RETURN(int64_t id, IdFromTuple(tuple, vertex_id_col_, "vertex"));
  return managed_ ? DeltaAddVertex(id, slot) : AddVertex(id, slot);
}

Status GraphView::OnVertexDelete(const Tuple& tuple) {
  GRF_ASSIGN_OR_RETURN(int64_t id, IdFromTuple(tuple, vertex_id_col_, "vertex"));
  return managed_ ? DeltaRemoveVertex(id) : RemoveVertex(id);
}

Status GraphView::OnVertexUpdate(TupleSlot slot, const Tuple& old_tuple,
                                 const Tuple& new_tuple) {
  GRF_ASSIGN_OR_RETURN(int64_t old_id,
                       IdFromTuple(old_tuple, vertex_id_col_, "vertex"));
  GRF_ASSIGN_OR_RETURN(int64_t new_id,
                       IdFromTuple(new_tuple, vertex_id_col_, "vertex"));
  if (old_id == new_id) return Status::OK();  // Pure attribute update.

  // Identifier update (paper §3.3.1): keep the graph consistent. Renaming a
  // vertex that edges still reference would silently break the edges
  // relational-source's referential integrity, so it is vetoed.
  if (managed_) return DeltaVertexUpdate(slot, old_id, new_id);

  auto it = vertex_index_.find(old_id);
  if (it == vertex_index_.end() || !vertexes_[it->second].live) {
    return Status::Internal("vertex id map out of sync on update");
  }
  VertexEntry& v = vertexes_[it->second];
  if (OutDegree(v) + InDegree(v) != 0) {
    return Status::ConstraintViolation(StrFormat(
        "cannot change id of vertex %lld: incident edges reference it",
        static_cast<long long>(old_id)));
  }
  if (BaseFindVertex(new_id) != nullptr) {
    return Status::ConstraintViolation(
        StrFormat("vertex id %lld already exists",
                  static_cast<long long>(new_id)));
  }
  size_t pos = it->second;
  vertex_index_.erase(it);
  v.id = new_id;
  v.tuple = slot;
  vertex_index_[new_id] = pos;
  // The snapshot's id arrays still carry the old id; edit-vector resolution
  // stays correct, but index-addressed kernels must fall back.
  csr_dirty_ = true;
  return Status::OK();
}

Status GraphView::OnEdgeInsert(TupleSlot slot, const Tuple& tuple) {
  GRF_ASSIGN_OR_RETURN(int64_t id, IdFromTuple(tuple, edge_id_col_, "edge"));
  GRF_ASSIGN_OR_RETURN(int64_t from,
                       IdFromTuple(tuple, edge_from_col_, "edge-from"));
  GRF_ASSIGN_OR_RETURN(int64_t to, IdFromTuple(tuple, edge_to_col_, "edge-to"));
  return managed_ ? DeltaAddEdge(id, from, to, slot)
                  : AddEdge(id, from, to, slot);
}

Status GraphView::OnEdgeDelete(const Tuple& tuple) {
  GRF_ASSIGN_OR_RETURN(int64_t id, IdFromTuple(tuple, edge_id_col_, "edge"));
  return managed_ ? DeltaRemoveEdge(id) : RemoveEdge(id);
}

// --- Maintenance compensation (all-or-nothing DML across N views) ----------
//
// These reverse a just-applied On* handler via the topology primitives. They
// deliberately do NOT route back through the On* handlers: those carry
// failpoints and veto checks, and an undo that can itself fail would leave
// views inconsistent — exactly what this protocol exists to prevent.
// Managed views reverse the change in the open overlay instead; ABORT (which
// replays a transaction's whole undo log through this same path) therefore
// also converges the overlay back to the pre-transaction state.

void GraphView::UndoVertexInsert(const Tuple& tuple) {
  StatusOr<int64_t> id = IdFromTuple(tuple, vertex_id_col_, "vertex");
  GRF_CHECK(id.ok());
  // The vertex was inserted moments ago and nothing referenced it since (the
  // statement is still unwinding), so removal cannot be vetoed.
  Status s = managed_ ? DeltaRemoveVertex(*id) : RemoveVertex(*id);
  GRF_CHECK(s.ok());
}

void GraphView::UndoVertexDelete(TupleSlot slot, const Tuple& tuple) {
  StatusOr<int64_t> id = IdFromTuple(tuple, vertex_id_col_, "vertex");
  GRF_CHECK(id.ok());
  Status s = managed_ ? DeltaAddVertex(*id, slot) : AddVertex(*id, slot);
  GRF_CHECK(s.ok());
}

void GraphView::UndoVertexUpdate(TupleSlot slot, const Tuple& old_tuple,
                                 const Tuple& new_tuple) {
  StatusOr<int64_t> old_id = IdFromTuple(old_tuple, vertex_id_col_, "vertex");
  StatusOr<int64_t> new_id = IdFromTuple(new_tuple, vertex_id_col_, "vertex");
  GRF_CHECK(old_id.ok() && new_id.ok());
  if (*old_id == *new_id) return;  // Attribute-only update touched nothing.
  if (managed_) {
    // Reverse the rename in the overlay (the forward rename just succeeded,
    // so the vertex is isolated and the old id is free).
    Status s = DeltaVertexUpdate(slot, *new_id, *old_id);
    GRF_CHECK(s.ok());
    return;
  }
  // Reverse the id rename in place (same inline protocol as OnVertexUpdate).
  auto it = vertex_index_.find(*new_id);
  GRF_CHECK(it != vertex_index_.end() && vertexes_[it->second].live);
  size_t pos = it->second;
  vertex_index_.erase(it);
  VertexEntry& v = vertexes_[pos];
  v.id = *old_id;
  v.tuple = slot;
  vertex_index_[*old_id] = pos;
  csr_dirty_ = true;
}

void GraphView::UndoEdgeInsert(const Tuple& tuple) {
  StatusOr<int64_t> id = IdFromTuple(tuple, edge_id_col_, "edge");
  GRF_CHECK(id.ok());
  Status s = managed_ ? DeltaRemoveEdge(*id) : RemoveEdge(*id);
  GRF_CHECK(s.ok());
}

void GraphView::UndoEdgeDelete(TupleSlot slot, const Tuple& tuple) {
  StatusOr<int64_t> id = IdFromTuple(tuple, edge_id_col_, "edge");
  StatusOr<int64_t> from = IdFromTuple(tuple, edge_from_col_, "edge-from");
  StatusOr<int64_t> to = IdFromTuple(tuple, edge_to_col_, "edge-to");
  GRF_CHECK(id.ok() && from.ok() && to.ok());
  // Re-adding appends the edge id at the tail of its endpoints' adjacency
  // lists, so list order may differ from the pre-delete state; topology
  // equality (what traversal semantics and the differential rebuild check
  // observe) is unaffected.
  Status s = managed_ ? DeltaAddEdge(*id, *from, *to, slot)
                      : AddEdge(*id, *from, *to, slot);
  GRF_CHECK(s.ok());
}

void GraphView::UndoEdgeUpdate(TupleSlot slot, const Tuple& old_tuple,
                               const Tuple& new_tuple) {
  StatusOr<int64_t> old_id = IdFromTuple(old_tuple, edge_id_col_, "edge");
  StatusOr<int64_t> new_id = IdFromTuple(new_tuple, edge_id_col_, "edge");
  StatusOr<int64_t> old_from =
      IdFromTuple(old_tuple, edge_from_col_, "edge-from");
  StatusOr<int64_t> new_from =
      IdFromTuple(new_tuple, edge_from_col_, "edge-from");
  StatusOr<int64_t> old_to = IdFromTuple(old_tuple, edge_to_col_, "edge-to");
  StatusOr<int64_t> new_to = IdFromTuple(new_tuple, edge_to_col_, "edge-to");
  GRF_CHECK(old_id.ok() && new_id.ok() && old_from.ok() && new_from.ok() &&
            old_to.ok() && new_to.ok());
  if (*old_id == *new_id && *old_from == *new_from && *old_to == *new_to) {
    return;  // Attribute-only update touched nothing.
  }
  Status remove = managed_ ? DeltaRemoveEdge(*new_id) : RemoveEdge(*new_id);
  GRF_CHECK(remove.ok());
  Status add = managed_ ? DeltaAddEdge(*old_id, *old_from, *old_to, slot)
                        : AddEdge(*old_id, *old_from, *old_to, slot);
  GRF_CHECK(add.ok());
}

Status GraphView::OnEdgeUpdate(TupleSlot slot, const Tuple& old_tuple,
                               const Tuple& new_tuple) {
  GRF_ASSIGN_OR_RETURN(int64_t old_id,
                       IdFromTuple(old_tuple, edge_id_col_, "edge"));
  GRF_ASSIGN_OR_RETURN(int64_t new_id,
                       IdFromTuple(new_tuple, edge_id_col_, "edge"));
  GRF_ASSIGN_OR_RETURN(int64_t old_from,
                       IdFromTuple(old_tuple, edge_from_col_, "edge-from"));
  GRF_ASSIGN_OR_RETURN(int64_t new_from,
                       IdFromTuple(new_tuple, edge_from_col_, "edge-from"));
  GRF_ASSIGN_OR_RETURN(int64_t old_to,
                       IdFromTuple(old_tuple, edge_to_col_, "edge-to"));
  GRF_ASSIGN_OR_RETURN(int64_t new_to,
                       IdFromTuple(new_tuple, edge_to_col_, "edge-to"));
  if (old_id == new_id && old_from == new_from && old_to == new_to) {
    // Pure attribute update: the topology is unchanged, but edge-attribute
    // columns stop describing every snapshot. Marked before the write can
    // become visible (commit, or return for standalone views).
    edge_columns_stale_.store(true, std::memory_order_seq_cst);
    return Status::OK();
  }
  // Topological change: re-link as remove + add, keeping the tuple pointer.
  if (managed_) {
    GRF_RETURN_IF_ERROR(DeltaRemoveEdge(old_id));
    Status s = DeltaAddEdge(new_id, new_from, new_to, slot);
    if (!s.ok()) {
      Status restore = DeltaAddEdge(old_id, old_from, old_to, slot);
      GRF_CHECK(restore.ok());
      return s;
    }
    return Status::OK();
  }
  GRF_RETURN_IF_ERROR(RemoveEdge(old_id));
  Status s = AddEdge(new_id, new_from, new_to, slot);
  if (!s.ok()) {
    // Roll the removal back so a failed update leaves the topology intact.
    Status restore = AddEdge(old_id, old_from, old_to, slot);
    GRF_CHECK(restore.ok());
    return s;
  }
  return Status::OK();
}

}  // namespace grfusion
