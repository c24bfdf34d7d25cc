#ifndef GRFUSION_GRAPH_GRAPH_VIEW_H_
#define GRFUSION_GRAPH_GRAPH_VIEW_H_

#include <algorithm>
#include <atomic>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "graph/csr_topology.h"
#include "graph/graph_view_def.h"
#include "storage/epoch.h"
#include "storage/table.h"

namespace grfusion {

class TaskPool;

/// Knobs for the initial topology build. With a pool and max_parallelism > 1,
/// construction extracts ids / validates endpoints / groups adjacency over
/// morsels of the relational sources on worker tasks, then merges morsels in
/// slot order — producing a topology bit-identical to the sequential build.
/// Online maintenance (listener path) is always sequential: it runs inside
/// the mutating transaction.
struct GraphBuildOptions {
  TaskPool* pool = nullptr;
  size_t max_parallelism = 1;
  /// Sources whose combined row count is below this build sequentially.
  size_t min_rows = 4096;
  /// Engine-managed mode: online maintenance goes into copy-on-write delta
  /// overlays published at commit epochs, so snapshot readers keep seeing a
  /// consistent topology while a writer mutates. Standalone views (tests,
  /// rebuild verification) leave this false and mutate the base directly.
  bool managed = false;
};

/// Sentinel for VertexEntry::csr_pos: the vertex is not in the CSR snapshot.
inline constexpr size_t kNoCsrPos = static_cast<size_t>(-1);

/// A vertex of the materialized topology. Attribute data is NOT stored here;
/// `tuple` points (by stable slot) into the vertexes relational-source
/// (paper §3.2 — "decoupling the graph topology and the graph data").
///
/// Adjacency is split between the owning view's immutable CSR snapshot and
/// small per-vertex edit vectors. When the vertex is in the snapshot
/// (csr_pos != kNoCsrPos), its effective adjacency per side is the CSR slice
/// minus the ids in *_removed, followed by the ids in out_edges/in_edges
/// (appends since the snapshot), in that order. When it is not (fresh
/// vertices, or a view built without CSR), out_edges/in_edges hold the full
/// adjacency exactly as in the pre-CSR layout. This keeps delta overlays
/// cheap: shadowing a high-degree vertex copies a few small edit vectors,
/// never the whole adjacency.
///
/// Invariants: an id never appears twice in one edit vector; an id in the
/// append vector that is also in the vertex's CSR slice is always in the
/// matching *_removed too (remove + re-add), so no edge is counted twice.
struct VertexEntry {
  VertexId id = kInvalidVertexId;
  TupleSlot tuple = kInvalidTupleSlot;
  std::vector<EdgeId> out_edges;    ///< Appends since the CSR snapshot.
  std::vector<EdgeId> in_edges;
  std::vector<EdgeId> out_removed;  ///< Snapshot edges detached since.
  std::vector<EdgeId> in_removed;
  size_t csr_pos = kNoCsrPos;       ///< Position in the owning view's CSR.
  bool live = false;
};

/// An edge of the materialized topology, with its endpoints and the tuple
/// pointer into the edges relational-source.
struct EdgeEntry {
  EdgeId id = kInvalidEdgeId;
  VertexId from = kInvalidVertexId;
  VertexId to = kInvalidVertexId;
  TupleSlot tuple = kInvalidTupleSlot;
  bool live = false;
};

/// A cumulative copy-on-write overlay of a managed graph view's topology:
/// everything that changed since the materialized base, as of `epoch`. An id
/// present in a map shadows the base entry entirely — a null value is a
/// tombstone ("absent at this epoch"), a non-null value is the full entry
/// (vertices carry their adjacency as csr_pos + small edit vectors, so
/// shadowing a high-degree vertex stays cheap). Because each delta is
/// cumulative, a reader resolves exactly one node; `prev` links older
/// published deltas only so readers at older snapshots find theirs.
///
/// Invariant: an id appears in `vertex_order`/`edge_order` exactly once, iff
/// it is a key of the corresponding map (entries are tombstoned in place,
/// never erased, so enumeration order stays stable and duplicate-free).
struct GraphDelta {
  Epoch epoch = 0;
  const GraphDelta* prev = nullptr;
  std::unordered_map<VertexId, std::unique_ptr<VertexEntry>> vmap;
  std::unordered_map<EdgeId, std::unique_ptr<EdgeEntry>> emap;
  std::vector<VertexId> vertex_order;
  std::vector<EdgeId> edge_order;
  /// Live totals of the whole view (base + overlay) at this delta's state.
  size_t num_vertexes = 0;
  size_t num_edges = 0;
  /// Cumulative count of overlay mutations since the base (fold pressure).
  size_t ops = 0;
};

/// Thread-local RAII snapshot scope for graph reads. Session installs one
/// around statement execution (and parallel operators re-install it on their
/// worker threads); GraphView read methods consult it to pick the delta
/// visible at the statement's snapshot epoch and the matching table-version
/// epoch for tuple fetches. With no scope installed (standalone tests,
/// rebuild verification — documented quiesced), reads see the open overlay
/// if one exists, else the newest published state.
class GraphReadScope {
 public:
  GraphReadScope(Epoch epoch, bool include_open);
  ~GraphReadScope();

  GraphReadScope(const GraphReadScope&) = delete;
  GraphReadScope& operator=(const GraphReadScope&) = delete;

  static const GraphReadScope* Current();
  /// Snapshot epoch of the innermost scope, or kEpochLatest with none.
  static Epoch CurrentEpoch();

  Epoch epoch() const { return epoch_; }
  bool include_open() const { return include_open_; }

 private:
  Epoch epoch_;
  bool include_open_;
  const GraphReadScope* prev_;
};

/// The materialized graph view (paper §3): a singleton native graph structure
/// holding the topology in adjacency lists, bi-directionally linked with the
/// relational sources:
///   - id -> vertex/edge entry: O(1) via hash map (relational -> graph hop);
///   - entry -> relational tuple: O(1) via the stored TupleSlot.
///
/// The view registers listeners on both relational sources so online updates
/// (insert/delete/update of vertex or edge rows) maintain the topology inside
/// the mutating transaction (paper §3.3), and vetoes changes that would break
/// referential integrity (an edge whose endpoint does not exist, deleting a
/// vertex that still has incident edges).
///
/// Managed views (GraphBuildOptions::managed) buffer online maintenance in a
/// GraphDelta overlay instead of mutating the base: the writer's statements
/// see the open overlay, COMMIT publishes it at the commit epoch (release
/// store, paired with EpochManager::Commit), ABORT discards it, and the
/// published chain folds into the base under the exclusive statement lock.
/// Snapshot readers therefore never observe a half-applied transaction.
class GraphView {
 public:
  /// Builds the topology with a single pass over the relational sources
  /// (paper §3.2). Fails if id columns are missing/duplicated or an edge
  /// endpoint is not in the vertex set. The two sources must be distinct
  /// tables. `build` optionally parallelizes the initial construction
  /// (Table-3-style build time); the resulting topology is identical either
  /// way.
  static StatusOr<std::unique_ptr<GraphView>> Create(
      GraphViewDef def, Table* vertex_table, Table* edge_table,
      const GraphBuildOptions& build = {});

  ~GraphView();

  GraphView(const GraphView&) = delete;
  GraphView& operator=(const GraphView&) = delete;

  const GraphViewDef& def() const { return def_; }
  const std::string& name() const { return def_.name; }
  bool directed() const { return def_.directed; }
  Table* vertex_table() const { return vertex_table_; }
  Table* edge_table() const { return edge_table_; }

  size_t NumVertexes() const {
    const GraphDelta* d = VisibleDelta();
    return d != nullptr ? d->num_vertexes : num_live_vertexes_;
  }
  size_t NumEdges() const {
    const GraphDelta* d = VisibleDelta();
    return d != nullptr ? d->num_edges : num_live_edges_;
  }

  /// O(1) lookup of a vertex by id; nullptr when absent (at the calling
  /// scope's snapshot).
  const VertexEntry* FindVertex(VertexId id) const;
  /// O(1) lookup of an edge by id; nullptr when absent.
  const EdgeEntry* FindEdge(EdgeId id) const;

  /// The vertex tuple (attribute row) behind `v`, fetched through the tuple
  /// pointer at the calling scope's snapshot epoch. Never nullptr for an
  /// entry visible at that snapshot.
  const Tuple* VertexTuple(const VertexEntry& v) const {
    return vertex_table_->Get(v.tuple, GraphReadScope::CurrentEpoch());
  }
  const Tuple* EdgeTuple(const EdgeEntry& e) const {
    return edge_table_->Get(e.tuple, GraphReadScope::CurrentEpoch());
  }

  /// Number of outgoing / incoming edges (paper's FanOut / FanIn vertex
  /// properties). For undirected views both count all incident edges.
  size_t FanOut(const VertexEntry& v) const;
  size_t FanIn(const VertexEntry& v) const;

  /// Invokes fn(const VertexEntry&) for every live vertex; stops early when
  /// fn returns false.
  template <typename Fn>
  void ForEachVertex(Fn&& fn) const {
    const GraphDelta* d = VisibleDelta();
    if (d == nullptr) {
      for (const VertexEntry& v : vertexes_) {
        if (v.live) {
          if (!fn(v)) return;
        }
      }
      return;
    }
    // Base entries the overlay does not shadow, in base order…
    for (const VertexEntry& v : vertexes_) {
      if (!v.live || d->vmap.count(v.id) != 0) continue;
      if (!fn(v)) return;
    }
    // …then overlay entries in first-touch order (tombstones skipped).
    for (VertexId id : d->vertex_order) {
      auto it = d->vmap.find(id);
      if (it == d->vmap.end() || it->second == nullptr) continue;
      if (!fn(*it->second)) return;
    }
  }

  /// Invokes fn(const EdgeEntry&) for every live edge; stops early when fn
  /// returns false.
  template <typename Fn>
  void ForEachEdge(Fn&& fn) const {
    const GraphDelta* d = VisibleDelta();
    if (d == nullptr) {
      for (const EdgeEntry& e : edges_) {
        if (e.live) {
          if (!fn(e)) return;
        }
      }
      return;
    }
    for (const EdgeEntry& e : edges_) {
      if (!e.live || d->emap.count(e.id) != 0) continue;
      if (!fn(e)) return;
    }
    for (EdgeId id : d->edge_order) {
      auto it = d->emap.find(id);
      if (it == d->emap.end() || it->second == nullptr) continue;
      if (!fn(*it->second)) return;
    }
  }

  /// Enumerates the edges usable to leave `v` during a traversal: out-edges,
  /// plus in-edges when the view is undirected. Calls fn(const EdgeEntry&,
  /// VertexId neighbor); stops early when fn returns false.
  ///
  /// Fast path: when the vertex sits in the CSR snapshot with no removals on
  /// a side, that side's slice is iterated straight off the contiguous
  /// arrays — no hash probe per edge. This is safe even under delta
  /// overlays: every overlay edge mutation copy-on-writes both endpoints, so
  /// a slice edge not listed in *_removed is live, unshadowed, and has
  /// unchanged endpoints at every visible snapshot.
  template <typename Fn>
  void ForEachNeighbor(const VertexEntry& v, Fn&& fn) const {
    if (!EnumerateSide(v, /*out_side=*/true, fn)) return;
    if (!directed()) EnumerateSide(v, /*out_side=*/false, fn);
  }

  /// Enumerates every incident edge of `v` — out then in, regardless of the
  /// view's directedness (connected components, integrity sweeps). Calls
  /// fn(const EdgeEntry&, VertexId other_endpoint); stops early when fn
  /// returns false. Same CSR fast path as ForEachNeighbor.
  template <typename Fn>
  void ForEachIncidentEdge(const VertexEntry& v, Fn&& fn) const {
    if (!EnumerateSide(v, /*out_side=*/true, fn)) return;
    EnumerateSide(v, /*out_side=*/false, fn);
  }

  /// Average fan-out statistic used by the optimizer's BFS/DFS rule (§6.3).
  double AverageFanOut() const;

  // --- CSR snapshot (read-path layout) --------------------------------------

  /// The immutable CSR snapshot (materialized by Create and re-produced by
  /// every fold; nullptr only during the initial build). Valid between
  /// folds; per-vertex edit vectors layer post-snapshot changes on top.
  const CsrTopology* csr() const { return csr_.get(); }

  /// Base vertex entry at CSR position `i` (valid while the snapshot is —
  /// positions are re-assigned by every fold). Index-addressed kernels use
  /// this to go from a CSR index back to the attribute-carrying entry
  /// without a hash probe.
  const VertexEntry& CsrVertex(size_t i) const {
    return vertexes_[csr_->vertex_pos[i]];
  }

  /// True when the CSR arrays alone describe the calling scope's visible
  /// topology exactly: a snapshot exists, no base mutation landed since it
  /// was produced, and no delta overlay is visible. Batch kernels and
  /// graphalg fast paths key off this to run bitmap/index-addressed.
  bool PureCsr() const {
    return csr_ != nullptr && !csr_dirty_ && VisibleDelta() == nullptr;
  }

  /// Bytes held by the CSR snapshot's arrays.
  size_t CsrBytes() const { return csr_ != nullptr ? csr_->Bytes() : 0; }

  /// Number of FoldDeltas applications that rebuilt the base (SYS column).
  size_t Folds() const { return folds_; }

  /// Effective per-side degrees: CSR slice minus removals plus appends.
  size_t OutDegree(const VertexEntry& v) const {
    return CsrSideLen(v, true) - v.out_removed.size() + v.out_edges.size();
  }
  size_t InDegree(const VertexEntry& v) const {
    return CsrSideLen(v, false) - v.in_removed.size() + v.in_edges.size();
  }

  /// Approximate bytes of the topology structures alone (the paper's point:
  /// topology size is independent of attribute-data size).
  size_t TopologyBytes() const;

  /// Resolves the exposed vertex-attribute name to a source column index;
  /// also resolves the id pseudo-attribute ("ID"). Returns -1 when unknown.
  int ResolveVertexAttribute(std::string_view exposed_name) const;
  /// Resolves the exposed edge-attribute name to a source column index.
  /// Returns -1 when unknown ("ID"/"FROM"/"TO" resolve to their mapped
  /// source columns).
  int ResolveEdgeAttribute(std::string_view exposed_name) const;

  /// Exposed schemas: how VERTEXES / EDGES rows appear to queries.
  /// Vertexes: (ID, <attrs...>, FANOUT, FANIN).
  /// Edges:    (ID, FROM, TO, <attrs...>).
  Schema ExposedVertexSchema() const;
  Schema ExposedEdgeSchema() const;

  // --- Transaction lifecycle (managed views; called by Session) -------------

  bool managed() const { return managed_; }
  bool HasOpenDelta() const { return open_ != nullptr; }

  /// Publishes the writer's open overlay at `epoch`. Must happen before
  /// EpochManager::Commit stores that epoch — the head's release store plus
  /// the committed counter's release store make the delta and its epoch
  /// visible together to readers.
  void PublishOpenDelta(Epoch epoch);

  /// Drops the writer's open overlay (ABORT, after the table undo log has
  /// replayed — by then the overlay is logically an identity anyway).
  void DiscardOpenDelta() { open_.reset(); }

  /// Applies the newest published delta to the base topology and frees the
  /// chain. Callers must hold the exclusive statement lock (no readers in
  /// flight) and must not have an open overlay. A failpoint-injected error
  /// simply defers the fold — the published chain stays intact and correct.
  Status FoldDeltas();

  /// Fold pressure: cumulative overlay mutations awaiting a fold.
  size_t PendingDeltaOps() const {
    const GraphDelta* d = delta_head_.load(std::memory_order_relaxed);
    return d != nullptr ? d->ops : 0;
  }

 private:
  /// Adapter distinguishing which relational source a change came from.
  class SourceListener : public TableChangeListener {
   public:
    SourceListener(GraphView* owner, bool vertex_source)
        : owner_(owner), vertex_source_(vertex_source) {}
    Status OnInsert(TupleSlot slot, const Tuple& tuple) override;
    Status OnDelete(TupleSlot slot, const Tuple& tuple) override;
    Status OnUpdate(TupleSlot slot, const Tuple& old_tuple,
                    const Tuple& new_tuple) override;

    /// Infallible compensation (Table's all-or-nothing protocol): reverses a
    /// change this listener applied successfully moments ago. These go
    /// straight to the topology primitives — never back through the On*
    /// handlers, which carry failpoints and veto checks that must not fire
    /// during rollback.
    void UndoInsert(TupleSlot slot, const Tuple& tuple) override;
    void UndoDelete(TupleSlot slot, const Tuple& tuple) override;
    void UndoUpdate(TupleSlot slot, const Tuple& old_tuple,
                    const Tuple& new_tuple) override;

   private:
    GraphView* owner_;
    bool vertex_source_;
  };

  GraphView(GraphViewDef def, Table* vertex_table, Table* edge_table)
      : def_(std::move(def)),
        vertex_table_(vertex_table),
        edge_table_(edge_table) {}

  Status ResolveColumns();
  /// Morsel-parallel initial build: parallel id extraction + endpoint
  /// resolution + per-morsel adjacency grouping, sequential slot-order merge.
  Status ParallelBuild(const GraphBuildOptions& build);

  /// Re-materializes the CSR snapshot from the current base (old snapshot +
  /// edit vectors), then clears every base vertex's edits. Called at the end
  /// of Create() and FoldDeltas().
  void RebuildCsr();

  /// Length of a vertex's CSR slice on one side (0 when not in the CSR).
  size_t CsrSideLen(const VertexEntry& v, bool out_side) const {
    if (csr_ == nullptr || v.csr_pos == kNoCsrPos) return 0;
    return out_side ? csr_->OutEnd(v.csr_pos) - csr_->OutBegin(v.csr_pos)
                    : csr_->InEnd(v.csr_pos) - csr_->InBegin(v.csr_pos);
  }

  /// Enumerates one side's effective adjacency (CSR slice minus removals,
  /// then appends). Returns false when fn stopped the enumeration.
  template <typename Fn>
  bool EnumerateSide(const VertexEntry& v, bool out_side, Fn&& fn) const {
    if (csr_ != nullptr && v.csr_pos != kNoCsrPos) {
      const CsrTopology& c = *csr_;
      const size_t begin =
          out_side ? c.OutBegin(v.csr_pos) : c.InBegin(v.csr_pos);
      const size_t end = out_side ? c.OutEnd(v.csr_pos) : c.InEnd(v.csr_pos);
      const std::vector<size_t>& pos =
          out_side ? c.out_edge_pos : c.in_edge_pos;
      const std::vector<VertexId>& nbr = out_side ? c.out_nbr : c.in_nbr;
      const std::vector<EdgeId>& removed =
          out_side ? v.out_removed : v.in_removed;
      if (removed.empty()) {
        for (size_t i = begin; i < end; ++i) {
          if (!fn(edges_[pos[i]], nbr[i])) return false;
        }
      } else {
        const std::vector<EdgeId>& ids =
            out_side ? c.out_edge_ids : c.in_edge_ids;
        for (size_t i = begin; i < end; ++i) {
          if (std::find(removed.begin(), removed.end(), ids[i]) !=
              removed.end()) {
            continue;
          }
          if (!fn(edges_[pos[i]], nbr[i])) return false;
        }
      }
    }
    for (EdgeId eid : out_side ? v.out_edges : v.in_edges) {
      const EdgeEntry* e = FindEdge(eid);
      if (e == nullptr) continue;
      if (!fn(*e, out_side ? e->to : e->from)) return false;
    }
    return true;
  }

  /// Detaches `id` from one side of a vertex's effective adjacency: erased
  /// from the append vector when it was a post-snapshot append, recorded as
  /// a removal against the CSR slice otherwise.
  static void DetachEdge(VertexEntry* v, EdgeId id, bool out_side);

  // Base-topology primitives (unmanaged views, initial build, fold target).
  Status AddVertex(VertexId id, TupleSlot slot);
  Status AddEdge(EdgeId id, VertexId from, VertexId to, TupleSlot slot);
  Status RemoveVertex(VertexId id);
  Status RemoveEdge(EdgeId id);
  const VertexEntry* BaseFindVertex(VertexId id) const;
  const EdgeEntry* BaseFindEdge(EdgeId id) const;

  // Delta-overlay resolution and mutation (managed views).

  /// The delta visible to the calling thread: the open overlay for the
  /// writer (and for scope-less quiesced callers), else the newest published
  /// delta whose epoch is within the scope's snapshot. nullptr = base only.
  const GraphDelta* VisibleDelta() const;

  /// Lazily creates the writer's open overlay as a deep copy of the newest
  /// published delta (cumulative deltas: one node resolves everything).
  GraphDelta* EnsureOpen();

  /// Lookup against the open overlay (writer's view during DML).
  const VertexEntry* OpenFindVertex(const GraphDelta* d, VertexId id) const;
  const EdgeEntry* OpenFindEdge(const GraphDelta* d, EdgeId id) const;

  /// Copy-on-write: the open overlay's mutable entry for `id`, copying the
  /// base entry in on first touch. nullptr when the vertex is absent.
  VertexEntry* MutableOpenVertex(VertexId id);

  /// Sets / tombstones an overlay entry, maintaining the order-vector
  /// invariant (push id on first emplace only; tombstone in place after).
  void SetOverlayVertex(GraphDelta* d, VertexId id,
                        std::unique_ptr<VertexEntry> entry);
  void SetOverlayEdge(GraphDelta* d, EdgeId id,
                      std::unique_ptr<EdgeEntry> entry);

  // Overlay counterparts of the base primitives, with identical error
  // messages and veto semantics.
  Status DeltaAddVertex(VertexId id, TupleSlot slot);
  Status DeltaAddEdge(EdgeId id, VertexId from, VertexId to, TupleSlot slot);
  Status DeltaRemoveVertex(VertexId id);
  Status DeltaRemoveEdge(EdgeId id);
  Status DeltaVertexUpdate(TupleSlot slot, VertexId old_id, VertexId new_id);

  Status OnVertexInsert(TupleSlot slot, const Tuple& tuple);
  Status OnVertexDelete(const Tuple& tuple);
  Status OnVertexUpdate(TupleSlot slot, const Tuple& old_tuple,
                        const Tuple& new_tuple);
  Status OnEdgeInsert(TupleSlot slot, const Tuple& tuple);
  Status OnEdgeDelete(const Tuple& tuple);
  Status OnEdgeUpdate(TupleSlot slot, const Tuple& old_tuple,
                      const Tuple& new_tuple);

  /// Infallible inverses of the On* maintenance handlers, applied when a
  /// later listener vetoes the relational mutation. Violating their
  /// preconditions (the corresponding On* just succeeded) is engine
  /// corruption and GRF_CHECKs.
  void UndoVertexInsert(const Tuple& tuple);
  void UndoVertexDelete(TupleSlot slot, const Tuple& tuple);
  void UndoVertexUpdate(TupleSlot slot, const Tuple& old_tuple,
                        const Tuple& new_tuple);
  void UndoEdgeInsert(const Tuple& tuple);
  void UndoEdgeDelete(TupleSlot slot, const Tuple& tuple);
  void UndoEdgeUpdate(TupleSlot slot, const Tuple& old_tuple,
                      const Tuple& new_tuple);

  static StatusOr<int64_t> IdFromTuple(const Tuple& tuple, size_t column,
                                       const char* what);

  GraphViewDef def_;
  Table* vertex_table_;
  Table* edge_table_;

  /// Column indexes into the sources, resolved once at creation.
  size_t vertex_id_col_ = 0;
  size_t edge_id_col_ = 0;
  size_t edge_from_col_ = 0;
  size_t edge_to_col_ = 0;

  std::deque<VertexEntry> vertexes_;
  std::deque<EdgeEntry> edges_;
  std::vector<size_t> vertex_free_list_;
  std::vector<size_t> edge_free_list_;
  std::unordered_map<VertexId, size_t> vertex_index_;
  std::unordered_map<EdgeId, size_t> edge_index_;
  size_t num_live_vertexes_ = 0;
  size_t num_live_edges_ = 0;

  /// CSR snapshot state. csr_dirty_ marks any base mutation after the last
  /// rebuild (standalone views mutating directly): the snapshot stays valid
  /// as the substrate for edit-vector resolution, but PureCsr() — the gate
  /// for index-addressed kernels — turns off until the next rebuild.
  std::unique_ptr<CsrTopology> csr_;
  bool csr_dirty_ = false;
  size_t folds_ = 0;

  /// Bytes currently accounted to this view in the graph_view_delta_bytes
  /// gauge (published chain only; released on fold / destruction).
  size_t published_delta_bytes_ = 0;

  /// Managed-mode state. delta_head_ is the read-side entry point (released
  /// by PublishOpenDelta, acquired by readers); delta_chain_ owns the
  /// published nodes until a fold frees them under the exclusive lock;
  /// open_ is touched only by the writer (and scope-less quiesced readers).
  bool managed_ = false;
  std::atomic<const GraphDelta*> delta_head_{nullptr};
  std::vector<std::unique_ptr<GraphDelta>> delta_chain_;
  std::unique_ptr<GraphDelta> open_;

  std::unique_ptr<SourceListener> vertex_listener_;
  std::unique_ptr<SourceListener> edge_listener_;

  friend class SourceListener;
};

}  // namespace grfusion

#endif  // GRFUSION_GRAPH_GRAPH_VIEW_H_
