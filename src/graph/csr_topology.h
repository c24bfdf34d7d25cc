#ifndef GRFUSION_GRAPH_CSR_TOPOLOGY_H_
#define GRFUSION_GRAPH_CSR_TOPOLOGY_H_

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "common/ids.h"

namespace grfusion {

/// Immutable CSR (compressed sparse row) snapshot of a graph view's
/// topology: contiguous offset + neighbor arrays for both directions, a
/// parallel TupleSlot sidecar, and a dense VertexId -> csr-index mapping.
///
/// A snapshot is produced once at build time and re-produced by FoldDeltas;
/// between rebuilds it is strictly read-only, so traversal kernels and
/// morsel-parallel workers can iterate its arrays without coordination.
/// Changes that land after a snapshot (delta overlays of managed views,
/// direct mutation of standalone views) are represented as small per-vertex
/// append/tombstone edit vectors on VertexEntry, resolved against these
/// arrays — the snapshot itself is never patched in place.
struct CsrTopology {
  /// Returned by IndexOf for ids absent from the snapshot.
  static constexpr size_t kAbsent = static_cast<size_t>(-1);

  // Per-vertex arrays, indexed by csr position (dense 0..V-1 over the live
  // vertices in base enumeration order).
  std::vector<VertexId> vertex_ids;
  std::vector<TupleSlot> vertex_tuple;  ///< Attribute-row sidecar.
  std::vector<size_t> vertex_pos;       ///< Position in GraphView::vertexes_.

  // Out-adjacency: edges [out_offsets[i], out_offsets[i+1]) leave vertex i.
  // The three edge arrays are parallel: stable id (delta resolution), direct
  // position in GraphView::edges_ (fast-path iteration without a hash
  // probe), and the far endpoint's id.
  std::vector<size_t> out_offsets;  ///< Size V+1.
  std::vector<EdgeId> out_edge_ids;
  std::vector<size_t> out_edge_pos;
  std::vector<VertexId> out_nbr;

  // In-adjacency mirror (FanIn, undirected traversal, reverse expansion).
  std::vector<size_t> in_offsets;
  std::vector<EdgeId> in_edge_ids;
  std::vector<size_t> in_edge_pos;
  std::vector<VertexId> in_nbr;
  /// Directed views only: the out-side slot of in_edge_ids[i]'s edge, so a
  /// backward search reads the edge's EdgeAttrColumn cell (which covers
  /// out-side slots only on a directed view). Empty on undirected views.
  std::vector<size_t> in_out_slot;

  size_t NumVertexes() const { return vertex_ids.size(); }
  size_t NumEdges() const { return out_edge_ids.size(); }

  size_t OutBegin(size_t i) const { return out_offsets[i]; }
  size_t OutEnd(size_t i) const { return out_offsets[i + 1]; }
  size_t InBegin(size_t i) const { return in_offsets[i]; }
  size_t InEnd(size_t i) const { return in_offsets[i + 1]; }

  /// Csr position of `id`, or kAbsent. O(1): a dense direct-map when the id
  /// range is compact (the common case for generated/imported graphs), a
  /// hash map otherwise.
  size_t IndexOf(VertexId id) const {
    if (dense_valid_) {
      if (id < min_id_ ||
          static_cast<size_t>(id - min_id_) >= dense_.size()) {
        return kAbsent;
      }
      return dense_[static_cast<size_t>(id - min_id_)];
    }
    auto it = sparse_.find(id);
    return it == sparse_.end() ? kAbsent : it->second;
  }

  /// Builds the id -> index map from vertex_ids (call once, after the
  /// arrays are final).
  void BuildIndex();

  /// Approximate heap bytes held by the snapshot's arrays.
  size_t Bytes() const;

 private:
  VertexId min_id_ = 0;
  std::vector<size_t> dense_;  ///< kAbsent-filled; id - min_id_ -> index.
  std::unordered_map<VertexId, size_t> sparse_;
  bool dense_valid_ = false;
};

}  // namespace grfusion

#endif  // GRFUSION_GRAPH_CSR_TOPOLOGY_H_
