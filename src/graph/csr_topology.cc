#include "graph/csr_topology.h"

#include <algorithm>

namespace grfusion {

void CsrTopology::BuildIndex() {
  dense_.clear();
  sparse_.clear();
  dense_valid_ = false;
  min_id_ = 0;
  if (vertex_ids.empty()) {
    dense_valid_ = true;
    return;
  }
  auto [lo_it, hi_it] =
      std::minmax_element(vertex_ids.begin(), vertex_ids.end());
  const VertexId lo = *lo_it;
  const VertexId hi = *hi_it;
  // Unsigned math: the span cannot overflow, and a pathological range
  // (hi - lo huge) simply fails the compactness test below.
  const uint64_t span =
      static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo) + 1;
  const uint64_t budget = static_cast<uint64_t>(vertex_ids.size()) * 2 + 1024;
  if (span <= budget) {
    min_id_ = lo;
    dense_.assign(static_cast<size_t>(span), kAbsent);
    for (size_t i = 0; i < vertex_ids.size(); ++i) {
      dense_[static_cast<size_t>(vertex_ids[i] - lo)] = i;
    }
    dense_valid_ = true;
    return;
  }
  sparse_.reserve(vertex_ids.size());
  for (size_t i = 0; i < vertex_ids.size(); ++i) sparse_[vertex_ids[i]] = i;
}

size_t CsrTopology::Bytes() const {
  size_t bytes = sizeof(CsrTopology);
  bytes += vertex_ids.capacity() * sizeof(VertexId);
  bytes += vertex_tuple.capacity() * sizeof(TupleSlot);
  bytes += vertex_pos.capacity() * sizeof(size_t);
  bytes += (out_offsets.capacity() + in_offsets.capacity()) * sizeof(size_t);
  bytes += (out_edge_ids.capacity() + in_edge_ids.capacity()) * sizeof(EdgeId);
  bytes += (out_edge_pos.capacity() + in_edge_pos.capacity()) * sizeof(size_t);
  bytes += (out_nbr.capacity() + in_nbr.capacity()) * sizeof(VertexId);
  bytes += in_out_slot.capacity() * sizeof(size_t);
  bytes += dense_.capacity() * sizeof(size_t);
  bytes += sparse_.size() * (sizeof(VertexId) + sizeof(size_t) + 16);
  return bytes;
}

}  // namespace grfusion
