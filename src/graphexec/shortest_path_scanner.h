#ifndef GRFUSION_GRAPHEXEC_SHORTEST_PATH_SCANNER_H_
#define GRFUSION_GRAPHEXEC_SHORTEST_PATH_SCANNER_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "graphexec/path_scanner.h"

namespace grfusion {

/// SPScan (paper §6.3, HINT(SHORTESTPATH)): a lazy Dijkstra that pops
/// partial paths in the deterministic total order (cost, then vertex
/// sequence, then edge sequence, lexicographic) and expands each
/// (start, vertex) at most sp_expansion_cap times (TOP k / LIMIT k).
///
/// Partial paths live in a per-probe prefix-sharing arena: one record per
/// admitted extension holding a parent pointer instead of a copied prefix,
/// with the sum-bound totals in a flat side array. The priority queue holds
/// 4-byte record indexes ordered by cost, falling back to parent-chain
/// walks only on cost ties. A PathData is built only for a record that
/// passes the length and target pre-filters. Expansion counts live in a
/// hash map keyed by (start, vertex), created on first use, so the probe's
/// memory follows the region it explores, not the size of the view.
///
/// With the target bound, an extension to a non-target vertex that can
/// never be expanded is dropped at push time (see Expand); such a record
/// would be popped, neither expanded nor emitted, and discarded, so the
/// drops leave the emission sequence unchanged. They run in ExpandCore's
/// sink, after every check that can fail the statement, so error statuses
/// are unchanged too.
class ShortestPathScanner : public PathScanner {
 public:
  ShortestPathScanner(std::shared_ptr<const TraversalSpec> spec,
                      QueryContext* ctx)
      : PathScanner(std::move(spec), ctx) {}

  Status Reset(std::vector<VertexId> starts, std::optional<VertexId> target,
               const ExecRow* outer_row) override;
  StatusOr<bool> Next(PathPtr* out) override;
  void Release() override;

 private:
  static constexpr uint32_t kNoRecord = std::numeric_limits<uint32_t>::max();

  /// One arena entry: a root (parent == kNoRecord, len 0) or the extension
  /// of `parent` by `edge` to `vertex`.
  struct Record {
    uint32_t parent = kNoRecord;
    uint32_t len = 0;
    VertexId vertex = 0;
    EdgeId edge = kInvalidEdgeId;
    VertexId start = 0;
    double cost = 0.0;
    bool closing = false;
  };

  /// Expansion bookkeeping for one (start, vertex): how many of its paths
  /// were popped for expansion, and the cheapest expandable extension ever
  /// pushed to it (drop rule (c)).
  struct ExpansionSlot {
    uint32_t count = 0;
    double best = std::numeric_limits<double>::infinity();
  };

  struct SlotKeyHash {
    size_t operator()(const std::pair<VertexId, VertexId>& k) const {
      return std::hash<VertexId>()(k.first) * 0x9E3779B97F4A7C15ull ^
             std::hash<VertexId>()(k.second);
    }
  };

  class RecordPrefix;

  /// Accounting footprint of one record: entry, sums, queue index.
  size_t RecordBytes() const {
    return sizeof(Record) + spec_->sum_bounds.size() * sizeof(double) +
           sizeof(uint32_t);
  }
  /// Accounting footprint of one hash-map slot (node plus bucket).
  static constexpr size_t kSlotBytes = 64;

  /// Appends a record and queues it.
  void Push(const Record& record, const double* sums);
  /// Expands record `r` through ExpandCore, applying the push-time drops.
  Status Expand(uint32_t r);

  /// The slot of (start, v), created on first use.
  ExpansionSlot& Slot(VertexId start, VertexId v);
  /// The slot of (start, v) if it was ever used this probe, else nullptr.
  const ExpansionSlot* FindSlot(VertexId start, VertexId v) const;

  /// Heap order: true when record `a` pops after record `b`.
  bool PopsAfter(uint32_t a, uint32_t b) const;
  /// The vertex-then-edge tie-break for two records of equal cost (strcmp
  /// style), walking both parent chains up to their common ancestor.
  int CompareChains(uint32_t a, uint32_t b) const;
  /// The emitted path of record `r`.
  PathData Materialize(uint32_t r) const;
  const double* SumsOf(uint32_t r) const {
    return record_sums_.data() + size_t{r} * spec_->sum_bounds.size();
  }

  void ClearArena();

  std::vector<Record> records_;
  std::vector<double> record_sums_;  ///< sum_bounds.size() per record.
  std::vector<uint32_t> queue_;      ///< Binary heap of record indexes.
  bool arena_full_ = false;          ///< Record index space exhausted.

  std::unordered_map<std::pair<VertexId, VertexId>, ExpansionSlot,
                     SlotKeyHash>
      slots_;
};

}  // namespace grfusion

#endif  // GRFUSION_GRAPHEXEC_SHORTEST_PATH_SCANNER_H_
