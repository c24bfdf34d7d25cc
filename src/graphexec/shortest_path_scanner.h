#ifndef GRFUSION_GRAPHEXEC_SHORTEST_PATH_SCANNER_H_
#define GRFUSION_GRAPHEXEC_SHORTEST_PATH_SCANNER_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
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
/// (cost, record index) entries, so it loads a record only on a cost tie,
/// to walk parent chains. A PathData is built only for a record that passes
/// the length and target pre-filters. Expansion counts live in one flat
/// open-addressing table keyed by (start, vertex), an entry created on
/// first use, so the probe's memory follows the region it explores, not the
/// size of the view.
///
/// With the target bound, an extension to a non-target vertex that can
/// never be expanded is dropped at push time (see Expand); such a record
/// would be popped, neither expanded nor emitted, and discarded, so the
/// drops leave the emission sequence unchanged. They run in ExpandCore's
/// sink, after every check that can fail the statement, so error statuses
/// are unchanged too. One of them, an edge into a vertex already at its
/// cap, is also taken before those checks when none of them can fail or
/// count anything (RecordPrefix::Screen).
///
/// A point-to-point probe (TraversalSpec::point_to_point, PointProbe, a
/// weight column of valid weights) first runs a bidirectional Dijkstra
/// bound, and Screen then also drops an extension of cost c to v when
/// c + h(v) > μ·(1 + δ): only records on no optimal path go, so the first
/// emitted row is unchanged, cost bits and tie-break included (DESIGN.md
/// §16).
class ShortestPathScanner : public PathScanner {
 public:
  ShortestPathScanner(std::shared_ptr<const TraversalSpec> spec,
                      QueryContext* ctx)
      : PathScanner(std::move(spec), ctx),
        early_drop_spec_(spec_->sum_bounds.empty() &&
                         (spec_->element_preds.empty() ||
                          !spec_->push_filters)) {}

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
  /// pushed to it (drop rule (c)). An entry of the slot table; `used`
  /// marks it occupied.
  struct ExpansionSlot {
    VertexId start = 0;
    VertexId vertex = 0;
    double best = std::numeric_limits<double>::infinity();
    uint32_t count = 0;
    bool used = false;
  };

  /// A heap entry: the record's cost beside its index.
  struct QueueEntry {
    double cost;
    uint32_t record;
  };

  class RecordPrefix;

  /// Accounting footprint of one record: entry, sums, heap entry.
  size_t RecordBytes() const {
    return sizeof(Record) + spec_->sum_bounds.size() * sizeof(double) +
           sizeof(QueueEntry);
  }

  static constexpr size_t kInitialSlots = 16;

  /// Runs the point-to-point bound when the probe meets its rules; false
  /// when it proves the target unreachable.
  StatusOr<bool> ArmBound(const std::vector<VertexId>& seeds);
  /// Appends a record and queues it.
  void Push(const Record& record, const double* sums);
  /// Expands record `r` through ExpandCore, applying the push-time drops.
  Status Expand(uint32_t r);

  /// The table position of (start, v): its entry, or the free entry where
  /// it would be inserted. The table must be non-empty.
  size_t FindSlot(VertexId start, VertexId v) const;
  /// The entry of (start, v) at `pos` (a FindSlot result not invalidated by
  /// an insertion since), created there if free.
  ExpansionSlot& SlotAt(size_t pos, VertexId start, VertexId v);
  /// The entry of (start, v), created on first use.
  ExpansionSlot& Slot(VertexId start, VertexId v);

  /// Heap order: true when `a` pops after `b`.
  bool PopsAfter(const QueueEntry& a, const QueueEntry& b) const {
    if (a.cost != b.cost) return a.cost > b.cost;
    return CompareChains(a.record, b.record) > 0;
  }
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
  std::vector<QueueEntry> queue_;    ///< Binary heap.
  bool arena_full_ = false;          ///< Record index space exhausted.

  /// Open-addressing table (linear probing, power-of-two size; empty until
  /// the probe's first pop), charged by its size.
  std::vector<ExpansionSlot> slots_;
  size_t slots_used_ = 0;
  /// Whether the spec lets RecordPrefix::Screen drop early: no check
  /// between it and the sink can prune (pushed element filters, sum
  /// bounds), so the weight is the only one that can fail.
  bool early_drop_spec_ = false;
};

}  // namespace grfusion

#endif  // GRFUSION_GRAPHEXEC_SHORTEST_PATH_SCANNER_H_
