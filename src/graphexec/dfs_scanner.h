#ifndef GRFUSION_GRAPHEXEC_DFS_SCANNER_H_
#define GRFUSION_GRAPHEXEC_DFS_SCANNER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "graphexec/path_scanner.h"

namespace grfusion {

/// DFScan (paper §5.1.2): depth-first enumeration of simple paths, emitting
/// each qualifying path in pre-order, one per Next() or, without emitting
/// anything, one per ForEachPath sink call.
///
/// The stack holds one-hop records {vertex, edge, depth, closing} instead of
/// copied prefixes, with the sum-bound totals in a flat side array, and the
/// scanner keeps one current-path buffer. Popping a record truncates the
/// buffer to the record's depth and appends its hop. A record is pushed
/// while its parent's path is the buffer, and everything pushed after it
/// (its siblings and their descendants) only rewrites buffer positions at
/// or past its depth, so LIFO order guarantees the buffer then holds exactly
/// the popped record's path. That buffer is ExpandCore's prefix and the
/// input to Qualifies, so extension and emission allocate nothing per path.
///
/// Each stack record is charged to the query budget from its push until it
/// is popped or Release() runs.
///
/// Emission recycles: the scanner keeps the PathData it last emitted and,
/// when it holds the only reference, refills that object in place instead of
/// allocating a new one. A consumer that keeps a path (Sort, a hash-join
/// build side, a held PathPtr) keeps a reference, so it is never
/// overwritten; it just costs the next emission a fresh object.
class DfsScanner : public PathScanner {
 public:
  DfsScanner(std::shared_ptr<const TraversalSpec> spec, QueryContext* ctx)
      : PathScanner(std::move(spec), ctx) {}

  Status Reset(std::vector<VertexId> starts, std::optional<VertexId> target,
               const ExecRow* outer_row) override;
  StatusOr<bool> Next(PathPtr* out) override;
  void Release() override;

  /// Runs the armed probe to its end, calling `sink(const PathData&)` (which
  /// returns Status) for each qualifying path in Next()'s order. The sink
  /// sees the scanner's own path buffer: nothing is emitted, so there is no
  /// PathData copy and no shared_ptr traffic per path. The reference is
  /// valid only during the call. Stops at the first error of the traversal
  /// or of the sink.
  template <typename Sink>
  Status ForEachPath(Sink&& sink) {
    while (true) {
      GRF_ASSIGN_OR_RETURN(bool found, Advance());
      if (!found) return Status::OK();
      GRF_RETURN_IF_ERROR(sink(static_cast<const PathData&>(path_)));
    }
  }

 private:
  /// One stack entry: a root (depth 0, no edge) or the hop by `edge` to
  /// `vertex` that extends its parent's path to `depth` edges.
  struct Hop {
    VertexId vertex = 0;
    EdgeId edge = kInvalidEdgeId;
    uint32_t depth = 0;
    bool closing = false;  ///< Cycle back to start: emit but never extend.
  };

  class BufferPrefix;

  /// Accounting footprint of one stack record: entry plus its sums.
  size_t HopBytes() const {
    return sizeof(Hop) + spec_->sum_bounds.size() * sizeof(double);
  }

  void Push(const Hop& hop, const double* sums);
  /// Pops the top record into the path buffer and `sums_`.
  Hop Pop();
  /// Pushes every admissible extension of the buffered path.
  Status Expand();
  /// Pops, checks for interrupts, expands and checks the memory cap until
  /// the buffer holds a qualifying path (true) or the stack is empty
  /// (false): the body of Next() and ForEachPath().
  StatusOr<bool> Advance();
  /// The emission handle for the buffered path (see the class comment).
  PathPtr Emit();
  void ClearStack();

  std::vector<Hop> stack_;
  std::vector<double> stack_sums_;  ///< sum_bounds.size() per stack record.
  PathData path_;                   ///< The last popped record's path.
  std::vector<double> sums_;        ///< The last popped record's sums.
  std::shared_ptr<PathData> emitted_;  ///< The last emitted path.
};

}  // namespace grfusion

#endif  // GRFUSION_GRAPHEXEC_DFS_SCANNER_H_
