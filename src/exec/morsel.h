#ifndef GRFUSION_EXEC_MORSEL_H_
#define GRFUSION_EXEC_MORSEL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "exec/operator.h"

namespace grfusion {

/// The source of a morsel pipeline (DESIGN.md §20): an operator whose input
/// is cut into fixed morsels that private readers run, on any worker and in
/// any order. A morsel holds kMorselSize input rows, or kMorselSize starts
/// of an unbound path probe. The boundaries depend only on the input, never
/// on the worker count, so a consumer that merges per-morsel results in
/// morsel order gets the same answer at any worker count.
///
/// The interface lets AggregateOp (exec) drive PathProbeJoinOp (graphexec),
/// which sits a layer above it. The consumer drives it:
///  1. set_morsel_mode(true), then Open the operator: it runs its input once
///     on the calling thread and buffers it under the statement budget;
///  2. one NewReader() per worker;
///  3. per morsel, SelectMorsel(reader, m), then Open/drain/Close the reader
///     (or a pipeline over it) under the worker's context;
///  4. FinishMorsels once every reader is done, then Close the operator.
class MorselSource {
 public:
  /// Input rows (or unbound starts) per morsel. A constant, so a statement's
  /// morsels are the same whatever its worker count.
  static constexpr size_t kMorselSize = 16;

  virtual ~MorselSource() = default;

  /// Whether the next Open buffers the input into morsels instead of
  /// streaming it.
  virtual void set_morsel_mode(bool on) = 0;

  /// Morsels cut by the last Open in morsel mode.
  virtual size_t morsel_count() const = 0;

  /// A private operator that yields the rows of the morsel SelectMorsel last
  /// chose, once per Open. It reads this operator's buffer, which must stay
  /// open while the reader runs; readers may run concurrently.
  virtual OperatorPtr NewReader() const = 0;
  virtual void SelectMorsel(PhysicalOperator* reader, size_t morsel) const = 0;

  /// Folds the finished readers' counters into this operator and records
  /// each worker's busy time (EXPLAIN ANALYZE). Called on the calling
  /// thread after every worker has joined.
  virtual void FinishMorsels(
      const std::vector<const PhysicalOperator*>& readers,
      std::vector<uint64_t> worker_ns) = 0;
};

}  // namespace grfusion

#endif  // GRFUSION_EXEC_MORSEL_H_
