#ifndef GRFUSION_GRAPH_EDGE_ATTR_COLUMN_H_
#define GRFUSION_GRAPH_EDGE_ATTR_COLUMN_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/value.h"

namespace grfusion {

/// Slot handed to traversal callbacks for an edge that does not sit in the
/// CSR snapshot (an append since the snapshot): no column describes it.
inline constexpr size_t kNoCsrSlot = static_cast<size_t>(-1);

/// A flat, typed copy of one numeric (BIGINT or DOUBLE) edge attribute,
/// aligned with a CSR snapshot's edge slots: slot i < E is the edge at
/// out_edge_pos[i], and for undirected views slot E + i is the edge at
/// in_edge_pos[i] (E = the snapshot's edge count). Traversals read it in
/// place of the tuple pointer chase (version chain walk, Value copy).
///
/// BIGINT values are kept as int64_t, so a read yields exactly the Value the
/// tuple holds. Two bitmaps exist only when needed: NULL slots, and slots
/// the column does not describe (the edge's tuple was not readable, or the
/// edge was already shadowed by a delta overlay, at the building snapshot);
/// the latter, and any slot past the end (in-side slots of a directed view),
/// read the tuple instead. Immutable once built.
class EdgeAttrColumn {
 public:
  /// What a slot read found.
  enum class Cell : uint8_t {
    kValue,  ///< The column holds the slot's non-NULL value.
    kNull,   ///< The slot's tuple holds NULL.
    kTuple,  ///< Not described by the column: read the tuple.
  };

  /// A column of `slots` slots for an attribute of `type` (BIGINT/DOUBLE).
  EdgeAttrColumn(ValueType type, size_t slots);

  ValueType type() const { return type_; }
  size_t size() const { return slots_; }

  /// Records slot `slot`: `value` is the tuple's value, or nullptr when the
  /// column cannot describe the slot. A value whose type is not the
  /// column's is recorded as undescribed too.
  void Set(size_t slot, const Value* value);

  /// The slot as a double (Value::AsNumeric semantics) into `*out`.
  Cell Numeric(size_t slot, double* out) const {
    const Cell cell = Classify(slot);
    if (cell == Cell::kValue) {
      *out = type_ == ValueType::kBigInt ? static_cast<double>(i64_[slot])
                                         : f64_[slot];
    }
    return cell;
  }

  /// The slot as the Value its tuple holds into `*out` (NULL included).
  Cell Read(size_t slot, Value* out) const {
    const Cell cell = Classify(slot);
    if (cell == Cell::kValue) {
      *out = type_ == ValueType::kBigInt ? Value::BigInt(i64_[slot])
                                         : Value::Double(f64_[slot]);
    } else if (cell == Cell::kNull) {
      *out = Value::Null();
    }
    return cell;
  }

  /// True when every slot holds a finite, non-negative number: no NULL, no
  /// undescribed slot, no negative, infinite or NaN value. Set as the
  /// column is built, so a reader can trust any cell as a valid weight.
  bool AllNonNegative() const { return all_non_negative_; }

  /// Heap bytes held by the arrays.
  size_t Bytes() const;

 private:
  static bool Test(const std::vector<uint64_t>& bits, size_t i) {
    return ((bits[i >> 6] >> (i & 63)) & 1) != 0;
  }
  static void Mark(std::vector<uint64_t>* bits, size_t slots, size_t i);

  Cell Classify(size_t slot) const {
    if (slot >= slots_) return Cell::kTuple;
    if (!undescribed_.empty() && Test(undescribed_, slot)) return Cell::kTuple;
    if (!nulls_.empty() && Test(nulls_, slot)) return Cell::kNull;
    return Cell::kValue;
  }

  ValueType type_;
  size_t slots_;
  std::vector<int64_t> i64_;           ///< BIGINT values.
  std::vector<double> f64_;            ///< DOUBLE values.
  std::vector<uint64_t> nulls_;        ///< Only when a slot holds NULL.
  std::vector<uint64_t> undescribed_;  ///< Only when a slot reads its tuple.
  bool all_non_negative_ = true;       ///< See AllNonNegative.
};

}  // namespace grfusion

#endif  // GRFUSION_GRAPH_EDGE_ATTR_COLUMN_H_
