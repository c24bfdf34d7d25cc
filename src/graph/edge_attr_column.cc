#include "graph/edge_attr_column.h"

#include <cmath>

namespace grfusion {

EdgeAttrColumn::EdgeAttrColumn(ValueType type, size_t slots)
    : type_(type), slots_(slots) {
  if (type_ == ValueType::kBigInt) {
    i64_.assign(slots, 0);
  } else {
    f64_.assign(slots, 0.0);
  }
}

void EdgeAttrColumn::Mark(std::vector<uint64_t>* bits, size_t slots,
                          size_t i) {
  if (bits->empty()) bits->assign((slots + 63) / 64, 0);
  (*bits)[i >> 6] |= uint64_t{1} << (i & 63);
}

void EdgeAttrColumn::Set(size_t slot, const Value* value) {
  if (value == nullptr) {
    Mark(&undescribed_, slots_, slot);
    all_non_negative_ = false;
  } else if (value->is_null()) {
    Mark(&nulls_, slots_, slot);
    all_non_negative_ = false;
  } else if (value->type() != type_) {
    Mark(&undescribed_, slots_, slot);
    all_non_negative_ = false;
  } else if (type_ == ValueType::kBigInt) {
    i64_[slot] = value->AsBigInt();
    all_non_negative_ = all_non_negative_ && i64_[slot] >= 0;
  } else {
    f64_[slot] = value->AsDouble();
    all_non_negative_ = all_non_negative_ && f64_[slot] >= 0 &&
                        std::isfinite(f64_[slot]);
  }
}

size_t EdgeAttrColumn::Bytes() const {
  return sizeof(EdgeAttrColumn) + i64_.capacity() * sizeof(int64_t) +
         f64_.capacity() * sizeof(double) +
         (nulls_.capacity() + undescribed_.capacity()) * sizeof(uint64_t);
}

}  // namespace grfusion
