#include "exec/join_ops.h"

namespace grfusion {

ExecRow MergeRows(const ExecRow& left, const ExecRow& right,
                  size_t right_offset, size_t right_width) {
  ExecRow out = left;
  for (size_t i = 0; i < right_width; ++i) {
    out.columns[right_offset + i] = right.columns[right_offset + i];
  }
  for (size_t slot = 0; slot < out.paths.size() && slot < right.paths.size();
       ++slot) {
    if (right.paths[slot] != nullptr) out.paths[slot] = right.paths[slot];
  }
  return out;
}

// --- HashJoinOp ------------------------------------------------------------------

HashJoinOp::HashJoinOp(OperatorPtr left, OperatorPtr right,
                       std::vector<ExprPtr> left_keys,
                       std::vector<ExprPtr> right_keys, ExprPtr residual,
                       size_t right_offset, size_t right_width)
    : left_(std::move(left)), right_(std::move(right)),
      left_keys_(std::move(left_keys)), right_keys_(std::move(right_keys)),
      residual_(std::move(residual)), right_offset_(right_offset),
      right_width_(right_width) {}

StatusOr<bool> HashJoinOp::KeyFor(const std::vector<ExprPtr>& exprs,
                                  const ExecRow& row,
                                  std::vector<Value>* key) const {
  key->resize(exprs.size());
  for (size_t i = 0; i < exprs.size(); ++i) {
    GRF_ASSIGN_OR_RETURN(Value v, exprs[i]->Eval(row));
    if (v.is_null()) return false;  // NULL never joins.
    // Normalize numerics so BIGINT 3 and DOUBLE 3.0 meet in one bucket.
    if (v.type() == ValueType::kBigInt) {
      (*key)[i] = Value::Double(static_cast<double>(v.AsBigInt()));
    } else {
      (*key)[i] = std::move(v);
    }
  }
  return true;
}

Status HashJoinOp::OpenImpl(QueryContext* ctx) {
  ctx_ = ctx;
  build_.clear();
  charged_ = 0;
  bucket_ = nullptr;
  bucket_pos_ = 0;

  GRF_RETURN_IF_ERROR(left_->Open(ctx));
  ExecRow row;
  while (true) {
    auto has = left_->Next(&row);
    if (!has.ok()) {
      left_->Close();
      return has.status();
    }
    if (!*has) break;
    auto keyed = KeyFor(left_keys_, row, &key_);
    if (!keyed.ok()) {
      left_->Close();
      return keyed.status();
    }
    if (!*keyed) continue;  // NULL key: drops out of an inner join.
    size_t bytes = row.ByteSize() + key_.size() * sizeof(Value);
    charged_ += bytes;
    Status charge = ctx->ChargeBytes(bytes);
    if (!charge.ok()) {
      left_->Close();
      return charge;
    }
    build_[key_].push_back(std::move(row));
  }
  left_->Close();
  return right_->Open(ctx);
}

StatusOr<bool> HashJoinOp::NextImpl(ExecRow* out) {
  while (true) {
    if (bucket_ != nullptr && bucket_pos_ < bucket_->size()) {
      ExecRow merged = MergeRows((*bucket_)[bucket_pos_++], probe_row_,
                                 right_offset_, right_width_);
      if (residual_ != nullptr) {
        GRF_ASSIGN_OR_RETURN(bool pass, EvalPredicate(*residual_, merged));
        if (!pass) continue;
      }
      ++ctx_->stats().rows_joined;
      *out = std::move(merged);
      return true;
    }
    bucket_ = nullptr;
    GRF_ASSIGN_OR_RETURN(bool has, right_->Next(&probe_row_));
    if (!has) return false;
    GRF_ASSIGN_OR_RETURN(bool keyed, KeyFor(right_keys_, probe_row_, &key_));
    if (!keyed) continue;
    auto it = build_.find(key_);
    if (it == build_.end()) continue;
    bucket_ = &it->second;
    bucket_pos_ = 0;
  }
}

void HashJoinOp::CloseImpl() {
  right_->Close();
  build_.clear();
  if (ctx_ != nullptr) ctx_->ReleaseBytes(charged_);
  charged_ = 0;
}

std::string HashJoinOp::name() const {
  std::string out = "HashJoin(";
  for (size_t i = 0; i < left_keys_.size(); ++i) {
    if (i > 0) out += " AND ";
    out += left_keys_[i]->ToString() + " = " + right_keys_[i]->ToString();
  }
  if (residual_ != nullptr) out += ", residual: " + residual_->ToString();
  return out + ")";
}

// --- NestedLoopJoinOp ---------------------------------------------------------------

NestedLoopJoinOp::NestedLoopJoinOp(OperatorPtr left, OperatorPtr right,
                                   ExprPtr predicate, size_t right_offset,
                                   size_t right_width)
    : left_(std::move(left)), right_(std::move(right)),
      predicate_(std::move(predicate)), right_offset_(right_offset),
      right_width_(right_width) {}

Status NestedLoopJoinOp::OpenImpl(QueryContext* ctx) {
  ctx_ = ctx;
  right_rows_.clear();
  charged_ = 0;
  left_valid_ = false;
  right_pos_ = 0;

  GRF_RETURN_IF_ERROR(right_->Open(ctx));
  ExecRow row;
  while (true) {
    auto has = right_->Next(&row);
    if (!has.ok()) {
      right_->Close();
      return has.status();
    }
    if (!*has) break;
    size_t bytes = row.ByteSize();
    charged_ += bytes;
    Status charge = ctx->ChargeBytes(bytes);
    if (!charge.ok()) {
      right_->Close();
      return charge;
    }
    right_rows_.push_back(std::move(row));
  }
  right_->Close();
  return left_->Open(ctx);
}

StatusOr<bool> NestedLoopJoinOp::NextImpl(ExecRow* out) {
  while (true) {
    if (!left_valid_) {
      GRF_ASSIGN_OR_RETURN(bool has, left_->Next(&left_row_));
      if (!has) return false;
      left_valid_ = true;
      right_pos_ = 0;
    }
    while (right_pos_ < right_rows_.size()) {
      ExecRow merged = MergeRows(left_row_, right_rows_[right_pos_++],
                                 right_offset_, right_width_);
      if (predicate_ != nullptr) {
        GRF_ASSIGN_OR_RETURN(bool pass, EvalPredicate(*predicate_, merged));
        if (!pass) continue;
      }
      ++ctx_->stats().rows_joined;
      *out = std::move(merged);
      return true;
    }
    left_valid_ = false;
  }
}

void NestedLoopJoinOp::CloseImpl() {
  left_->Close();
  right_rows_.clear();
  if (ctx_ != nullptr) ctx_->ReleaseBytes(charged_);
  charged_ = 0;
}

std::string NestedLoopJoinOp::name() const {
  return predicate_ == nullptr
             ? "NestedLoopJoin(cross)"
             : "NestedLoopJoin(" + predicate_->ToString() + ")";
}

}  // namespace grfusion
