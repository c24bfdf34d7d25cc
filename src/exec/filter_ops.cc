#include "exec/filter_ops.h"

namespace grfusion {

// --- FilterOp ------------------------------------------------------------------

StatusOr<bool> FilterOp::NextImpl(ExecRow* out) {
  while (true) {
    GRF_ASSIGN_OR_RETURN(bool has, child_->Next(out));
    if (!has) return false;
    GRF_ASSIGN_OR_RETURN(bool pass, EvalPredicate(*predicate_, *out));
    if (pass) return true;
  }
}

// --- ProjectOp -----------------------------------------------------------------

StatusOr<bool> ProjectOp::NextImpl(ExecRow* out) {
  // Drop the hold on the previous row's paths so a path scanner below may
  // refill them in place.
  out->paths.clear();
  GRF_ASSIGN_OR_RETURN(bool has, child_->Next(&input_));
  if (!has) return false;
  out->columns.resize(exprs_.size());
  for (size_t i = 0; i < exprs_.size(); ++i) {
    GRF_ASSIGN_OR_RETURN(out->columns[i], exprs_[i]->Eval(input_));
  }
  out->paths = input_.paths;
  return true;
}

std::string ProjectOp::name() const {
  std::string out = "Project(";
  for (size_t i = 0; i < exprs_.size(); ++i) {
    if (i > 0) out += ", ";
    out += exprs_[i]->ToString();
  }
  return out + ")";
}

// --- StripColumnsOp --------------------------------------------------------------

StripColumnsOp::StripColumnsOp(OperatorPtr child, size_t keep)
    : child_(std::move(child)), keep_(keep) {
  for (size_t i = 0; i < keep_ && i < child_->schema().NumColumns(); ++i) {
    schema_.AddColumn(child_->schema().column(i));
  }
}

StatusOr<bool> StripColumnsOp::NextImpl(ExecRow* out) {
  GRF_ASSIGN_OR_RETURN(bool has, child_->Next(out));
  if (!has) return false;
  if (out->columns.size() > keep_) out->columns.resize(keep_);
  return true;
}

// --- LimitOp -------------------------------------------------------------------

StatusOr<bool> LimitOp::NextImpl(ExecRow* out) {
  if (produced_ >= limit_) return false;
  GRF_ASSIGN_OR_RETURN(bool has, child_->Next(out));
  if (!has) return false;
  ++produced_;
  return true;
}

// --- DistinctOp -----------------------------------------------------------------

Status DistinctOp::OpenImpl(QueryContext* ctx) {
  ctx_ = ctx;
  seen_.clear();
  charged_ = 0;
  return child_->Open(ctx);
}

StatusOr<bool> DistinctOp::NextImpl(ExecRow* out) {
  while (true) {
    GRF_ASSIGN_OR_RETURN(bool has, child_->Next(out));
    if (!has) return false;
    if (seen_.find(out->columns) != seen_.end()) continue;
    size_t key_bytes = 32 + out->columns.size() * sizeof(Value);
    for (const Value& v : out->columns) {
      if (v.type() == ValueType::kVarchar) key_bytes += v.AsVarchar().size();
    }
    seen_.insert(out->columns);
    charged_ += key_bytes;
    GRF_RETURN_IF_ERROR(ctx_->ChargeBytes(key_bytes));
    return true;
  }
}

void DistinctOp::CloseImpl() {
  child_->Close();
  seen_.clear();
  if (ctx_ != nullptr) ctx_->ReleaseBytes(charged_);
  charged_ = 0;
}

}  // namespace grfusion
