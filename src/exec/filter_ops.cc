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
  ExecRow input;
  GRF_ASSIGN_OR_RETURN(bool has, child_->Next(&input));
  if (!has) return false;
  ExecRow result;
  result.columns.reserve(exprs_.size());
  for (const ExprPtr& expr : exprs_) {
    GRF_ASSIGN_OR_RETURN(Value v, expr->Eval(input));
    result.columns.push_back(std::move(v));
  }
  result.paths = std::move(input.paths);
  *out = std::move(result);
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
