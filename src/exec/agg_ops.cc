#include "exec/agg_ops.h"

#include <algorithm>

#include "common/string_util.h"

namespace grfusion {

// --- AggregateOp ------------------------------------------------------------------

AggregateOp::AggregateOp(OperatorPtr child, std::vector<ExprPtr> group_by,
                         std::vector<std::string> group_names,
                         std::vector<AggregateSpec> aggs,
                         std::vector<bool> path_free_keys)
    : child_(std::move(child)), group_by_(std::move(group_by)),
      aggs_(std::move(aggs)),
      reuse_group_(!group_by_.empty() &&
                   path_free_keys.size() == group_by_.size() &&
                   std::all_of(path_free_keys.begin(), path_free_keys.end(),
                               [](bool free) { return free; })) {
  for (size_t i = 0; i < group_by_.size(); ++i) {
    schema_.AddColumn(Column(group_names[i], group_by_[i]->result_type()));
  }
  for (const AggregateSpec& spec : aggs_) {
    ValueType type;
    switch (spec.func) {
      case AggFunc::kCount:
        type = ValueType::kBigInt;
        break;
      case AggFunc::kAvg:
        type = ValueType::kDouble;
        break;
      default:
        type = spec.arg == nullptr ? ValueType::kDouble
                                   : spec.arg->result_type();
        break;
    }
    schema_.AddColumn(Column(spec.output_name, type));
  }
}

Status AggregateOp::Accumulate(Group* group, const ExecRow& row) {
  for (size_t i = 0; i < aggs_.size(); ++i) {
    const AggregateSpec& spec = aggs_[i];
    AggState& state = group->states[i];
    if (spec.arg == nullptr) {  // COUNT(*)
      ++state.count;
      continue;
    }
    if (spec.func == AggFunc::kCount) {
      GRF_ASSIGN_OR_RETURN(bool counted, spec.arg->EvalIsNotNull(row));
      if (counted) ++state.count;
      continue;
    }
    GRF_ASSIGN_OR_RETURN(Value v, spec.arg->Eval(row));
    if (v.is_null()) continue;  // Aggregates skip NULLs.
    ++state.count;
    switch (spec.func) {
      case AggFunc::kMin:
      case AggFunc::kMax: {
        Value& best = spec.func == AggFunc::kMin ? state.min : state.max;
        if (best.is_null()) {
          best = std::move(v);
          break;
        }
        GRF_ASSIGN_OR_RETURN(int cmp, v.Compare(best));
        if (spec.func == AggFunc::kMin ? cmp < 0 : cmp > 0) {
          best = std::move(v);
        }
        break;
      }
      default:  // SUM, AVG.
        if (v.type() != ValueType::kBigInt &&
            v.type() != ValueType::kDouble) {
          return Status::InvalidArgument(
              "cannot " + std::string(AggFuncToString(spec.func)) +
              " non-numeric value " + v.ToString());
        }
        if (v.type() == ValueType::kDouble) state.integral = false;
        state.sum += v.AsNumeric();
        break;
    }
  }
  return Status::OK();
}

StatusOr<Value> AggregateOp::Finalize(const AggregateSpec& spec,
                                      const AggState& state) const {
  switch (spec.func) {
    case AggFunc::kCount:
      return Value::BigInt(state.count);
    case AggFunc::kSum:
      if (state.count == 0) return Value::Null();
      return state.integral ? Value::BigInt(static_cast<int64_t>(state.sum))
                            : Value::Double(state.sum);
    case AggFunc::kAvg:
      if (state.count == 0) return Value::Null();
      return Value::Double(state.sum / static_cast<double>(state.count));
    case AggFunc::kMin:
      return state.min;
    case AggFunc::kMax:
      return state.max;
  }
  return Status::Internal("bad aggregate function");
}

StatusOr<size_t> AggregateOp::GroupFor(const ExecRow& row) {
  // A scalar aggregate has one group and no key.
  if (group_by_.empty() && !groups_.empty()) return 0;
  if (!group_by_.empty()) ++group_lookups_;
  key_.resize(group_by_.size());
  for (size_t i = 0; i < group_by_.size(); ++i) {
    GRF_ASSIGN_OR_RETURN(key_[i], group_by_[i]->Eval(row));
  }
  if (!group_by_.empty()) {
    auto it = group_index_.find(key_);
    if (it != group_index_.end()) return it->second;
  }
  Group group;
  group.keys = key_;
  group.states.resize(aggs_.size());
  size_t bytes = 64 + group.keys.size() * sizeof(Value) +
                 group.states.size() * sizeof(AggState);
  charged_ += bytes;
  GRF_RETURN_IF_ERROR(ctx_->ChargeBytes(bytes));
  if (!group_by_.empty()) group_index_.emplace(key_, groups_.size());
  groups_.push_back(std::move(group));
  return groups_.size() - 1;
}

Status AggregateOp::OpenImpl(QueryContext* ctx) {
  ctx_ = ctx;
  groups_.clear();
  group_index_.clear();
  charged_ = 0;
  cursor_ = 0;
  materialized_ = false;
  group_lookups_ = 0;

  GRF_RETURN_IF_ERROR(child_->Open(ctx));
  // `row` goes back to the child untouched: the run protocol's promise.
  ExecRow row;
  bool unchanged = false;
  size_t group = 0;
  Status result = Status::OK();
  while (true) {
    auto has = child_->Next(&row, &unchanged);
    if (!has.ok()) {
      result = has.status();
      break;
    }
    if (!*has) break;
    // Unchanged columns mean unchanged path-free keys: the same group.
    if (!reuse_group_ || !unchanged) {
      auto found = GroupFor(row);
      if (!found.ok()) {
        result = found.status();
        break;
      }
      group = *found;  // An index: groups_ may reallocate.
    }
    result = Accumulate(&groups_[group], row);
    if (!result.ok()) break;
  }
  child_->Close();
  GRF_RETURN_IF_ERROR(result);

  // Scalar aggregate over empty input still yields one row.
  if (group_by_.empty() && groups_.empty()) {
    Group group;
    group.states.resize(aggs_.size());
    groups_.push_back(std::move(group));
  }
  materialized_ = true;
  return Status::OK();
}

StatusOr<bool> AggregateOp::NextImpl(ExecRow* out) {
  if (!materialized_ || cursor_ >= groups_.size()) return false;
  const Group& group = groups_[cursor_++];
  ExecRow row;
  row.columns = group.keys;
  for (size_t i = 0; i < aggs_.size(); ++i) {
    GRF_ASSIGN_OR_RETURN(Value v, Finalize(aggs_[i], group.states[i]));
    row.columns.push_back(std::move(v));
  }
  *out = std::move(row);
  return true;
}

void AggregateOp::CloseImpl() {
  groups_.clear();
  group_index_.clear();
  if (ctx_ != nullptr) ctx_->ReleaseBytes(charged_);
  charged_ = 0;
  materialized_ = false;
}

std::string AggregateOp::name() const {
  std::string out = "Aggregate(";
  for (size_t i = 0; i < aggs_.size(); ++i) {
    if (i > 0) out += ", ";
    out += AggFuncToString(aggs_[i].func);
    out += "(";
    out += aggs_[i].arg == nullptr ? "*" : aggs_[i].arg->ToString();
    out += ")";
  }
  if (!group_by_.empty()) {
    out += " GROUP BY ";
    for (size_t i = 0; i < group_by_.size(); ++i) {
      if (i > 0) out += ", ";
      out += group_by_[i]->ToString();
    }
  }
  return out + ")";
}

std::string AggregateOp::AnalyzeExtra() const {
  if (group_by_.empty()) return "";
  return StrFormat(" group_lookups=%llu",
                   static_cast<unsigned long long>(group_lookups_));
}

// --- SortOp -----------------------------------------------------------------------

Status SortOp::OpenImpl(QueryContext* ctx) {
  ctx_ = ctx;
  rows_.clear();
  charged_ = 0;
  cursor_ = 0;

  GRF_RETURN_IF_ERROR(child_->Open(ctx));
  ExecRow row;
  Status result = Status::OK();
  while (true) {
    auto has = child_->Next(&row);
    if (!has.ok()) {
      result = has.status();
      break;
    }
    if (!*has) break;
    size_t bytes = row.ByteSize();
    charged_ += bytes;
    result = ctx->ChargeBytes(bytes);
    if (!result.ok()) break;
    rows_.push_back(std::move(row));
  }
  child_->Close();
  GRF_RETURN_IF_ERROR(result);

  std::stable_sort(rows_.begin(), rows_.end(),
                   [this](const ExecRow& a, const ExecRow& b) {
                     for (const SortKey& key : keys_) {
                       const Value& va = a.columns[key.column];
                       const Value& vb = b.columns[key.column];
                       // NULLs first (SQL NULLS FIRST on ASC).
                       if (va.is_null() || vb.is_null()) {
                         if (va.is_null() == vb.is_null()) continue;
                         bool less = va.is_null();
                         return key.descending ? !less : less;
                       }
                       auto cmp = va.Compare(vb);
                       int c = cmp.ok() ? *cmp : 0;
                       if (c != 0) return key.descending ? c > 0 : c < 0;
                     }
                     return false;
                   });
  return Status::OK();
}

StatusOr<bool> SortOp::NextImpl(ExecRow* out) {
  if (cursor_ >= rows_.size()) return false;
  *out = std::move(rows_[cursor_++]);
  return true;
}

void SortOp::CloseImpl() {
  rows_.clear();
  if (ctx_ != nullptr) ctx_->ReleaseBytes(charged_);
  charged_ = 0;
}

std::string SortOp::name() const {
  std::string out = "Sort(";
  for (size_t i = 0; i < keys_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "#" + std::to_string(keys_[i].column);
    if (keys_[i].descending) out += " DESC";
  }
  return out + ")";
}

}  // namespace grfusion
