#ifndef GRFUSION_EXEC_JOIN_OPS_H_
#define GRFUSION_EXEC_JOIN_OPS_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "exec/operator.h"
#include "exec/row_layout.h"
#include "expr/expression.h"

namespace grfusion {

/// Copies the right side's column block and path slots into a copy of the
/// left row (blocks are disjoint in the full-width row model).
ExecRow MergeRows(const ExecRow& left, const ExecRow& right,
                  size_t right_offset, size_t right_width);

/// Inner hash join. The LEFT child is the build side — in the planner's
/// left-deep trees that is the accumulated intermediate result, so the
/// memory charged here is exactly the paper's "intermediate temporary-memory
/// of the join operators" (§7.2).
class HashJoinOp : public PhysicalOperator {
 public:
  HashJoinOp(OperatorPtr left, OperatorPtr right,
             std::vector<ExprPtr> left_keys, std::vector<ExprPtr> right_keys,
             ExprPtr residual, size_t right_offset, size_t right_width);
  const Schema& schema() const override { return left_->schema(); }
  std::string name() const override;
  std::vector<const PhysicalOperator*> children() const override {
    return {left_.get(), right_.get()};
  }

 protected:
  Status OpenImpl(QueryContext* ctx) override;
  StatusOr<bool> NextImpl(ExecRow* out) override;
  void CloseImpl() override;

 private:
  /// Evaluates `exprs` over `row` into `key`; false when a key is NULL,
  /// which never joins.
  StatusOr<bool> KeyFor(const std::vector<ExprPtr>& exprs, const ExecRow& row,
                        std::vector<Value>* key) const;

  OperatorPtr left_;
  OperatorPtr right_;
  std::vector<ExprPtr> left_keys_;
  std::vector<ExprPtr> right_keys_;
  ExprPtr residual_;
  size_t right_offset_;
  size_t right_width_;

  QueryContext* ctx_ = nullptr;
  std::unordered_map<std::vector<Value>, std::vector<ExecRow>, ValuesHash,
                     ValuesEqual>
      build_;
  std::vector<Value> key_;  ///< The current row's join key, reused.
  size_t charged_ = 0;
  ExecRow probe_row_;
  const std::vector<ExecRow>* bucket_ = nullptr;
  size_t bucket_pos_ = 0;
};

/// Inner nested-loop join with an arbitrary (possibly empty) predicate. The
/// RIGHT side is materialized once at Open and charged to the query's memory
/// accountant.
class NestedLoopJoinOp : public PhysicalOperator {
 public:
  NestedLoopJoinOp(OperatorPtr left, OperatorPtr right, ExprPtr predicate,
                   size_t right_offset, size_t right_width);
  const Schema& schema() const override { return left_->schema(); }
  std::string name() const override;
  std::vector<const PhysicalOperator*> children() const override {
    return {left_.get(), right_.get()};
  }

 protected:
  Status OpenImpl(QueryContext* ctx) override;
  StatusOr<bool> NextImpl(ExecRow* out) override;
  void CloseImpl() override;

 private:
  OperatorPtr left_;
  OperatorPtr right_;
  ExprPtr predicate_;
  size_t right_offset_;
  size_t right_width_;

  QueryContext* ctx_ = nullptr;
  std::vector<ExecRow> right_rows_;
  size_t charged_ = 0;
  ExecRow left_row_;
  bool left_valid_ = false;
  size_t right_pos_ = 0;
};

}  // namespace grfusion

#endif  // GRFUSION_EXEC_JOIN_OPS_H_
