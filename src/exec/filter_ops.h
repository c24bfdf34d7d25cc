#ifndef GRFUSION_EXEC_FILTER_OPS_H_
#define GRFUSION_EXEC_FILTER_OPS_H_

#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "exec/operator.h"
#include "expr/expression.h"

namespace grfusion {

/// Relational selection: passes rows whose predicate evaluates to true.
class FilterOp : public PhysicalOperator {
 public:
  FilterOp(OperatorPtr child, ExprPtr predicate)
      : child_(std::move(child)), predicate_(std::move(predicate)) {}
  const Schema& schema() const override { return child_->schema(); }
  std::string name() const override {
    return "Filter(" + predicate_->ToString() + ")";
  }
  std::vector<const PhysicalOperator*> children() const override {
    return {child_.get()};
  }

  PhysicalOperator* input() const { return child_.get(); }
  const Expression& predicate() const { return *predicate_; }

 protected:
  Status OpenImpl(QueryContext* ctx) override { return child_->Open(ctx); }
  StatusOr<bool> NextImpl(ExecRow* out) override;
  void CloseImpl() override { child_->Close(); }

 private:
  OperatorPtr child_;
  ExprPtr predicate_;
};

/// Relational projection: evaluates one expression per output column. The
/// child writes into a member row, whose buffers are reused across rows.
class ProjectOp : public PhysicalOperator {
 public:
  ProjectOp(OperatorPtr child, std::vector<ExprPtr> exprs, Schema schema)
      : child_(std::move(child)), exprs_(std::move(exprs)),
        schema_(std::move(schema)) {}
  const Schema& schema() const override { return schema_; }
  std::string name() const override;
  std::vector<const PhysicalOperator*> children() const override {
    return {child_.get()};
  }

 protected:
  Status OpenImpl(QueryContext* ctx) override { return child_->Open(ctx); }
  StatusOr<bool> NextImpl(ExecRow* out) override;
  void CloseImpl() override {
    child_->Close();
    input_ = ExecRow();
  }

 private:
  OperatorPtr child_;
  std::vector<ExprPtr> exprs_;
  Schema schema_;
  ExecRow input_;
};

/// Keeps only the first `keep` columns of each row (used to strip hidden
/// sort-key columns after an ORDER BY).
class StripColumnsOp : public PhysicalOperator {
 public:
  StripColumnsOp(OperatorPtr child, size_t keep);
  const Schema& schema() const override { return schema_; }
  std::string name() const override { return "StripColumns"; }
  std::vector<const PhysicalOperator*> children() const override {
    return {child_.get()};
  }

 protected:
  Status OpenImpl(QueryContext* ctx) override { return child_->Open(ctx); }
  StatusOr<bool> NextImpl(ExecRow* out) override;
  void CloseImpl() override { child_->Close(); }

 private:
  OperatorPtr child_;
  size_t keep_;
  Schema schema_;
};

/// LIMIT n (also used for SELECT TOP n).
class LimitOp : public PhysicalOperator {
 public:
  LimitOp(OperatorPtr child, int64_t limit)
      : child_(std::move(child)), limit_(limit) {}
  const Schema& schema() const override { return child_->schema(); }
  std::string name() const override {
    return "Limit(" + std::to_string(limit_) + ")";
  }
  std::vector<const PhysicalOperator*> children() const override {
    return {child_.get()};
  }

 protected:
  Status OpenImpl(QueryContext* ctx) override {
    produced_ = 0;
    return child_->Open(ctx);
  }
  StatusOr<bool> NextImpl(ExecRow* out) override;
  void CloseImpl() override { child_->Close(); }

 private:
  OperatorPtr child_;
  int64_t limit_;
  int64_t produced_ = 0;
};

/// SELECT DISTINCT de-duplication over the output columns.
class DistinctOp : public PhysicalOperator {
 public:
  explicit DistinctOp(OperatorPtr child) : child_(std::move(child)) {}
  const Schema& schema() const override { return child_->schema(); }
  std::string name() const override { return "Distinct"; }
  std::vector<const PhysicalOperator*> children() const override {
    return {child_.get()};
  }

 protected:
  Status OpenImpl(QueryContext* ctx) override;
  StatusOr<bool> NextImpl(ExecRow* out) override;
  void CloseImpl() override;

 private:
  OperatorPtr child_;
  QueryContext* ctx_ = nullptr;
  std::unordered_set<std::vector<Value>, ValuesHash, ValuesEqual> seen_;
  size_t charged_ = 0;
};

}  // namespace grfusion

#endif  // GRFUSION_EXEC_FILTER_OPS_H_
