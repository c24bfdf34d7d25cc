#ifndef GRFUSION_EXEC_AGG_OPS_H_
#define GRFUSION_EXEC_AGG_OPS_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "exec/operator.h"
#include "expr/expression.h"

namespace grfusion {

/// One aggregate to compute: COUNT(*) (arg == nullptr), or
/// COUNT/SUM/MIN/MAX/AVG over an argument expression.
struct AggregateSpec {
  AggFunc func = AggFunc::kCount;
  ExprPtr arg;  ///< nullptr means COUNT(*).
  std::string output_name;
};

/// Hash aggregation. Output rows are (group keys..., aggregates...) — a NEW
/// row layout; everything above an AggregateOp binds against its output
/// schema. With no group-by keys, emits exactly one row (SQL scalar
/// aggregate over an empty input produces COUNT 0 / NULL others).
///
/// The child is drained in the run protocol (PhysicalOperator::Next). When
/// every group-by key is path-free (`path_free_keys`, one flag per key), a
/// row whose columns the child reports unchanged joins the previous row's
/// group without evaluating or hashing the key.
class AggregateOp : public PhysicalOperator {
 public:
  AggregateOp(OperatorPtr child, std::vector<ExprPtr> group_by,
              std::vector<std::string> group_names,
              std::vector<AggregateSpec> aggs,
              std::vector<bool> path_free_keys = {});
  const Schema& schema() const override { return schema_; }
  std::string name() const override;
  std::string AnalyzeExtra() const override;
  std::vector<const PhysicalOperator*> children() const override {
    return {child_.get()};
  }

 protected:
  Status OpenImpl(QueryContext* ctx) override;
  StatusOr<bool> NextImpl(ExecRow* out) override;
  void CloseImpl() override;

 private:
  struct AggState {
    int64_t count = 0;
    double sum = 0.0;
    Value min;
    Value max;
    bool integral = true;  ///< SUM/MIN/MAX stay BIGINT when all inputs are.
  };
  struct Group {
    std::vector<Value> keys;
    std::vector<AggState> states;
  };

  /// The index in groups_ of `row`'s group, created (and charged) on first
  /// use.
  StatusOr<size_t> GroupFor(const ExecRow& row);
  /// Updates each aggregate's state from `row`, touching only the state its
  /// function reads.
  Status Accumulate(Group* group, const ExecRow& row);
  StatusOr<Value> Finalize(const AggregateSpec& spec,
                           const AggState& state) const;

  OperatorPtr child_;
  std::vector<ExprPtr> group_by_;
  std::vector<AggregateSpec> aggs_;
  Schema schema_;
  /// Grouped, and no key reads a path: rows with unchanged columns share
  /// their predecessor's group.
  bool reuse_group_ = false;

  QueryContext* ctx_ = nullptr;
  std::vector<Group> groups_;
  std::unordered_map<std::vector<Value>, size_t, ValuesHash, ValuesEqual>
      group_index_;
  std::vector<Value> key_;  ///< The current row's group key, reused.
  size_t charged_ = 0;
  size_t cursor_ = 0;
  bool materialized_ = false;
  /// GroupFor calls of a grouped aggregate (EXPLAIN ANALYZE).
  uint64_t group_lookups_ = 0;
};

/// ORDER BY over pre-computed key columns: the planner projects the sort
/// keys as trailing hidden columns, this operator sorts by those column
/// positions, and a StripColumnsOp above removes them.
class SortOp : public PhysicalOperator {
 public:
  struct SortKey {
    size_t column = 0;
    bool descending = false;
  };

  SortOp(OperatorPtr child, std::vector<SortKey> keys)
      : child_(std::move(child)), keys_(std::move(keys)) {}
  const Schema& schema() const override { return child_->schema(); }
  std::string name() const override;
  std::vector<const PhysicalOperator*> children() const override {
    return {child_.get()};
  }

 protected:
  Status OpenImpl(QueryContext* ctx) override;
  StatusOr<bool> NextImpl(ExecRow* out) override;
  void CloseImpl() override;

 private:
  OperatorPtr child_;
  std::vector<SortKey> keys_;
  QueryContext* ctx_ = nullptr;
  std::vector<ExecRow> rows_;
  size_t charged_ = 0;
  size_t cursor_ = 0;
};

}  // namespace grfusion

#endif  // GRFUSION_EXEC_AGG_OPS_H_
