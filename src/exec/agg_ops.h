#ifndef GRFUSION_EXEC_AGG_OPS_H_
#define GRFUSION_EXEC_AGG_OPS_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "exec/filter_ops.h"
#include "exec/morsel.h"
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
/// aggregate over an empty input produces COUNT 0 / NULL others). SUM and
/// AVG add BIGINT inputs exactly in 64 bits and fail with OutOfRange when
/// the sum overflows.
///
/// When the child is a morsel source (a path probe), reached through
/// filters only, the input runs as fixed morsels (DESIGN.md §20): the source
/// pushes each morsel's rows into a sink that applies the filters'
/// predicates and accumulates into the morsel's own partial groups, on up to
/// max_parallelism pool workers (inline at one), and the partials merge in
/// morsel order. Group order, sums and counters are therefore the same at
/// any worker count. When every group-by key is path-free
/// (`path_free_keys`, one flag per key), the rows of one outer row share
/// the group of its first row without evaluating or hashing the key. Any
/// other child is pulled row by row.
///
/// A DFScan source hands the sink each final expansion's leaves as one run
/// when no row needs to be seen alone (no filter stage, no path-keyed
/// group, no armed failpoint): the group is resolved once and COUNT(*) adds
/// the run's size. A timed statement times such a run as one unit.
///
/// Arguments are read through Expression::EvalNumeric, which path lengths
/// and endpoint columns answer without building a Value.
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
    int64_t int_sum = 0;       ///< SUM/AVG over the BIGINT inputs, exact.
    double double_sum = 0.0;   ///< SUM/AVG over the DOUBLE inputs.
    Value min;
    Value max;
    bool integral = true;  ///< SUM stays BIGINT when all inputs are.
  };
  struct Group {
    std::vector<Value> keys;
    std::vector<AggState> states;
  };
  /// Groups in first-seen order with their index: the aggregate's result,
  /// or one morsel's partial. `charged` bytes are held in the context that
  /// built it.
  struct Table {
    std::vector<Group> groups;
    std::unordered_map<std::vector<Value>, size_t, ValuesHash, ValuesEqual>
        index;
    std::vector<Value> key;  ///< The current row's group key, reused.
    size_t charged = 0;
    uint64_t lookups = 0;  ///< GroupFor calls of a grouped aggregate.
  };

  /// Pulls child_ row by row into table_, charging ctx_.
  Status Drain();
  /// The index in `table` of `row`'s group, created on first use.
  StatusOr<size_t> GroupFor(const ExecRow& row, QueryContext* ctx,
                            Table* table) const;
  /// Appends a group with `keys` and empty states, charged to `ctx`.
  Status AddGroup(std::vector<Value> keys, QueryContext* ctx,
                  Table* table) const;
  /// Updates each aggregate's state from `row`, touching only the state its
  /// function reads.
  Status Accumulate(Group* group, const ExecRow& row) const;
  /// Accumulate for one aggregate with an argument; `scratch` holds the
  /// read value.
  Status AccumulateArg(const AggregateSpec& spec, const ExecRow& row,
                       NumericValue* scratch, AggState* state) const;
  /// Accumulate for every leaf of `run`, whose row is `row`: COUNT(*) adds
  /// the run's size, the other aggregates read each leaf in order.
  Status AccumulateRun(Group* group, const ExecRow& row, LeafRun& run) const;
  /// Folds a morsel's partial groups into table_, in their first-seen order.
  Status Merge(const Table& partial);
  StatusOr<Value> Finalize(const AggregateSpec& spec,
                           const AggState& state) const;
  /// Runs the morsels of morsel_source_ (already open) into table_.
  Status RunMorsels();

  OperatorPtr child_;
  std::vector<ExprPtr> group_by_;
  std::vector<AggregateSpec> aggs_;
  Schema schema_;
  /// Grouped, and no key reads a path: in a morsel drain, the rows of one
  /// outer row share its first row's group.
  bool reuse_group_ = false;
  /// The morsel source under the child (`morsel_op_` as an operator) and
  /// the filters between, top-down, whose predicates the morsel sink applies;
  /// null when the input is not eligible.
  MorselSource* morsel_source_ = nullptr;
  PhysicalOperator* morsel_op_ = nullptr;
  std::vector<FilterOp*> morsel_stages_;

  QueryContext* ctx_ = nullptr;
  Table table_;
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
