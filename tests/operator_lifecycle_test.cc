// Operator-level tests of the Volcano protocol: Open/Next/Close re-entrancy
// and exact memory charge/release behavior of the materializing operators
// (the accounting that reproduces the paper's §7.2 join blow-up must not
// leak across executions).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <map>

#include "common/string_util.h"
#include "engine/database.h"
#include "exec/agg_ops.h"
#include "exec/filter_ops.h"
#include "exec/join_ops.h"
#include "exec/scan_ops.h"
#include "graphexec/graph_ops.h"
#include "sql_test_util.h"
#include "storage/table.h"

namespace grfusion {
namespace {

/// Passes `fail_after` child rows through, then returns `error` from
/// NextImpl — the mid-stream failure whose unwinding must not leak charged
/// bytes out of the materializing operators above it.
class FailAfterOp : public PhysicalOperator {
 public:
  FailAfterOp(OperatorPtr child, size_t fail_after, Status error)
      : child_(std::move(child)),
        fail_after_(fail_after),
        error_(std::move(error)) {}

  const Schema& schema() const override { return child_->schema(); }
  std::string name() const override { return "FailAfter"; }
  std::vector<const PhysicalOperator*> children() const override {
    return {child_.get()};
  }

 protected:
  Status OpenImpl(QueryContext* ctx) override {
    emitted_ = 0;
    return child_->Open(ctx);
  }
  StatusOr<bool> NextImpl(ExecRow* out) override {
    if (emitted_ >= fail_after_) return error_;
    auto has = child_->Next(out);
    if (!has.ok() || !*has) return has;
    ++emitted_;
    return true;
  }
  void CloseImpl() override { child_->Close(); }

 private:
  OperatorPtr child_;
  size_t fail_after_;
  Status error_;
  size_t emitted_ = 0;
};

class OperatorLifecycleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = std::make_unique<Table>(
        "t", Schema({Column("a", ValueType::kBigInt),
                     Column("b", ValueType::kVarchar)}));
    for (int64_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(table_
                      ->Insert(Tuple({Value::BigInt(i % 4),
                                      Value::Varchar("row")}))
                      .ok());
    }
    layout_.schema = std::make_shared<Schema>(table_->schema());
    layout_.path_slots = 0;
  }

  /// Drains an operator and returns the row count.
  static size_t Drain(PhysicalOperator* op, QueryContext* ctx) {
    EXPECT_TRUE(op->Open(ctx).ok());
    size_t count = 0;
    ExecRow row;
    while (true) {
      auto has = op->Next(&row);
      EXPECT_TRUE(has.ok()) << has.status().ToString();
      if (!has.ok() || !*has) break;
      ++count;
    }
    op->Close();
    return count;
  }

  std::unique_ptr<Table> table_;
  RowLayout layout_;
};

TEST_F(OperatorLifecycleTest, SeqScanIsReopenable) {
  SeqScanOp scan(table_.get(), nullptr, layout_, 0);
  QueryContext ctx;
  EXPECT_EQ(Drain(&scan, &ctx), 10u);
  EXPECT_EQ(Drain(&scan, &ctx), 10u);  // Re-open yields the same stream.
}

TEST_F(OperatorLifecycleTest, SortChargesAndReleases) {
  auto scan = std::make_unique<SeqScanOp>(table_.get(), nullptr, layout_, 0);
  SortOp sort(std::move(scan), {SortOp::SortKey{0, false}});
  QueryContext ctx;
  ASSERT_TRUE(sort.Open(&ctx).ok());
  EXPECT_GT(ctx.current_bytes(), 0u);  // Buffered rows are charged.
  ExecRow row;
  int64_t prev = -1;
  while (true) {
    auto has = sort.Next(&row);
    ASSERT_TRUE(has.ok());
    if (!*has) break;
    EXPECT_GE(row.columns[0].AsBigInt(), prev);
    prev = row.columns[0].AsBigInt();
  }
  sort.Close();
  EXPECT_EQ(ctx.current_bytes(), 0u);  // Fully released on Close.
  EXPECT_GT(ctx.peak_bytes(), 0u);
}

TEST_F(OperatorLifecycleTest, HashJoinReleasesBuildSide) {
  auto left = std::make_unique<SeqScanOp>(table_.get(), nullptr, layout_, 0);
  auto right = std::make_unique<SeqScanOp>(table_.get(), nullptr, layout_, 0);
  std::vector<ExprPtr> lk{std::make_shared<ColumnRefExpr>(
      0, ValueType::kBigInt, "a")};
  std::vector<ExprPtr> rk{std::make_shared<ColumnRefExpr>(
      0, ValueType::kBigInt, "a")};
  HashJoinOp join(std::move(left), std::move(right), std::move(lk),
                  std::move(rk), nullptr, 0, 0);
  QueryContext ctx;
  // 10 rows over 4 keys {0,1,2,3} with counts {3,3,2,2}: self-join size
  // 9+9+4+4 = 26.
  EXPECT_EQ(Drain(&join, &ctx), 26u);
  EXPECT_EQ(ctx.current_bytes(), 0u);
  EXPECT_EQ(ctx.stats().rows_joined, 26u);
}

TEST_F(OperatorLifecycleTest, HashJoinHonorsMemoryCap) {
  auto left = std::make_unique<SeqScanOp>(table_.get(), nullptr, layout_, 0);
  auto right = std::make_unique<SeqScanOp>(table_.get(), nullptr, layout_, 0);
  std::vector<ExprPtr> lk{std::make_shared<ColumnRefExpr>(
      0, ValueType::kBigInt, "a")};
  std::vector<ExprPtr> rk{std::make_shared<ColumnRefExpr>(
      0, ValueType::kBigInt, "a")};
  HashJoinOp join(std::move(left), std::move(right), std::move(lk),
                  std::move(rk), nullptr, 0, 0);
  QueryContext tiny(/*memory_cap=*/64);
  Status s = join.Open(&tiny);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  join.Close();
  EXPECT_EQ(tiny.current_bytes(), 0u);
}

TEST_F(OperatorLifecycleTest, DistinctReleasesOnClose) {
  auto scan = std::make_unique<SeqScanOp>(table_.get(), nullptr, layout_, 0);
  // Project to the key column so DISTINCT collapses to 4 rows.
  std::vector<ExprPtr> exprs{std::make_shared<ColumnRefExpr>(
      0, ValueType::kBigInt, "a")};
  auto project = std::make_unique<ProjectOp>(
      std::move(scan), std::move(exprs),
      Schema({Column("a", ValueType::kBigInt)}));
  DistinctOp distinct(std::move(project));
  QueryContext ctx;
  EXPECT_EQ(Drain(&distinct, &ctx), 4u);
  EXPECT_EQ(ctx.current_bytes(), 0u);
}

TEST_F(OperatorLifecycleTest, AggregateGroupsAndReleases) {
  auto scan = std::make_unique<SeqScanOp>(table_.get(), nullptr, layout_, 0);
  std::vector<ExprPtr> keys{std::make_shared<ColumnRefExpr>(
      0, ValueType::kBigInt, "a")};
  std::vector<AggregateSpec> specs;
  AggregateSpec count_star;
  count_star.func = AggFunc::kCount;
  count_star.output_name = "n";
  specs.push_back(std::move(count_star));
  AggregateOp agg(std::move(scan), std::move(keys), {"a"}, std::move(specs));
  QueryContext ctx;
  ASSERT_TRUE(agg.Open(&ctx).ok());
  ExecRow row;
  int64_t total = 0;
  size_t groups = 0;
  while (true) {
    auto has = agg.Next(&row);
    ASSERT_TRUE(has.ok());
    if (!*has) break;
    ++groups;
    total += row.columns[1].AsBigInt();
  }
  agg.Close();
  EXPECT_EQ(groups, 4u);
  EXPECT_EQ(total, 10);
  EXPECT_EQ(ctx.current_bytes(), 0u);
}

TEST_F(OperatorLifecycleTest, LimitStopsPullingEagerly) {
  auto scan = std::make_unique<SeqScanOp>(table_.get(), nullptr, layout_, 0);
  LimitOp limit(std::move(scan), 3);
  QueryContext ctx;
  EXPECT_EQ(Drain(&limit, &ctx), 3u);
  // Lazy: only 3 rows were pulled from the scan.
  EXPECT_EQ(ctx.stats().rows_scanned, 3u);
}

TEST_F(OperatorLifecycleTest, NestedLoopJoinCrossProduct) {
  auto left = std::make_unique<SeqScanOp>(table_.get(), nullptr, layout_, 0);
  auto right = std::make_unique<SeqScanOp>(table_.get(), nullptr, layout_, 0);
  NestedLoopJoinOp join(std::move(left), std::move(right), nullptr, 0, 0);
  QueryContext ctx;
  EXPECT_EQ(Drain(&join, &ctx), 100u);
  EXPECT_EQ(ctx.current_bytes(), 0u);
}

TEST_F(OperatorLifecycleTest, SortReleasesOnMidStreamChildError) {
  // Sort materializes in Open: the child error surfaces from Open, with
  // several rows already buffered and charged.
  auto scan = std::make_unique<SeqScanOp>(table_.get(), nullptr, layout_, 0);
  auto failing = std::make_unique<FailAfterOp>(
      std::move(scan), 5, Status::Internal("injected mid-stream"));
  SortOp sort(std::move(failing), {SortOp::SortKey{0, false}});
  QueryContext ctx;
  Status s = sort.Open(&ctx);
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  sort.Close();
  EXPECT_EQ(ctx.current_bytes(), 0u);
}

TEST_F(OperatorLifecycleTest, HashJoinReleasesOnBuildSideError) {
  auto left = std::make_unique<SeqScanOp>(table_.get(), nullptr, layout_, 0);
  auto right = std::make_unique<SeqScanOp>(table_.get(), nullptr, layout_, 0);
  std::vector<ExprPtr> lk{std::make_shared<ColumnRefExpr>(
      0, ValueType::kBigInt, "a")};
  std::vector<ExprPtr> rk{std::make_shared<ColumnRefExpr>(
      0, ValueType::kBigInt, "a")};
  // Fail whichever side the join materializes first; the rows charged before
  // row 5 must all come back on Close.
  auto fail_left = std::make_unique<FailAfterOp>(
      std::move(left), 5, Status::Internal("injected mid-stream"));
  auto fail_right = std::make_unique<FailAfterOp>(
      std::move(right), 5, Status::Internal("injected mid-stream"));
  HashJoinOp join(std::move(fail_left), std::move(fail_right), std::move(lk),
                  std::move(rk), nullptr, 0, 0);
  QueryContext ctx;
  Status open = join.Open(&ctx);
  if (open.ok()) {
    ExecRow row;
    StatusOr<bool> has = true;
    while (has.ok() && *has) has = join.Next(&row);
    EXPECT_EQ(has.status().code(), StatusCode::kInternal);
  } else {
    EXPECT_EQ(open.code(), StatusCode::kInternal);
  }
  join.Close();
  EXPECT_EQ(ctx.current_bytes(), 0u);
}

TEST_F(OperatorLifecycleTest, AggregateReleasesOnMidStreamChildError) {
  auto scan = std::make_unique<SeqScanOp>(table_.get(), nullptr, layout_, 0);
  auto failing = std::make_unique<FailAfterOp>(
      std::move(scan), 7, Status::Internal("injected mid-stream"));
  std::vector<ExprPtr> keys{std::make_shared<ColumnRefExpr>(
      0, ValueType::kBigInt, "a")};
  std::vector<AggregateSpec> specs;
  AggregateSpec count_star;
  count_star.func = AggFunc::kCount;
  count_star.output_name = "n";
  specs.push_back(std::move(count_star));
  AggregateOp agg(std::move(failing), std::move(keys), {"a"},
                  std::move(specs));
  QueryContext ctx;
  Status s = agg.Open(&ctx);
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  agg.Close();
  EXPECT_EQ(ctx.current_bytes(), 0u);
}

TEST_F(OperatorLifecycleTest, NestedLoopJoinReleasesOnInnerError) {
  auto left = std::make_unique<SeqScanOp>(table_.get(), nullptr, layout_, 0);
  auto right = std::make_unique<SeqScanOp>(table_.get(), nullptr, layout_, 0);
  auto fail_right = std::make_unique<FailAfterOp>(
      std::move(right), 3, Status::Internal("injected mid-stream"));
  NestedLoopJoinOp join(std::move(left), std::move(fail_right), nullptr, 0,
                        0);
  QueryContext ctx;
  Status open = join.Open(&ctx);
  if (open.ok()) {
    ExecRow row;
    StatusOr<bool> has = true;
    while (has.ok() && *has) has = join.Next(&row);
    EXPECT_EQ(has.status().code(), StatusCode::kInternal);
  } else {
    EXPECT_EQ(open.code(), StatusCode::kInternal);
  }
  join.Close();
  EXPECT_EQ(ctx.current_bytes(), 0u);
}

// --- Outer-row copies ------------------------------------------------------------
//
// A pulled path probe copies its outer row into the caller's row for every
// path; under an aggregate the morsel drain copies it once per outer row.
// Plans the SQL planner never builds (Sort or a HashJoin build side straight
// over a probe, a Filter between an aggregate and a probe) are assembled by
// hand here.

class PathRunOperatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(ExecScript(db_, kPathRunGraphSql).ok());
  }

  RowLayout Layout() const {
    RowLayout layout;
    layout.schema =
        std::make_shared<Schema>(db_.catalog().FindTable("v")->schema());
    layout.path_slots = 1;
    return layout;
  }

  OperatorPtr Scan() const {
    return std::make_unique<SeqScanOp>(db_.catalog().FindTable("v"), nullptr,
                                       Layout(), 0);
  }

  /// SeqScan(v) probing g.Paths on P.StartVertex.Id = V.id, 1..2 edges, DFS.
  OperatorPtr Probe() const {
    auto spec = std::make_shared<TraversalSpec>();
    spec->gv = db_.catalog().FindGraphView("g");
    spec->physical = TraversalSpec::Physical::kDfs;
    spec->max_length = 2;
    spec->start_vertex_expr =
        std::make_shared<ColumnRefExpr>(0, ValueType::kBigInt, "V.id");
    return std::make_unique<PathProbeJoinOp>(Scan(), spec);
  }

  /// Drains `op`, checking that every row's outer columns are those of its
  /// path's start vertex. Returns the row count.
  static size_t DrainChecked(PhysicalOperator* op, QueryContext* ctx) {
    EXPECT_TRUE(op->Open(ctx).ok());
    size_t rows = 0;
    ExecRow row;
    while (true) {
      auto has = op->Next(&row);
      EXPECT_TRUE(has.ok()) << has.status().ToString();
      if (!has.ok() || !*has) break;
      ++rows;
      EXPECT_EQ(row.columns[0].AsBigInt(), row.paths[0]->StartVertex())
          << "row " << rows;
    }
    op->Close();
    return rows;
  }

  /// The number of 1..2-edge paths per start vertex and length, from the
  /// adjacency (edge-simple; vertex-simple except a final edge back to the
  /// start).
  std::map<std::pair<int64_t, size_t>, int64_t> ReferencePaths() {
    std::map<int64_t, std::vector<std::pair<int64_t, int64_t>>> adj;
    auto edges = Exec(db_, "SELECT id, src, dst FROM e");
    EXPECT_TRUE(edges.ok());
    for (const auto& r : edges->rows) {
      adj[r[1].AsBigInt()].emplace_back(r[0].AsBigInt(), r[2].AsBigInt());
    }
    std::map<std::pair<int64_t, size_t>, int64_t> counts;
    for (int64_t s = 0; s < 8; ++s) {
      for (auto [e1, a] : adj[s]) {
        ++counts[{s, 1}];
        for (auto [e2, b] : adj[a]) {
          if (e2 != e1 && (b == s || b != a)) ++counts[{s, 2}];
        }
      }
    }
    return counts;
  }

  static size_t Copies(const PhysicalOperator* probe) {
    const std::string extra = probe->AnalyzeExtra();
    const size_t pos = extra.find("outer_copies=");
    EXPECT_NE(pos, std::string::npos) << extra;
    return pos == std::string::npos
               ? 0
               : std::strtoull(extra.c_str() + pos + 13, nullptr, 10);
  }

  Database db_{TestOptions()};
};

TEST_F(PathRunOperatorTest, SortOverProbeCopiesEveryRow) {
  // Sort moves each row into its buffer.
  OperatorPtr probe = Probe();
  const PhysicalOperator* probe_op = probe.get();
  SortOp sort(std::move(probe), {SortOp::SortKey{2, true}});
  QueryContext ctx;
  const size_t rows = DrainChecked(&sort, &ctx);
  int64_t expected_rows = 0;
  for (const auto& [key, n] : ReferencePaths()) expected_rows += n;
  EXPECT_EQ(static_cast<int64_t>(rows), expected_rows);
  EXPECT_EQ(rows, ctx.stats().rows_joined);
  EXPECT_EQ(Copies(probe_op), rows);
  EXPECT_EQ(ctx.current_bytes(), 0u);
}

TEST_F(PathRunOperatorTest, HashJoinBuildSideKeepsEveryOuterRow) {
  // The build side moves each probe row into a bucket.
  OperatorPtr probe = Probe();
  const PhysicalOperator* probe_op = probe.get();
  std::vector<ExprPtr> lk{std::make_shared<PathPropertyExpr>(
      0, PathProperty::kStartVertexId, "P.StartVertex.Id")};
  std::vector<ExprPtr> rk{
      std::make_shared<ColumnRefExpr>(0, ValueType::kBigInt, "W.id")};
  HashJoinOp join(std::move(probe), Scan(), std::move(lk), std::move(rk),
                  nullptr, 0, 0);
  QueryContext ctx;
  const size_t rows = DrainChecked(&join, &ctx);
  int64_t expected_rows = 0;
  for (const auto& [key, n] : ReferencePaths()) expected_rows += n;
  EXPECT_EQ(static_cast<int64_t>(rows), expected_rows);
  EXPECT_EQ(Copies(probe_op), rows);
  EXPECT_EQ(ctx.current_bytes(), 0u);
}

TEST_F(PathRunOperatorTest, ProjectCopiesOncePerRun) {
  // A projection pulls into a row it reuses; with no run protocol the probe
  // still copies the outer row once per path.
  OperatorPtr probe = Probe();
  const PhysicalOperator* probe_op = probe.get();
  Schema schema({Column("id", ValueType::kBigInt),
                 Column("start", ValueType::kBigInt)});
  ProjectOp project(
      std::move(probe),
      {std::make_shared<ColumnRefExpr>(0, ValueType::kBigInt, "V.id"),
       std::make_shared<PathPropertyExpr>(0, PathProperty::kStartVertexId,
                                          "P.StartVertex.Id")},
      schema);
  QueryContext ctx;
  ASSERT_TRUE(project.Open(&ctx).ok());
  ExecRow row;
  size_t rows = 0;
  while (*project.Next(&row)) {
    ++rows;
    ASSERT_EQ(row.columns.size(), 2u);
    EXPECT_EQ(row.columns[0].AsBigInt(), row.columns[1].AsBigInt());
  }
  project.Close();
  int64_t expected_rows = 0;
  for (const auto& [key, n] : ReferencePaths()) expected_rows += n;
  EXPECT_EQ(static_cast<int64_t>(rows), expected_rows);
  EXPECT_EQ(rows, ctx.stats().rows_joined);
  EXPECT_EQ(Copies(probe_op), ctx.stats().rows_joined);
  EXPECT_EQ(ctx.current_bytes(), 0u);
}

TEST_F(PathRunOperatorTest, FilterBetweenAggregateAndProbeKeepsGroupsRight) {
  // GROUP BY V.kind over the length-2 paths. Each outer row's first path has
  // length 1 and is rejected, so the first passing row of an outer row must
  // still resolve its group: the aggregate last saw the previous outer row.
  std::map<std::string, int64_t> expected;
  const char* kinds = "abacbacb";
  for (const auto& [key, n] : ReferencePaths()) {
    if (key.second == 2) expected[std::string(1, kinds[key.first])] += n;
  }
  for (bool path_free : {true, false}) {
    SCOPED_TRACE(path_free);
    auto filter = std::make_unique<FilterOp>(
        Probe(), std::make_shared<CompareExpr>(
                     CompareOp::kEq,
                     std::make_shared<PathPropertyExpr>(
                         0, PathProperty::kLength, "P.Length"),
                     std::make_shared<ConstantExpr>(Value::BigInt(2))));
    std::vector<ExprPtr> keys{
        std::make_shared<ColumnRefExpr>(1, ValueType::kVarchar, "V.kind")};
    AggregateSpec count_star;
    count_star.func = AggFunc::kCount;
    count_star.output_name = "n";
    const PhysicalOperator* filter_op = filter.get();
    const PhysicalOperator* probe_op = filter->input();
    AggregateOp agg(std::move(filter), std::move(keys), {"kind"},
                    {count_star}, {path_free});
    QueryContext ctx;
    ASSERT_TRUE(agg.Open(&ctx).ok());
    std::map<std::string, int64_t> got;
    ExecRow row;
    while (*agg.Next(&row)) {
      got[row.columns[0].AsVarchar()] = row.columns[1].AsBigInt();
    }
    agg.Close();
    EXPECT_EQ(got, expected);
    // One lookup per outer row with a length-2 path when the key is
    // path-free; one per passing row otherwise.
    int64_t passing = 0;
    for (const auto& [kind, n] : expected) passing += n;
    // The eight outer rows are one morsel. The drain keeps the counters a
    // pull pipeline reports: each operator's rows, plus one closing call.
    int64_t paths = 0;
    for (const auto& [key, n] : ReferencePaths()) paths += n;
    EXPECT_EQ(filter_op->profile().rows_emitted,
              static_cast<uint64_t>(passing));
    EXPECT_EQ(filter_op->profile().next_calls,
              static_cast<uint64_t>(passing) + 1);
    EXPECT_EQ(probe_op->profile().rows_emitted, static_cast<uint64_t>(paths));
    EXPECT_EQ(probe_op->profile().next_calls,
              static_cast<uint64_t>(paths) + 1);
    EXPECT_EQ(agg.AnalyzeExtra(),
              StrFormat(" group_lookups=%lld",
                        static_cast<long long>(path_free ? 6 : passing)));
    EXPECT_EQ(ctx.current_bytes(), 0u);
  }
}

TEST(SharedMemoryBudgetTest, EnforcesAggregateLimitAcrossContexts) {
  // Two worker contexts with generous private caps share a 100-byte budget:
  // the cap must be a query-level guarantee, not per-worker.
  SharedMemoryBudget budget(100);
  QueryContext w1(/*memory_cap=*/1 << 20);
  QueryContext w2(/*memory_cap=*/1 << 20);
  w1.set_shared_budget(&budget);
  w2.set_shared_budget(&budget);
  EXPECT_TRUE(w1.ChargeBytes(60).ok());
  EXPECT_TRUE(w2.ChargeBytes(40).ok());
  EXPECT_EQ(budget.used(), 100u);
  // Either worker tipping past the shared limit fails, even though each is
  // far below its private cap.
  Status over = w2.ChargeBytes(1);
  EXPECT_EQ(over.code(), StatusCode::kResourceExhausted);
  // Releases flow back to the shared budget and unblock future charges.
  w2.ReleaseBytes(41);
  w1.ReleaseBytes(60);
  EXPECT_EQ(budget.used(), 0u);
  EXPECT_TRUE(w1.ChargeBytes(100).ok());
}

TEST(SharedMemoryBudgetTest, OverflowingChargeIsRejectedNotWrapped) {
  SharedMemoryBudget budget(100);
  ASSERT_TRUE(budget.Charge(60).ok());
  // A charge that wraps the unsigned counter must fail: before the guard,
  // used_ + bytes lapped past limit_ and the check passed.
  Status wrap = budget.Charge(SIZE_MAX - 30);
  EXPECT_EQ(wrap.code(), StatusCode::kResourceExhausted);
  // Charge-then-check: the attempted bytes stay recorded until the caller's
  // paired Release, so mod-2^64 arithmetic restores the counter exactly.
  budget.Release(SIZE_MAX - 30);
  EXPECT_EQ(budget.used(), 60u);
  budget.Release(60);
  EXPECT_EQ(budget.used(), 0u);
  EXPECT_TRUE(budget.Charge(100).ok());
}

TEST(SharedMemoryBudgetTest, QueryContextChargeRejectsCounterOverflow) {
  QueryContext ctx(/*memory_cap=*/1000);
  ASSERT_TRUE(ctx.ChargeBytes(600).ok());
  // The per-context counter refuses a charge that would wrap it, *before*
  // accounting — current_bytes() is unchanged, no Release needed.
  Status wrap = ctx.ChargeBytes(SIZE_MAX - 10);
  EXPECT_EQ(wrap.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(ctx.current_bytes(), 600u);
  ctx.ReleaseBytes(600);
  EXPECT_EQ(ctx.current_bytes(), 0u);
}

TEST(SharedMemoryBudgetTest, RemainingBudgetTracksHeadroom) {
  QueryContext ctx(/*memory_cap=*/1000);
  EXPECT_EQ(ctx.remaining_budget(), 1000u);
  ASSERT_TRUE(ctx.ChargeBytes(600).ok());
  EXPECT_EQ(ctx.remaining_budget(), 400u);
  // Charge-then-check: an over-cap context has zero headroom, not underflow.
  (void)ctx.ChargeBytes(600);
  EXPECT_EQ(ctx.remaining_budget(), 0u);
  ctx.ReleaseBytes(1200);
}

}  // namespace
}  // namespace grfusion
