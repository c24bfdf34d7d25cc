// Randomized differential testing of the relational engine: generated
// filter / join / aggregate queries are executed both by the engine and by
// a brute-force reference evaluator built from the same random choices.
// Any divergence is a bug in the planner, binder, or executor.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <atomic>
#include <cstdlib>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <queue>
#include <regex>
#include <set>
#include <thread>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/string_util.h"
#include "engine/database.h"
#include "graph/graph_view.h"
#include "graphexec/traversal_spec.h"
#include "bfs_reference.h"
#include "sql_test_util.h"

namespace grfusion {
namespace {

struct RefRow {
  std::optional<int64_t> a;   // Column a BIGINT (nullable).
  std::optional<double> b;    // Column b DOUBLE (nullable).
  std::string c;              // Column c VARCHAR (never null, small domain).
};

/// A generated predicate: SQL text plus a semantically identical reference
/// evaluator (three-valued: nullopt = SQL NULL).
struct GeneratedPredicate {
  std::string sql;
  std::function<std::optional<bool>(const RefRow&)> eval;
};

GeneratedPredicate MakeLeaf(Random* rng) {
  switch (rng->Uniform(0, 3)) {
    case 0: {  // a <op> k
      int64_t k = rng->Uniform(-3, 8);
      int op = static_cast<int>(rng->Uniform(0, 2));  // =, <, >
      const char* ops[] = {"=", "<", ">"};
      return GeneratedPredicate{
          StrFormat("a %s %lld", ops[op], static_cast<long long>(k)),
          [k, op](const RefRow& r) -> std::optional<bool> {
            if (!r.a.has_value()) return std::nullopt;
            switch (op) {
              case 0: return *r.a == k;
              case 1: return *r.a < k;
              default: return *r.a > k;
            }
          }};
    }
    case 1: {  // b <= x
      double x = static_cast<double>(rng->Uniform(0, 40)) / 4.0;
      return GeneratedPredicate{
          StrFormat("b <= %f", x),
          [x](const RefRow& r) -> std::optional<bool> {
            if (!r.b.has_value()) return std::nullopt;
            return *r.b <= x;
          }};
    }
    case 2: {  // c = 'X'
      std::string s(1, static_cast<char>('p' + rng->Uniform(0, 3)));
      return GeneratedPredicate{
          "c = '" + s + "'",
          [s](const RefRow& r) -> std::optional<bool> { return r.c == s; }};
    }
    default:  // a IS NULL / IS NOT NULL
      if (rng->Bernoulli(0.5)) {
        return GeneratedPredicate{
            "a IS NULL",
            [](const RefRow& r) -> std::optional<bool> {
              return !r.a.has_value();
            }};
      }
      return GeneratedPredicate{
          "a IS NOT NULL",
          [](const RefRow& r) -> std::optional<bool> {
            return r.a.has_value();
          }};
  }
}

GeneratedPredicate MakePredicate(Random* rng, int depth) {
  if (depth <= 0 || rng->Bernoulli(0.4)) return MakeLeaf(rng);
  GeneratedPredicate left = MakePredicate(rng, depth - 1);
  GeneratedPredicate right = MakePredicate(rng, depth - 1);
  bool use_and = rng->Bernoulli(0.5);
  bool negate = rng->Bernoulli(0.25);
  std::string sql = "(" + left.sql + (use_and ? " AND " : " OR ") +
                    right.sql + ")";
  if (negate) sql = "NOT " + sql;
  auto eval = [l = left.eval, r = right.eval, use_and,
               negate](const RefRow& row) -> std::optional<bool> {
    auto lv = l(row);
    auto rv = r(row);
    std::optional<bool> combined;
    if (use_and) {
      if ((lv.has_value() && !*lv) || (rv.has_value() && !*rv)) {
        combined = false;
      } else if (lv.has_value() && rv.has_value()) {
        combined = *lv && *rv;
      }
    } else {
      if ((lv.has_value() && *lv) || (rv.has_value() && *rv)) {
        combined = true;
      } else if (lv.has_value() && rv.has_value()) {
        combined = *lv || *rv;
      }
    }
    if (!combined.has_value()) return std::nullopt;
    return negate ? !*combined : *combined;
  };
  return GeneratedPredicate{std::move(sql), std::move(eval)};
}

class SqlFuzzTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    Random rng(GetParam());
    ASSERT_TRUE(session_.ExecuteScript(
                      "CREATE TABLE t (id BIGINT PRIMARY KEY, a BIGINT, "
                      "b DOUBLE, c VARCHAR);"
                      "CREATE TABLE u (id BIGINT PRIMARY KEY, a BIGINT, "
                      "b DOUBLE, c VARCHAR);")
                    .ok());
    auto fill = [&](const char* table, std::vector<RefRow>* out,
                    int64_t count) {
      std::vector<std::vector<Value>> rows;
      for (int64_t i = 0; i < count; ++i) {
        RefRow r;
        if (!rng.Bernoulli(0.15)) r.a = rng.Uniform(-3, 8);
        if (!rng.Bernoulli(0.15)) r.b = rng.Uniform(0, 40) / 4.0;
        r.c = std::string(1, static_cast<char>('p' + rng.Uniform(0, 3)));
        rows.push_back(
            {Value::BigInt(i),
             r.a.has_value() ? Value::BigInt(*r.a) : Value::Null(),
             r.b.has_value() ? Value::Double(*r.b) : Value::Null(),
             Value::Varchar(r.c)});
        out->push_back(std::move(r));
      }
      ASSERT_TRUE(db_.BulkInsert(table, rows).ok());
    };
    fill("t", &t_rows_, 40);
    fill("u", &u_rows_, 25);
  }

  /// Canonical multiset of result rows for comparison.
  static std::multiset<std::string> Canon(const ResultSet& result) {
    std::multiset<std::string> out;
    for (const auto& row : result.rows) {
      std::string key;
      for (const Value& v : row) {
        key += v.ToString();
        key += '|';
      }
      out.insert(std::move(key));
    }
    return out;
  }

  Database db_{TestOptions()};
  Session session_{db_};
  std::vector<RefRow> t_rows_;
  std::vector<RefRow> u_rows_;
};

TEST_P(SqlFuzzTest, FilterQueriesMatchReference) {
  Random rng(GetParam() * 7 + 1);
  for (int trial = 0; trial < 25; ++trial) {
    GeneratedPredicate pred = MakePredicate(&rng, 3);
    auto result = session_.Execute("SELECT a, b, c FROM t WHERE " + pred.sql);
    ASSERT_TRUE(result.ok()) << pred.sql << ": "
                             << result.status().ToString();
    size_t expected = 0;
    for (const RefRow& r : t_rows_) {
      auto v = pred.eval(r);
      if (v.has_value() && *v) ++expected;
    }
    EXPECT_EQ(result->NumRows(), expected) << pred.sql;
  }
}

TEST_P(SqlFuzzTest, CountMatchesRowCount) {
  Random rng(GetParam() * 13 + 5);
  for (int trial = 0; trial < 10; ++trial) {
    GeneratedPredicate pred = MakePredicate(&rng, 2);
    auto rows = session_.Execute("SELECT id FROM t WHERE " + pred.sql);
    auto count = session_.Execute("SELECT COUNT(*) FROM t WHERE " + pred.sql);
    ASSERT_TRUE(rows.ok() && count.ok()) << pred.sql;
    EXPECT_EQ(count->ScalarValue().AsBigInt(),
              static_cast<int64_t>(rows->NumRows()))
        << pred.sql;
  }
}

TEST_P(SqlFuzzTest, EquiJoinMatchesNestedLoopsReference) {
  Random rng(GetParam() * 31 + 3);
  for (int trial = 0; trial < 10; ++trial) {
    GeneratedPredicate tp = MakePredicate(&rng, 1);
    GeneratedPredicate up = MakePredicate(&rng, 1);
    std::string sql = "SELECT t.id, u.id FROM t, u WHERE t.a = u.a AND (" +
                      tp.sql + ") AND (" +
                      // Predicates over u need qualified names.
                      up.sql + ")";
    // Qualify the second predicate's bare columns with u.
    // (Generated leaves use bare a/b/c; rewrite conservatively.)
    // Instead of string surgery, run the unqualified version against t only:
    // here both predicate sets reference ambiguous columns, so skip the
    // qualification problem by generating the join SQL with explicit
    // aliases below.
    (void)sql;
    std::string qualified_t = tp.sql, qualified_u = up.sql;
    for (const char* col : {"a ", "b ", "c "}) {
      // Leaf SQL always has "<col> <op>" with a space; prefix with alias.
      std::string from(col), t_to = "t." + from, u_to = "u." + from;
      size_t pos = 0;
      while ((pos = qualified_t.find(from, pos)) != std::string::npos) {
        bool at_word_start =
            pos == 0 || (!isalnum(static_cast<unsigned char>(
                            qualified_t[pos - 1])) &&
                         qualified_t[pos - 1] != '.' &&
                         qualified_t[pos - 1] != '\'');
        if (at_word_start) {
          qualified_t.replace(pos, from.size(), t_to);
          pos += t_to.size();
        } else {
          pos += from.size();
        }
      }
      pos = 0;
      while ((pos = qualified_u.find(from, pos)) != std::string::npos) {
        bool at_word_start =
            pos == 0 || (!isalnum(static_cast<unsigned char>(
                            qualified_u[pos - 1])) &&
                         qualified_u[pos - 1] != '.' &&
                         qualified_u[pos - 1] != '\'');
        if (at_word_start) {
          qualified_u.replace(pos, from.size(), u_to);
          pos += u_to.size();
        } else {
          pos += from.size();
        }
      }
    }
    std::string join_sql = "SELECT t.id, u.id FROM t, u WHERE t.a = u.a AND "
                           "(" + qualified_t + ") AND (" + qualified_u + ")";
    auto result = session_.Execute(join_sql);
    ASSERT_TRUE(result.ok()) << join_sql << ": "
                             << result.status().ToString();
    size_t expected = 0;
    for (const RefRow& tr : t_rows_) {
      auto tv = tp.eval(tr);
      if (!tv.has_value() || !*tv || !tr.a.has_value()) continue;
      for (const RefRow& ur : u_rows_) {
        auto uv = up.eval(ur);
        if (!uv.has_value() || !*uv || !ur.a.has_value()) continue;
        if (*tr.a == *ur.a) ++expected;
      }
    }
    EXPECT_EQ(result->NumRows(), expected) << join_sql;
  }
}

TEST_P(SqlFuzzTest, GroupByMatchesReference) {
  auto result = session_.Execute(
      "SELECT c, COUNT(*), SUM(a), MIN(b) FROM t GROUP BY c ORDER BY c");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  std::map<std::string, std::tuple<int64_t, std::optional<int64_t>,
                                   std::optional<double>>> expected;
  for (const RefRow& r : t_rows_) {
    auto& [count, sum, min_b] = expected[r.c];
    ++count;
    if (r.a.has_value()) sum = sum.value_or(0) + *r.a;
    if (r.b.has_value()) {
      min_b = min_b.has_value() ? std::min(*min_b, *r.b) : *r.b;
    }
  }
  ASSERT_EQ(result->NumRows(), expected.size());
  size_t i = 0;
  for (const auto& [c, agg] : expected) {
    const auto& row = result->rows[i++];
    EXPECT_EQ(row[0].AsVarchar(), c);
    EXPECT_EQ(row[1].AsBigInt(), std::get<0>(agg));
    if (std::get<1>(agg).has_value()) {
      EXPECT_EQ(row[2].AsBigInt(), *std::get<1>(agg)) << c;
    } else {
      EXPECT_TRUE(row[2].is_null());
    }
    if (std::get<2>(agg).has_value()) {
      EXPECT_DOUBLE_EQ(row[3].AsNumeric(), *std::get<2>(agg)) << c;
    }
  }
}

TEST_P(SqlFuzzTest, OrderByIsStableAndSorted) {
  auto result = session_.Execute("SELECT b FROM t WHERE b IS NOT NULL ORDER BY b");
  ASSERT_TRUE(result.ok());
  for (size_t i = 1; i < result->NumRows(); ++i) {
    EXPECT_LE(result->rows[i - 1][0].AsNumeric(),
              result->rows[i][0].AsNumeric());
  }
}

TEST_P(SqlFuzzTest, DistinctMatchesReference) {
  auto result = session_.Execute("SELECT DISTINCT c FROM t");
  ASSERT_TRUE(result.ok());
  std::set<std::string> expected;
  for (const RefRow& r : t_rows_) expected.insert(r.c);
  EXPECT_EQ(result->NumRows(), expected.size());
}

TEST_P(SqlFuzzTest, InsertSelectRoundTrip) {
  ASSERT_TRUE(session_.Execute("CREATE TABLE copy (id BIGINT, a BIGINT, b DOUBLE, "
                          "c VARCHAR)")
                  .ok());
  auto inserted =
      session_.Execute("INSERT INTO copy SELECT id, a, b, c FROM t WHERE a > 2");
  ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();
  auto original = session_.Execute("SELECT id, a, b, c FROM t WHERE a > 2");
  auto copied = session_.Execute("SELECT id, a, b, c FROM copy");
  ASSERT_TRUE(original.ok() && copied.ok());
  EXPECT_EQ(inserted->rows_affected, original->NumRows());
  EXPECT_EQ(Canon(*original), Canon(*copied));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SqlFuzzTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// Graph differential harness
//
// Random graphs + random GV.PATHS queries (hop bounds, edge predicates,
// SHORTESTPATH hints), each executed at max_parallelism=1 and
// max_parallelism=4. The two runs must emit the same row sequence, and agree
// with a brute-force reference path enumerator (as a multiset for
// enumeration, as an exact sequence for TOP k shortest paths).
// ---------------------------------------------------------------------------

struct DiffEdge {
  int64_t id, src, dst;
  double w;
  int64_t rank;
  int64_t iw;  ///< Integer weight in {1,2,3}: the SHORTESTPATH cost column.
};

struct DiffGraph {
  int64_t n = 0;
  bool directed = true;
  std::vector<DiffEdge> edges;

  std::vector<std::pair<const DiffEdge*, int64_t>> Neighbors(int64_t v) const {
    std::vector<std::pair<const DiffEdge*, int64_t>> out;
    for (const DiffEdge& e : edges) {
      if (e.src == v) out.emplace_back(&e, e.dst);
      if (!directed && e.dst == v) out.emplace_back(&e, e.src);
    }
    return out;
  }
};

/// One generated GV.PATHS enumeration query: engine SQL plus the parameters
/// the reference enumerator needs to reproduce it.
struct DiffQuery {
  std::string sql;
  std::vector<int64_t> starts;          // All view vertexes when unbound.
  size_t min_len = 1, max_len = 1;
  std::optional<int64_t> rank_below;    // P.Edges[0..*].rank < R
  std::optional<int64_t> end_vertex;    // P.EndVertex.Id = d
};

/// Brute-force enumeration of the engine's path language: edge-simple,
/// vertex-simple except that a final edge may close a cycle back to the
/// start, emitting every path whose length falls inside [min_len, max_len].
void DiffEnumerate(const DiffGraph& g, const DiffQuery& q, int64_t src,
                   int64_t v, std::vector<int64_t>* vstack,
                   std::vector<int64_t>* estack,
                   std::multiset<std::string>* out) {
  for (auto [e, nbr] : g.Neighbors(v)) {
    if (q.rank_below.has_value() && e->rank >= *q.rank_below) continue;
    if (std::find(estack->begin(), estack->end(), e->id) != estack->end()) {
      continue;
    }
    bool closing = nbr == src && !estack->empty();
    if (!closing && std::find(vstack->begin(), vstack->end(), nbr) !=
                        vstack->end()) {
      continue;
    }
    estack->push_back(e->id);
    vstack->push_back(nbr);
    size_t len = estack->size();
    if (len >= q.min_len && len <= q.max_len &&
        (!q.end_vertex.has_value() || nbr == *q.end_vertex)) {
      out->insert(std::to_string(src) + "|" + RefPathString(*vstack, *estack) +
                  "|");
    }
    if (!closing && len < q.max_len) {
      DiffEnumerate(g, q, src, nbr, vstack, estack, out);
    }
    estack->pop_back();
    vstack->pop_back();
  }
}

std::multiset<std::string> DiffReference(const DiffGraph& g,
                                         const DiffQuery& q) {
  std::multiset<std::string> out;
  for (int64_t src : q.starts) {
    std::vector<int64_t> vs{src}, es;
    DiffEnumerate(g, q, src, src, &vs, &es, &out);
  }
  return out;
}

std::multiset<std::string> DiffCanon(const ResultSet& result) {
  std::multiset<std::string> out;
  for (const auto& row : result.rows) {
    std::string key;
    for (const Value& v : row) {
      key += v.ToString();
      key += '|';
    }
    out.insert(std::move(key));
  }
  return out;
}

std::vector<std::string> DiffOrdered(const ResultSet& result) {
  std::vector<std::string> out;
  for (const auto& row : result.rows) {
    std::string key;
    for (const Value& v : row) {
      key += v.ToString();
      key += '|';
    }
    out.push_back(std::move(key));
  }
  return out;
}

/// One generated SPScan query and the parameters the reference needs.
struct SpDiffQuery {
  std::vector<int64_t> starts;        // All view vertexes when unbound.
  int64_t dst = 0;
  size_t k = 1;
  std::optional<int64_t> rank_below;  // PS.Edges[0..*].rank < R
  std::optional<double> w_below;      // SUM(PS.Edges.w) < C
  bool real_cost = false;             // HINT(SHORTESTPATH(w)), not iw.
};

/// Reference SPScan with the engine's semantics, over whole copied paths: a
/// priority queue in the engine's pop order (cost, vertex sequence, edge
/// sequence), each (start, vertex) expanded at most k times for TOP k. Cost
/// is the sum of the integer weights `iw`, so ties are common and the
/// vertex/edge tie-break decides the order; `w` feeds the sum bound. With
/// `real_cost` the cost is the forward sum of `w` instead, added in the
/// engine's order, and `costs` (when set) receives each row's cost.
std::vector<std::string> SpDiffReference(const DiffGraph& g,
                                         const SpDiffQuery& q,
                                         std::vector<double>* costs = nullptr) {
  struct RefPath {
    std::vector<int64_t> vs, es;
    double cost = 0.0;
    double wsum = 0.0;
    bool closing = false;
  };
  auto later = [](const RefPath& a, const RefPath& b) {
    if (a.cost != b.cost) return a.cost > b.cost;
    if (a.vs != b.vs) return a.vs > b.vs;
    return a.es > b.es;
  };
  std::priority_queue<RefPath, std::vector<RefPath>, decltype(later)> heap(
      later);
  std::set<int64_t> starts(q.starts.begin(), q.starts.end());
  for (int64_t s : starts) heap.push(RefPath{{s}, {}, 0.0, 0.0, false});
  std::map<std::pair<int64_t, int64_t>, size_t> expansions;
  std::vector<std::string> out;
  while (!heap.empty() && out.size() < q.k) {
    RefPath p = heap.top();
    heap.pop();
    const int64_t start = p.vs.front();
    if (!p.closing && ++expansions[{start, p.vs.back()}] <= q.k) {
      for (auto [e, nbr] : g.Neighbors(p.vs.back())) {
        if (std::find(p.es.begin(), p.es.end(), e->id) != p.es.end()) {
          continue;
        }
        const bool closing = nbr == start && !p.es.empty();
        if (!closing &&
            std::find(p.vs.begin(), p.vs.end(), nbr) != p.vs.end()) {
          continue;
        }
        if (q.rank_below.has_value() && e->rank >= *q.rank_below) continue;
        const double wsum = p.wsum + e->w;
        if (q.w_below.has_value() && wsum >= *q.w_below) continue;
        RefPath next = p;
        next.vs.push_back(nbr);
        next.es.push_back(e->id);
        next.cost = p.cost + (q.real_cost ? e->w : static_cast<double>(e->iw));
        next.wsum = wsum;
        next.closing = closing;
        heap.push(std::move(next));
      }
    }
    if (!p.es.empty() && p.vs.back() == q.dst) {
      if (costs != nullptr) costs->push_back(p.cost);
      out.push_back(Value::Double(p.cost).ToString() + "|" +
                    Value::Varchar(RefPathString(p.vs, p.es)).ToString() +
                    "|");
    }
  }
  return out;
}

/// One generated HINT(DFS) query and the parameters the reference needs.
struct DfsDiffQuery {
  std::vector<int64_t> starts;        // All view vertexes when unbound.
  size_t min_len = 1;
  size_t max_len = 1;                 // kNoMaxLength when unbounded.
  std::optional<int64_t> rank_below;  // P.Edges[0..*].rank < R
  std::optional<int64_t> end_vertex;  // P.EndVertex.Id = d
  std::optional<CompareOp> w_op;      // SUM(P.Edges.w) <op> w_bound
  double w_bound = 0.0;
  bool pushdown = true;
  bool global_visited = false;        // TOP 1 reachability: visited-once.
};

/// Reference DFScan with the engine's semantics, over whole copied prefixes
/// (the engine's layout before its one-hop stack): a stack of candidate
/// paths, each popped one expanded (extensions pushed in neighbor order)
/// and then emitted if it qualifies, so rows come out in pre-order with the
/// last neighbor first.
std::vector<std::string> DfsDiffReference(const DiffGraph& g,
                                          const RefAdjacency& adj,
                                          const DfsDiffQuery& q) {
  struct RefPath {
    std::vector<int64_t> vs, es;
    double wsum = 0.0;
    bool closing = false;
  };
  std::map<int64_t, const DiffEdge*> by_id;
  for (const DiffEdge& e : g.edges) by_id[e.id] = &e;
  auto prunes = [&](double wsum) {
    return q.w_op == CompareOp::kLt ? wsum >= q.w_bound
           : q.w_op == CompareOp::kLe ? wsum > q.w_bound
                                      : false;
  };
  auto passes = [&](double wsum) {
    if (!q.w_op.has_value()) return true;
    switch (*q.w_op) {
      case CompareOp::kLt: return wsum < q.w_bound;
      case CompareOp::kLe: return wsum <= q.w_bound;
      case CompareOp::kGe: return wsum >= q.w_bound;
      default: return wsum > q.w_bound;
    }
  };
  std::set<int64_t> visited;
  std::vector<RefPath> stack;
  for (int64_t s : std::set<int64_t>(q.starts.begin(), q.starts.end())) {
    if (q.global_visited) visited.insert(s);
    stack.push_back(RefPath{{s}, {}, 0.0, false});
  }
  std::vector<std::string> out;
  while (!stack.empty() && !(q.global_visited && !out.empty())) {
    const RefPath p = stack.back();
    stack.pop_back();
    if (!p.closing && p.es.size() < q.max_len) {
      for (auto [eid, nbr] : adj.at(p.vs.back())) {
        const DiffEdge& e = *by_id.at(eid);
        if (std::find(p.es.begin(), p.es.end(), eid) != p.es.end()) continue;
        const bool closing = nbr == p.vs.front() && !p.es.empty();
        if (!closing) {
          if (std::find(p.vs.begin(), p.vs.end(), nbr) != p.vs.end()) {
            continue;
          }
          if (q.global_visited && visited.count(nbr) > 0) continue;
        }
        const double wsum = p.wsum + e.w;
        if (q.pushdown) {
          if (q.rank_below.has_value() && e.rank >= *q.rank_below) continue;
          if (prunes(wsum)) continue;
        }
        if (q.global_visited && !closing) visited.insert(nbr);
        RefPath next = p;
        next.vs.push_back(nbr);
        next.es.push_back(eid);
        next.wsum = wsum;
        next.closing = closing;
        stack.push_back(std::move(next));
      }
    }
    const size_t len = p.es.size();
    if (len < q.min_len || len > q.max_len) continue;
    if (q.end_vertex.has_value() && p.vs.back() != *q.end_vertex) continue;
    if (!passes(p.wsum)) continue;
    if (!q.pushdown && q.rank_below.has_value() &&
        std::any_of(p.es.begin(), p.es.end(), [&](int64_t eid) {
          return by_id.at(eid)->rank >= *q.rank_below;
        })) {
      continue;
    }
    out.push_back(std::to_string(p.vs.front()) + "|" +
                  RefPathString(p.vs, p.es) + "|");
  }
  return out;
}

/// One generated BFS reach probe: `limit` rows (LIMIT or TOP) of the paths
/// from each start to `target`, optionally under a uniform rank filter and
/// a length bound; from the bound start, from every vertex (one multi-root
/// probe), or from each outer row of a join (one probe per row, ids >=
/// `min_start`).
struct ReachDiffQuery {
  std::string sql;
  enum class Shape { kSingle, kAllStarts, kJoin } shape = Shape::kSingle;
  int64_t start = 0;
  int64_t min_start = 0;
  int64_t target = 0;
  size_t limit = 1;
  size_t max_len = kNoMaxLength;
  std::optional<int64_t> rank_below;  // P.Edges[0..*].rank < R
};

/// The uniform edge predicate P.Edges[0..*].rank < `below` over `g`'s
/// edges, for BfsReference.
std::function<bool(int64_t)> RankBelow(const DiffGraph& g, int64_t below) {
  std::map<int64_t, int64_t> rank;
  for (const DiffEdge& e : g.edges) rank[e.id] = e.rank;
  return [rank = std::move(rank), below](int64_t eid) {
    return rank.at(eid) < below;
  };
}

/// The edge attribute `w` of `g`'s edges, for BfsReference's sum bound.
std::function<double(int64_t)> WeightOf(const DiffGraph& g) {
  std::map<int64_t, double> w;
  for (const DiffEdge& e : g.edges) w[e.id] = e.w;
  return [w = std::move(w)](int64_t eid) { return w.at(eid); };
}

/// The vertexes other than `s` that `adj` reaches from `s` within
/// `max_len` hops over edges `edge_ok` admits (every edge when null), in
/// BFS order.
std::vector<int64_t> ReachableFrom(const RefAdjacency& adj, int64_t s,
                                   const std::function<bool(int64_t)>& edge_ok,
                                   size_t max_len) {
  std::set<int64_t> seen{s};
  std::vector<int64_t> out, level{s};
  for (size_t d = 1; d <= max_len && !level.empty(); ++d) {
    std::vector<int64_t> next;
    for (int64_t u : level) {
      auto it = adj.find(u);
      if (it == adj.end()) continue;
      for (const auto& [edge, nbr] : it->second) {
        if (edge_ok != nullptr && !edge_ok(edge)) continue;
        if (seen.insert(nbr).second) next.push_back(nbr);
      }
    }
    out.insert(out.end(), next.begin(), next.end());
    level = std::move(next);
  }
  return out;
}

/// A random BFS reach probe over `g` (vertexes 0..n-1) and its expected rows
/// in emission order. Unbounded probes use LIMIT 1, whose visited-once
/// search is linear; LIMIT 2..3 probes enumerate every simple path, so they
/// carry a length bound. An `answerable` probe has one start and a target
/// the reference reaches from it, so it has an answer by construction.
ReachDiffQuery MakeReachProbe(const DiffGraph& g, const RefAdjacency& adj,
                              Random& rng, std::vector<std::string>* expected,
                              bool answerable = false) {
  ReachDiffQuery q;
  const double shape = rng.NextDouble();
  q.shape = shape < 0.6   ? ReachDiffQuery::Shape::kSingle
            : shape < 0.8 ? ReachDiffQuery::Shape::kAllStarts
                          : ReachDiffQuery::Shape::kJoin;
  q.start = rng.Uniform(0, g.n - 1);
  q.min_start = rng.Uniform(0, g.n - 1);
  // A target equal to the start asks for a cycle closing back to it.
  q.target = rng.Bernoulli(0.2) ? q.start : rng.Uniform(0, g.n - 1);
  q.limit = static_cast<size_t>(rng.Bernoulli(0.6) ? 1 : rng.Uniform(2, 3));
  if (q.limit > 1 || rng.Bernoulli(0.3)) {
    q.max_len = static_cast<size_t>(rng.Uniform(1, 4));
  }
  if (rng.Bernoulli(0.4)) q.rank_below = rng.Uniform(20, 90);
  if (answerable) {
    // The first start, from the drawn one on, that reaches a vertex under
    // the drawn filter; without the filter if none does (the graph has
    // edges, so some start then reaches one).
    q.shape = ReachDiffQuery::Shape::kSingle;
    const int64_t first = q.start;
    bool found = false;
    while (!found) {
      const std::function<bool(int64_t)> edge_ok =
          q.rank_below.has_value() ? RankBelow(g, *q.rank_below) : nullptr;
      for (int64_t k = 0; k < g.n && !found; ++k) {
        const int64_t s = (first + k) % g.n;
        const std::vector<int64_t> reach =
            ReachableFrom(adj, s, edge_ok, q.max_len);
        if (reach.empty()) continue;
        q.start = s;
        q.target = reach[static_cast<size_t>(
            rng.Uniform(0, static_cast<int64_t>(reach.size()) - 1))];
        found = true;
      }
      if (!found && !q.rank_below.has_value()) break;  // No edges at all.
      q.rank_below.reset();
    }
  }

  std::vector<std::string> conjuncts;
  switch (q.shape) {
    case ReachDiffQuery::Shape::kSingle:
      conjuncts.push_back(StrFormat("P.StartVertex.Id = %lld",
                                    static_cast<long long>(q.start)));
      break;
    case ReachDiffQuery::Shape::kAllStarts:
      break;
    case ReachDiffQuery::Shape::kJoin:
      conjuncts.push_back("P.StartVertex.Id = V.id");
      conjuncts.push_back(StrFormat("V.id >= %lld",
                                    static_cast<long long>(q.min_start)));
      break;
  }
  conjuncts.push_back(
      StrFormat("P.EndVertex.Id = %lld", static_cast<long long>(q.target)));
  if (q.max_len != kNoMaxLength) {
    conjuncts.push_back(StrFormat("P.Length <= %zu", q.max_len));
  }
  if (q.rank_below.has_value()) {
    conjuncts.push_back(StrFormat("P.Edges[0..*].rank < %lld",
                                  static_cast<long long>(*q.rank_below)));
  }
  const bool top = rng.Bernoulli(0.5);
  const bool join = q.shape == ReachDiffQuery::Shape::kJoin;
  q.sql = StrFormat("SELECT %s%s, P.PathString FROM %sg.Paths P WHERE ",
                    top ? StrFormat("TOP %zu ", q.limit).c_str() : "",
                    join ? "V.id" : "P.StartVertex.Id",
                    join ? "v V, " : "");
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    if (i > 0) q.sql += " AND ";
    q.sql += conjuncts[i];
  }
  if (!top) q.sql += StrFormat(" LIMIT %zu", q.limit);

  // LIMIT 1 runs the planner's visited-once search.
  BfsRefQuery ref;
  ref.max_len = q.max_len;
  ref.target = q.target;
  if (q.rank_below.has_value()) ref.edge_ok = RankBelow(g, *q.rank_below);
  ref.visited_once = q.limit == 1;
  expected->clear();
  auto probe = [&](std::vector<int64_t> starts) {
    ref.starts = std::move(starts);
    ref.limit = q.limit - expected->size();
    for (std::string& row : BfsReference(adj, ref)) {
      expected->push_back(std::move(row));
    }
  };
  switch (q.shape) {
    case ReachDiffQuery::Shape::kSingle:
      probe({q.start});
      break;
    case ReachDiffQuery::Shape::kAllStarts: {
      std::vector<int64_t> all;
      for (int64_t v = 0; v < g.n; ++v) all.push_back(v);
      probe(std::move(all));
      break;
    }
    case ReachDiffQuery::Shape::kJoin:
      // One probe per outer row, in row order, until the limit.
      for (int64_t v = q.min_start; v < g.n && expected->size() < q.limit;
           ++v) {
        probe({v});
      }
      break;
  }
  return q;
}

/// The view g's adjacency of `g`'s vertexes (see ViewAdjacencyOf).
RefAdjacency ViewAdjacency(const Database& db, const DiffGraph& g) {
  std::vector<int64_t> vertexes;
  for (int64_t v = 0; v < g.n; ++v) vertexes.push_back(v);
  return ViewAdjacencyOf(*db.catalog().FindGraphView("g"), vertexes);
}

/// Builds one random graph (tables v/e + graph view g), then runs
/// `enum_trials` random enumeration queries, `sp_trials` random
/// SHORTESTPATH queries, `dfs_trials` random HINT(DFS) queries and
/// `agg_trials` aggregates over DFS probes (on a larger graph `ga`),
/// differentially: 1 worker vs 4 vs reference. SHORTESTPATH, DFS and
/// aggregate answers must match the reference's exact row sequence.
/// The graph view itself is built once serially and once through the
/// parallel morsel path; both must answer identically.
void RunGraphDifferentialSweep(uint64_t seed, int enum_trials, int sp_trials,
                               int dfs_trials, int agg_trials,
                               int reach_trials) {
  SCOPED_TRACE(StrFormat("graph-diff seed=%llu",
                         static_cast<unsigned long long>(seed)));
  const uint64_t tasks_before =
      MetricsRegistry::Global().GetCounter("taskpool_tasks_total")->value();
  Random rng(seed);
  DiffGraph graph;
  graph.n = rng.Uniform(6, 14);
  graph.directed = rng.Bernoulli(0.5);
  int64_t target_edges = rng.Uniform(graph.n, 3 * graph.n);

  Database db(TestOptions());
  Session session(db);
  ASSERT_TRUE(session.ExecuteScript(R"sql(
    CREATE TABLE v (id BIGINT PRIMARY KEY, name VARCHAR);
    CREATE TABLE e (id BIGINT PRIMARY KEY, src BIGINT, dst BIGINT,
                    w DOUBLE, rank BIGINT, iw BIGINT);
  )sql")
                  .ok());
  std::vector<std::vector<Value>> vrows;
  // Three vertex names, so a GROUP BY V.name changes group between
  // consecutive outer rows.
  auto name_of = [](int64_t v) { return "k" + std::to_string(v % 3); };
  for (int64_t i = 0; i < graph.n; ++i) {
    vrows.push_back({Value::BigInt(i), Value::Varchar(name_of(i))});
  }
  ASSERT_TRUE(db.BulkInsert("v", vrows).ok());
  std::set<std::pair<int64_t, int64_t>> used;
  std::vector<std::vector<Value>> erows;
  int64_t id = 0;
  while (id < target_edges &&
         used.size() < static_cast<size_t>(graph.n * (graph.n - 1))) {
    int64_t s = rng.Uniform(0, graph.n - 1);
    int64_t d = rng.Uniform(0, graph.n - 1);
    if (s == d || !used.insert({s, d}).second) continue;
    double w = 0.5 + rng.NextDouble() * 4.0;
    int64_t rank = rng.Uniform(0, 99);
    int64_t iw = rng.Uniform(1, 3);
    graph.edges.push_back(DiffEdge{id, s, d, w, rank, iw});
    erows.push_back({Value::BigInt(id), Value::BigInt(s), Value::BigInt(d),
                     Value::Double(w), Value::BigInt(rank),
                     Value::BigInt(iw)});
    ++id;
  }
  ASSERT_TRUE(db.BulkInsert("e", erows).ok());

  // Build the same view twice: `g` through the serial construction path and
  // `gp` through the parallel morsel build (forced by parallel_min_rows=1).
  const std::string view_body =
      "VERTEXES (ID = id, name = name) FROM v "
      "EDGES (ID = id, FROM = src, TO = dst, w = w, rank = rank, iw = iw) "
      "FROM e;";
  const char* kind = graph.directed ? "DIRECTED" : "UNDIRECTED";
  session.options().max_parallelism = 1;
  ASSERT_TRUE(session.ExecuteScript(
                    StrFormat("CREATE %s GRAPH VIEW g %s", kind,
                              view_body.c_str()))
                  .ok());
  session.options().max_parallelism = 4;
  session.options().parallel_min_rows = 1;
  ASSERT_TRUE(session.ExecuteScript(
                    StrFormat("CREATE %s GRAPH VIEW gp %s", kind,
                              view_body.c_str()))
                  .ok());

  auto run_in = [&](Session& s, const std::string& sql, size_t parallelism) {
    s.options().max_parallelism = parallelism;
    s.options().parallel_min_rows = 1;
    auto result = s.Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
    return result;
  };
  auto run_at = [&](const std::string& sql, size_t parallelism) {
    return run_in(session, sql, parallelism);
  };

  std::vector<int64_t> all_vertexes;
  for (int64_t i = 0; i < graph.n; ++i) all_vertexes.push_back(i);
  const RefAdjacency adj = ViewAdjacency(db, graph);
  auto plan_of = [&](const std::string& sql) {
    auto plan = session.Execute("EXPLAIN " + sql);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    std::string text;
    if (plan.ok()) {
      for (const auto& row : plan->rows) text += row[0].ToString() + "\n";
    }
    return text;
  };

  for (int trial = 0; trial < enum_trials; ++trial) {
    DiffQuery q;
    // Hop bounds: an exact length or a window with max <= 3.
    q.max_len = static_cast<size_t>(rng.Uniform(1, 3));
    q.min_len = rng.Bernoulli(0.5)
                    ? q.max_len
                    : static_cast<size_t>(rng.Uniform(1, q.max_len));
    std::vector<std::string> conjuncts;
    if (q.min_len == q.max_len) {
      conjuncts.push_back(StrFormat("P.Length = %zu", q.max_len));
    } else {
      if (q.min_len > 1) {
        conjuncts.push_back(StrFormat("P.Length >= %zu", q.min_len));
      }
      conjuncts.push_back(StrFormat("P.Length <= %zu", q.max_len));
    }
    if (rng.Bernoulli(0.6)) {
      q.starts = all_vertexes;  // Unbound start: every vertex.
    } else {
      int64_t s = rng.Uniform(0, graph.n - 1);
      q.starts = {s};
      conjuncts.push_back(StrFormat("P.StartVertex.Id = %lld",
                                    static_cast<long long>(s)));
    }
    if (rng.Bernoulli(0.5)) {
      q.rank_below = rng.Uniform(10, 90);
      conjuncts.push_back(StrFormat("P.Edges[0..*].rank < %lld",
                                    static_cast<long long>(*q.rank_below)));
    }
    if (rng.Bernoulli(0.3)) {
      q.end_vertex = rng.Uniform(0, graph.n - 1);
      conjuncts.push_back(StrFormat("P.EndVertex.Id = %lld",
                                    static_cast<long long>(*q.end_vertex)));
    }
    q.sql = "SELECT P.StartVertex.Id, P.PathString FROM g.Paths P WHERE ";
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      if (i > 0) q.sql += " AND ";
      q.sql += conjuncts[i];
    }
    SCOPED_TRACE(q.sql);

    auto serial = run_at(q.sql, 1);
    auto par = run_at(q.sql, 4);
    ASSERT_TRUE(serial.ok() && par.ok());
    auto expected = DiffReference(graph, q);
    EXPECT_EQ(DiffCanon(*serial), expected) << "serial diverges from reference";
    EXPECT_EQ(DiffOrdered(*par), DiffOrdered(*serial))
        << "4 workers reorder or change the serial rows";
    if (plan_of(q.sql).find("BFScan") != std::string::npos) {
      // The §6.3 rule picked BFS: its row order is the reference's.
      BfsRefQuery ref;
      ref.starts = q.starts;
      ref.min_len = q.min_len;
      ref.max_len = q.max_len;
      ref.target = q.end_vertex;
      if (q.rank_below.has_value()) {
        ref.edge_ok = RankBelow(graph, *q.rank_below);
      }
      EXPECT_EQ(DiffOrdered(*serial), BfsReference(adj, ref))
          << "BFS row order diverges from the reference";
    }

    // Same query against the parallel-built view: the morsel-built adjacency
    // representation must be observationally identical.
    std::string gp_sql = q.sql;
    size_t pos = gp_sql.find("g.Paths");
    ASSERT_NE(pos, std::string::npos);
    gp_sql.replace(pos, 7, "gp.Paths");
    auto gp_result = run_at(gp_sql, 4);
    ASSERT_TRUE(gp_result.ok());
    EXPECT_EQ(DiffCanon(*gp_result), expected)
        << "parallel-built view diverges";
  }

  // One random SPScan query: the reference's parameters and the SQL.
  auto make_sp_query = [&]() {
    SpDiffQuery q;
    q.dst = rng.Uniform(0, graph.n - 1);
    q.k = static_cast<size_t>(rng.Uniform(1, 4));
    std::vector<std::string> conjuncts;
    if (rng.Bernoulli(0.5)) {
      q.starts = all_vertexes;  // Multi start.
    } else {
      const int64_t s = rng.Uniform(0, graph.n - 1);
      q.starts = {s};
      conjuncts.push_back(StrFormat("PS.StartVertex.Id = %lld",
                                    static_cast<long long>(s)));
    }
    conjuncts.push_back(
        StrFormat("PS.EndVertex.Id = %lld", static_cast<long long>(q.dst)));
    if (rng.Bernoulli(0.4)) {
      q.rank_below = rng.Uniform(20, 90);
      conjuncts.push_back(StrFormat("PS.Edges[0..*].rank < %lld",
                                    static_cast<long long>(*q.rank_below)));
    }
    if (rng.Bernoulli(0.4)) {
      q.w_below = static_cast<double>(rng.Uniform(3, 12));
      conjuncts.push_back(StrFormat("SUM(PS.Edges.w) < %lld",
                                    static_cast<long long>(*q.w_below)));
    }
    std::string sql = StrFormat(
        "SELECT TOP %zu PS.Cost, PS.PathString FROM g.Paths PS "
        "HINT(SHORTESTPATH(iw)) WHERE ",
        q.k);
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      if (i > 0) sql += " AND ";
      sql += conjuncts[i];
    }
    return std::make_pair(q, sql);
  };

  int sp_answered = 0;
  for (int trial = 0; trial < sp_trials; ++trial) {
    const auto [q, sql] = make_sp_query();
    SCOPED_TRACE(sql);

    const std::vector<std::string> expected = SpDiffReference(graph, q);
    if (!expected.empty()) ++sp_answered;
    // Ordered operator: both worker counts must reproduce the reference's
    // emission sequence exactly, not merely the multiset.
    for (size_t workers : {size_t{1}, size_t{4}}) {
      auto result = run_at(sql, workers);
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(DiffOrdered(*result), expected)
          << "workers=" << workers << " diverges from the reference";
    }
  }
  if (sp_trials > 0) {
    EXPECT_GT(sp_answered, 0) << "no shortest-path trial had an answer";
  }

  int dfs_answered = 0;
  int dfs_visited_once = 0;
  for (int trial = 0; trial < dfs_trials; ++trial) {
    DfsDiffQuery q;
    std::vector<std::string> conjuncts;
    q.global_visited = rng.Bernoulli(0.2);
    q.pushdown = q.global_visited || rng.Bernoulli(0.5);
    if (q.global_visited) {
      // TOP 1 with a bound end and no length bound: the planner's
      // visited-once reachability search.
      q.max_len = kNoMaxLength;
      const int64_t s = rng.Uniform(0, graph.n - 1);
      q.starts = {s};
      q.end_vertex = rng.Uniform(0, graph.n - 1);
      conjuncts.push_back(StrFormat("P.StartVertex.Id = %lld",
                                    static_cast<long long>(s)));
    } else {
      q.max_len = static_cast<size_t>(rng.Uniform(1, 4));
      q.min_len = static_cast<size_t>(rng.Uniform(1, q.max_len));
      if (q.min_len > 1) {
        conjuncts.push_back(StrFormat("P.Length >= %zu", q.min_len));
      }
      conjuncts.push_back(StrFormat("P.Length <= %zu", q.max_len));
      if (rng.Bernoulli(0.5)) {
        q.starts = all_vertexes;
      } else {
        const int64_t s = rng.Uniform(0, graph.n - 1);
        q.starts = {s};
        conjuncts.push_back(StrFormat("P.StartVertex.Id = %lld",
                                      static_cast<long long>(s)));
      }
      if (rng.Bernoulli(0.4)) {
        static constexpr CompareOp kOps[] = {CompareOp::kLt, CompareOp::kLe,
                                             CompareOp::kGe};
        static constexpr const char* kOpText[] = {"<", "<=", ">="};
        const int op = static_cast<int>(rng.Uniform(0, 2));
        q.w_op = kOps[op];
        q.w_bound = static_cast<double>(rng.Uniform(2, 10));
        conjuncts.push_back(StrFormat("SUM(P.Edges.w) %s %lld", kOpText[op],
                                      static_cast<long long>(q.w_bound)));
      }
      if (rng.Bernoulli(0.3)) {
        q.end_vertex = rng.Uniform(0, graph.n - 1);
      }
    }
    if (q.end_vertex.has_value()) {
      conjuncts.push_back(StrFormat("P.EndVertex.Id = %lld",
                                    static_cast<long long>(*q.end_vertex)));
    }
    if (rng.Bernoulli(0.4)) {
      q.rank_below = rng.Uniform(20, 90);
      conjuncts.push_back(StrFormat("P.Edges[0..*].rank < %lld",
                                    static_cast<long long>(*q.rank_below)));
    }
    std::string sql = StrFormat(
        "SELECT %sP.StartVertex.Id, P.PathString FROM g.Paths P HINT(DFS) "
        "WHERE ",
        q.global_visited ? "TOP 1 " : "");
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      if (i > 0) sql += " AND ";
      sql += conjuncts[i];
    }
    SCOPED_TRACE(StrFormat("%s pushdown=%d", sql.c_str(), q.pushdown));

    session.options().enable_filter_pushdown = q.pushdown;
    auto plan = session.Execute("EXPLAIN " + sql);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    std::string plan_text;
    for (const auto& row : plan->rows) plan_text += row[0].ToString() + "\n";
    ASSERT_NE(plan_text.find("DFScan"), std::string::npos) << plan_text;
    ASSERT_EQ(plan_text.find("visited-once") != std::string::npos,
              q.global_visited)
        << plan_text;
    if (q.global_visited) ++dfs_visited_once;

    const std::vector<std::string> expected = DfsDiffReference(graph, adj, q);
    if (!expected.empty()) ++dfs_answered;
    for (size_t workers : {size_t{1}, size_t{4}}) {
      auto result = run_at(sql, workers);
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(DiffOrdered(*result), expected)
          << "workers=" << workers << " diverges from the reference";
    }

    // The same statement under HINT(BFS): iterative deepening, or the
    // visited-once forest for the TOP 1 reach, in the reference's order.
    std::string bfs_sql = sql;
    bfs_sql.replace(bfs_sql.find("HINT(DFS)"), 9, "HINT(BFS)");
    SCOPED_TRACE(bfs_sql);
    const std::string bfs_plan = plan_of(bfs_sql);
    ASSERT_NE(bfs_plan.find("BFScan"), std::string::npos) << bfs_plan;
    ASSERT_EQ(bfs_plan.find("visited-once") != std::string::npos,
              q.global_visited)
        << bfs_plan;
    BfsRefQuery ref;
    ref.starts = q.starts;
    ref.min_len = q.min_len;
    ref.max_len = q.max_len;
    ref.target = q.end_vertex;
    if (q.rank_below.has_value()) {
      ref.edge_ok = RankBelow(graph, *q.rank_below);
    }
    ref.w_op = q.w_op;
    ref.w_bound = q.w_bound;
    ref.weight = WeightOf(graph);
    ref.pushdown = q.pushdown;
    ref.visited_once = q.global_visited;
    if (q.global_visited) ref.limit = 1;
    const std::vector<std::string> bfs_expected = BfsReference(adj, ref);
    for (size_t workers : {size_t{1}, size_t{4}}) {
      auto result = run_at(bfs_sql, workers);
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(DiffOrdered(*result), bfs_expected)
          << "workers=" << workers << " BFS diverges from the reference";
    }
  }
  session.options().enable_filter_pushdown = true;
  if (dfs_trials > 0) {
    EXPECT_GT(dfs_answered, 0) << "no DFS trial had an answer";
  }

  // BFS reach probes: LIMIT 1 runs the visited-once BFS forest, which
  // emits a claim before it examines the next edge; LIMIT 2..3 runs
  // iterative deepening. Rows must equal the reference's sequence at 1 and
  // 4 workers. Their own random stream leaves the other trials' draws
  // unchanged.
  {
    Random reach_rng(seed * 31 + 7);
    session.options().default_traversal = PlannerOptions::Traversal::kBfs;
    int reach_answered = 0;
    for (int trial = 0; trial < reach_trials; ++trial) {
      std::vector<std::string> expected;
      // Every fourth trial has an answer by construction, so a sparse graph
      // still exercises answered probes.
      const ReachDiffQuery q = MakeReachProbe(graph, adj, reach_rng, &expected,
                                              /*answerable=*/trial % 4 == 0);
      SCOPED_TRACE(q.sql);
      auto plan = session.Execute("EXPLAIN " + q.sql);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      std::string plan_text;
      for (const auto& row : plan->rows) plan_text += row[0].ToString() + "\n";
      ASSERT_NE(plan_text.find("BFScan"), std::string::npos) << plan_text;
      ASSERT_EQ(plan_text.find("visited-once") != std::string::npos,
                q.limit == 1)
          << plan_text;
      if (!expected.empty()) ++reach_answered;
      for (size_t workers : {size_t{1}, size_t{4}}) {
        auto result = run_at(q.sql, workers);
        ASSERT_TRUE(result.ok());
        EXPECT_EQ(DiffOrdered(*result), expected)
            << "workers=" << workers << " diverges from the reference";
      }
    }
    session.options().default_traversal = PlannerOptions().default_traversal;
    if (reach_trials > 0) {
      EXPECT_GT(reach_answered, 0) << "no reach trial had an answer";
    }
  }

  // Aggregate trials. The planner runs a path probe under an aggregate as
  // fixed 16-row (or, for DFScan, 16-start) morsels with partial aggregates
  // merged in morsel order, so these trials use a larger graph `ga` whose
  // outer rows and starts span several morsels. Shapes: the hybrid (each
  // vertex's relational row probes its paths; rerun under HINT(BFS)) and
  // the unbound multi-source scan; scalar, outer-keyed and path-keyed
  // groups; DOUBLE SUM/AVG and MIN over
  // a vertex attribute; random extra COUNT/SUM/AVG/MIN/MAX over the typed
  // inputs (P.Length, P.StartVertex.Id, a BIGINT and a DOUBLE endpoint
  // column with NULLs) and over a VARCHAR endpoint column (read through
  // Eval); residual predicates, which the traversal tests per path, one of
  // them on P.PathString; empty input; HAVING. The reference enumerates
  // paths on an explicit stack in DFScan's order (roots pushed ascending, so
  // an unbound scan starts at the highest id), which fixes first-seen group
  // order. 1 and 4 workers must agree exactly, floating sums, traversal
  // counters and EXPLAIN ANALYZE row/call counters included; against the
  // reference, sequential floating sums are compared to 1e-9 relative,
  // everything else exactly.
  const int64_t an = rng.Uniform(40, 72);
  {
    ASSERT_TRUE(session.ExecuteScript(R"sql(
      CREATE TABLE av (id BIGINT PRIMARY KEY, name VARCHAR, score DOUBLE,
                       big BIGINT, wt DOUBLE);
      CREATE TABLE ae (id BIGINT PRIMARY KEY, src BIGINT, dst BIGINT,
                       rank BIGINT);
    )sql")
                    .ok());
    std::vector<std::vector<Value>> avrows, aerows;
    for (int64_t i = 0; i < an; ++i) {
      avrows.push_back({Value::BigInt(i), Value::Varchar(name_of(i)),
                        Value::Double(rng.NextDouble() * 10.0)});
      // A quarter NULL each, so typed reads meet NULL endpoints.
      avrows.back().push_back(rng.Bernoulli(0.25)
                                  ? Value::Null()
                                  : Value::BigInt(rng.Uniform(-1000, 1000)));
      avrows.back().push_back(rng.Bernoulli(0.25)
                                  ? Value::Null()
                                  : Value::Double(rng.NextDouble() * 5.0));
    }
    std::set<std::pair<int64_t, int64_t>> aused;
    const int64_t aedges = rng.Uniform(2 * an, 3 * an);
    while (static_cast<int64_t>(aerows.size()) < aedges) {
      const int64_t s = rng.Uniform(0, an - 1);
      const int64_t d = rng.Uniform(0, an - 1);
      if (s == d || !aused.insert({s, d}).second) continue;
      aerows.push_back({Value::BigInt(static_cast<int64_t>(aerows.size())),
                        Value::BigInt(s), Value::BigInt(d),
                        Value::BigInt(rng.Uniform(0, 99))});
    }
    ASSERT_TRUE(db.BulkInsert("av", avrows).ok());
    ASSERT_TRUE(db.BulkInsert("ae", aerows).ok());
    ASSERT_TRUE(session.ExecuteScript(
                        StrFormat("CREATE %s GRAPH VIEW ga VERTEXES (ID = id, "
                                  "name = name, score = score, big = big, "
                                  "wt = wt) FROM av EDGES "
                                  "(ID = id, FROM = src, TO = dst, rank = "
                                  "rank) FROM ae;",
                                  kind))
                    .ok());
    struct AggPath {
      std::vector<int64_t> vs, es;
    };
    std::vector<double> ascore;
    std::vector<int64_t> arank;
    for (const auto& row : avrows) ascore.push_back(row[2].AsDouble());
    // Extra aggregates: an input (its SQL and its value on a path of
    // length `len` from `start` to `end`) under a function.
    struct ExtraInput {
      const char* sql;
      std::function<Value(int64_t start, int64_t end, size_t len)> value;
      bool varchar;
    };
    const std::vector<ExtraInput> extra_inputs = {
        {"P.Length",
         [](int64_t, int64_t, size_t len) {
           return Value::BigInt(static_cast<int64_t>(len));
         },
         false},
        {"P.StartVertex.Id",
         [](int64_t start, int64_t, size_t) { return Value::BigInt(start); },
         false},
        {"P.EndVertex.big",
         [&](int64_t, int64_t end, size_t) {
           return avrows[static_cast<size_t>(end)][3];
         },
         false},
        {"P.StartVertex.wt",
         [&](int64_t start, int64_t, size_t) {
           return avrows[static_cast<size_t>(start)][4];
         },
         false},
        {"P.EndVertex.wt",
         [&](int64_t, int64_t end, size_t) {
           return avrows[static_cast<size_t>(end)][4];
         },
         false},
        {"P.EndVertex.name",
         [&](int64_t, int64_t end, size_t) {
           return Value::Varchar(name_of(end));
         },
         true},
    };
    struct Extra {
      AggFunc func;
      const ExtraInput* input;
    };
    struct ExtraState {
      int64_t count = 0, int_sum = 0;
      double double_sum = 0;
      bool integral = true;
      Value min, max;
    };
    // EXPLAIN ANALYZE's operator lines without times or worker fan-out:
    // the row, call, copy and lookup counters.
    auto analyzed_counters = [](const ResultSet& explained) {
      static const std::regex kTimes(
          R"( time_ms=[0-9.]+| pct=[0-9.]+| workers=\[[^\]]*\])");
      std::string out;
      for (const auto& row : explained.rows) {
        const std::string line = row[0].ToString();
        if (line.find("actual_rows=") == std::string::npos) continue;
        out += std::regex_replace(line, kTimes, "") + "\n";
      }
      return out;
    };
    for (const auto& row : aerows) arank.push_back(row[3].AsBigInt());
    RefAdjacency aadj;
    const GraphView* agv = db.catalog().FindGraphView("ga");
    ASSERT_NE(agv, nullptr);
    for (int64_t v = 0; v < an; ++v) {
      const VertexEntry* entry = agv->FindVertex(v);
      ASSERT_NE(entry, nullptr);
      auto& list = aadj[v];
      agv->ForEachNeighbor(*entry, [&](const EdgeEntry& e, VertexId nbr) {
        list.emplace_back(e.id, nbr);
        return true;
      });
    }
    // DFScan's emission order over `starts` (pushed ascending, popped
    // last-first), with the rank filter pruning edges.
    auto enumerate = [&](const std::vector<int64_t>& starts, size_t max_len,
                         std::optional<int64_t> rank_below) {
      std::vector<AggPath> stack, out;
      for (int64_t s : starts) stack.push_back(AggPath{{s}, {}});
      while (!stack.empty()) {
        AggPath p = std::move(stack.back());
        stack.pop_back();
        const bool closing = p.es.size() >= 1 && p.vs.back() == p.vs.front();
        if (!closing && p.es.size() < max_len) {
          for (auto [eid, nbr] : aadj.at(p.vs.back())) {
            if (std::find(p.es.begin(), p.es.end(), eid) != p.es.end()) {
              continue;
            }
            if (nbr != p.vs.front() &&
                std::find(p.vs.begin(), p.vs.end(), nbr) != p.vs.end()) {
              continue;
            }
            if (rank_below.has_value() &&
                arank[static_cast<size_t>(eid)] >= *rank_below) {
              continue;
            }
            AggPath next = p;
            next.vs.push_back(nbr);
            next.es.push_back(eid);
            stack.push_back(std::move(next));
          }
        }
        if (!p.es.empty()) out.push_back(std::move(p));
      }
      return out;
    };
    auto same_value = [](const Value& a, const Value& b, bool exact) {
      if (a.type() != b.type()) return false;
      if (a.type() != ValueType::kDouble) return a.ToString() == b.ToString();
      if (exact) return a.AsDouble() == b.AsDouble();
      return std::abs(a.AsDouble() - b.AsDouble()) <=
             1e-9 * std::max(1.0, std::abs(b.AsDouble()));
    };
    auto expect_rows = [&](const ResultSet& got,
                           const std::vector<std::vector<Value>>& want,
                           bool exact, const char* what) {
      ASSERT_EQ(got.rows.size(), want.size()) << what;
      for (size_t r = 0; r < want.size(); ++r) {
        ASSERT_EQ(got.rows[r].size(), want[r].size()) << what;
        for (size_t c = 0; c < want[r].size(); ++c) {
          EXPECT_TRUE(same_value(got.rows[r][c], want[r][c], exact))
              << what << ": row " << r << " column " << c << ": "
              << got.rows[r][c].ToString() << " vs "
              << want[r][c].ToString();
        }
      }
    };

    int agg_answered = 0;
    int agg_fanned = 0;
    // After the drawn trials come fold trials, drawn from their own stream
    // so the others keep their draws: a path-free key and nothing that takes
    // paths one by one, so the aggregate folds every leaf run in one call.
    const int fold_trials = (agg_trials + 2) / 3;
    Random fold_rng(seed ^ 0x9e3779b97f4a7c15ull);
    uint64_t folded_runs = 0;
    for (int trial = 0; trial < agg_trials + fold_trials; ++trial) {
      const bool folds = trial >= agg_trials;
      Random& trial_rng = folds ? fold_rng : rng;
      const bool hybrid = trial_rng.Bernoulli(0.5);
      const size_t max_len = static_cast<size_t>(trial_rng.Uniform(1, 3));
      std::optional<int64_t> rank_below;
      if (trial_rng.Bernoulli(0.4)) rank_below = trial_rng.Uniform(20, 90);
      // 0: scalar, 1: GROUP BY P.EndVertex.name, 2: GROUP BY V.name.
      // Every third trial groups paths by end vertex with nothing to drop
      // the groups, so every graph yields a multi-group answer.
      const bool grouped = !folds && trial % 3 == 0;
      int key = static_cast<int>(trial_rng.Uniform(0, hybrid ? 2 : 1));
      if (grouped) key = 1;
      if (folds && key == 1) key = 0;
      const bool residual = hybrid && trial_rng.Bernoulli(0.3) && !folds;
      const bool empty = trial_rng.Bernoulli(0.15) && !grouped && !folds;
      std::optional<int64_t> having;
      if (key != 0 && trial_rng.Bernoulli(0.3) && !grouped) {
        having = trial_rng.Uniform(0, 40);
      }
      // A residual filter the traversal cannot take: some hop reaches a
      // vertex whose id starts with 1.
      const bool like = trial_rng.Bernoulli(0.3) && !grouped && !folds;
      std::vector<Extra> extras;
      for (int k = 0; k < 4; ++k) {
        static constexpr AggFunc kFuncs[] = {AggFunc::kCount, AggFunc::kSum,
                                             AggFunc::kAvg, AggFunc::kMin,
                                             AggFunc::kMax};
        const ExtraInput* input =
            &extra_inputs[static_cast<size_t>(trial_rng.Uniform(0, 5))];
        // VARCHAR inputs take COUNT, MIN and MAX only.
        const AggFunc func =
            input->varchar
                ? kFuncs[trial_rng.Bernoulli(0.2) ? 0 : trial_rng.Uniform(3, 4)]
                : kFuncs[trial_rng.Uniform(0, 4)];
        extras.push_back(Extra{func, input});
      }

      static constexpr const char* kKeys[] = {"", "P.EndVertex.name",
                                              "V.name"};
      std::string sql = "SELECT ";
      if (key != 0) sql += std::string(kKeys[key]) + ", ";
      sql +=
          "COUNT(*), SUM(P.Length), MIN(P.EndVertex.score), "
          "MAX(P.EndVertex.Id), SUM(P.EndVertex.score), "
          "AVG(P.EndVertex.score)";
      for (const Extra& extra : extras) {
        sql += StrFormat(", %s(%s)", AggFuncToString(extra.func),
                         extra.input->sql);
      }
      sql += " FROM ";
      sql += hybrid ? "av V, ga.Paths P HINT(DFS) WHERE P.StartVertex.Id = "
                      "V.id AND "
                    : "ga.Paths P HINT(DFS) WHERE ";
      sql += StrFormat("P.Length <= %zu", max_len);
      if (rank_below.has_value()) {
        sql += StrFormat(" AND P.Edges[0..*].rank < %lld",
                         static_cast<long long>(*rank_below));
      }
      if (residual) sql += " AND P.EndVertex.Id > V.id";
      if (like) sql += " AND P.PathString LIKE '%-> 1%'";
      if (empty) sql += " AND P.EndVertex.score < 0";
      if (key != 0) sql += std::string(" GROUP BY ") + kKeys[key];
      if (having.has_value()) {
        sql += StrFormat(" HAVING COUNT(*) > %lld",
                         static_cast<long long>(*having));
      }
      SCOPED_TRACE(sql);

      std::vector<AggPath> paths;
      if (hybrid) {
        for (int64_t s = 0; s < an; ++s) {
          for (AggPath& p : enumerate({s}, max_len, rank_below)) {
            paths.push_back(std::move(p));
          }
        }
      } else {
        std::vector<int64_t> starts;
        for (int64_t s = 0; s < an; ++s) starts.push_back(s);
        paths = enumerate(starts, max_len, rank_below);
      }
      struct Agg {
        int64_t count = 0, length_sum = 0, max_end = -1;
        double min_score = 0, score_sum = 0;
        std::vector<ExtraState> extras;
      };
      std::vector<std::string> order;
      std::map<std::string, Agg> groups;
      for (const AggPath& p : paths) {
        const int64_t start = p.vs.front(), end = p.vs.back();
        if (residual && end <= start) continue;
        if (like && RefPathString(p.vs, p.es).find("-> 1") ==
                        std::string::npos) {
          continue;
        }
        if (empty) continue;  // Every score is >= 0.
        const std::string group = key == 0   ? ""
                                  : key == 1 ? name_of(end)
                                             : name_of(start);
        auto [it, fresh] = groups.try_emplace(group);
        if (fresh) order.push_back(group);
        Agg& g = it->second;
        const double score = ascore[static_cast<size_t>(end)];
        g.min_score = g.count == 0 ? score : std::min(g.min_score, score);
        g.count += 1;
        g.length_sum += static_cast<int64_t>(p.es.size());
        g.max_end = std::max(g.max_end, end);
        g.score_sum += score;
        g.extras.resize(extras.size());
        for (size_t k = 0; k < extras.size(); ++k) {
          const Value v = extras[k].input->value(start, end, p.es.size());
          if (v.is_null()) continue;
          ExtraState& e = g.extras[k];
          ++e.count;
          if (v.type() == ValueType::kBigInt) {
            e.int_sum += v.AsBigInt();
          } else if (v.type() == ValueType::kDouble) {
            e.integral = false;
            e.double_sum += v.AsDouble();
          }
          if (e.min.is_null() || *v.Compare(e.min) < 0) e.min = v;
          if (e.max.is_null() || *v.Compare(e.max) > 0) e.max = v;
        }
      }
      if (key == 0 && order.empty()) {
        order.push_back("");
        groups[""];
      }
      std::vector<std::vector<Value>> expected;
      for (const std::string& group : order) {
        const Agg& g = groups.at(group);
        if (having.has_value() && g.count <= *having) continue;
        std::vector<Value> row;
        if (key != 0) row.push_back(Value::Varchar(group));
        row.push_back(Value::BigInt(g.count));
        if (g.count == 0) {
          row.insert(row.end(), 5, Value::Null());
        } else {
          row.push_back(Value::BigInt(g.length_sum));
          row.push_back(Value::Double(g.min_score));
          row.push_back(Value::BigInt(g.max_end));
          row.push_back(Value::Double(g.score_sum));
          row.push_back(Value::Double(g.score_sum /
                                      static_cast<double>(g.count)));
        }
        for (size_t k = 0; k < extras.size(); ++k) {
          const ExtraState e =
              k < g.extras.size() ? g.extras[k] : ExtraState{};
          const double sum =
              static_cast<double>(e.int_sum) + e.double_sum;
          switch (extras[k].func) {
            case AggFunc::kCount:
              row.push_back(Value::BigInt(e.count));
              break;
            case AggFunc::kSum:
              row.push_back(e.count == 0 ? Value::Null()
                            : e.integral ? Value::BigInt(e.int_sum)
                                         : Value::Double(sum));
              break;
            case AggFunc::kAvg:
              row.push_back(e.count == 0
                                ? Value::Null()
                                : Value::Double(
                                      sum / static_cast<double>(e.count)));
              break;
            case AggFunc::kMin:
              row.push_back(e.min);
              break;
            case AggFunc::kMax:
              row.push_back(e.max);
              break;
          }
        }
        expected.push_back(std::move(row));
      }
      if (expected.size() > 1) ++agg_answered;

      auto serial = run_at(sql, 1);
      ASSERT_TRUE(serial.ok());
      const ExecStats serial_stats = session.last_stats();
      auto par = run_at(sql, 4);
      ASSERT_TRUE(par.ok());
      const ExecStats par_stats = session.last_stats();
      expect_rows(*serial, expected, /*exact=*/false, "1 worker vs reference");
      expect_rows(*par, serial->rows, /*exact=*/true, "4 workers vs 1");
      EXPECT_EQ(par_stats.paths_emitted, serial_stats.paths_emitted);
      EXPECT_EQ(par_stats.edges_examined, serial_stats.edges_examined);
      EXPECT_EQ(par_stats.rows_joined, serial_stats.rows_joined);
      EXPECT_EQ(par_stats.paths_pruned, serial_stats.paths_pruned);
      EXPECT_EQ(par_stats.runs_folded, serial_stats.runs_folded);

      session.options().max_parallelism = 1;
      auto explained_serial = session.Execute("EXPLAIN ANALYZE " + sql);
      ASSERT_TRUE(explained_serial.ok())
          << explained_serial.status().ToString();
      session.options().max_parallelism = 4;
      auto explained = session.Execute("EXPLAIN ANALYZE " + sql);
      ASSERT_TRUE(explained.ok()) << explained.status().ToString();
      std::string text;
      for (const auto& row : explained->rows) text += row[0].ToString() + "\n";
      EXPECT_NE(text.find(" morsels="), std::string::npos) << text;
      if (text.find(" workers=[") != std::string::npos) ++agg_fanned;
      const size_t runs_at = text.find(" leaf_runs=");
      EXPECT_NE(runs_at, std::string::npos) << text;
      if (runs_at != std::string::npos && folds) {
        // Untimed, a fold trial takes every run the scanner held in one
        // call (EXPLAIN ANALYZE is timed, so it only counts them).
        EXPECT_EQ(serial_stats.runs_folded,
                  std::strtoull(text.c_str() + runs_at + 11, nullptr, 10))
            << text;
        folded_runs += serial_stats.runs_folded;
      }
      EXPECT_EQ(analyzed_counters(*explained),
                analyzed_counters(*explained_serial))
          << "EXPLAIN ANALYZE counters differ at 1 and 4 workers";

      if (hybrid) {
        // The hybrid again under iterative deepening (BFScan), which drains
        // as morsels too: the same paths in another order, so the same
        // reference. Groups keyed by the path's end come in another
        // first-seen order and are compared as a set.
        std::string bfs = sql;
        bfs.replace(bfs.find("HINT(DFS)"), 9, "HINT(BFS)");
        SCOPED_TRACE(bfs);
        auto bfs_serial = run_at(bfs, 1);
        ASSERT_TRUE(bfs_serial.ok());
        auto bfs_par = run_at(bfs, 4);
        ASSERT_TRUE(bfs_par.ok());
        expect_rows(*bfs_par, bfs_serial->rows, /*exact=*/true,
                    "BFS: 4 workers vs 1");
        ResultSet got = *bfs_serial;
        std::vector<std::vector<Value>> want = expected;
        if (key == 1) {
          auto by_key = [](const std::vector<Value>& a,
                           const std::vector<Value>& b) {
            return a[0].ToString() < b[0].ToString();
          };
          std::sort(got.rows.begin(), got.rows.end(), by_key);
          std::sort(want.begin(), want.end(), by_key);
        }
        expect_rows(got, want, /*exact=*/false, "BFS: 1 worker vs reference");
        session.options().max_parallelism = 4;
        auto bfs_explained = session.Execute("EXPLAIN ANALYZE " + bfs);
        ASSERT_TRUE(bfs_explained.ok()) << bfs_explained.status().ToString();
        std::string bfs_text;
        for (const auto& row : bfs_explained->rows) {
          bfs_text += row[0].ToString() + "\n";
        }
        EXPECT_NE(bfs_text.find(" morsels="), std::string::npos) << bfs_text;
        EXPECT_NE(bfs_text.find(" passes="), std::string::npos) << bfs_text;
      }
    }
    if (agg_trials > 0) {
      EXPECT_GT(agg_answered, 0) << "no aggregate trial had two groups";
      EXPECT_GT(agg_fanned, 0) << "no aggregate trial ran on several workers";
      EXPECT_GT(folded_runs, 0u) << "no aggregate trial folded a leaf run";
    }
  }

  // Weight-update step. The trials above built the view's flat columns
  // (iw, w, rank). A transaction now rewrites those attributes on a third
  // of the edges. Until COMMIT a reader's statements must match the old
  // reference and the writer's the new one; after it every statement
  // matches the new one, both before the maintenance boundary (tuple reads)
  // and after it (columns rebuilt from the committed values).
  if (sp_trials > 0) {
    std::vector<std::pair<SpDiffQuery, std::string>> step_queries;
    for (int i = 0; i < 6; ++i) step_queries.push_back(make_sp_query());
    auto check_step = [&](Session& s, const DiffGraph& ref,
                          const char* phase, bool expect_columns) {
      for (const auto& [q, sql] : step_queries) {
        SCOPED_TRACE(StrFormat("%s: %s", phase, sql.c_str()));
        const std::vector<std::string> expected = SpDiffReference(ref, q);
        for (size_t workers : {size_t{1}, size_t{4}}) {
          auto result = run_in(s, sql, workers);
          ASSERT_TRUE(result.ok());
          EXPECT_EQ(DiffOrdered(*result), expected)
              << "workers=" << workers << " diverges from the reference";
          if (expect_columns) {
            EXPECT_EQ(s.last_stats().attr_tuple_reads, 0u);
          }
        }
      }
    };
    const GraphView* gv = db.catalog().FindGraphView("g");
    ASSERT_NE(gv, nullptr);
    ASSERT_TRUE(session.Execute("CREATE TABLE pad (id BIGINT)").ok());
    Session reader(db);
    check_step(reader, graph, "before the update", /*expect_columns=*/true);

    DiffGraph updated = graph;
    ASSERT_TRUE(session.Execute("BEGIN").ok());
    for (DiffEdge& e : updated.edges) {
      if (!rng.Bernoulli(1.0 / 3.0)) continue;
      e.iw = rng.Uniform(1, 3);
      e.w = 0.5 + rng.NextDouble() * 4.0;
      e.rank = rng.Uniform(0, 99);
      ASSERT_TRUE(session
                      .Execute(StrFormat(
                          "UPDATE e SET iw = %lld, w = %.17g, rank = %lld "
                          "WHERE id = %lld",
                          static_cast<long long>(e.iw), e.w,
                          static_cast<long long>(e.rank),
                          static_cast<long long>(e.id)))
                      .ok());
    }
    check_step(session, updated, "writer before COMMIT", false);
    check_step(reader, graph, "reader before COMMIT", false);
    ASSERT_TRUE(session.Execute("COMMIT").ok());
    check_step(reader, updated, "after COMMIT", false);

    std::vector<std::vector<Value>> pad(128, {Value::BigInt(0)});
    ASSERT_TRUE(db.BulkInsert("pad", pad).ok());
    EXPECT_FALSE(gv->EdgeColumnsStale()) << "no maintenance boundary ran";
    check_step(reader, updated, "after the boundary", true);
  }
  // The `gp` view must actually have been built on the shared pool —
  // otherwise the parallel-build comparison silently ran serial twice.
  const uint64_t tasks_after =
      MetricsRegistry::Global().GetCounter("taskpool_tasks_total")->value();
  EXPECT_GT(tasks_after, tasks_before)
      << "no task-pool work observed: parallel paths never engaged";
  session.options().max_parallelism = TestOptions().max_parallelism;
  session.options().parallel_min_rows = 2048;
}

class GraphDiffFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GraphDiffFuzzTest, SerialParallelAndReferenceAgree) {
  // 8 seeds x (20 enumeration + 30 shortest-path + 30 DFS + 8 GROUP BY +
  // 24 BFS reach) = 896 differential cases.
  RunGraphDifferentialSweep(GetParam(), /*enum_trials=*/20, /*sp_trials=*/30,
                            /*dfs_trials=*/30, /*agg_trials=*/8,
                            /*reach_trials=*/24);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphDiffFuzzTest,
                         ::testing::Values(11, 12, 13, 14, 15, 16, 17, 18),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

// Extra sweep whose seed comes from the environment, so CI can roll a fresh
// seed per run (tools/check.sh sets GRF_FUZZ_SEED=$RANDOM) while local runs
// stay reproducible. A failure message prints the seed via SCOPED_TRACE.
TEST(GraphDiffFuzzEnvTest, EnvironmentSeedSweep) {
  uint64_t seed = 20260806;
  if (const char* env = std::getenv("GRF_FUZZ_SEED")) {
    seed = std::strtoull(env, nullptr, 10);
  }
  RunGraphDifferentialSweep(seed, /*enum_trials=*/10, /*sp_trials=*/16,
                            /*dfs_trials=*/16, /*agg_trials=*/6,
                            /*reach_trials=*/12);
}

// ---------------------------------------------------------------------------
// Point-to-point bound differential fuzz
//
// A single-probe LIMIT/TOP 1 statement with a bound start and target runs
// a bidirectional bound and then its kernel over the vertexes that can lie
// on the answer (DESIGN.md §14, §16). Its row must be the one-way kernel's
// exactly: SPScan's against SpDiffReference, Cost bit for bit, over
// real-valued weights with ties and zeros and over integer weights; the
// forest's against BfsReference, with a rank filter on and off. Directed
// and undirected views, parallel edges, unreachable targets (no row, and no
// kernel edge after the bound), at 1 and 4 workers.
// ---------------------------------------------------------------------------

void RunPointBoundSweep(uint64_t seed, int trials) {
  SCOPED_TRACE(StrFormat("point-bound seed=%llu",
                         static_cast<unsigned long long>(seed)));
  Random rng(seed);
  DiffGraph graph;
  graph.n = rng.Uniform(8, 40);
  graph.directed = rng.Bernoulli(0.5);
  // Weights whose sums tie in real arithmetic but not always in floating
  // point (0.1 + 0.2 != 0.3), and zeros.
  static constexpr double kWeights[] = {0.0, 0.1, 0.2, 0.3, 0.5,
                                        0.7, 1.0, 1.1, 2.5};
  Database db(TestOptions());
  Session session(db);
  ASSERT_TRUE(session.ExecuteScript(R"sql(
    CREATE TABLE v (id BIGINT PRIMARY KEY);
    CREATE TABLE e (id BIGINT PRIMARY KEY, src BIGINT, dst BIGINT,
                    w DOUBLE, rank BIGINT, iw BIGINT);
  )sql")
                  .ok());
  std::vector<std::vector<Value>> vrows;
  for (int64_t i = 0; i < graph.n; ++i) vrows.push_back({Value::BigInt(i)});
  ASSERT_TRUE(db.BulkInsert("v", vrows).ok());
  std::vector<std::vector<Value>> erows;
  const int64_t edges = rng.Uniform(graph.n, 3 * graph.n);
  for (int64_t id = 0; id < edges; ++id) {
    const int64_t src = rng.Uniform(0, graph.n - 1);
    int64_t dst = rng.Uniform(0, graph.n - 2);
    if (dst >= src) ++dst;  // No self loops; parallel edges allowed.
    const double w = kWeights[rng.Uniform(0, std::size(kWeights) - 1)];
    const int64_t rank = rng.Uniform(0, 99);
    const int64_t iw = rng.Uniform(0, 2);
    graph.edges.push_back(DiffEdge{id, src, dst, w, rank, iw});
    erows.push_back({Value::BigInt(id), Value::BigInt(src),
                     Value::BigInt(dst), Value::Double(w), Value::BigInt(rank),
                     Value::BigInt(iw)});
  }
  ASSERT_TRUE(db.BulkInsert("e", erows).ok());
  ASSERT_TRUE(session
                  .ExecuteScript(StrFormat(
                      "CREATE %s GRAPH VIEW g VERTEXES (ID = id) FROM v "
                      "EDGES (ID = id, FROM = src, TO = dst, w = w, "
                      "rank = rank, iw = iw) FROM e;",
                      graph.directed ? "DIRECTED" : "UNDIRECTED"))
                  .ok());
  std::vector<int64_t> all_vertexes;
  for (int64_t i = 0; i < graph.n; ++i) all_vertexes.push_back(i);
  const RefAdjacency adj =
      ViewAdjacencyOf(*db.catalog().FindGraphView("g"), all_vertexes);
  session.options().default_traversal = PlannerOptions::Traversal::kBfs;

  int bounded = 0;
  for (int trial = 0; trial < trials; ++trial) {
    const int64_t src = rng.Uniform(0, graph.n - 1);
    int64_t dst = rng.Uniform(0, graph.n - 2);
    if (dst >= src) ++dst;
    std::optional<int64_t> rank_below;
    if (rng.Bernoulli(0.4)) rank_below = rng.Uniform(20, 90);
    // The WHERE clause over path alias `p`.
    auto where = [&](const char* p) {
      std::string out = StrFormat(
          "%s.StartVertex.Id = %lld AND %s.EndVertex.Id = %lld", p,
          static_cast<long long>(src), p, static_cast<long long>(dst));
      if (rank_below.has_value()) {
        out += StrFormat(" AND %s.Edges[0..*].rank < %lld", p,
                         static_cast<long long>(*rank_below));
      }
      return out;
    };
    const int kind = static_cast<int>(rng.Uniform(0, 2));
    std::string sql;
    std::vector<std::string> expected;
    std::vector<double> costs;
    bool eligible = true;
    if (kind < 2) {
      // SPScan, over `w` or `iw`: a pushed rank filter keeps it one-way.
      SpDiffQuery q;
      q.starts = {src};
      q.dst = dst;
      q.k = 1;
      q.rank_below = rank_below;
      q.real_cost = kind == 0;
      eligible = !rank_below.has_value();
      sql = StrFormat(
          "SELECT TOP 1 PS.Cost, PS.PathString FROM g.Paths PS "
          "HINT(SHORTESTPATH(%s)) WHERE %s",
          q.real_cost ? "w" : "iw", where("PS").c_str());
      expected = SpDiffReference(graph, q, &costs);
    } else {
      BfsRefQuery ref;
      ref.starts = {src};
      ref.target = dst;
      if (rank_below.has_value()) ref.edge_ok = RankBelow(graph, *rank_below);
      ref.visited_once = true;
      ref.limit = 1;
      sql = StrFormat(
          "SELECT P.StartVertex.Id, P.PathString FROM g.Paths P WHERE %s "
          "LIMIT 1",
          where("P").c_str());
      expected = BfsReference(adj, ref);
    }
    SCOPED_TRACE(sql);
    auto plan = session.Execute("EXPLAIN " + sql);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    std::string plan_text;
    for (const auto& row : plan->rows) plan_text += row[0].ToString() + "\n";
    EXPECT_EQ(plan_text.find("bidir") != std::string::npos, eligible)
        << plan_text;
    if (eligible) ++bounded;
    for (size_t workers : {size_t{1}, size_t{4}}) {
      session.options().max_parallelism = workers;
      auto result = session.Execute(sql);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(DiffOrdered(*result), expected)
          << "workers=" << workers << " diverges from the reference";
      if (kind < 2 && !costs.empty() && result->NumRows() == 1) {
        EXPECT_EQ(std::bit_cast<uint64_t>(result->rows[0][0].AsDouble()),
                  std::bit_cast<uint64_t>(costs[0]))
            << "workers=" << workers << " cost " << result->rows[0][0].AsDouble()
            << " is not the forward sum " << costs[0];
      }
      const ExecStats& stats = session.last_stats();
      if (!eligible) {
        EXPECT_EQ(stats.bound_edges, 0u);
      } else if (expected.empty()) {
        // An unreachable target returns after the bound.
        EXPECT_EQ(stats.edges_examined, stats.bound_edges);
      } else {
        EXPECT_GT(stats.bound_edges, 0u);
      }
    }
  }
  EXPECT_GT(bounded, 0) << "no trial ran the bound";
  session.options().max_parallelism = TestOptions().max_parallelism;
}

class PointBoundDiffTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PointBoundDiffTest, RowsMatchTheOneWayReferences) {
  RunPointBoundSweep(GetParam(), /*trials=*/60);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PointBoundDiffTest,
                         ::testing::Values(31, 32, 33, 34, 35, 36, 37, 38),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

TEST(PointBoundDiffEnvTest, EnvironmentSeedSweep) {
  uint64_t seed = 20261020;
  if (const char* env = std::getenv("GRF_FUZZ_SEED")) {
    seed = std::strtoull(env, nullptr, 10);
  }
  RunPointBoundSweep(seed, /*trials=*/40);
}

// ---------------------------------------------------------------------------
// BFS differential fuzz
//
// Every BFScan, iterative deepening and the visited-once forest alike, must
// emit exactly the rows of the copy-prefix BFS reference (bfs_reference.h),
// in its order, at 1 and 4 workers. Two sweeps:
//
//  * RunFrontierDifferentialSweep: random graph, random BFS-shaped queries
//    (length windows, rank filters, SUM bounds, pushdown on and off, LIMIT
//    k, reach probes), with random DML interleaved so queries alternate
//    between pure-CSR and delta-overlay views.
//  * RunFrontierSnapshotSweep: a writer thread churns edges in a component
//    disjoint from the queried one (and excluded by a rank predicate), so
//    every snapshot a reader can take must answer the fixed golden rows,
//    which equal the reference's, while commits trigger delta folds
//    underneath.
// ---------------------------------------------------------------------------

void RunFrontierDifferentialSweep(uint64_t seed, int trials) {
  SCOPED_TRACE(StrFormat("frontier-diff seed=%llu",
                         static_cast<unsigned long long>(seed)));
  Random rng(seed);
  DiffGraph graph;
  graph.n = rng.Uniform(6, 12);
  graph.directed = rng.Bernoulli(0.5);
  int64_t target_edges = rng.Uniform(graph.n, 3 * graph.n);

  Database db(TestOptions());
  Session session(db);
  ASSERT_TRUE(session.ExecuteScript(R"sql(
    CREATE TABLE v (id BIGINT PRIMARY KEY, name VARCHAR);
    CREATE TABLE e (id BIGINT PRIMARY KEY, src BIGINT, dst BIGINT,
                    w DOUBLE, rank BIGINT);
  )sql")
                  .ok());
  std::vector<std::vector<Value>> vrows;
  // Three vertex names, so a GROUP BY V.name changes group between
  // consecutive outer rows.
  auto name_of = [](int64_t v) { return "k" + std::to_string(v % 3); };
  for (int64_t i = 0; i < graph.n; ++i) {
    vrows.push_back({Value::BigInt(i), Value::Varchar(name_of(i))});
  }
  ASSERT_TRUE(db.BulkInsert("v", vrows).ok());
  std::set<std::pair<int64_t, int64_t>> used;
  std::vector<std::vector<Value>> erows;
  int64_t next_edge_id = 0;
  while (next_edge_id < target_edges &&
         used.size() < static_cast<size_t>(graph.n * (graph.n - 1))) {
    int64_t s = rng.Uniform(0, graph.n - 1);
    int64_t d = rng.Uniform(0, graph.n - 1);
    if (s == d || !used.insert({s, d}).second) continue;
    double w = 0.5 + rng.NextDouble() * 4.0;
    int64_t rank = rng.Uniform(0, 99);
    graph.edges.push_back(DiffEdge{next_edge_id, s, d, w, rank, /*iw=*/1});
    erows.push_back({Value::BigInt(next_edge_id), Value::BigInt(s),
                     Value::BigInt(d), Value::Double(w),
                     Value::BigInt(rank)});
    ++next_edge_id;
  }
  ASSERT_TRUE(db.BulkInsert("e", erows).ok());
  const char* kind = graph.directed ? "DIRECTED" : "UNDIRECTED";
  ASSERT_TRUE(session.ExecuteScript(StrFormat(
                  "CREATE %s GRAPH VIEW g VERTEXES (ID = id, name = name) "
                  "FROM v EDGES (ID = id, FROM = src, TO = dst, w = w, "
                  "rank = rank) FROM e;",
                  kind))
                  .ok());

  session.options().default_traversal = PlannerOptions::Traversal::kBfs;
  auto run = [&](const std::string& sql, size_t parallelism) {
    session.options().max_parallelism = parallelism;
    session.options().parallel_min_rows = 1;
    auto result = session.Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
    return result;
  };

  // The sweep must actually run BFScan.
  {
    auto plan = run("EXPLAIN SELECT P.PathString FROM g.Paths P "
                    "WHERE P.Length <= 2",
                    /*parallelism=*/1);
    ASSERT_TRUE(plan.ok());
    std::string text;
    for (const auto& row : plan->rows) text += row[0].AsVarchar() + "\n";
    ASSERT_NE(text.find("BFScan"), std::string::npos) << text;
  }

  std::vector<int64_t> all_vertexes;
  for (int64_t i = 0; i < graph.n; ++i) all_vertexes.push_back(i);
  // The reach probes draw from their own stream, so the other draws do not
  // depend on them.
  Random reach_rng(seed * 31 + 7);

  for (int trial = 0; trial < trials; ++trial) {
    SCOPED_TRACE(StrFormat("trial=%d", trial));
    // Random DML between queries: the view alternates between pure-CSR
    // (fresh fold or untouched base) and delta-overlay state, so the
    // forest runs both its CSR slice walk and its ExpandCore expansion.
    const int edits = static_cast<int>(rng.Uniform(0, 2));
    for (int i = 0; i < edits; ++i) {
      if (!graph.edges.empty() && rng.Bernoulli(0.4)) {
        size_t at = static_cast<size_t>(
            rng.Uniform(0, static_cast<int64_t>(graph.edges.size()) - 1));
        const DiffEdge victim = graph.edges[at];
        ASSERT_TRUE(session
                        .Execute(StrFormat(
                            "DELETE FROM e WHERE id = %lld",
                            static_cast<long long>(victim.id)))
                        .ok());
        used.erase({victim.src, victim.dst});
        graph.edges.erase(graph.edges.begin() +
                          static_cast<std::ptrdiff_t>(at));
      } else {
        int64_t s = rng.Uniform(0, graph.n - 1);
        int64_t d = rng.Uniform(0, graph.n - 1);
        if (s == d || !used.insert({s, d}).second) continue;
        // The value the INSERT's %f stores, for the sum-bound reference.
        double w = std::stod(StrFormat("%f", 0.5 + rng.NextDouble() * 4.0));
        int64_t rank = rng.Uniform(0, 99);
        int64_t id = 100000 + next_edge_id++;
        ASSERT_TRUE(
            session
                .Execute(StrFormat(
                    "INSERT INTO e VALUES (%lld, %lld, %lld, %f, %lld)",
                    static_cast<long long>(id), static_cast<long long>(s),
                    static_cast<long long>(d), w,
                    static_cast<long long>(rank)))
                .ok());
        graph.edges.push_back(DiffEdge{id, s, d, w, rank, /*iw=*/1});
      }
    }

    // Queries see the view as the DML left it: its own neighbor order.
    const RefAdjacency adj = ViewAdjacency(db, graph);
    BfsRefQuery ref;
    ref.max_len = static_cast<size_t>(rng.Uniform(1, 3));
    ref.min_len = rng.Bernoulli(0.5)
                      ? ref.max_len
                      : static_cast<size_t>(rng.Uniform(1, ref.max_len));
    std::vector<std::string> conjuncts;
    if (ref.min_len == ref.max_len) {
      conjuncts.push_back(StrFormat("P.Length = %zu", ref.max_len));
    } else {
      if (ref.min_len > 1) {
        conjuncts.push_back(StrFormat("P.Length >= %zu", ref.min_len));
      }
      conjuncts.push_back(StrFormat("P.Length <= %zu", ref.max_len));
    }
    if (rng.Bernoulli(0.6)) {
      ref.starts = all_vertexes;
    } else {
      int64_t s = rng.Uniform(0, graph.n - 1);
      ref.starts = {s};
      conjuncts.push_back(StrFormat("P.StartVertex.Id = %lld",
                                    static_cast<long long>(s)));
    }
    if (rng.Bernoulli(0.5)) {
      const int64_t below = rng.Uniform(10, 90);
      ref.edge_ok = RankBelow(graph, below);
      conjuncts.push_back(StrFormat("P.Edges[0..*].rank < %lld",
                                    static_cast<long long>(below)));
    }
    if (rng.Bernoulli(0.3)) {
      ref.target = rng.Uniform(0, graph.n - 1);
      conjuncts.push_back(StrFormat("P.EndVertex.Id = %lld",
                                    static_cast<long long>(*ref.target)));
    }
    if (rng.Bernoulli(0.3)) {
      static constexpr CompareOp kOps[] = {CompareOp::kLt, CompareOp::kLe,
                                           CompareOp::kGe};
      static constexpr const char* kOpText[] = {"<", "<=", ">="};
      const int op = static_cast<int>(rng.Uniform(0, 2));
      ref.w_op = kOps[op];
      ref.w_bound = static_cast<double>(rng.Uniform(2, 10));
      ref.weight = WeightOf(graph);
      conjuncts.push_back(StrFormat("SUM(P.Edges.w) %s %lld", kOpText[op],
                                    static_cast<long long>(ref.w_bound)));
    }
    ref.pushdown = rng.Bernoulli(0.7);
    std::string sql =
        "SELECT P.StartVertex.Id, P.PathString FROM g.Paths P WHERE ";
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      if (i > 0) sql += " AND ";
      sql += conjuncts[i];
    }
    // LIMIT k stops the passes at the first one that holds k rows.
    if (rng.Bernoulli(0.3)) {
      ref.limit = static_cast<size_t>(rng.Uniform(1, 5));
      sql += StrFormat(" LIMIT %zu", ref.limit);
    }
    // LIMIT 1 with a bound end vertex, no SUM bound, a minimum length of at
    // most 1 and the rank filter (if any) pushed is the planner's
    // visited-once reachability search.
    ref.visited_once = ref.limit == 1 && ref.target.has_value() &&
                       !ref.w_op.has_value() && ref.min_len <= 1 &&
                       (ref.edge_ok == nullptr || ref.pushdown);
    SCOPED_TRACE(StrFormat("%s pushdown=%d", sql.c_str(), ref.pushdown));

    session.options().enable_filter_pushdown = ref.pushdown;
    {
      auto plan = run("EXPLAIN " + sql, /*parallelism=*/1);
      ASSERT_TRUE(plan.ok());
      std::string text;
      for (const auto& row : plan->rows) text += row[0].AsVarchar() + "\n";
      ASSERT_EQ(text.find("visited-once") != std::string::npos,
                ref.visited_once)
          << text;
    }
    const std::vector<std::string> expected = BfsReference(adj, ref);
    for (size_t workers : {size_t{1}, size_t{4}}) {
      auto result = run(sql, workers);
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(DiffOrdered(*result), expected)
          << "workers=" << workers << " BFS diverges from the reference";
    }
    session.options().enable_filter_pushdown = true;

    // A reach probe (LIMIT/TOP 1..3, cycles back to the start, multi-start
    // and join probes, rank filters), whose answer the visited-once forest
    // may claim mid-level: it must return the reference's sequence.
    std::vector<std::string> reach_expected;
    const ReachDiffQuery reach =
        MakeReachProbe(graph, adj, reach_rng, &reach_expected);
    SCOPED_TRACE(reach.sql);
    for (size_t workers : {size_t{1}, size_t{4}}) {
      auto result = run(reach.sql, workers);
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(DiffOrdered(*result), reach_expected)
          << "workers=" << workers << " reach diverges from the reference";
    }
  }

  session.options() = PlannerOptions();
}

/// Writer churns edges confined to a noise component (vertexes 100+, rank
/// 100) while readers repeatedly answer queries over the core component
/// (vertexes 0..9, rank 0) at 1 and 4 workers. Every query carries a
/// rank-based predicate and the components share no edges, so the correct
/// answer is identical at every snapshot: the golden rows, which must equal
/// the reference's. Any divergence from them means a scan read torn
/// topology. After the threads quiesce the test forces a delta fold and
/// re-checks against the rebuilt CSR base.
void RunFrontierSnapshotSweep(uint64_t seed, int trials) {
  SCOPED_TRACE(StrFormat("frontier-snapshot seed=%llu",
                         static_cast<unsigned long long>(seed)));
  Random rng(seed);
  Database db(TestOptions());
  Session session(db);
  ASSERT_TRUE(session.ExecuteScript(R"sql(
    CREATE TABLE v (id BIGINT PRIMARY KEY, name VARCHAR);
    CREATE TABLE e (id BIGINT PRIMARY KEY, src BIGINT, dst BIGINT,
                    w DOUBLE, rank BIGINT);
  )sql")
                  .ok());
  std::vector<std::vector<Value>> vrows;
  for (int64_t i = 0; i < 10; ++i) {
    vrows.push_back({Value::BigInt(i), Value::Varchar("core")});
  }
  for (int64_t i = 100; i < 106; ++i) {
    vrows.push_back({Value::BigInt(i), Value::Varchar("noise")});
  }
  ASSERT_TRUE(db.BulkInsert("v", vrows).ok());
  std::vector<std::vector<Value>> erows;
  DiffGraph core;  // The queried component, for the reference.
  core.n = 10;
  for (int64_t i = 0; i < 10; ++i) {  // Ring plus chords: branchy BFS.
    for (const DiffEdge& e : {DiffEdge{i, i, (i + 1) % 10, 1.0, 0, 1},
                              DiffEdge{10 + i, i, (i + 3) % 10, 1.0, 0, 1}}) {
      core.edges.push_back(e);
      erows.push_back({Value::BigInt(e.id), Value::BigInt(e.src),
                       Value::BigInt(e.dst), Value::Double(e.w),
                       Value::BigInt(e.rank)});
    }
  }
  ASSERT_TRUE(db.BulkInsert("e", erows).ok());
  const char* kind = rng.Bernoulli(0.5) ? "DIRECTED" : "UNDIRECTED";
  ASSERT_TRUE(session.ExecuteScript(StrFormat(
                  "CREATE %s GRAPH VIEW g VERTEXES (ID = id, name = name) "
                  "FROM v EDGES (ID = id, FROM = src, TO = dst, w = w, "
                  "rank = rank) FROM e;",
                  kind))
                  .ok());

  const std::vector<std::string> queries = {
      "SELECT P.StartVertex.Id, P.PathString FROM g.Paths P "
      "WHERE P.Length <= 3 AND P.Edges[0..*].rank < 50",
      "SELECT P.StartVertex.Id, P.PathString FROM g.Paths P "
      "WHERE P.StartVertex.Id = 0 AND P.Length <= 4 "
      "AND P.Edges[0..*].rank < 50",
      "SELECT P.StartVertex.Id, P.PathString FROM g.Paths P "
      "WHERE P.StartVertex.Id = 0 AND P.EndVertex.Id = 5 "
      "AND P.Length <= 6 AND P.Edges[0..*].rank < 50 LIMIT 1",
      "SELECT P.StartVertex.Id, P.PathString FROM g.Paths P "
      "WHERE P.Length = 2 AND P.Edges[0..*].rank < 50 LIMIT 9",
  };

  // The reference's probe for each query: no noise vertex starts a path.
  std::vector<int64_t> core_starts;
  for (int64_t i = 0; i < 10; ++i) core_starts.push_back(i);
  std::vector<BfsRefQuery> refs(queries.size());
  for (BfsRefQuery& ref : refs) {
    ref.starts = core_starts;
    ref.edge_ok = RankBelow(core, 50);
  }
  refs[0].max_len = 3;
  refs[1].starts = {0};
  refs[1].max_len = 4;
  refs[2].starts = {0};
  refs[2].target = 5;
  refs[2].max_len = 6;
  refs[2].visited_once = true;  // LIMIT 1 under BFS.
  refs[2].limit = 1;
  refs[3].min_len = refs[3].max_len = 2;
  refs[3].limit = 9;

  auto configure = [](Session* s, size_t parallelism) {
    s->options().default_traversal = PlannerOptions::Traversal::kBfs;
    s->options().max_parallelism = parallelism;
    s->options().parallel_min_rows = 1;
  };

  std::vector<std::vector<std::string>> golden;
  configure(&session, /*parallelism=*/1);
  const RefAdjacency adj = ViewAdjacency(db, core);
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    auto res = session.Execute(queries[qi]);
    ASSERT_TRUE(res.ok()) << queries[qi] << ": " << res.status().ToString();
    golden.push_back(DiffOrdered(*res));
    EXPECT_EQ(golden.back(), BfsReference(adj, refs[qi])) << queries[qi];
  }
  ASSERT_FALSE(golden[0].empty());

  std::atomic<bool> done{false};
  std::atomic<int> reader_errors{0};
  std::atomic<int> reader_violations{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      Session s(db);
      size_t i = static_cast<size_t>(r);
      while (!done.load(std::memory_order_acquire)) {
        const size_t qi = i++ % queries.size();
        for (size_t parallelism : {size_t{1}, size_t{4}}) {
          configure(&s, parallelism);
          auto res = s.Execute(queries[qi]);
          if (!res.ok()) {
            ++reader_errors;
            continue;
          }
          if (DiffOrdered(*res) != golden[qi]) ++reader_violations;
        }
      }
    });
  }

  // Writer: transactions touching only the noise component. Commits feed
  // the engine's fold-and-vacuum pressure, so delta folds (CSR re-snapshots)
  // race the readers above.
  {
    Session writer(db);
    std::set<int64_t> noise_ids;
    int64_t next_id = 1000;
    for (int trial = 0; trial < trials; ++trial) {
      ASSERT_TRUE(writer.Execute("BEGIN").ok());
      const int stmts = static_cast<int>(rng.Uniform(1, 4));
      for (int i = 0; i < stmts; ++i) {
        if (!noise_ids.empty() && rng.Bernoulli(0.35)) {
          auto it = noise_ids.begin();
          std::advance(it, static_cast<size_t>(rng.Uniform(
                               0, static_cast<int64_t>(noise_ids.size()) -
                                      1)));
          auto res = writer.Execute(StrFormat(
              "DELETE FROM e WHERE id = %lld", static_cast<long long>(*it)));
          ASSERT_TRUE(res.ok()) << res.status().ToString();
          noise_ids.erase(it);
        } else {
          int64_t s = 100 + rng.Uniform(0, 5);
          int64_t d = 100 + rng.Uniform(0, 5);
          if (s == d) d = 100 + (d - 99) % 6;
          int64_t id = next_id++;
          auto res = writer.Execute(StrFormat(
              "INSERT INTO e VALUES (%lld, %lld, %lld, 1.0, 100)",
              static_cast<long long>(id), static_cast<long long>(s),
              static_cast<long long>(d)));
          ASSERT_TRUE(res.ok()) << res.status().ToString();
          noise_ids.insert(id);
        }
      }
      if (rng.Bernoulli(0.15)) {
        ASSERT_TRUE(writer.Execute("ABORT").ok());
      } else {
        ASSERT_TRUE(writer.Execute("COMMIT").ok());
      }
    }
  }

  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(reader_errors.load(), 0);
  EXPECT_EQ(reader_violations.load(), 0)
      << "a scan observed topology the snapshot should not contain";

  // Force at least one fold now that the readers are gone (the fold lock is
  // best-effort under reader pressure), then verify against the
  // re-snapshotted CSR base.
  GraphView* gv = db.catalog().FindGraphView("g");
  ASSERT_NE(gv, nullptr);
  const size_t folds_before = gv->Folds();
  int64_t filler = 500000;
  for (int i = 0; i < 400 && gv->Folds() == folds_before; ++i) {
    ASSERT_TRUE(session
                    .Execute(StrFormat(
                        "INSERT INTO e VALUES (%lld, 100, 101, 1.0, 100)",
                        static_cast<long long>(filler++)))
                    .ok());
  }
  ASSERT_GT(gv->Folds(), folds_before)
      << "commit pressure never triggered a delta fold";
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    for (size_t parallelism : {size_t{1}, size_t{4}}) {
      configure(&session, parallelism);
      auto res = session.Execute(queries[qi]);
      ASSERT_TRUE(res.ok()) << res.status().ToString();
      EXPECT_EQ(DiffOrdered(*res), golden[qi])
          << queries[qi] << " diverges after fold (workers=" << parallelism
          << ")";
    }
  }
}

class FrontierDiffFuzzTest : public ::testing::TestWithParam<uint64_t> {};

// The reference is a per-path (copy-prefix) BFS.
TEST_P(FrontierDiffFuzzTest, FrontierMatchesPerPathAndReference) {
  RunFrontierDifferentialSweep(GetParam(), /*trials=*/18);
}

TEST_P(FrontierDiffFuzzTest, FrontierStableUnderConcurrentFolds) {
  RunFrontierSnapshotSweep(GetParam() ^ 0x9e3779b97f4a7c15ull,
                           /*trials=*/30);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FrontierDiffFuzzTest,
                         ::testing::Values(71, 72, 73, 74),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

// Environment-seeded BFS sweep: CI rolls a fresh seed per run.
TEST(FrontierDiffFuzzEnvTest, EnvironmentSeedSweep) {
  uint64_t seed = 20260808;
  if (const char* env = std::getenv("GRF_FUZZ_SEED")) {
    seed = std::strtoull(env, nullptr, 10) + 5;  // Decorrelate from the rest.
  }
  RunFrontierDifferentialSweep(seed, /*trials=*/10);
  RunFrontierSnapshotSweep(seed + 1, /*trials=*/15);
}

// ---------------------------------------------------------------------------
// Fault-injection differential fuzz
//
// Random DML and SELECT statements against a database with two graph views
// over the same sources, while random failpoints (and random statement
// deadlines) are armed. Allowed outcomes per statement: success, the injected
// error, Cancelled/DeadlineExceeded, or an organic constraint veto — never a
// crash, hang, or wrong-OK. After every DML statement, pass or fail, each
// maintained view must equal a from-scratch rebuild, and periodically the
// engine's bounded path enumeration is checked against the brute-force
// reference. Oneshot armings additionally assert exact statement atomicity
// (the rollback path runs injection-free after the single shot fires).
// ---------------------------------------------------------------------------

/// Canonical topology snapshot for view-vs-rebuild comparison. Adjacency is
/// a multiset per vertex: undo re-appends at the adjacency tail, so order may
/// differ from a fresh build while connectivity must not.
std::multiset<std::string> FaultTopology(const GraphView& gv) {
  std::multiset<std::string> out;
  gv.ForEachVertex([&](const VertexEntry& v) {
    out.insert(StrFormat("V %lld", static_cast<long long>(v.id)));
    std::multiset<std::string> nbrs;
    gv.ForEachNeighbor(v, [&](const EdgeEntry& e, VertexId n) {
      nbrs.insert(StrFormat("%lld:%lld", static_cast<long long>(e.id),
                            static_cast<long long>(n)));
      return true;
    });
    std::string line = StrFormat("A %lld:", static_cast<long long>(v.id));
    for (const std::string& s : nbrs) line += " " + s;
    out.insert(std::move(line));
    return true;
  });
  gv.ForEachEdge([&](const EdgeEntry& e) {
    out.insert(StrFormat("E %lld %lld->%lld", static_cast<long long>(e.id),
                         static_cast<long long>(e.from),
                         static_cast<long long>(e.to)));
    return true;
  });
  return out;
}

void FaultVerifyViewsEqualRebuild(Database* db) {
  for (const char* name : {"g1", "g2"}) {
    GraphView* gv = db->catalog().FindGraphView(name);
    ASSERT_NE(gv, nullptr);
    auto rebuilt =
        GraphView::Create(gv->def(), gv->vertex_table(), gv->edge_table());
    ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
    EXPECT_EQ(FaultTopology(*gv), FaultTopology(**rebuilt))
        << name << " diverges from a from-scratch rebuild";
  }
}

void RunFaultInjectionSweep(uint64_t seed, int trials) {
  SCOPED_TRACE(StrFormat("fault-injection seed=%llu",
                         static_cast<unsigned long long>(seed)));
  FailpointRegistry& failpoints = FailpointRegistry::Global();
  failpoints.DisarmAll();
  Random rng(seed);

  Database db(TestOptions());
  Session session(db);
  ASSERT_TRUE(session.ExecuteScript(R"sql(
    CREATE TABLE v (id BIGINT PRIMARY KEY, name VARCHAR);
    CREATE TABLE e (id BIGINT PRIMARY KEY, src BIGINT, dst BIGINT, w DOUBLE);
  )sql")
                  .ok());
  std::vector<std::vector<Value>> vrows, erows;
  for (int64_t i = 0; i < 8; ++i) {
    vrows.push_back({Value::BigInt(i), Value::Varchar("v")});
    erows.push_back({Value::BigInt(i), Value::BigInt(i),
                     Value::BigInt((i + 1) % 8), Value::Double(1.0)});
  }
  ASSERT_TRUE(db.BulkInsert("v", vrows).ok());
  ASSERT_TRUE(db.BulkInsert("e", erows).ok());
  const std::string view_body =
      "VERTEXES (ID = id, name = name) FROM v "
      "EDGES (ID = id, FROM = src, TO = dst, w = w) FROM e";
  ASSERT_TRUE(session.ExecuteScript("CREATE DIRECTED GRAPH VIEW g1 " + view_body)
                  .ok());
  ASSERT_TRUE(session.ExecuteScript("CREATE DIRECTED GRAPH VIEW g2 " + view_body)
                  .ok());

  // Filtered graph scans fan out onto the task pool at any size, so the
  // taskpool.submit site is reachable; check that it is before fuzzing it.
  session.options().max_parallelism = 4;
  session.options().parallel_min_rows = 1;
  const std::string pool_sql = "SELECT V.ID FROM g1.Vertexes V WHERE V.ID >= 0";
  failpoints.Arm("taskpool.submit", FailpointRegistry::Spec{});
  auto pool_probe = session.Execute(pool_sql);
  failpoints.DisarmAll();
  ASSERT_FALSE(pool_probe.ok()) << pool_sql << " never reached the pool";
  ASSERT_TRUE(FailpointRegistry::IsInjected(pool_probe.status()))
      << pool_probe.status().ToString();

  static const char* kSites[] = {
      "table.insert",         "table.delete",
      "table.update",         "graph_view.vertex_insert",
      "graph_view.vertex_delete", "graph_view.vertex_update",
      "graph_view.edge_insert",   "graph_view.edge_delete",
      "graph_view.edge_update",   "exec.charge_bytes",
      "exec.next",            "taskpool.submit",
  };
  constexpr size_t kNumSites = sizeof(kSites) / sizeof(kSites[0]);

  int64_t next_id = 1000;
  for (int trial = 0; trial < trials; ++trial) {
    SCOPED_TRACE(StrFormat("trial=%d", trial));
    // Snapshot live ids so generated statements mostly reference real rows.
    std::vector<int64_t> vids, eids;
    {
      auto vres = session.Execute("SELECT id FROM v");
      auto eres = session.Execute("SELECT id FROM e");
      ASSERT_TRUE(vres.ok() && eres.ok());
      for (const auto& row : vres->rows) vids.push_back(row[0].AsBigInt());
      for (const auto& row : eres->rows) eids.push_back(row[0].AsBigInt());
    }
    const int64_t vcount_before = static_cast<int64_t>(vids.size());
    const int64_t ecount_before = static_cast<int64_t>(eids.size());
    auto pick = [&rng](const std::vector<int64_t>& ids) {
      return ids[static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(ids.size()) - 1))];
    };

    // Generate one statement. expected_* hold the success-case row deltas.
    // Kinds that need an existing row degrade to an insert when the fuzz has
    // drained the corresponding table.
    std::string sql;
    bool is_dml = true;
    int64_t expected_dv = 0, expected_de = 0;
    int64_t kind = rng.Uniform(0, 7);
    if ((kind == 1 || kind == 2) && eids.empty()) kind = 0;
    if ((kind == 0 || kind == 4) && vids.empty()) kind = 3;
    switch (kind) {
      case 0: {
        int64_t s = pick(vids), d = pick(vids);
        sql = StrFormat("INSERT INTO e VALUES (%lld, %lld, %lld, 1.0)",
                        static_cast<long long>(next_id++),
                        static_cast<long long>(s),
                        static_cast<long long>(d));
        expected_de = 1;
        break;
      }
      case 1:
        sql = StrFormat("DELETE FROM e WHERE id = %lld",
                        static_cast<long long>(pick(eids)));
        expected_de = -1;
        break;
      case 2:
        sql = StrFormat("UPDATE e SET dst = %lld WHERE id = %lld",
                        static_cast<long long>(pick(vids)),
                        static_cast<long long>(pick(eids)));
        break;
      case 3:
        sql = StrFormat("INSERT INTO v VALUES (%lld, 'x')",
                        static_cast<long long>(next_id++));
        expected_dv = 1;
        break;
      case 4:
        // May be organically vetoed when incident edges reference it.
        sql = StrFormat("DELETE FROM v WHERE id = %lld",
                        static_cast<long long>(pick(vids)));
        expected_dv = -1;
        break;
      case 5:
        sql = "SELECT P.StartVertex.Id, P.PathString FROM g1.Paths P "
              "WHERE P.Length <= 2";
        is_dml = false;
        break;
      case 6:
        sql = pool_sql;
        is_dml = false;
        break;
      default:
        sql = "SELECT COUNT(*), MIN(w) FROM e";
        is_dml = false;
        break;
    }

    // Arm 1-2 random failpoints with random modes.
    bool all_oneshot = true;
    const int n_arm = static_cast<int>(rng.Uniform(1, 2));
    for (int i = 0; i < n_arm; ++i) {
      const char* site = kSites[static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(kNumSites) - 1))];
      FailpointRegistry::Spec spec;
      switch (rng.Uniform(0, 3)) {
        case 0:
          spec.mode = FailpointRegistry::Spec::Mode::kOneShot;
          break;
        case 1:
          spec.mode = FailpointRegistry::Spec::Mode::kError;
          all_oneshot = false;
          break;
        case 2:
          spec.mode = FailpointRegistry::Spec::Mode::kEveryNth;
          spec.nth = static_cast<uint64_t>(rng.Uniform(2, 4));
          all_oneshot = false;
          break;
        default:
          spec.mode = FailpointRegistry::Spec::Mode::kProbability;
          spec.probability = 0.3 + 0.4 * rng.NextDouble();
          spec.seed = seed * 1000 + static_cast<uint64_t>(trial);
          all_oneshot = false;
          break;
      }
      failpoints.Arm(site, spec);
    }
    // Random cancellation: a statement deadline on SELECTs (DML bypasses the
    // Volcano loop, so deadlines only apply to query execution), and an
    // every=N arming of exec.next to stop at a random Next() call.
    if (!is_dml && rng.Bernoulli(0.2)) {
      session.options().statement_timeout_us = 0;
    }
    if (!is_dml && rng.Bernoulli(0.3)) {
      FailpointRegistry::Spec cancel_at_next;
      cancel_at_next.mode = FailpointRegistry::Spec::Mode::kEveryNth;
      cancel_at_next.nth = static_cast<uint64_t>(rng.Uniform(1, 50));
      failpoints.Arm("exec.next", cancel_at_next);
      all_oneshot = false;
    }

    auto result = session.Execute(sql);

    session.options().statement_timeout_us = -1;
    failpoints.DisarmAll();

    if (!result.ok()) {
      const Status& s = result.status();
      const bool allowed =
          FailpointRegistry::IsInjected(s) ||
          s.code() == StatusCode::kCancelled ||
          s.code() == StatusCode::kDeadlineExceeded ||
          s.code() == StatusCode::kResourceExhausted ||
          s.code() == StatusCode::kConstraintViolation;
      EXPECT_TRUE(allowed) << sql << " failed unexpectedly: " << s.ToString();
    }

    if (is_dml) {
      // Views must equal a from-scratch rebuild whether the statement
      // committed or rolled back.
      FaultVerifyViewsEqualRebuild(&db);
      // Oneshot-only armings guarantee exact atomicity: the rollback path
      // runs injection-free after the single shot fires, so a failed
      // statement must leave row counts untouched and a successful one must
      // apply exactly its delta.
      if (all_oneshot) {
        auto vres = session.Execute("SELECT COUNT(*) FROM v");
        auto eres = session.Execute("SELECT COUNT(*) FROM e");
        ASSERT_TRUE(vres.ok() && eres.ok());
        const int64_t dv = vres->ScalarValue().AsBigInt() - vcount_before;
        const int64_t de = eres->ScalarValue().AsBigInt() - ecount_before;
        if (result.ok()) {
          EXPECT_EQ(dv, expected_dv) << sql;
          EXPECT_EQ(de, expected_de) << sql;
        } else {
          EXPECT_EQ(dv, 0) << "failed statement mutated v: " << sql;
          EXPECT_EQ(de, 0) << "failed statement mutated e: " << sql;
        }
      }
    }

    // Periodic end-to-end differential check: the engine's bounded path
    // enumeration over the surviving graph matches brute force.
    if (trial % 10 == 9) {
      DiffGraph graph;
      graph.directed = true;
      auto eres = session.Execute("SELECT id, src, dst FROM e");
      auto vres = session.Execute("SELECT id FROM v");
      ASSERT_TRUE(eres.ok() && vres.ok());
      DiffQuery q;
      q.min_len = 1;
      q.max_len = 2;
      for (const auto& row : vres->rows) {
        q.starts.push_back(row[0].AsBigInt());
      }
      graph.n = static_cast<int64_t>(q.starts.size());
      for (const auto& row : eres->rows) {
        graph.edges.push_back(DiffEdge{row[0].AsBigInt(), row[1].AsBigInt(),
                                       row[2].AsBigInt(), 1.0, 0, /*iw=*/1});
      }
      auto expected = DiffReference(graph, q);
      for (const char* view : {"g1", "g2"}) {
        auto got = session.Execute(StrFormat(
            "SELECT P.StartVertex.Id, P.PathString FROM %s.Paths P "
            "WHERE P.Length <= 2",
            view));
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_EQ(DiffCanon(*got), expected)
            << view << " diverges from reference after faulted DML";
      }
    }
  }
  failpoints.DisarmAll();
}

class FaultInjectionFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FaultInjectionFuzzTest, FaultedStatementsFailCleanOrSucceedRight) {
  // 4 seeds x 55 trials = 220 fault-injection cases.
  RunFaultInjectionSweep(GetParam(), /*trials=*/55);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultInjectionFuzzTest,
                         ::testing::Values(21, 22, 23, 24),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

// Environment-seeded fault-injection sweep, mirroring GraphDiffFuzzEnvTest:
// CI rolls a fresh seed per run via GRF_FUZZ_SEED.
TEST(FaultInjectionFuzzEnvTest, EnvironmentSeedSweep) {
  uint64_t seed = 20260807;
  if (const char* env = std::getenv("GRF_FUZZ_SEED")) {
    seed = std::strtoull(env, nullptr, 10) + 1;  // Decorrelate from GraphDiff.
  }
  RunFaultInjectionSweep(seed, /*trials=*/30);
}

// --- Plan-cache differential sweep --------------------------------------------------
//
// Interleaves DML, DDL, and graph-view churn with repeated execution of a
// fixed query pool through one session (so re-executions hit the plan cache)
// and through prepared statements. Every comparison trial re-runs the same
// SQL with the plan cache flushed: a cached or prepared plan must produce
// exactly the rows a cold plan produces, no matter how much the catalog
// changed since the plan was built.
void RunPlanCacheChurnSweep(uint64_t seed, int trials) {
  SCOPED_TRACE(StrFormat("plan-cache seed=%llu",
                         static_cast<unsigned long long>(seed)));
  Random rng(seed);
  Database db(TestOptions());
  Session session(db);
  ASSERT_TRUE(session.ExecuteScript(R"sql(
    CREATE TABLE v (id BIGINT PRIMARY KEY, name VARCHAR);
    CREATE TABLE e (id BIGINT PRIMARY KEY, src BIGINT, dst BIGINT, w DOUBLE);
  )sql")
                  .ok());
  std::vector<std::vector<Value>> vrows, erows;
  for (int64_t i = 0; i < 10; ++i) {
    vrows.push_back({Value::BigInt(i), Value::Varchar("v")});
    erows.push_back({Value::BigInt(i), Value::BigInt(i),
                     Value::BigInt((i + 1) % 10), Value::Double(1.0)});
  }
  ASSERT_TRUE(db.BulkInsert("v", vrows).ok());
  ASSERT_TRUE(db.BulkInsert("e", erows).ok());
  const std::string view_body =
      "VERTEXES (ID = id, name = name) FROM v "
      "EDGES (ID = id, FROM = src, TO = dst, w = w) FROM e";
  ASSERT_TRUE(
      session.ExecuteScript("CREATE DIRECTED GRAPH VIEW g " + view_body).ok());

  auto canon = [](const ResultSet& result) {
    std::multiset<std::string> out;
    for (const auto& row : result.rows) {
      std::string key;
      for (const Value& value : row) {
        key += value.ToString();
        key += '|';
      }
      out.insert(std::move(key));
    }
    return out;
  };

  // The cached query pool: relational, graph traversal, and aggregate shapes.
  const std::vector<std::string> pool = {
      "SELECT id, src, dst FROM e WHERE src < 7",
      "SELECT COUNT(*) FROM e",
      "SELECT V.name FROM g.Vertexes V WHERE V.ID < 5",
      "SELECT P.StartVertex.Id, P.PathString FROM g.Paths P "
      "WHERE P.Length <= 2",
      "SELECT COUNT(P) FROM g.Paths P WHERE P.StartVertex.Id = 1 "
      "AND P.Length <= 3",
  };

  // Prepared statements survive across churn; re-binding random parameters
  // must track the live catalog exactly like freshly planned SQL.
  auto prep_rel = session.Prepare("SELECT id FROM e WHERE src >= $1");
  ASSERT_TRUE(prep_rel.ok()) << prep_rel.status().ToString();
  auto prep_graph = session.Prepare(
      "SELECT P.PathString FROM g.Paths P "
      "WHERE P.StartVertex.Id = ? AND P.Length <= 2");
  ASSERT_TRUE(prep_graph.ok()) << prep_graph.status().ToString();

  const uint64_t hits_before = EngineMetrics::Get().plan_cache_hits->value();
  int64_t next_id = 500;
  for (int trial = 0; trial < trials; ++trial) {
    SCOPED_TRACE(StrFormat("trial=%d", trial));
    const int dice = static_cast<int>(rng.Uniform(0, 9));
    if (dice < 3) {
      // DML churn: grow or shrink the edge table (propagates into the view).
      if (rng.Bernoulli(0.6)) {
        auto r = session.Execute(StrFormat(
            "INSERT INTO e VALUES (%lld, %lld, %lld, 1.0)",
            static_cast<long long>(next_id++),
            static_cast<long long>(rng.Uniform(0, 9)),
            static_cast<long long>(rng.Uniform(0, 9))));
        ASSERT_TRUE(r.ok()) << r.status().ToString();
      } else {
        auto r = session.Execute(StrFormat(
            "DELETE FROM e WHERE id = %lld",
            static_cast<long long>(rng.Uniform(500, next_id))));
        ASSERT_TRUE(r.ok()) << r.status().ToString();
      }
    } else if (dice < 5) {
      // DDL / graph-view churn: every branch bumps the catalog version, so
      // all cached plans (including the prepared ones) must be invalidated.
      if (rng.Bernoulli(0.5)) {
        ASSERT_TRUE(session.Execute("DROP GRAPH VIEW g").ok());
        ASSERT_TRUE(
            session.ExecuteScript("CREATE DIRECTED GRAPH VIEW g " + view_body)
                .ok());
      } else {
        ASSERT_TRUE(
            session.Execute("CREATE TABLE scratch (id BIGINT)").ok());
        ASSERT_TRUE(session.Execute("DROP TABLE scratch").ok());
      }
    }

    // Execute one pooled query twice — the second run is a guaranteed cache
    // hit of the instance released by the first — then compare against a
    // cold plan with the cache flushed.
    const std::string& sql = pool[static_cast<size_t>(
        rng.Uniform(0, static_cast<int64_t>(pool.size()) - 1))];
    auto warm1 = session.Execute(sql);
    auto warm2 = session.Execute(sql);
    ASSERT_TRUE(warm1.ok() && warm2.ok()) << sql;
    db.plan_cache().Clear();
    auto cold = session.Execute(sql);
    ASSERT_TRUE(cold.ok()) << sql << ": " << cold.status().ToString();
    EXPECT_EQ(canon(*warm1), canon(*cold)) << sql;
    EXPECT_EQ(canon(*warm2), canon(*cold)) << sql;

    // Prepared re-execution vs the same SQL with the literal inlined.
    const int64_t bound = rng.Uniform(0, 9);
    auto via_prep = prep_rel->Execute({Value::BigInt(bound)});
    auto via_sql = session.Execute(StrFormat(
        "SELECT id FROM e WHERE src >= %lld", static_cast<long long>(bound)));
    ASSERT_TRUE(via_prep.ok() && via_sql.ok());
    EXPECT_EQ(canon(*via_prep), canon(*via_sql)) << "src >= " << bound;

    const int64_t start = rng.Uniform(0, 9);
    auto graph_prep = prep_graph->Execute({Value::BigInt(start)});
    auto graph_sql = session.Execute(StrFormat(
        "SELECT P.PathString FROM g.Paths P "
        "WHERE P.StartVertex.Id = %lld AND P.Length <= 2",
        static_cast<long long>(start)));
    ASSERT_TRUE(graph_prep.ok() && graph_sql.ok());
    EXPECT_EQ(canon(*graph_prep), canon(*graph_sql)) << "start " << start;
  }
  // The warm re-executions above must actually have exercised the cache.
  EXPECT_GT(EngineMetrics::Get().plan_cache_hits->value(), hits_before);
}

class PlanCacheChurnFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PlanCacheChurnFuzzTest, CachedPlansMatchColdPlansAcrossChurn) {
  RunPlanCacheChurnSweep(GetParam(), /*trials=*/30);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlanCacheChurnFuzzTest,
                         ::testing::Values(31, 32, 33),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

// Environment-seeded plan-cache sweep: CI rolls a fresh seed per run.
TEST(PlanCacheChurnFuzzEnvTest, EnvironmentSeedSweep) {
  uint64_t seed = 20260808;
  if (const char* env = std::getenv("GRF_FUZZ_SEED")) {
    seed = std::strtoull(env, nullptr, 10) + 2;  // Decorrelate from the rest.
  }
  RunPlanCacheChurnSweep(seed, /*trials=*/20);
}

// --- Snapshot / transaction differential sweep -----------------------------
//
// Reader-under-writer fuzz for the MVCC layer: random multi-statement DML
// transactions (BEGIN .. COMMIT/ABORT) run against a serially-maintained
// reference model while snapshot readers race on separate sessions. Fault
// injection covers the mutation sites plus the transaction-commit and
// delta-fold sites added by the MVCC work. Invariants:
//   * readers only ever observe version-counter values whose transaction
//     reached COMMIT (an aborted or still-open bump leaking out is a
//     snapshot violation), and observe them in non-decreasing order;
//   * reader statements never fail (failpoints are armed on writer-side
//     sites only, and snapshot reads never block on the writer);
//   * at every commit boundary — and after injected commit failures and
//     explicit aborts — the engine's tables equal the reference model and
//     every graph view equals a from-scratch rebuild.
// ---------------------------------------------------------------------------

void RunSnapshotSweep(uint64_t seed, int trials) {
  SCOPED_TRACE(StrFormat("snapshot seed=%llu",
                         static_cast<unsigned long long>(seed)));
  FailpointRegistry& failpoints = FailpointRegistry::Global();
  failpoints.DisarmAll();
  Random rng(seed);

  Database db(TestOptions());
  Session session(db);
  ASSERT_TRUE(session.ExecuteScript(R"sql(
    CREATE TABLE v (id BIGINT PRIMARY KEY, name VARCHAR);
    CREATE TABLE e (id BIGINT PRIMARY KEY, src BIGINT, dst BIGINT, w DOUBLE);
    CREATE TABLE ver (id BIGINT PRIMARY KEY, x BIGINT);
    INSERT INTO ver VALUES (0, 0);
  )sql")
                  .ok());
  std::vector<std::vector<Value>> vrows, erows;
  for (int64_t i = 0; i < 8; ++i) {
    vrows.push_back({Value::BigInt(i), Value::Varchar("v")});
    erows.push_back({Value::BigInt(i), Value::BigInt(i),
                     Value::BigInt((i + 1) % 8), Value::Double(1.0)});
  }
  ASSERT_TRUE(db.BulkInsert("v", vrows).ok());
  ASSERT_TRUE(db.BulkInsert("e", erows).ok());
  const std::string view_body =
      "VERTEXES (ID = id, name = name) FROM v "
      "EDGES (ID = id, FROM = src, TO = dst, w = w) FROM e";
  ASSERT_TRUE(
      session.ExecuteScript("CREATE DIRECTED GRAPH VIEW g1 " + view_body)
          .ok());
  ASSERT_TRUE(
      session.ExecuteScript("CREATE DIRECTED GRAPH VIEW g2 " + view_body)
          .ok());

  // Reference model of the COMMITTED state (the writer's own session sees
  // uncommitted work; the model deliberately does not).
  struct RefEdge {
    int64_t src = 0;
    int64_t dst = 0;
  };
  std::map<int64_t, std::string> ref_v;
  std::map<int64_t, RefEdge> ref_e;
  for (int64_t i = 0; i < 8; ++i) {
    ref_v[i] = "v";
    ref_e[i] = RefEdge{i, (i + 1) % 8};
  }

  // outcome[t] == 1 iff transaction t reached its COMMIT statement. The
  // writer stores it before executing COMMIT, so any reader that observes
  // x == t (only possible once COMMIT published) must find a 1. Bumps from
  // aborted transactions stay 0 — a reader observing one caught the engine
  // leaking uncommitted state.
  std::vector<std::atomic<int>> outcome(static_cast<size_t>(trials) + 1);
  outcome[0].store(1, std::memory_order_relaxed);

  std::atomic<bool> done{false};
  std::atomic<int> reader_errors{0};
  std::atomic<int> reader_violations{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      Session s(db);
      int64_t last = 0;
      while (!done.load(std::memory_order_acquire)) {
        auto res = s.Execute("SELECT x FROM ver WHERE id = 0");
        if (!res.ok() || res->rows.size() != 1) {
          ++reader_errors;
          continue;
        }
        const int64_t val = res->rows[0][0].AsBigInt();
        if (val < last || val < 0 ||
            val >= static_cast<int64_t>(outcome.size()) ||
            outcome[static_cast<size_t>(val)].load(
                std::memory_order_acquire) != 1) {
          ++reader_violations;
        }
        last = val;
        auto paths = s.Execute(
            "SELECT COUNT(P) FROM g1.Paths P WHERE P.Length <= 2");
        if (!paths.ok()) ++reader_errors;
      }
    });
  }

  // Writer-side sites only: mutation, commit, and delta-fold. Reader
  // statements never reach these, so reader failures stay hard errors.
  static const char* kTxnSites[] = {
      "table.insert",           "table.delete",
      "table.update",           "graph_view.vertex_insert",
      "graph_view.vertex_delete", "graph_view.edge_insert",
      "graph_view.edge_delete", "graph_view.edge_update",
      "graph_view.fold",
  };
  constexpr size_t kNumTxnSites = sizeof(kTxnSites) / sizeof(kTxnSites[0]);

  auto allowed_failure = [](const Status& s) {
    return FailpointRegistry::IsInjected(s) ||
           s.code() == StatusCode::kConstraintViolation;
  };

  int64_t next_id = 1000;
  int64_t committed_ver = 0;
  for (int trial = 1; trial <= trials; ++trial) {
    SCOPED_TRACE(StrFormat("trial=%d", trial));
    ASSERT_TRUE(session.Execute("BEGIN").ok());
    auto txn_v = ref_v;
    auto txn_e = ref_e;
    {
      auto bump = session.Execute(
          StrFormat("UPDATE ver SET x = %d WHERE id = 0", trial));
      ASSERT_TRUE(bump.ok()) << bump.status().ToString();
    }

    const int n_stmts = static_cast<int>(rng.Uniform(1, 4));
    for (int i = 0; i < n_stmts; ++i) {
      auto pick = [&rng](const auto& m) {
        auto it = m.begin();
        std::advance(it, static_cast<size_t>(rng.Uniform(
                             0, static_cast<int64_t>(m.size()) - 1)));
        return it->first;
      };
      std::string sql;
      int64_t kind = rng.Uniform(0, 4);
      if ((kind == 1 || kind == 2) && txn_e.empty()) kind = 0;
      if ((kind == 0 || kind == 4) && txn_v.empty()) kind = 3;
      // Applied to the transaction-local model only when the statement
      // succeeds (statement-level atomicity inside the transaction).
      int64_t id1 = 0, id2 = 0;
      switch (kind) {
        case 0:
          id1 = next_id++;
          id2 = pick(txn_v);
          sql = StrFormat("INSERT INTO e VALUES (%lld, %lld, %lld, 1.0)",
                          static_cast<long long>(id1),
                          static_cast<long long>(id2),
                          static_cast<long long>(pick(txn_v)));
          break;
        case 1:
          id1 = pick(txn_e);
          sql = StrFormat("DELETE FROM e WHERE id = %lld",
                          static_cast<long long>(id1));
          break;
        case 2:
          id1 = pick(txn_e);
          id2 = pick(txn_v);
          sql = StrFormat("UPDATE e SET dst = %lld WHERE id = %lld",
                          static_cast<long long>(id2),
                          static_cast<long long>(id1));
          break;
        case 3:
          id1 = next_id++;
          sql = StrFormat("INSERT INTO v VALUES (%lld, 'x')",
                          static_cast<long long>(id1));
          break;
        default:
          // May be organically vetoed by incident edges.
          id1 = pick(txn_v);
          sql = StrFormat("DELETE FROM v WHERE id = %lld",
                          static_cast<long long>(id1));
          break;
      }
      if (rng.Bernoulli(0.4)) {
        const char* site = kTxnSites[static_cast<size_t>(
            rng.Uniform(0, static_cast<int64_t>(kNumTxnSites) - 1))];
        FailpointRegistry::Spec spec;
        if (rng.Bernoulli(0.5)) {
          spec.mode = FailpointRegistry::Spec::Mode::kOneShot;
        } else {
          spec.mode = FailpointRegistry::Spec::Mode::kEveryNth;
          spec.nth = static_cast<uint64_t>(rng.Uniform(2, 4));
        }
        failpoints.Arm(site, spec);
      }
      auto result = session.Execute(sql);
      failpoints.DisarmAll();
      if (result.ok()) {
        switch (kind) {
          case 0:
            // src/dst were picked independently above; read the stored edge
            // back rather than replicating the roll (one authoritative row).
            break;
          case 1:
            txn_e.erase(id1);
            break;
          case 2:
            txn_e[id1].dst = id2;
            break;
          case 3:
            txn_v[id1] = "x";
            break;
          default:
            txn_v.erase(id1);
            break;
        }
        if (kind == 0) {
          auto row = session.Execute(StrFormat(
              "SELECT src, dst FROM e WHERE id = %lld",
              static_cast<long long>(id1)));
          ASSERT_TRUE(row.ok() && row->rows.size() == 1);
          txn_e[id1] = RefEdge{row->rows[0][0].AsBigInt(),
                               row->rows[0][1].AsBigInt()};
        }
      } else {
        EXPECT_TRUE(allowed_failure(result.status()))
            << sql << " failed unexpectedly: "
            << result.status().ToString();
      }
    }

    // End the transaction: explicit abort, or commit with an occasionally
    // injected commit failure (which must degrade to a clean abort).
    bool committed = false;
    if (rng.Bernoulli(0.25)) {
      ASSERT_TRUE(session.Execute("ABORT").ok());
    } else {
      outcome[static_cast<size_t>(trial)].store(1, std::memory_order_release);
      const bool inject_commit = rng.Bernoulli(0.2);
      if (inject_commit) {
        ASSERT_TRUE(failpoints.ArmFromString("txn.commit", "oneshot").ok());
      }
      auto commit = session.Execute("COMMIT");
      failpoints.DisarmAll();
      if (commit.ok()) {
        committed = true;
      } else {
        EXPECT_TRUE(FailpointRegistry::IsInjected(commit.status()))
            << commit.status().ToString();
        EXPECT_TRUE(inject_commit) << "commit failed without injection";
      }
    }
    if (committed) {
      ref_v = std::move(txn_v);
      ref_e = std::move(txn_e);
      committed_ver = trial;
    }

    // Commit-boundary check (covers aborts and injected commit failures
    // too): committed state == reference model, views == rebuild.
    auto ver = session.Execute("SELECT x FROM ver WHERE id = 0");
    ASSERT_TRUE(ver.ok());
    EXPECT_EQ(ver->ScalarValue().AsBigInt(), committed_ver);
    auto vres = session.Execute("SELECT id, name FROM v");
    auto eres = session.Execute("SELECT id, src, dst FROM e");
    ASSERT_TRUE(vres.ok() && eres.ok());
    std::map<int64_t, std::string> got_v;
    for (const auto& row : vres->rows) {
      got_v[row[0].AsBigInt()] = row[1].AsVarchar();
    }
    EXPECT_EQ(got_v, ref_v) << "v diverges from the serial reference";
    std::map<int64_t, std::pair<int64_t, int64_t>> got_e, want_e;
    for (const auto& row : eres->rows) {
      got_e[row[0].AsBigInt()] = {row[1].AsBigInt(), row[2].AsBigInt()};
    }
    for (const auto& [id, edge] : ref_e) want_e[id] = {edge.src, edge.dst};
    EXPECT_EQ(got_e, want_e) << "e diverges from the serial reference";
    FaultVerifyViewsEqualRebuild(&db);
  }

  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(reader_errors.load(), 0);
  EXPECT_EQ(reader_violations.load(), 0)
      << "a reader observed an uncommitted or retrograde version";
  failpoints.DisarmAll();
}

class SnapshotFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SnapshotFuzzTest, TransactionsAtomicUnderRacingReaders) {
  RunSnapshotSweep(GetParam(), /*trials=*/25);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotFuzzTest,
                         ::testing::Values(41, 42, 43),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

// Environment-seeded snapshot sweep: CI rolls a fresh seed per run.
TEST(SnapshotFuzzEnvTest, EnvironmentSeedSweep) {
  uint64_t seed = 20260809;
  if (const char* env = std::getenv("GRF_FUZZ_SEED")) {
    seed = std::strtoull(env, nullptr, 10) + 3;  // Decorrelate from the rest.
  }
  RunSnapshotSweep(seed, /*trials=*/15);
}

}  // namespace
}  // namespace grfusion
