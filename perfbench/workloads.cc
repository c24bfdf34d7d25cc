#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <random>
#include <thread>
#include <unordered_map>

#include "common/metrics.h"
#include "common/string_util.h"
#include "graph/graph_view.h"
#include "graphalg/algorithms.h"
#include "parser/parser.h"
#include "plan/planner.h"
#include "server/client.h"
#include "server/server.h"
#include "workload/queries.h"

namespace perfbench {

using grfusion::Client;
using grfusion::Database;
using grfusion::Dataset;
using grfusion::GraphView;
using grfusion::ResultSet;
using grfusion::Session;
using grfusion::Status;
using grfusion::StatusOr;
using grfusion::StrFormat;
using grfusion::Value;

namespace {

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

std::string ShortStatus(const Status& s) { return s.ToString().substr(0, 160); }

/// Rows rendered to text and sorted, for order-insensitive comparison.
std::vector<std::string> CanonicalRows(const ResultSet& r) {
  std::vector<std::string> out;
  for (const auto& row : r.rows) {
    std::string line;
    for (const Value& v : row) line += v.ToString() + "|";
    out.push_back(std::move(line));
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

uint64_t CounterValue(const char* name) {
  return grfusion::MetricsRegistry::Global().GetCounter(name)->value();
}

CounterDelta::CounterDelta(std::vector<const char*> names)
    : names_(std::move(names)) {
  for (const char* n : names_) start_.push_back(CounterValue(n));
}

double CounterDelta::Delta(const char* name) const {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (std::string(names_[i]) == name) {
      return static_cast<double>(CounterValue(name) - start_[i]);
    }
  }
  return 0.0;
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

namespace {

/// Loads `ds` with grfusion::LoadIntoDatabase (tables <name>_v / <name>_e
/// plus graph view <name>) and returns the view build time the catalog
/// recorded in the graph_view_build_us histogram, in ms.
StatusOr<double> LoadDataset(const Dataset& ds, Database* db) {
  const grfusion::Histogram* build =
      grfusion::EngineMetrics::Get().graph_view_build_us;
  const uint64_t before = build->sum();
  GRF_RETURN_IF_ERROR(grfusion::LoadIntoDatabase(ds, db));
  return static_cast<double>(build->sum() - before) / 1e3;
}

}  // namespace

// =============================================================================
// reach
// =============================================================================

namespace {
constexpr double kReachScale = 0.1;
// Sources per dataset; each gives up to five statements (2..6 hops), so the
// pool holds about 4 x 1,050 distinct statements, 33x the 128-entry plan
// cache.
constexpr int kReachSources = 124;
constexpr int kConstrainedSources = 28;  // Per rank threshold.
constexpr int kShortestSources = 32;
constexpr int64_t kRankThresholds[] = {25, 50};
constexpr size_t kMinHops = 2;
constexpr size_t kMaxHops = 6;

/// One BFS from a random source over the (filtered) view; returns a random
/// destination at each hop distance kMinHops..kMaxHops the source reaches.
/// `hops` is the BFS distance, the same reference HopDistance computes.
/// (MakeConnectedPairs runs one BFS per pair and retries up to 50 times per
/// pair when a distance is rare, e.g. 6 hops on bio, which made set-up take
/// tens of seconds.)
std::vector<grfusion::QueryPair> PairsByHop(const GraphView& gv,
                                            const grfusion::EdgeFilter& filter,
                                            std::mt19937_64& rng) {
  std::vector<grfusion::VertexId> ids;
  gv.ForEachVertex([&](const grfusion::VertexEntry& v) {
    ids.push_back(v.id);
    return true;
  });
  const grfusion::VertexId src =
      ids[std::uniform_int_distribution<size_t>(0, ids.size() - 1)(rng)];
  std::unordered_map<grfusion::VertexId, size_t> dist{{src, 0}};
  std::vector<std::vector<grfusion::VertexId>> at(kMaxHops + 1);
  std::vector<grfusion::VertexId> frontier{src};
  for (size_t d = 1; d <= kMaxHops && !frontier.empty(); ++d) {
    std::vector<grfusion::VertexId> next;
    for (grfusion::VertexId u : frontier) {
      gv.ForEachNeighbor(*gv.FindVertex(u), [&](const grfusion::EdgeEntry& e,
                                                grfusion::VertexId nbr) {
        const bool admitted = filter == nullptr || filter(gv, e);
        if (admitted && dist.emplace(nbr, d).second) {
          next.push_back(nbr);
        }
        return true;
      });
    }
    at[d] = next;
    frontier = std::move(next);
  }
  std::vector<grfusion::QueryPair> pairs;
  for (size_t d = kMinHops; d <= kMaxHops; ++d) {
    if (at[d].empty()) continue;
    const auto dst =
        at[d][std::uniform_int_distribution<size_t>(0, at[d].size() - 1)(rng)];
    pairs.push_back({src, dst, d});
  }
  return pairs;
}
}  // namespace

Status ReachWorkload::Setup(uint64_t seed, int setup_reps) {
  std::vector<Dataset> datasets;
  for (int rep = 0; rep < setup_reps; ++rep) {
    db_.reset();
    build_ms_.clear();
    const int64_t t0 = NowNs();
    datasets = grfusion::MakeAllDatasets(kReachScale, seed);
    db_ = std::make_unique<Database>();
    for (const Dataset& ds : datasets) {
      auto ms = LoadDataset(ds, db_.get());
      if (!ms.ok()) return ms.status();
      build_ms_[ds.name] = *ms;
    }
    setup_s_.push_back(SecondsSince(t0));
  }
  size_t topology_bytes = 0;
  for (const Dataset& ds : datasets) {
    topology_bytes += db_->catalog().FindGraphView(ds.name)->TopologyBytes();
  }
  topology_mb_ = static_cast<double>(topology_bytes) / (1024.0 * 1024.0);

  // Statement pool, per dataset: ~60% reachability, ~25% constrained
  // reachability (rank < 25 or 50), ~15% shortest path. One BFS (or one
  // reference Dijkstra) per source yields a destination at each of 2..6
  // hops, where the graph has one that far.
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 11);
  for (const Dataset& ds : datasets) {
    const GraphView* gv = db_->catalog().FindGraphView(ds.name);
    const char* g = ds.name.c_str();
    auto path_sql = [&](int64_t src, int64_t dst, int64_t rank) {
      return StrFormat(
          "SELECT PS.PathString, PS.Length FROM %s.Paths PS WHERE "
          "PS.StartVertex.Id = %lld AND PS.EndVertex.Id = %lld%s LIMIT 1",
          g, static_cast<long long>(src), static_cast<long long>(dst),
          rank < 0 ? ""
                   : StrFormat(" AND PS.Edges[0..*].rank < %lld",
                               static_cast<long long>(rank))
                         .c_str());
    };
    for (int i = 0; i < kReachSources; ++i) {
      for (const auto& [src, dst, hops] : PairsByHop(*gv, nullptr, rng)) {
        pool_.push_back({Stmt::kReach, path_sql(src, dst, -1), hops, 0.0});
      }
    }
    for (int64_t rank : kRankThresholds) {
      const auto filter = grfusion::MakeRankFilter(*gv, rank);
      for (int i = 0; i < kConstrainedSources; ++i) {
        for (const auto& [src, dst, hops] : PairsByHop(*gv, filter, rng)) {
          pool_.push_back(
              {Stmt::kConstrained, path_sql(src, dst, rank), hops, 0.0});
        }
      }
    }
    for (int i = 0; i < kShortestSources; ++i) {
      const auto pairs = PairsByHop(*gv, nullptr, rng);
      if (pairs.empty()) continue;
      auto dist = grfusion::SingleSourceShortestPaths(*gv, pairs[0].src,
                                                      "weight");
      if (!dist.ok()) return dist.status();
      for (const auto& [src, dst, hops] : pairs) {
        auto it = dist->find(dst);
        if (it == dist->end()) {
          return Status::Internal("reference Dijkstra misses a reachable pair");
        }
        pool_.push_back(
            {Stmt::kShortest,
             StrFormat("SELECT TOP 1 PS.Cost FROM %s.Paths PS "
                       "HINT(SHORTESTPATH(weight)) WHERE PS.StartVertex.Id = "
                       "%lld AND PS.EndVertex.Id = %lld",
                       g, static_cast<long long>(src),
                       static_cast<long long>(dst)),
             hops, it->second});
      }
    }
  }
  // Two sources can draw the same endpoints; keep each statement once.
  std::sort(pool_.begin(), pool_.end(),
            [](const Stmt& x, const Stmt& y) { return x.sql < y.sql; });
  pool_.erase(std::unique(pool_.begin(), pool_.end(),
                          [](const Stmt& x, const Stmt& y) {
                            return x.sql == y.sql;
                          }),
              pool_.end());
  if (pool_.empty()) return Status::Internal("empty reach statement pool");
  return Status::OK();
}

bool ReachWorkload::CheckAnswer(const Stmt& st,
                                const StatusOr<ResultSet>& r,
                                Tally* tally) const {
  if (!r.ok()) {
    tally->Fail(ShortStatus(r.status()) + " :: " + st.sql);
    return false;
  }
  if (r->NumRows() != 1) {
    tally->Wrong(StrFormat("%zu rows :: %s", r->NumRows(), st.sql.c_str()));
    return false;
  }
  if (st.kind == Stmt::kShortest) {
    const double got = r->rows[0][0].AsNumeric();
    if (std::fabs(got - st.cost) > 1e-9 * std::max(1.0, std::fabs(st.cost))) {
      tally->Wrong(StrFormat("cost %.12g, expected %.12g :: %s", got, st.cost,
                             st.sql.c_str()));
      return false;
    }
    return true;
  }
  const int64_t len = r->rows[0][1].AsBigInt();
  if (len != static_cast<int64_t>(st.hops)) {
    tally->Wrong(StrFormat("length %lld, expected %zu :: %s",
                           static_cast<long long>(len), st.hops,
                           st.sql.c_str()));
    return false;
  }
  return true;
}

namespace {
std::vector<size_t> Permutation(size_t n, uint64_t seed) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::mt19937_64 rng(seed * 1000003 + 5);
  std::shuffle(order.begin(), order.end(), rng);
  return order;
}

void UseBfs(Session& s) {
  // Paper §7.1: reachability queries run with BFS as the physical traversal,
  // so LIMIT 1 returns a minimum-hop path.
  s.options().default_traversal = grfusion::PlannerOptions::Traversal::kBfs;
}
}  // namespace

ReachWorkload::Result ReachWorkload::Run(double seconds, int threads,
                                         uint64_t seed, size_t max_ops) {
  // The sessions take statements in turn from one seeded permutation of the
  // pool, so a run executes the pool's mix evenly rather than a random
  // sample of it, and the first N statements are the same whatever the
  // number of sessions.
  const std::vector<size_t> order = Permutation(pool_.size(), seed);
  std::vector<Result> parts(static_cast<size_t>(threads));
  std::atomic<size_t> next{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  const int64_t start = NowNs();
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      Session session(*db_);
      UseBfs(session);
      Result& out = parts[static_cast<size_t>(t)];
      out.latency_us.reserve(1 << 16);
      while (!stop.load(std::memory_order_relaxed)) {
        const size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (max_ops != 0 && i >= max_ops) break;
        const Stmt& st = pool_[order[i % order.size()]];
        const int64_t t0 = NowNs();
        auto r = session.Execute(st.sql);
        const int64_t t1 = NowNs();
        ++out.tally.attempted;
        if (CheckAnswer(st, r, &out.tally)) {
          out.latency_us.push_back(static_cast<double>(t1 - t0) / 1e3);
          out.done_s.push_back(static_cast<double>(t1 - start) / 1e9);
        }
      }
    });
  }
  if (max_ops == 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    stop.store(true);
  }
  for (auto& w : workers) w.join();
  Result all;
  all.elapsed_s = SecondsSince(start);
  for (Result& p : parts) {
    all.tally.Merge(p.tally);
    all.latency_us.insert(all.latency_us.end(), p.latency_us.begin(),
                          p.latency_us.end());
    all.done_s.insert(all.done_s.end(), p.done_s.begin(), p.done_s.end());
  }
  return all;
}

ReachWorkload::Result ReachWorkload::RunTraced(double seconds, uint64_t seed,
                                               Report* out,
                                               std::vector<Span>* spans) {
  Session session(*db_);
  UseBfs(session);
  SpanLog log(1);
  const std::vector<size_t> order = Permutation(pool_.size(), seed);
  Result res;
  double edges = 0, expanded = 0, pruned = 0, emitted_constrained = 0;
  uint64_t graph_queries = 0;
  const int64_t start = NowNs();
  for (uint64_t rid = 1; SecondsSince(start) < seconds; ++rid) {
    // Same statement order as a one-thread Run() with this seed.
    const Stmt& st = pool_[order[(rid - 1) % order.size()]];
    ScopedSpan request(&log, "request", 0, rid);
    // Parse and plan called directly, each in its own span, then the
    // statement as the workload runs it (a plan-cache miss: the pool is far
    // larger than the cache), then once more straight away, which hits the
    // cache and so times execution without parse and plan.
    std::optional<StatusOr<grfusion::Statement>> parsed;
    {
      ScopedSpan s(&log, "parser.parse", request.id(), rid);
      parsed.emplace(grfusion::Parser::ParseSingle(st.sql));
    }
    if (parsed->ok()) {
      ScopedSpan s(&log, "plan.plan", request.id(), rid);
      grfusion::Planner planner(&db_->catalog(), session.options());
      auto planned =
          planner.PlanSelect(std::get<grfusion::SelectStmt>(**parsed));
      if (!planned.ok()) res.tally.Fail(ShortStatus(planned.status()));
    } else {
      res.tally.Fail(ShortStatus(parsed->status()));
    }
    StatusOr<ResultSet> r = Status::Internal("not run");
    {
      ScopedSpan s(&log, "engine.execute", request.id(), rid);
      r = session.Execute(st.sql);
    }
    ++res.tally.attempted;
    if (!CheckAnswer(st, r, &res.tally)) continue;
    const auto stats = session.last_stats();
    edges += static_cast<double>(stats.edges_examined);
    expanded += static_cast<double>(stats.vertexes_expanded);
    ++graph_queries;
    if (st.kind == Stmt::kConstrained) {
      pruned += static_cast<double>(stats.paths_pruned);
      emitted_constrained += static_cast<double>(stats.paths_emitted);
    }
    {
      ScopedSpan s(&log, "engine.execute_cached", request.id(), rid);
      r = session.Execute(st.sql);
    }
    ++res.tally.attempted;
    CheckAnswer(st, r, &res.tally);
  }
  res.elapsed_s = SecondsSince(start);
  res.tally.attempted -= graph_queries;  // Count each request once.

  // Per request, its time without the extra direct calls (parse, plan,
  // cached re-execute): what the workload's own Session::Execute cost with
  // spans recorded, comparable with an untraced Run() of the same order.
  const auto self = SelfTimes(log.spans());
  std::map<uint64_t, double> request_us;
  for (const Span& sp : log.spans()) {
    const double us = static_cast<double>(sp.end_ns - sp.start_ns) / 1e3;
    const std::string name = sp.name;
    if (name == "request") {
      request_us[sp.request] += us;
    } else if (name != "engine.execute") {
      request_us[sp.request] -= us;
    }
  }
  for (const auto& [rid, us] : request_us) res.latency_us.push_back(us);

  out->Add("parser.parse_us", MedianSelfUs(log.spans(), self, "parser.parse"),
           "us");
  out->Add("plan.plan_us", MedianSelfUs(log.spans(), self, "plan.plan"), "us");
  out->Add("engine.execute_us",
           MedianSelfUs(log.spans(), self, "engine.execute_cached"), "us");
  out->Add("engine.execute_cold_us",
           MedianSelfUs(log.spans(), self, "engine.execute"), "us");
  out->Add("driver.request_self_us",
           MedianSelfUs(log.spans(), self, "request"), "us");
  const double n = std::max<double>(1, static_cast<double>(graph_queries));
  out->Add("graphexec.edges_examined", edges / n, "count");
  out->Add("graphexec.vertexes_expanded", expanded / n, "count");
  const Ratio pr{pruned, pruned + emitted_constrained};
  out->Add("graphexec.pruned_ratio", pr.value(), "ratio");
  out->Add("graphexec.pruned_base", pr.base, "count");
  spans->insert(spans->end(), log.spans().begin(), log.spans().end());
  return res;
}

// =============================================================================
// paths
// =============================================================================

namespace {
constexpr double kPathsScale = 0.01;
}  // namespace

namespace {

/// Paths of length 1..2 from every start vertex, counted from the view's
/// adjacency with the engine's path rules: edge-simple and vertex-simple,
/// except that a final edge back to the start closes a cycle.
int64_t CountPathsUpTo2(const GraphView& gv) {
  int64_t count = 0;
  gv.ForEachVertex([&](const grfusion::VertexEntry& s) {
    gv.ForEachNeighbor(s, [&](const grfusion::EdgeEntry& e1,
                              grfusion::VertexId a) {
      if (a == s.id) return true;
      ++count;
      const grfusion::VertexEntry* av = gv.FindVertex(a);
      gv.ForEachNeighbor(*av, [&](const grfusion::EdgeEntry& e2,
                                  grfusion::VertexId b) {
        if (e2.id != e1.id && b != a) ++count;
        return true;
      });
      return true;
    });
    return true;
  });
  return count;
}

}  // namespace

Status PathsWorkload::Setup(uint64_t seed, int setup_reps) {
  std::vector<Dataset> datasets;
  for (int rep = 0; rep < setup_reps; ++rep) {
    db_.reset();
    const int64_t t0 = NowNs();
    datasets = grfusion::MakeAllDatasets(kPathsScale, seed);
    db_ = std::make_unique<Database>();
    for (const Dataset& ds : datasets) {
      GRF_RETURN_IF_ERROR(grfusion::LoadIntoDatabase(ds, db_.get()));
    }
    setup_s_.push_back(SecondsSince(t0));
  }
  for (const Dataset& ds : datasets) {
    const char* g = ds.name.c_str();
    const int64_t count =
        CountPathsUpTo2(*db_->catalog().FindGraphView(ds.name));
    stmts_.push_back(
        {StrFormat("SELECT COUNT(*) FROM %s.Paths P WHERE P.Length <= 2", g),
         false, count});
    stmts_.push_back(
        {StrFormat("SELECT V.kind, COUNT(*), SUM(P.Length), "
                   "MAX(P.EndVertex.score) FROM %s_v V, %s.Paths P WHERE "
                   "P.StartVertex.Id = V.id AND P.Length <= 2 GROUP BY V.kind",
                   g, g),
         true, count});
  }
  return Status::OK();
}

PathsWorkload::Result PathsWorkload::Run(double seconds, int min_rounds,
                                         SpanLog* log) {
  Session session(*db_);
  Result res;
  uint64_t rid = 0;
  const int64_t start = NowNs();
  for (int round = 0; round < min_rounds || SecondsSince(start) < seconds;
       ++round) {
    const int64_t round_start = NowNs();
    double paths[2] = {0, 0};
    double secs[2] = {0, 0};
    std::vector<std::vector<std::string>> answers[2];
    // Alternate which worker count goes first so neither always runs warm.
    for (int k = 0; k < 2; ++k) {
      const int w = (round + k) % 2;  // 0: 1 worker, 1: 4 workers.
      session.options().max_parallelism = w == 0 ? 1 : 4;
      answers[w].resize(stmts_.size());
      for (size_t i = 0; i < stmts_.size(); ++i) {
        const Stmt& st = stmts_[i];
        ScopedSpan request(log, "request", 0, ++rid);
        ScopedSpan exec(log, "engine.execute", request.id(), rid);
        const int64_t t0 = NowNs();
        auto r = session.Execute(st.sql);
        const int64_t t1 = NowNs();
        ++res.tally.attempted;
        if (!r.ok()) {
          res.tally.Fail(ShortStatus(r.status()) + " :: " + st.sql);
          continue;
        }
        res.latency_us.push_back(static_cast<double>(t1 - t0) / 1e3);
        secs[w] += static_cast<double>(t1 - t0) / 1e9;
        paths[w] += static_cast<double>(session.last_stats().paths_emitted);
        answers[w][i] = CanonicalRows(*r);
        // The multi-source COUNT(*), or the hybrid's per-kind counts summed,
        // must equal the count taken from the adjacency.
        const size_t count_col = st.hybrid ? 1 : 0;
        int64_t total = 0;
        for (const auto& row : r->rows) total += row[count_col].AsBigInt();
        if (total != st.expected_count || (!st.hybrid && r->NumRows() != 1)) {
          res.tally.Wrong(StrFormat(
              "%s: %zu rows counting %lld paths, adjacency count %lld",
              st.sql.c_str(), r->NumRows(), static_cast<long long>(total),
              static_cast<long long>(st.expected_count)));
        }
      }
    }
    for (size_t i = 0; i < stmts_.size(); ++i) {
      if (answers[0][i] != answers[1][i]) {
        res.tally.Wrong("results differ at 1 and 4 workers :: " +
                        stmts_[i].sql);
      }
    }
    res.stmts_per_s.push_back(2.0 * static_cast<double>(stmts_.size()) /
                              SecondsSince(round_start));
    if (secs[0] > 0) res.rate_1w.push_back(paths[0] / secs[0]);
    if (secs[1] > 0) res.rate_4w.push_back(paths[1] / secs[1]);
  }
  res.elapsed_s = SecondsSince(start);
  return res;
}

namespace {

/// One operator line of EXPLAIN ANALYZE output.
struct OpLine {
  int depth = 0;
  std::string name;
  double time_ms = 0;
  std::vector<double> worker_ms;  ///< Parallel fan-out, when present.
};

double NumberAfter(const std::string& s, size_t pos) {
  return std::strtod(s.c_str() + pos, nullptr);
}

std::vector<OpLine> ParseExplainAnalyze(const ResultSet& r) {
  std::vector<OpLine> ops;
  for (const auto& row : r.rows) {
    const std::string text = row[0].ToString();
    const size_t indent = text.find_first_not_of(' ');
    if (indent == std::string::npos) continue;
    const size_t tpos = text.find("time_ms=");
    if (tpos == std::string::npos ||
        text.compare(indent, 10, "Execution:") == 0) {
      continue;
    }
    OpLine op;
    op.depth = static_cast<int>(indent / 2);
    op.name = text.substr(indent, text.find_first_of("([", indent) - indent);
    op.time_ms = NumberAfter(text, tpos + 8);
    const size_t wpos = text.find("workers=[");
    if (wpos != std::string::npos) {
      for (size_t p = text.find("time_ms=", wpos); p != std::string::npos;
           p = text.find("time_ms=", p + 8)) {
        op.worker_ms.push_back(NumberAfter(text, p + 8));
      }
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

/// Operator time minus its direct children's time (EXPLAIN ANALYZE times
/// are inclusive).
std::vector<double> OperatorSelfMs(const std::vector<OpLine>& ops) {
  std::vector<double> self;
  for (size_t i = 0; i < ops.size(); ++i) {
    double children = 0;
    for (size_t j = i + 1; j < ops.size() && ops[j].depth > ops[i].depth;
         ++j) {
      if (ops[j].depth == ops[i].depth + 1) children += ops[j].time_ms;
    }
    self.push_back(std::max(0.0, ops[i].time_ms - children));
  }
  return self;
}

}  // namespace

void PathsWorkload::Profile(Report* out, Tally* tally) {
  Session session(*db_);
  std::map<std::string, double> self_ms;  // By operator kind, 1 worker.
  double rows_scanned = 0, rows_joined = 0;
  double traversal_ms[2] = {0, 0};
  double paths[2] = {0, 0};
  double tasks = 0, steals = 0, imbalance_sum = 0;
  int fanned_out = 0;
  for (int w = 0; w < 2; ++w) {
    session.options().max_parallelism = w == 0 ? 1 : 4;
    for (const Stmt& st : stmts_) {
      CounterDelta counters({"taskpool_tasks_total", "taskpool_steals_total"});
      auto plain = session.Execute(st.sql);
      ++tally->attempted;
      if (!plain.ok()) {
        tally->Fail(ShortStatus(plain.status()));
        continue;
      }
      const auto stats = session.last_stats();
      if (w == 1) {
        tasks += counters.Delta("taskpool_tasks_total");
        steals += counters.Delta("taskpool_steals_total");
      } else {
        rows_scanned += static_cast<double>(stats.rows_scanned);
        rows_joined += static_cast<double>(stats.rows_joined);
      }
      paths[w] += static_cast<double>(stats.paths_emitted);
      auto explained = session.Execute("EXPLAIN ANALYZE " + st.sql);
      ++tally->attempted;
      if (!explained.ok()) {
        tally->Fail(ShortStatus(explained.status()));
        continue;
      }
      const auto ops = ParseExplainAnalyze(*explained);
      const auto self = OperatorSelfMs(ops);
      for (size_t i = 0; i < ops.size(); ++i) {
        const bool probe = ops[i].name.rfind("PathProbeJoin", 0) == 0;
        if (w == 0) self_ms[ops[i].name] += self[i];
        if (!probe) continue;
        if (ops[i].worker_ms.empty()) {
          traversal_ms[w] += ops[i].time_ms;
        } else {
          double sum = 0, mx = 0;
          for (double t : ops[i].worker_ms) {
            sum += t;
            mx = std::max(mx, t);
          }
          traversal_ms[w] += sum;
          const double mean =
              sum / static_cast<double>(ops[i].worker_ms.size());
          if (mean > 0) {
            imbalance_sum += mx / mean;
            ++fanned_out;
          }
        }
      }
    }
  }
  const double n = static_cast<double>(stmts_.size());
  out->Add("exec.path_probe_self_ms", self_ms["PathProbeJoin"] / n, "ms");
  out->Add("exec.aggregate_self_ms", self_ms["Aggregate"] / n, "ms");
  out->Add("exec.scan_self_ms", self_ms["SeqScan"] / n, "ms");
  out->Add("exec.project_self_ms", self_ms["Project"] / n, "ms");
  out->Add("exec.rows_scanned", rows_scanned / n, "count");
  out->Add("exec.rows_joined", rows_joined / n, "count");
  out->Add("graphexec.ns_per_path_1w",
           paths[0] > 0 ? traversal_ms[0] * 1e6 / paths[0] : 0, "ns");
  out->Add("graphexec.ns_per_path_4w",
           paths[1] > 0 ? traversal_ms[1] * 1e6 / paths[1] : 0, "ns");
  out->Add("taskpool.tasks_per_stmt", tasks / n, "count");
  out->Add("taskpool.steals_per_stmt", steals / n, "count");
  out->Add("taskpool.worker_imbalance",
           fanned_out > 0 ? imbalance_sum / fanned_out : 0, "ratio");
  out->Add("taskpool.fanned_out_stmts", fanned_out, "count");
}

// =============================================================================
// wire
// =============================================================================

namespace {
constexpr double kWireScale = 0.1;
constexpr int kWireClients = 2;
constexpr int64_t kInsertKeyBase = 1'000'000'000;
const char* const kReadSql =
    "SELECT name, kind, score FROM social_v WHERE id = ?";
const char* const kInsertSql = "INSERT INTO social_e VALUES (?, ?, ?, ?, ?, ?)";
const char* const kProbeSql =
    "SELECT COUNT(*) FROM social.Paths P WHERE P.StartVertex.Id = ? AND "
    "P.Length <= 2";
}  // namespace

WireWorkload::WireWorkload(std::string workdir)
    : workdir_(std::move(workdir)) {}

WireWorkload::~WireWorkload() { Teardown(); }

void WireWorkload::Teardown() {
  if (server_ != nullptr) server_->Stop();
  server_.reset();
  db_.reset();
  if (!data_dir_.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(data_dir_, ec);
    data_dir_.clear();
  }
}

Status WireWorkload::Setup(uint64_t seed, int setup_reps) {
  for (int rep = 0; rep < setup_reps; ++rep) {
    Teardown();
    data_dir_ = StrFormat("%s/wire-%d-%d", workdir_.c_str(),
                          static_cast<int>(::getpid()), rep);
    std::error_code ec;
    std::filesystem::remove_all(data_dir_, ec);
    std::filesystem::create_directories(data_dir_, ec);
    if (ec) return Status::IOError("cannot create " + data_dir_);
    const int64_t t0 = NowNs();
    dataset_ = grfusion::MakeSocialNetwork(
        static_cast<int64_t>(100000 * kWireScale), 10, seed + 4);
    grfusion::DurabilityOptions durability;
    durability.data_dir = data_dir_;
    durability.sync = grfusion::WalSyncMode::kGroup;
    db_ = std::make_unique<Database>(grfusion::PlannerOptions(), durability);
    GRF_RETURN_IF_ERROR(db_->durability_status());
    GRF_RETURN_IF_ERROR(grfusion::LoadIntoDatabase(dataset_, db_.get()));
    server_ = std::make_unique<grfusion::Server>(*db_,
                                                 grfusion::ServerOptions());
    GRF_RETURN_IF_ERROR(server_->Start());
    setup_s_.push_back(SecondsSince(t0));
  }
  inserts_acked_ = 0;
  return Status::OK();
}

namespace {

/// Sleeps until `deadline_ns`, spinning through the last stretch so the
/// open-loop generator sends close to its schedule.
void SleepUntil(int64_t deadline_ns) {
  constexpr int64_t kSpinNs = 150'000;
  const int64_t now = NowNs();
  if (deadline_ns - now > kSpinNs) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(deadline_ns - now - kSpinNs));
  }
  while (NowNs() < deadline_ns) {
  }
}

}  // namespace

WireWorkload::Result WireWorkload::Run(double seconds, double rate,
                                       uint64_t seed, SpanLog* logs) {
  const uint16_t port = server_->port();
  std::vector<Result> parts(kWireClients);
  const int64_t interval = static_cast<int64_t>(1e9 * kWireClients / rate);
  const uint64_t per_client =
      static_cast<uint64_t>(seconds * rate / kWireClients);
  const int64_t start = NowNs() + 20'000'000;  // Connect before the first due.
  const uint64_t key_block = next_key_block_++;
  std::vector<std::thread> clients;
  for (int c = 0; c < kWireClients; ++c) {
    clients.emplace_back([&, c] {
      Result& out = parts[static_cast<size_t>(c)];
      SpanLog* log = logs == nullptr ? nullptr : &logs[c];
      Client client;
      Status s = client.Connect("127.0.0.1", port);
      StatusOr<uint64_t> ids[3] = {Status::Internal("unset"),
                                   Status::Internal("unset"),
                                   Status::Internal("unset")};
      if (s.ok()) {
        ids[0] = client.Prepare(kReadSql);
        ids[1] = client.Prepare(kInsertSql);
        ids[2] = client.Prepare(kProbeSql);
      }
      for (const auto& id : ids) {
        if (!id.ok()) s = id.status();
      }
      if (!s.ok()) {
        out.tally.attempted = per_client;
        out.tally.Fail("connect/prepare: " + ShortStatus(s));
        out.tally.failed = per_client;
        return;
      }
      std::mt19937_64 rng(seed * 7919 + static_cast<uint64_t>(c) * 104729 +
                          key_block);
      std::uniform_int_distribution<size_t> vertex(
          0, dataset_.vertexes.size() - 1);
      std::uniform_int_distribution<int> mix(0, 9);
      std::uniform_int_distribution<int64_t> rank(0, 99);
      std::uniform_real_distribution<double> weight(1.0, 10.0);
      int64_t next_key = kInsertKeyBase +
                         static_cast<int64_t>(key_block) * 10'000'000 +
                         static_cast<int64_t>(c) * 1'000'000;
      OpenLoopSchedule sched{start, interval, interval * c / kWireClients};
      int64_t prev_done = 0;
      for (uint64_t i = 0; i < per_client; ++i) {
        const int64_t due = sched.Due(i);
        SleepUntil(due);
        const int m = mix(rng);
        const int type = m < 8 ? 0 : (m == 8 ? 1 : 2);
        const auto& v = dataset_.vertexes[vertex(rng)];
        std::vector<Value> params;
        if (type == 0) {
          params = {Value::BigInt(v.id)};
        } else if (type == 1) {
          const auto& dst = dataset_.vertexes[vertex(rng)];
          params = {Value::BigInt(next_key++), Value::BigInt(v.id),
                    Value::BigInt(dst.id), Value::Double(weight(rng)),
                    Value::Varchar("w"), Value::BigInt(rank(rng))};
        } else {
          params = {Value::BigInt(v.id)};
        }
        const int64_t sent = NowNs();
        const uint64_t rid = (static_cast<uint64_t>(c) << 32) | i;
        ScopedSpan request(log, "request", 0, rid);
        StatusOr<ResultSet> r = Status::Internal("unset");
        {
          ScopedSpan call(log, kOpNames[type], request.id(), rid);
          r = client.Execute(*ids[type], params);
        }
        const int64_t done = NowNs();
        ++out.tally.attempted;
        out.late_us.push_back(
            static_cast<double>(GeneratorLateness(due, sent, prev_done)) / 1e3);
        prev_done = done;
        if (!r.ok()) {
          out.tally.Fail(std::string(kOpNames[type]) + ": " +
                         ShortStatus(r.status()));
          if (!client.connected()) break;
          continue;
        }
        if (type == 0) {
          if (r->NumRows() != 1 || r->rows[0][0].AsVarchar() != v.name ||
              r->rows[0][1].AsVarchar() != v.kind ||
              r->rows[0][2].AsNumeric() != v.score) {
            out.tally.Wrong(StrFormat("read of vertex %lld returned %zu rows "
                                      "or a different row",
                                      static_cast<long long>(v.id),
                                      r->NumRows()));
          }
        } else if (type == 1) {
          ++out.inserts_acked;
        } else if (r->NumRows() != 1 || r->rows[0][0].AsBigInt() < 0) {
          out.tally.Wrong("2-hop probe returned no count");
        }
        const double lat = static_cast<double>(LatencyFromDue(due, done)) / 1e3;
        const double engine =
            static_cast<double>(client.last_stats().latency_us);
        out.latency_us.push_back(lat);
        out.by_type_us[type].push_back(lat);
        out.engine_us[type].push_back(engine);
        out.wire_us.push_back(static_cast<double>(done - sent) / 1e3 - engine);
        ++out.completed;
      }
      out.elapsed_s = static_cast<double>(prev_done - start) / 1e9;
    });
  }
  for (auto& t : clients) t.join();
  Result all;
  for (Result& p : parts) {
    all.tally.Merge(p.tally);
    all.elapsed_s = std::max(all.elapsed_s, p.elapsed_s);
    all.completed += p.completed;
    all.inserts_acked += p.inserts_acked;
    auto append = [](std::vector<double>& to, const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(all.latency_us, p.latency_us);
    append(all.late_us, p.late_us);
    append(all.wire_us, p.wire_us);
    for (int t = 0; t < 3; ++t) {
      append(all.by_type_us[t], p.by_type_us[t]);
      append(all.engine_us[t], p.engine_us[t]);
    }
  }
  inserts_acked_ += all.inserts_acked;
  return all;
}

double WireWorkload::PingRttUs(int n) {
  Client client;
  if (!client.Connect("127.0.0.1", server_->port()).ok()) return 0;
  std::vector<double> rtt;
  for (int i = 0; i < n; ++i) {
    const int64_t t0 = NowNs();
    if (!client.Ping().ok()) return 0;
    rtt.push_back(static_cast<double>(NowNs() - t0) / 1e3);
  }
  return Median(rtt);
}

void WireWorkload::CheckAndRecover(Tally* tally, double* recovery_s) {
  const int64_t expected =
      static_cast<int64_t>(dataset_.edges.size() + inserts_acked_);
  auto check_counts = [&](const char* when) {
    Session session(*db_);
    const char* queries[] = {"SELECT COUNT(*) FROM social_e",
                             "SELECT COUNT(*) FROM social.Edges E"};
    for (const char* q : queries) {
      auto r = session.Execute(q);
      if (!r.ok()) {
        tally->Fail(std::string(when) + ": " + ShortStatus(r.status()));
        continue;
      }
      if (r->rows[0][0].AsBigInt() != expected) {
        tally->Wrong(StrFormat("%s: %s = %lld, expected preload + acked "
                               "inserts = %lld",
                               when, q,
                               static_cast<long long>(r->rows[0][0].AsBigInt()),
                               static_cast<long long>(expected)));
      }
    }
    auto r = session.Execute(StrFormat(
        "SELECT COUNT(*) FROM social_e WHERE id >= %lld",
        static_cast<long long>(kInsertKeyBase)));
    if (!r.ok() || r->rows[0][0].AsBigInt() !=
                       static_cast<int64_t>(inserts_acked_)) {
      tally->Wrong(std::string(when) + ": acknowledged inserts missing");
    }
  };
  check_counts("after run");
  server_->Stop();
  server_.reset();
  db_.reset();
  const int64_t t0 = NowNs();
  grfusion::DurabilityOptions durability;
  durability.data_dir = data_dir_;
  db_ = std::make_unique<Database>(grfusion::PlannerOptions(), durability);
  *recovery_s = SecondsSince(t0);
  if (!db_->durability_status().ok()) {
    tally->Wrong("recovery failed: " + ShortStatus(db_->durability_status()));
    return;
  }
  check_counts("after reopen");
}

}  // namespace perfbench
