// One-shot SQL helpers for tests.
//
// The engine's statement API lives on grfusion::Session (Database itself no
// longer executes SQL). Most test assertions just need "run this autocommit
// statement against that database", so these helpers spin up a throwaway
// Session per call. Tests that exercise session state — explicit
// transactions, SYS.LAST_QUERY profiles, interrupts — must create a Session
// of their own and keep it alive across statements.
//
// GRF_TEST_MAX_PARALLELISM=<n> pins the worker count of every database the
// test fixtures build through TestOptions() and of every Exec/ExecScript
// session, so a suite can be run at 1 and at 4 workers on any host
// (tools/check.sh does both). Unset, the engine default applies
// (hardware_concurrency). Tests that set max_parallelism explicitly keep
// their own setting.
#pragma once

#include <cstdlib>
#include <string_view>

#include "engine/database.h"
#include "engine/session.h"

namespace grfusion {

/// Applies the GRF_TEST_MAX_PARALLELISM override, when set, to `options`.
inline void ApplyTestParallelism(PlannerOptions* options) {
  if (const char* env = std::getenv("GRF_TEST_MAX_PARALLELISM")) {
    options->max_parallelism = std::strtoul(env, nullptr, 10);
  }
}

/// Default planner options with the test worker-count override applied.
inline PlannerOptions TestOptions() {
  PlannerOptions options;
  ApplyTestParallelism(&options);
  return options;
}

inline StatusOr<ResultSet> Exec(Database& db, std::string_view sql) {
  Session session(db);
  ApplyTestParallelism(&session.options());
  return session.Execute(sql);
}

inline Status ExecScript(Database& db, std::string_view sql) {
  Session session(db);
  ApplyTestParallelism(&session.options());
  return session.ExecuteScript(sql);
}

/// A small fixed graph for path-probe tests: vertexes 0..7 with a kind
/// (a/b/c) and a score, unit-weight directed edges. Vertexes 2 and 5 have
/// no out-edges, so outer rows without paths sit between rows with paths.
/// It has 28 paths of 1..2 edges, starting at 6 of the 8 vertexes.
inline constexpr const char* kPathRunGraphSql = R"sql(
  CREATE TABLE v (id BIGINT PRIMARY KEY, kind VARCHAR, score BIGINT);
  CREATE TABLE e (id BIGINT PRIMARY KEY, src BIGINT, dst BIGINT, w DOUBLE);
  INSERT INTO v VALUES (0, 'a', 5), (1, 'b', 3), (2, 'a', 9), (3, 'c', 1),
                       (4, 'b', 7), (5, 'a', 2), (6, 'c', 8), (7, 'b', 4);
  INSERT INTO e VALUES (0, 0, 1, 1.0), (1, 0, 3, 1.0), (2, 1, 3, 1.0),
                       (3, 1, 4, 1.0), (4, 3, 0, 1.0), (5, 3, 6, 1.0),
                       (6, 4, 7, 1.0), (7, 6, 1, 1.0), (8, 7, 4, 1.0),
                       (9, 6, 2, 1.0), (10, 4, 5, 1.0);
  CREATE DIRECTED GRAPH VIEW g
    VERTEXES (ID = id, kind = kind, score = score) FROM v
    EDGES (ID = id, FROM = src, TO = dst, w = w) FROM e;
)sql";

}  // namespace grfusion
