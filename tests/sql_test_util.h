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

}  // namespace grfusion
