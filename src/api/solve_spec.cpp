#include "api/solve_spec.hpp"

#include <limits>

#include "solver/registry.hpp"
#include "util/strings.hpp"

namespace ffp::api {

ResolvedSpec SolveSpec::resolve() const {
  // Range checks first, each naming the field at fault. NaN fails every
  // `>= 0` comparison, so it is rejected too.
  FFP_CHECK(k >= 1, "SolveSpec::k must be >= 1, got ", k);
  FFP_CHECK(restarts >= 1, "SolveSpec::restarts must be >= 1, got ", restarts);
  FFP_CHECK(steps >= 0, "SolveSpec::steps must be >= 0, got ", steps);
  FFP_CHECK(budget_ms >= 0, "SolveSpec::budget_ms must be >= 0, got ",
            budget_ms);
  FFP_CHECK(queue_ttl_ms >= 0, "SolveSpec::queue_ttl_ms must be >= 0, got ",
            queue_ttl_ms);
  FFP_CHECK(checkpoint_every_ms >= 0,
            "SolveSpec::checkpoint_every_ms must be >= 0, got ",
            checkpoint_every_ms);
  ResolvedSpec out;
  // THE construction: validates the whole spec — name, option keys,
  // option values — and is reused all the way into the scheduler.
  auto [solver, canonical] = SolverRegistry::builtin().resolve(method);
  out.solver = std::move(solver);
  out.canonical_method = std::move(canonical);
  out.metaheuristic = out.solver->is_metaheuristic();
  out.steps = steps;
  if (out.steps == 0 && out.metaheuristic && restarts > 1) {
    const double derived = budget_ms * kStepsPerMs;
    // 2^63 as a double: anything below it converts to int64 exactly.
    FFP_CHECK(derived < static_cast<double>(
                            std::numeric_limits<std::int64_t>::max()),
              "SolveSpec::budget_ms = ", budget_ms,
              " derives a step budget beyond int64 (budget_ms * ",
              kStepsPerMs, " = ", derived, ")");
    out.steps = static_cast<std::int64_t>(derived);
  }
  // Direct (non-metaheuristic) solvers ignore the stop condition entirely:
  // their result is a pure function of (graph, k, seed, options).
  out.deterministic = out.steps > 0 || !out.metaheuristic;
  return out;
}

std::string SolveSpec::cache_key(const ResolvedSpec& resolved) const {
  // Warm-started and evolve-mode solves depend on state outside the spec
  // (the on-disk checkpoint / the elite archive) — never cacheable.
  if (warm_start || evolve) return {};
  return checkpoint_key(resolved);
}

std::string SolveSpec::checkpoint_key(const ResolvedSpec& resolved) const {
  if (!resolved.deterministic) return {};
  std::string key = resolved.canonical_method;
  key += "|k=" + std::to_string(k);
  key += "|obj=" + std::string(objective_name(objective));
  key += "|seed=" + std::to_string(seed);
  key += "|steps=" + std::to_string(resolved.steps);
  key += "|restarts=" + std::to_string(restarts);
  return key;
}

}  // namespace ffp::api
