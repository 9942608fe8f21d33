#include "api/solve_spec.hpp"

#include "solver/registry.hpp"
#include "util/strings.hpp"

namespace ffp::api {

ResolvedSpec SolveSpec::resolve() const {
  ResolvedSpec out;
  const auto& registry = SolverRegistry::builtin();
  const auto [name, opts_text] = SolverRegistry::split_spec(method);
  const SolverOptions options = SolverOptions::parse(opts_text);
  // THE construction: validates the whole spec — name, option keys,
  // option values — and is reused all the way into the scheduler.
  out.solver = registry.create(name, options);
  out.metaheuristic = out.solver->is_metaheuristic();
  out.canonical_method = SolverRegistry::canonical_join(name, options);
  out.steps = steps;
  if (out.steps == 0 && out.metaheuristic && restarts > 1) {
    out.steps = static_cast<std::int64_t>(budget_ms * kStepsPerMs);
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
