#include "evolve/plan.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <utility>

#include "evolve/operators.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace ffp::evolve {

EvolvePlan plan_evolve(EliteArchive& archive, const PopulationKey& key,
                       int restarts, std::uint64_t seed, bool allow_crossover,
                       std::size_t num_vertices) {
  FFP_CHECK(restarts >= 1, "evolve plan needs at least one restart");
  EvolvePlan plan;
  for (Elite& e : archive.snapshot(key)) {
    if (e.assignment->size() == num_vertices) {
      plan.population.push_back(std::move(e));
    }
  }
  plan.restarts.resize(static_cast<std::size_t>(restarts));
  const auto pop = static_cast<std::uint64_t>(plan.population.size());
  if (pop == 0) return plan;  // never-seen graph: plain cold portfolio

  // A constant-offset stream of the spec seed, distinct from the
  // PortfolioRunner::seed_stream the same seed also feeds.
  std::uint64_t state = seed ^ 0xe7037ed1a0b428dbull;
  for (int i = 0; i < restarts; ++i) {
    RestartPlan& r = plan.restarts[static_cast<std::size_t>(i)];
    if (i == 0) {
      // The monotonicity anchor: the best elite, mutated.
      r.kind = RestartKind::Mutate;
      r.parent_a = 0;
    } else if (i % 3 == 1 && allow_crossover && pop >= 2) {
      r.kind = RestartKind::Crossover;
      const auto a = splitmix64(state) % pop;
      auto b = splitmix64(state) % (pop - 1);
      if (b >= a) ++b;
      // parent_a is the BETTER parent (population is best-first).
      r.parent_a = static_cast<int>(std::min(a, b));
      r.parent_b = static_cast<int>(std::max(a, b));
    } else if (i % 3 == 2) {
      r.kind = RestartKind::Cold;
    } else {
      r.kind = RestartKind::Mutate;
      r.parent_a = static_cast<int>(splitmix64(state) % pop);
    }
    if (r.kind != RestartKind::Cold) ++plan.seeded;
  }
  return plan;
}

void apply_restart_seed(const EvolvePlan& plan, const Graph& g, int restart,
                        SolverRequest& request) {
  FFP_CHECK(restart >= 0 &&
                restart < static_cast<int>(plan.restarts.size()),
            "restart ", restart, " outside the evolve plan");
  const RestartPlan& r = plan.restarts[static_cast<std::size_t>(restart)];
  switch (r.kind) {
    case RestartKind::Cold:
      return;
    case RestartKind::Mutate: {
      // FF burst from one elite: the warm-start contract (never report
      // worse than the partition resumed from) IS the mutation guarantee.
      const Elite& e = plan.population[static_cast<std::size_t>(r.parent_a)];
      request.hooks.warm_start = e.assignment;
      request.hooks.warm_start_value = e.value;
      return;
    }
    case RestartKind::Crossover: {
      const Elite& better =
          plan.population[static_cast<std::size_t>(r.parent_a)];
      const Elite& other =
          plan.population[static_cast<std::size_t>(r.parent_b)];
      // The overlay (each connected agreement block = one starting atom)
      // is the starting molecule; the better parent rides the incumbent
      // channel so the offspring can never evaluate worse than it.
      request.hooks.warm_start = std::make_shared<const std::vector<int>>(
          overlay_assignment(g, *better.assignment, *other.assignment));
      request.hooks.warm_start_value = std::numeric_limits<double>::infinity();
      request.hooks.incumbent = better.assignment;
      request.hooks.incumbent_value = better.value;
      return;
    }
  }
}

}  // namespace ffp::evolve
