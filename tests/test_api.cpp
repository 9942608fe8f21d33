// The facade contract. The parity suite replicates the PRE-redesign
// ffp_part pipeline inline — raw SolverRequest + PortfolioRunner over a
// ThreadBudget, exactly the wiring the tools used to carry — and proves
// the facade produces byte-identical partitions at worker budgets
// {1, 4, 8} on all four generator families, single-run and portfolio.
// Plus: SolveHandle cancel/stream/poll semantics, result-cache behavior
// (including canonicalization-driven hits), and Problem sources.
#include "ffp/api.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <mutex>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "service/thread_budget.hpp"
#include "solver/portfolio.hpp"
#include "solver/registry.hpp"

namespace ffp {
namespace {

Graph family_graph(const std::string& family) {
  if (family == "grid") return make_grid2d(12, 12);
  if (family == "torus") return make_torus(12, 12);
  if (family == "geometric") return make_random_geometric(140, 0.18, 5);
  return make_power_law(140, 6.0, 2.5, 5);
}

std::vector<int> assignment_of(const Partition& p) {
  return {p.assignment().begin(), p.assignment().end()};
}

/// The legacy pipeline, verbatim: what ffp_part did before the facade.
std::vector<int> legacy_pipeline(const Graph& g, const std::string& method,
                                 int k, std::uint64_t seed, std::int64_t steps,
                                 int restarts, unsigned budget_size) {
  ThreadBudget budget(budget_size);
  const SolverPtr solver = make_solver(method);
  SolverRequest request;
  request.k = k;
  request.objective = ObjectiveKind::MinMaxCut;
  request.seed = seed;
  request.stop = StopCondition::after_steps(steps);
  if (restarts > 1) {
    PortfolioOptions popt;
    popt.restarts = restarts;
    popt.threads = budget_size;
    popt.budget = &budget;
    return assignment_of(
        PortfolioRunner(solver, popt).run(g, request).best);
  }
  return assignment_of(solver->run(g, request).best);
}

std::vector<int> facade_pipeline(const Graph& g, const std::string& method,
                                 int k, std::uint64_t seed, std::int64_t steps,
                                 int restarts, unsigned budget_size) {
  ThreadBudget budget(budget_size);
  api::EngineOptions options;
  options.budget = &budget;
  api::Engine engine(options);
  api::SolveSpec spec;
  spec.method = method;
  spec.k = k;
  spec.objective = ObjectiveKind::MinMaxCut;
  spec.seed = seed;
  spec.steps = steps;
  spec.restarts = restarts;
  return assignment_of(engine.solve(api::Problem::viewing(g), spec).best);
}

// Acceptance criterion: byte-identical ffp_part output before/after the
// redesign at budgets {1, 4, 8}, across the four generator families.
TEST(ApiParity, SingleRunMatchesLegacyPipelineAtAllBudgets) {
  for (const std::string family : {"grid", "torus", "geometric", "powerlaw"}) {
    const Graph g = family_graph(family);
    const std::vector<int> reference =
        legacy_pipeline(g, "fusion_fission", 6, 2006, 2000, 1, 1);
    for (const unsigned budget : {1u, 4u, 8u}) {
      EXPECT_EQ(legacy_pipeline(g, "fusion_fission", 6, 2006, 2000, 1, budget),
                reference)
          << family << " legacy diverged at budget " << budget;
      EXPECT_EQ(facade_pipeline(g, "fusion_fission", 6, 2006, 2000, 1, budget),
                reference)
          << family << " facade diverged at budget " << budget;
    }
  }
}

TEST(ApiParity, PortfolioMatchesLegacyPipelineAtAllBudgets) {
  for (const std::string family : {"grid", "geometric"}) {
    const Graph g = family_graph(family);
    const std::vector<int> reference =
        legacy_pipeline(g, "fusion_fission", 5, 17, 1200, 3, 1);
    for (const unsigned budget : {1u, 4u, 8u}) {
      EXPECT_EQ(facade_pipeline(g, "fusion_fission", 5, 17, 1200, 3, budget),
                reference)
          << family << " portfolio diverged at budget " << budget;
    }
  }
}

TEST(ApiParity, DirectSolversMatchToo) {
  const Graph g = family_graph("grid");
  EXPECT_EQ(facade_pipeline(g, "multilevel", 4, 3, 100, 1, 2),
            legacy_pipeline(g, "multilevel", 4, 3, 100, 1, 2));
  EXPECT_EQ(facade_pipeline(g, "linear:arity=2,kl=true", 4, 3, 100, 1, 1),
            legacy_pipeline(g, "linear:arity=2,kl=true", 4, 3, 100, 1, 1));
}

// ---------------------------------------------------------------- spec ----

TEST(SolveSpec, ResolvedStepsImplementsTheDeterminismRule) {
  api::SolveSpec spec;  // serial metaheuristic, wall clock
  spec.budget_ms = 100;
  EXPECT_EQ(spec.resolved_steps(), 0);
  EXPECT_FALSE(spec.deterministic());

  spec.steps = 777;  // explicit steps always win
  EXPECT_EQ(spec.resolved_steps(), 777);
  EXPECT_TRUE(spec.deterministic());

  spec.steps = 0;
  spec.restarts = 4;  // parallelism → derived step budget
  EXPECT_EQ(spec.resolved_steps(),
            static_cast<std::int64_t>(100 * api::SolveSpec::kStepsPerMs));
  spec.restarts = 1;  // a single run stays on the wall clock
  EXPECT_EQ(spec.resolved_steps(), 0);

  spec.method = "multilevel";  // direct solver: no steps, yet deterministic
  EXPECT_EQ(spec.resolved_steps(), 0);
  EXPECT_TRUE(spec.deterministic());
}

TEST(SolveSpec, CacheKeyCapturesResultIdentityOnly) {
  api::SolveSpec spec;
  spec.steps = 1000;
  const std::string key = spec.cache_key();
  EXPECT_FALSE(key.empty());

  api::SolveSpec other = spec;
  other.priority = 9;  // cannot change the partition
  EXPECT_EQ(other.cache_key(), key);
  other = spec;
  other.seed = 999;
  EXPECT_NE(other.cache_key(), key);
  other = spec;
  other.method = "fusion_fission: nbt=800";
  api::SolveSpec canonical_twin = spec;
  canonical_twin.method = "fusion_fission:nbt=800";
  EXPECT_EQ(other.cache_key(), canonical_twin.cache_key());

  api::SolveSpec wall_clock;  // non-deterministic → never cacheable
  EXPECT_TRUE(wall_clock.cache_key().empty());
}

// -------------------------------------------------------------- problem ----

TEST(Problem, SourcesAndDigests) {
  const api::Problem grid = api::Problem::generated("grid2d:8,8");
  EXPECT_EQ(grid.graph().num_vertices(), 64);
  EXPECT_EQ(grid.source(), "gen:grid2d:8,8");
  EXPECT_EQ(grid.digest(), api::Problem::generated("grid2d:8,8").digest());
  EXPECT_NE(grid.digest(), api::Problem::generated("grid2d:8,9").digest());

  const api::Problem atc = api::Problem::from_any("atc:2006");
  EXPECT_GT(atc.graph().num_vertices(), 100);

  EXPECT_THROW(api::Problem::generated("bogus:1"), Error);
  EXPECT_THROW(api::Problem::generated("grid2d:8"), Error);     // missing arg
  EXPECT_THROW(api::Problem::generated("grid2d:8,x"), Error);   // bad arg
  EXPECT_THROW(api::Problem::from_any("/nonexistent.graph"), Error);
  EXPECT_THROW(api::Problem().graph(), Error);

  // Weights count: same topology, different weights → different digest.
  const Graph base = make_grid2d(6, 6);
  EXPECT_NE(api::Problem::from_graph(with_random_weights(base, 1, 9, 1))
                .digest(),
            api::Problem::from_graph(base).digest());
}

// --------------------------------------------------------------- handle ----

TEST(SolveHandle, CancelReturnsAnytimeBest) {
  api::Engine engine;
  api::SolveSpec spec;
  spec.k = 3;
  spec.steps = 80'000'000;  // far beyond the test's patience
  const api::SolveHandle handle =
      engine.submit(api::Problem::generated("path:60"), spec);
  handle.cancel();
  const JobStatus status = handle.wait();
  EXPECT_EQ(status.state, JobState::Cancelled);
  if (status.result != nullptr) {  // cancelled mid-run: anytime best-so-far
    EXPECT_EQ(status.result->best.graph().num_vertices(), 60);
  }
  EXPECT_FALSE(handle.cancel());  // already terminal
}

TEST(SolveHandle, StreamsImprovementsAndPolls) {
  api::Engine engine;
  api::SolveSpec spec;
  spec.k = 4;
  spec.steps = 2000;
  std::mutex mu;
  std::vector<double> values;
  const api::SolveHandle handle = engine.submit(
      api::Problem::generated("torus:10,10"), spec,
      [&](double seconds, double value) {
        std::lock_guard lock(mu);
        EXPECT_GE(seconds, 0.0);
        values.push_back(value);
      });
  const JobStatus status = handle.wait();
  EXPECT_EQ(status.state, JobState::Done);
  EXPECT_EQ(handle.poll().state, JobState::Done);
  std::lock_guard lock(mu);
  ASSERT_FALSE(values.empty());
  for (std::size_t i = 1; i < values.size(); ++i) {
    EXPECT_LE(values[i], values[i - 1]) << "improvements must be monotone";
  }
  // The final improvement is the tracker's running value; best_value is a
  // fresh evaluation — identical up to incremental-update rounding.
  EXPECT_NEAR(values.back(), status.result->best_value,
              1e-6 * std::max(1.0, std::abs(status.result->best_value)));
}

TEST(SolveHandle, FailuresSurfaceThroughSolve) {
  api::Engine engine;
  api::SolveSpec spec;
  spec.method = "no_such_solver";
  EXPECT_THROW(engine.submit(api::Problem::generated("path:10"), spec), Error);
  EXPECT_THROW(engine.solve(api::Problem(), api::SolveSpec{}), Error);
}

// ---------------------------------------------------------------- cache ----

TEST(EngineCache, RepeatDeterministicSolvesHit) {
  api::EngineOptions options;
  options.cache_capacity = 2;
  api::Engine engine(options);
  const api::Problem problem = api::Problem::generated("grid2d:9,9");
  api::SolveSpec spec;
  spec.k = 4;
  spec.steps = 600;

  const auto first = engine.solve(problem, spec);
  const auto again = engine.solve(problem, spec);
  EXPECT_EQ(assignment_of(first.best), assignment_of(again.best));
  EXPECT_EQ(engine.cache_counters().hits, 1);
  EXPECT_EQ(engine.cache_counters().misses, 1);
  EXPECT_EQ(engine.cache_counters().entries, 1);

  // The cached handle is terminal at submit.
  const api::SolveHandle handle = engine.submit(problem, spec);
  EXPECT_TRUE(handle.cached());
  EXPECT_EQ(handle.job_id(), 0u);
  EXPECT_EQ(handle.wait().state, JobState::Done);

  // A different graph with the same spec must not collide.
  const auto other =
      engine.solve(api::Problem::generated("grid2d:9,10"), spec);
  EXPECT_EQ(engine.cache_counters().misses, 2);
  EXPECT_GT(other.best.graph().num_vertices(),
            first.best.graph().num_vertices());
}

TEST(EngineCache, CanonicalizationMakesEquivalentSpecsCollide) {
  api::EngineOptions options;
  options.cache_capacity = 4;
  api::Engine engine(options);
  const api::Problem problem = api::Problem::generated("grid2d:8,8");
  api::SolveSpec spec;
  spec.k = 3;
  spec.steps = 500;
  spec.method = "fusion_fission:nbt=800";
  engine.solve(problem, spec);
  // Whitespace form, cosmetic spaces, trailing comma: same canonical spec.
  spec.method = "fusion_fission  nbt=800 ";
  engine.solve(problem, spec);
  spec.method = "fusion_fission: nbt=800 ,";
  engine.solve(problem, spec);
  EXPECT_EQ(engine.cache_counters().hits, 2);
  EXPECT_EQ(engine.cache_counters().misses, 1);
}

// Evolve-mode solves draw on (and feed) the elite archive, so the same
// spec legitimately returns different partitions over time: they must
// never be cached — and never even move the counters (the empty key is
// dropped before accounting, like warm starts).
TEST(EngineCache, EvolveSolvesBypassTheCache) {
  api::SolveSpec spec;
  spec.k = 3;
  spec.steps = 500;
  EXPECT_FALSE(spec.cache_key().empty());
  spec.evolve = true;
  EXPECT_TRUE(spec.cache_key().empty());

  api::EngineOptions options;
  options.cache_capacity = 4;
  api::Engine engine(options);
  const api::Problem problem = api::Problem::generated("grid2d:8,8");
  engine.solve(problem, spec);
  engine.solve(problem, spec);
  EXPECT_EQ(engine.cache_counters().hits, 0);
  EXPECT_EQ(engine.cache_counters().misses, 0);
  EXPECT_EQ(engine.cache_counters().entries, 0);
  // The archive, by contrast, did learn from both runs.
  EXPECT_GE(engine.archive_counters().elites, 1);
}

// Evolve seeding is a solver capability: a solver that declares none
// (annealing) runs an evolve spec as the plain portfolio — the same
// partition with or without the flag, even with the archive populated.
TEST(EngineEvolve, SolverWithoutEvolveSupportIgnoresTheFlag) {
  api::Engine engine;
  const api::Problem problem = api::Problem::generated("grid2d:8,8");
  api::SolveSpec spec;
  spec.method = "annealing";
  spec.k = 3;
  spec.steps = 2000;
  spec.restarts = 2;
  const SolverResult plain = engine.solve(problem, spec);
  spec.evolve = true;
  const SolverResult evolved = engine.solve(problem, spec);
  EXPECT_GE(engine.archive_counters().elites, 1);
  EXPECT_TRUE(std::ranges::equal(evolved.best.assignment(),
                                 plain.best.assignment()));
  EXPECT_EQ(evolved.best_value, plain.best_value);
}

TEST(EngineCache, WallClockSolvesNeverTouchTheCache) {
  api::EngineOptions options;
  options.cache_capacity = 2;
  api::Engine engine(options);
  api::SolveSpec spec;  // wall clock, serial: not deterministic
  spec.k = 3;
  spec.budget_ms = 30;
  const api::Problem problem = api::Problem::generated("grid2d:8,8");
  engine.solve(problem, spec);
  engine.solve(problem, spec);
  EXPECT_EQ(engine.cache_counters().hits, 0);
  EXPECT_EQ(engine.cache_counters().misses, 0);
}

}  // namespace
}  // namespace ffp
