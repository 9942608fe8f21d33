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
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
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

// Every out-of-range field is rejected by resolve(), with a message naming
// the SolveSpec field, before anything converts or runs it.
TEST(SolveSpec, ResolveRejectsOutOfRangeFieldsByName) {
  const auto expect_rejected = [](const api::SolveSpec& spec,
                                  const std::string& field) {
    try {
      spec.resolve();
      ADD_FAILURE() << "resolve() accepted a bad " << field;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("SolveSpec::" + field),
                std::string::npos)
          << e.what();
    }
  };
  api::SolveSpec base;
  base.restarts = 2;  // steps are derived from budget_ms
  api::SolveSpec spec = base;
  spec.k = 0;
  expect_rejected(spec, "k");
  spec = base;
  spec.restarts = 0;
  expect_rejected(spec, "restarts");
  spec = base;
  spec.steps = -1;
  expect_rejected(spec, "steps");
  spec = base;
  spec.budget_ms = -5;
  expect_rejected(spec, "budget_ms");
  spec = base;
  spec.budget_ms = std::numeric_limits<double>::quiet_NaN();
  expect_rejected(spec, "budget_ms");
  spec = base;
  spec.budget_ms = 1e300;  // 5e301 derived steps: beyond int64
  expect_rejected(spec, "budget_ms");
  spec = base;
  spec.queue_ttl_ms = -1;
  expect_rejected(spec, "queue_ttl_ms");
  spec = base;
  spec.checkpoint_every_ms = -1;
  expect_rejected(spec, "checkpoint_every_ms");

  // In range: a derived budget that fits, and a huge wall clock that is
  // never converted to steps.
  spec = base;
  spec.budget_ms = 1e17;
  EXPECT_EQ(spec.resolved_steps(), 5'000'000'000'000'000'000);
  spec.restarts = 1;
  spec.budget_ms = 1e300;
  EXPECT_EQ(spec.resolved_steps(), 0);
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

// A generator spec is user input: a bad argument fails with a plain message
// naming the family and the argument, never an FFP_CHECK expression or a
// source path. An integer argument is range-checked as a double first, so
// 4294967298 is not narrowed to 2 and 1e300 is never converted (that
// conversion is undefined behavior, which the sanitizer build reports).
TEST(Problem, BadGeneratorArgumentsFailPlainlyNamingTheArgument) {
  const std::pair<const char*, const char*> cases[] = {
      {"grid2d:4294967298,4", "grid2d argument 1 (rows)"},
      {"grid2d:1e300,4", "grid2d argument 1 (rows)"},
      {"grid2d:-1,4", "grid2d argument 1 (rows)"},
      {"grid2d:8,x", "grid2d argument 2"},
      {"grid2d:8", "grid2d argument 2 (cols)"},
      {"grid2d:8,2.5", "grid2d argument 2 (cols)"},
      {"geometric:100,0.1,1e300", "geometric argument 3 (seed)"},
      {"random:100,1e300", "random argument 2 (m)"},
      {"atc:1e300", "atc argument 1 (seed)"},
      {"grid2d:0,4", "grid2d argument 1 (rows)"},
      {"torus:2,2", "torus argument 1 (rows)"},
      {"cycle:2", "cycle argument 1 (n)"},
      {"path:0", "path argument 1 (n)"},
      {"star:0", "star argument 1 (leaves)"},
      {"barbell:1", "barbell argument 1 (clique)"},
      {"geometric:10,0", "geometric argument 2 (radius)"},
      {"powerlaw:100,4,1.5", "powerlaw argument 3 (gamma)"},
      {"random:10,1000", "random argument 2 (m)"},
      {"atc:1,4", "atc argument 2 (sectors)"},
      {"atc:1,20,5", "atc argument 3 (edges)"},
  };
  for (const auto& [spec, name] : cases) {
    try {
      (void)api::Problem::generated(spec);
      ADD_FAILURE() << spec << " was accepted";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(name), std::string::npos) << spec << ": " << what;
      EXPECT_EQ(what.find("FFP_CHECK"), std::string::npos) << what;
      EXPECT_EQ(what.find(".cpp:"), std::string::npos) << what;
    }
  }
}

TEST(Engine, KAboveTheVertexCountFailsPlainlyNamingBoth) {
  api::Engine engine;
  api::SolveSpec spec;
  spec.k = 100;
  spec.steps = 10;
  try {
    (void)engine.submit(api::Problem::generated("grid2d:8,8"), spec);
    ADD_FAILURE() << "k = 100 on 64 vertices was accepted";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("k = 100"), std::string::npos) << what;
    EXPECT_NE(what.find("64"), std::string::npos) << what;
    EXPECT_EQ(what.find("FFP_CHECK"), std::string::npos) << what;
    EXPECT_EQ(what.find(".cpp:"), std::string::npos) << what;
  }
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
  spec.method = "fusion_fission:bogus_key=1";
  EXPECT_THROW(engine.submit(api::Problem::generated("path:10"), spec), Error);
  EXPECT_THROW(engine.solve(api::Problem(), api::SolveSpec{}), Error);
}

// ----------------------------------------------------------- job record ----

// With the cache and the archive off, nothing keeps a finished job: once
// its handle and its Problem are gone, so is the graph.
TEST(JobRecord, AFinishedJobIsForgotten) {
  api::EngineOptions options;
  options.evolve_capacity = 0;  // and no cache: cache_capacity is 0
  api::Engine engine(options);
  std::weak_ptr<const Graph> graph;
  {
    const api::Problem problem = api::Problem::from_graph(make_grid2d(9, 9));
    graph = problem.share();
    api::SolveSpec spec;
    spec.k = 4;
    spec.steps = 600;
    const api::SolveHandle handle = engine.submit(problem, spec);
    EXPECT_EQ(handle.wait().state, JobState::Done);
  }
  engine.drain();  // the runner is past the job's terminal path
  EXPECT_TRUE(graph.expired());
}

// A cached result co-owns its graph: it stays usable after its job and
// its Problem are gone, and a hit through an equal graph serves it.
TEST(JobRecord, ACachedResultOutlivesItsJobAndProblem) {
  api::EngineOptions options;
  options.cache_capacity = 4;
  api::Engine engine(options);
  api::SolveSpec spec;
  spec.k = 4;
  spec.steps = 600;
  {
    const api::Problem problem = api::Problem::from_graph(make_grid2d(9, 9));
    EXPECT_EQ(engine.submit(problem, spec).wait().state, JobState::Done);
  }
  engine.drain();
  const api::SolveHandle hit =
      engine.submit(api::Problem::from_graph(make_grid2d(9, 9)), spec);
  ASSERT_TRUE(hit.cached());
  const JobStatus status = hit.wait();
  ASSERT_NE(status.result, nullptr);
  EXPECT_EQ(status.result->best.graph().num_vertices(), 81);
  status.result->best.validate();
}

// engine.hpp's promise: a handle outliving its Engine can still be waited
// on and cancelled. The engine's destructor cancels the queued solve and
// lets the running one finish.
TEST(JobRecord, AHandleOutlivesItsEngine) {
  api::SolveHandle running;
  api::SolveHandle queued;
  {
    api::Engine engine;  // one runner
    api::SolveSpec slow;
    slow.k = 3;
    slow.budget_ms = 200;  // wall clock: the destructor waits it out
    running = engine.submit(api::Problem::generated("grid2d:8,8"), slow);
    while (running.poll().state == JobState::Queued) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    api::SolveSpec spec;
    spec.k = 3;
    spec.steps = 500;
    queued = engine.submit(api::Problem::generated("grid2d:8,8"), spec);
  }
  const JobStatus done = running.wait();
  EXPECT_EQ(done.state, JobState::Done);
  ASSERT_NE(done.result, nullptr);
  EXPECT_EQ(done.result->best.graph().num_vertices(), 64);
  EXPECT_FALSE(running.cancel());
  EXPECT_EQ(queued.wait().state, JobState::Cancelled);
  EXPECT_TRUE(queued.wait_for(0).has_value());
  EXPECT_EQ(queued.poll().state, JobState::Cancelled);
  EXPECT_FALSE(queued.cancel());
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
