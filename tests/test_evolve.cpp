// The evolutionary engine (src/evolve/): archive admission/eviction
// policy, overlay crossover properties, the memetic never-worsen-the-
// better-parent contract on all four generator families, plan determinism
// and thread-count invariance through the facade, persisted-population
// round trips, and the acceptance criterion — sequential evolve
// submissions yield monotone non-increasing best cuts.
#include "evolve/elite_archive.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "evolve/operators.hpp"
#include "evolve/plan.hpp"
#include "ffp/api.hpp"
#include "graph/generators.hpp"
#include "partition/objectives.hpp"
#include "persist/atomic_file.hpp"
#include "service/thread_budget.hpp"
#include "solver/registry.hpp"

namespace ffp {
namespace {

Graph family_graph(const std::string& family) {
  if (family == "grid") return make_grid2d(12, 12);
  if (family == "torus") return make_torus(12, 12);
  if (family == "geometric") return make_random_geometric(140, 0.18, 5);
  return make_power_law(140, 6.0, 2.5, 5);
}

const std::vector<std::string> kFamilies = {"grid", "torus", "geometric",
                                            "powerlaw"};

std::string tmp_dir(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::vector<int> assignment_of(const Partition& p) {
  return {p.assignment().begin(), p.assignment().end()};
}

/// n-vertex assignment: `flips` leading vertices in part `part`, rest 0.
std::vector<int> blocky(int n, int flips, int part) {
  std::vector<int> out(static_cast<std::size_t>(n), 0);
  for (int i = 0; i < flips; ++i) out[static_cast<std::size_t>(i)] = part;
  return out;
}

// ---------------------------------------------------------------- archive --

TEST(EliteArchive, AdmissionEvictionAndDiversity) {
  evolve::ArchiveOptions opt;
  opt.capacity = 3;
  evolve::EliteArchive archive(opt);
  const evolve::PopulationKey key{123, 4, ObjectiveKind::MinMaxCut};
  const int n = 256;  // near-duplicate threshold: max(1, 256/64) = 4

  std::vector<int> a1(n, 0), a2(n, 0), a3(n, 0);
  for (int i = 0; i < 64; ++i) a1[static_cast<std::size_t>(i)] = 1;
  for (int i = 64; i < 128; ++i) a2[static_cast<std::size_t>(i)] = 1;
  for (int i = 128; i < 192; ++i) a3[static_cast<std::size_t>(i)] = 1;
  EXPECT_TRUE(archive.admit(key, a1, 10.0));
  EXPECT_TRUE(archive.admit(key, a2, 8.0));
  EXPECT_TRUE(archive.admit(key, a3, 9.0));

  // Exact duplicates never re-enter; a lower rendering refreshes in place.
  EXPECT_FALSE(archive.admit(key, a1, 10.0));
  EXPECT_FALSE(archive.admit(key, a1, 9.5));
  auto snap = archive.snapshot(key);
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].value, 8.0);  // best-first order
  EXPECT_EQ(snap[1].value, 9.0);
  EXPECT_EQ(snap[2].value, 9.5);  // refreshed down from 10.0

  // At capacity: worse than the worst is rejected, better displaces it.
  const std::vector<int> a4 = blocky(n, 32, 2);
  EXPECT_FALSE(archive.admit(key, a4, 11.0));
  EXPECT_TRUE(archive.admit(key, a4, 7.0));
  snap = archive.snapshot(key);
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].value, 7.0);
  EXPECT_EQ(snap[2].value, 9.0);  // the refreshed a1 was the evictee

  // Near-duplicate (hamming 1 < 4 from a4): equal value is rejected; a
  // strict improvement REPLACES its sibling instead of growing the
  // population with one basin.
  std::vector<int> near = a4;
  near[0] = 3;
  EXPECT_FALSE(archive.admit(key, near, 7.0));
  EXPECT_TRUE(archive.admit(key, near, 6.5));
  snap = archive.snapshot(key);
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].value, 6.5);
  EXPECT_EQ(*snap[0].assignment, near);

  const evolve::ArchiveCounters c = archive.counters();
  EXPECT_EQ(c.elites, 3);
  EXPECT_EQ(c.populations, 1);
  EXPECT_EQ(c.capacity, 3);
  EXPECT_EQ(c.admitted, 5);  // a1 a2 a3 + a4 + near
  EXPECT_EQ(c.evicted, 2);   // refreshed-a1 displaced, a4 replaced
  EXPECT_EQ(c.rejected, 4);
  EXPECT_GE(c.lookups, 3);
  EXPECT_GE(c.hits, 3);
}

TEST(EliteArchive, DistinctKeysAreDistinctPopulationsAndZeroCapacityIsOff) {
  evolve::EliteArchive archive({2, ""});
  const std::vector<int> a = blocky(64, 16, 1);
  EXPECT_TRUE(archive.admit({1, 2, ObjectiveKind::Cut}, a, 5.0));
  EXPECT_TRUE(archive.admit({1, 3, ObjectiveKind::Cut}, a, 5.0));
  EXPECT_TRUE(archive.admit({2, 2, ObjectiveKind::Cut}, a, 5.0));
  EXPECT_TRUE(archive.admit({1, 2, ObjectiveKind::NormalizedCut}, a, 5.0));
  EXPECT_EQ(archive.counters().populations, 4);
  EXPECT_EQ(archive.best_value({1, 2, ObjectiveKind::Cut}).value_or(-1), 5.0);
  EXPECT_FALSE(archive.best_value({9, 9, ObjectiveKind::Cut}).has_value());

  evolve::EliteArchive off({0, ""});
  EXPECT_FALSE(off.enabled());
  EXPECT_FALSE(off.admit({1, 2, ObjectiveKind::Cut}, a, 5.0));
  EXPECT_TRUE(off.snapshot({1, 2, ObjectiveKind::Cut}).empty());
}

TEST(EliteArchive, PersistedPopulationsSurviveRestart) {
  const std::string dir = tmp_dir("evolve_persist");
  for (const std::string& name : persist::list_dir(dir)) {
    persist::remove_file(dir + "/" + name);
  }
  const evolve::PopulationKey key{0xabcdef12u, 3, ObjectiveKind::Cut};
  const std::vector<int> a1 = blocky(96, 30, 1);
  const std::vector<int> a2 = blocky(96, 60, 2);
  {
    evolve::EliteArchive archive({4, dir});
    EXPECT_TRUE(archive.admit(key, a1, 4.25));
    EXPECT_TRUE(archive.admit(key, a2, 3.5));
  }
  // A fresh archive over the same directory reloads the population:
  // values, assignments, and admission stamps all round-trip.
  evolve::EliteArchive reloaded({4, dir});
  const auto snap = reloaded.snapshot(key);
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].value, 3.5);
  EXPECT_EQ(*snap[0].assignment, a2);
  EXPECT_EQ(snap[1].value, 4.25);
  EXPECT_EQ(*snap[1].assignment, a1);
  EXPECT_GT(snap[0].stamp, snap[1].stamp);

  // Damage is crash-only: a corrupted population file is removed and
  // forgotten, never trusted.
  ASSERT_EQ(persist::list_dir(dir).size(), 1u);
  const std::string path = dir + "/" + persist::list_dir(dir).front();
  {
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << "garbage";
  }
  evolve::EliteArchive after_damage({4, dir});
  EXPECT_TRUE(after_damage.snapshot(key).empty());
  EXPECT_TRUE(persist::list_dir(dir).empty());
}

// --------------------------------------------------------------- overlay ---

TEST(Operators, OverlayIsACommonRefinementCoveringAllVertices) {
  const Graph g = family_graph("grid");
  const std::size_t n = static_cast<std::size_t>(g.num_vertices());
  // Vertical vs horizontal halves of the 12x12 grid.
  std::vector<int> a(n), b(n);
  for (std::size_t v = 0; v < n; ++v) {
    a[v] = static_cast<int>(v % 12 < 6 ? 0 : 1);
    b[v] = static_cast<int>(v / 12 < 6 ? 0 : 1);
  }
  const std::vector<int> overlay = evolve::overlay_assignment(g, a, b);
  ASSERT_EQ(overlay.size(), n);

  int max_label = 0;
  for (const int p : overlay) {
    EXPECT_GE(p, 0);
    max_label = std::max(max_label, p);
  }
  // The quadrant overlay: exactly 4 blocks, labeled 0..3 in discovery
  // order, each constant in BOTH parents (the refinement property).
  EXPECT_EQ(max_label, 3);
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = u + 1; v < n; ++v) {
      if (overlay[u] == overlay[v]) {
        EXPECT_EQ(a[u], a[v]);
        EXPECT_EQ(b[u], b[v]);
      }
    }
  }
  // Identical parents: the overlay is the connected-component refinement
  // of the parent itself — on a connected agreement region, the parent.
  const std::vector<int> self = evolve::overlay_assignment(g, a, a);
  int self_max = 0;
  for (const int p : self) self_max = std::max(self_max, p);
  EXPECT_EQ(self_max, 1);
}

// ---------------------------------------------------- memetic contract -----

// The acceptance-pinned crossover contract, on every generator family:
// an offspring bred from two FF parents via overlay warm start + the
// better parent riding the incumbent channel NEVER evaluates worse than
// that better parent — even under a tiny offspring budget.
TEST(Operators, CrossoverNeverWorsensBetterParentOnAllFamilies) {
  for (const std::string& family : kFamilies) {
    const Graph g = family_graph(family);
    const SolverPtr solver = make_solver("fusion_fission");
    SolverRequest request;
    request.k = 5;
    request.objective = ObjectiveKind::MinMaxCut;
    request.stop = StopCondition::after_steps(900);

    request.seed = 41;
    const SolverResult p1 = solver->run(g, request);
    request.seed = 42;
    const SolverResult p2 = solver->run(g, request);
    const SolverResult& better = p1.best_value <= p2.best_value ? p1 : p2;
    const SolverResult& other = p1.best_value <= p2.best_value ? p2 : p1;

    SolverRequest offspring = request;
    offspring.seed = 43;
    offspring.stop = StopCondition::after_steps(60);  // starved on purpose
    offspring.warm_start = std::make_shared<const std::vector<int>>(
        evolve::overlay_assignment(g, better.best.assignment(),
                                   other.best.assignment()));
    offspring.warm_start_value = std::numeric_limits<double>::infinity();
    offspring.incumbent = std::make_shared<const std::vector<int>>(
        assignment_of(better.best));
    offspring.incumbent_value = better.best_value;
    const SolverResult child = solver->run(g, offspring);
    EXPECT_LE(child.best_value, better.best_value)
        << family << ": offspring worsened the better parent";
  }
}

// mlff honors the incumbent as a post-hoc guard (its coarsening cannot
// seed mid-search): same contract, direct adapter path.
TEST(Operators, MlffHonorsIncumbentGuard) {
  const Graph g = family_graph("geometric");
  const SolverPtr solver = make_solver("mlff");
  SolverRequest request;
  request.k = 4;
  request.objective = ObjectiveKind::MinMaxCut;
  request.stop = StopCondition::after_steps(400);
  request.seed = 7;
  const SolverResult parent = solver->run(g, request);

  SolverRequest capped = request;
  capped.seed = 8;
  capped.stop = StopCondition::after_steps(40);
  capped.incumbent =
      std::make_shared<const std::vector<int>>(assignment_of(parent.best));
  capped.incumbent_value = parent.best_value;
  const SolverResult child = solver->run(g, capped);
  EXPECT_LE(child.best_value, parent.best_value);
}

// -------------------------------------------------------------- planning ---

TEST(EvolvePlan, DeterministicShapeAndParentSelection) {
  evolve::EliteArchive archive({8, ""});
  const evolve::PopulationKey key{77, 3, ObjectiveKind::MinMaxCut};
  const int n = 128;
  archive.admit(key, blocky(n, 20, 1), 5.0);
  archive.admit(key, blocky(n, 40, 1), 4.0);
  archive.admit(key, blocky(n, 60, 1), 6.0);

  const auto plan = evolve::plan_evolve(archive, key, 7, 99,
                                        /*allow_crossover=*/true,
                                        static_cast<std::size_t>(n));
  ASSERT_EQ(plan.restarts.size(), 7u);
  ASSERT_EQ(plan.population.size(), 3u);
  EXPECT_EQ(plan.population[0].value, 4.0);  // best-first snapshot

  // Restart 0 is the monotonicity anchor: mutate the best elite.
  EXPECT_EQ(plan.restarts[0].kind, evolve::RestartKind::Mutate);
  EXPECT_EQ(plan.restarts[0].parent_a, 0);
  // The i>=1 cycle: crossover, cold, mutate, crossover, ...
  EXPECT_EQ(plan.restarts[1].kind, evolve::RestartKind::Crossover);
  EXPECT_EQ(plan.restarts[2].kind, evolve::RestartKind::Cold);
  EXPECT_EQ(plan.restarts[3].kind, evolve::RestartKind::Mutate);
  EXPECT_EQ(plan.restarts[4].kind, evolve::RestartKind::Crossover);
  for (const auto& r : plan.restarts) {
    if (r.kind == evolve::RestartKind::Crossover) {
      EXPECT_GE(r.parent_a, 0);
      EXPECT_LT(r.parent_a, r.parent_b);  // distinct, better-first
      EXPECT_LT(r.parent_b, 3);
    }
  }

  // Pure function of (archive state, seed): same inputs, same plan.
  const auto again = evolve::plan_evolve(archive, key, 7, 99, true,
                                         static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < plan.restarts.size(); ++i) {
    EXPECT_EQ(plan.restarts[i].kind, again.restarts[i].kind);
    EXPECT_EQ(plan.restarts[i].parent_a, again.restarts[i].parent_a);
    EXPECT_EQ(plan.restarts[i].parent_b, again.restarts[i].parent_b);
  }

  // No crossover permission (mlff) → mutate/cold only.
  const auto mlff = evolve::plan_evolve(archive, key, 7, 99, false,
                                        static_cast<std::size_t>(n));
  for (const auto& r : mlff.restarts) {
    EXPECT_NE(r.kind, evolve::RestartKind::Crossover);
  }

  // Empty population → every restart degrades to cold.
  const evolve::PopulationKey unseen{1234, 3, ObjectiveKind::MinMaxCut};
  const auto cold = evolve::plan_evolve(archive, unseen, 4, 99, true, 128);
  for (const auto& r : cold.restarts) {
    EXPECT_EQ(r.kind, evolve::RestartKind::Cold);
  }
  EXPECT_EQ(cold.seeded, 0);
}

// ---------------------------------------------------------------- engine ---

api::SolveSpec evolve_spec(int k, std::uint64_t seed, std::int64_t steps,
                           int restarts) {
  api::SolveSpec spec;
  spec.k = k;
  spec.seed = seed;
  spec.steps = steps;
  spec.restarts = restarts;
  spec.evolve = true;
  return spec;
}

// Acceptance criterion: for a fixed spec and archive state the evolve
// portfolio is byte-identical at budgets of 1, 4 and 8 workers.
TEST(EvolveEngine, ByteIdenticalAcrossThreadCounts) {
  const Graph g = family_graph("torus");
  std::vector<std::vector<int>> results;
  for (const unsigned threads : {1u, 4u, 8u}) {
    ThreadBudget budget(threads);
    api::EngineOptions options;
    options.budget = &budget;
    api::Engine engine(options);
    // Identical priming: one deterministic plain solve feeds the archive
    // the same elite in both engines.
    api::SolveSpec prime;
    prime.k = 4;
    prime.seed = 11;
    prime.steps = 900;
    engine.solve(api::Problem::viewing(g), prime);
    results.push_back(assignment_of(
        engine.solve(api::Problem::viewing(g), evolve_spec(4, 33, 700, 4))
            .best));
    EXPECT_LE(budget.peak_in_use(), budget.total());
  }
  EXPECT_EQ(results[0], results[1])
      << "evolve portfolio diverged across thread counts";
  EXPECT_EQ(results[0], results[2])
      << "evolve portfolio diverged across thread counts";
}

// Acceptance criterion: five sequential evolve submissions on one graph
// yield monotone non-increasing best values, the 5th no worse than the
// 1st — and strictly better on at least 2 of the 4 families.
TEST(EvolveEngine, SequentialSubmissionsAreMonotoneNonIncreasing) {
  int strictly_improved = 0;
  for (const std::string& family : kFamilies) {
    const Graph g = family_graph(family);
    api::Engine engine;
    const api::Problem problem = api::Problem::viewing(g);
    std::vector<double> values;
    for (int round = 0; round < 5; ++round) {
      const auto result = engine.solve(
          problem,
          evolve_spec(6, 500 + static_cast<std::uint64_t>(round), 1500, 3));
      values.push_back(result.best_value);
    }
    for (std::size_t i = 1; i < values.size(); ++i) {
      EXPECT_LE(values[i], values[i - 1])
          << family << " regressed at round " << i;
    }
    EXPECT_LE(values.back(), values.front()) << family;
    if (values.back() < values.front()) ++strictly_improved;
  }
  EXPECT_GE(strictly_improved, 2)
      << "evolution failed to strictly improve on at least 2 families";
}

// Evolve mode on a cold engine degrades to a plain portfolio (no archive
// yet, all restarts cold) and still feeds the archive for next time.
TEST(EvolveEngine, ColdStartFeedsTheArchive) {
  api::Engine engine;
  const api::Problem problem = api::Problem::generated("grid2d:10,10");
  EXPECT_EQ(engine.archive_counters().elites, 0);
  engine.solve(problem, evolve_spec(3, 5, 400, 2));
  const evolve::ArchiveCounters c = engine.archive_counters();
  EXPECT_GE(c.elites, 1);
  EXPECT_GE(c.admitted, 1);
  EXPECT_TRUE(engine
                  .archive_best(problem.digest(), 3, ObjectiveKind::MinMaxCut)
                  .has_value());
  // evolve_capacity = 0 disables the subsystem end to end.
  api::EngineOptions off;
  off.evolve_capacity = 0;
  api::Engine dark(off);
  dark.solve(problem, evolve_spec(3, 5, 400, 2));
  EXPECT_EQ(dark.archive_counters().elites, 0);
}

}  // namespace
}  // namespace ffp
