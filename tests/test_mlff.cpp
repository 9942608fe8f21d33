// The multilevel×fusion-fission hybrid: project_partition's conservation
// contract, the mlff pipeline's validity/determinism guarantees, and the
// ffp::api cache behavior of mlff specs.
#include "multilevel/mlff.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "ffp/api.hpp"
#include "graph/generators.hpp"
#include "solver/registry.hpp"
#include "test_support.hpp"

namespace ffp {
namespace {

std::vector<int> assignment_of(const Partition& p) {
  return {p.assignment().begin(), p.assignment().end()};
}

// ------------------------------------------------- project_partition ----

TEST(ProjectPartition, IdentityOnEmptyChain) {
  const std::vector<CoarseLevel> chain;
  const std::vector<int> parts = {0, 2, 1, 1, 0};
  const auto out = project_partition(chain, 0, parts);
  EXPECT_EQ(out, parts);
}

TEST(ProjectPartition, PreservesWeightsAndCut) {
  // Contraction sums pair weights and combines parallel edges (merge_into
  // semantics), so a coarse partition and its projection must agree on
  // every part's vertex weight and on the cut weight between every pair.
  const auto g = with_random_weights(make_grid2d(12, 12), 1.0, 4.0, 9);
  CoarsenOptions opt;
  opt.min_vertices = 20;
  const auto chain = coarsen_chain(g, opt);
  ASSERT_FALSE(chain.empty());
  const Graph& coarse = chain.back().coarse;

  std::vector<int> coarse_parts(
      static_cast<std::size_t>(coarse.num_vertices()));
  for (std::size_t v = 0; v < coarse_parts.size(); ++v) {
    coarse_parts[v] = static_cast<int>(v % 3);
  }
  const auto cp = Partition::from_assignment(coarse, coarse_parts, 3);

  const auto fine_parts = project_partition(chain, chain.size(), coarse_parts);
  ASSERT_EQ(fine_parts.size(), static_cast<std::size_t>(g.num_vertices()));
  const auto fp = Partition::from_assignment(g, fine_parts, 3);

  EXPECT_NEAR(fp.edge_cut(), cp.edge_cut(), 1e-9);
  for (int q = 0; q < 3; ++q) {
    EXPECT_NEAR(fp.part_vertex_weight(q), cp.part_vertex_weight(q), 1e-9)
        << "part " << q;
    EXPECT_NEAR(fp.part_cut(q), cp.part_cut(q), 1e-9) << "part " << q;
  }
}

TEST(ProjectPartition, KPartsSurviveProjection) {
  const auto g = make_torus(16, 16);
  CoarsenOptions opt;
  opt.min_vertices = 32;
  const auto chain = coarsen_chain(g, opt);
  ASSERT_FALSE(chain.empty());
  const int nc = chain.back().coarse.num_vertices();
  const int k = 8;
  std::vector<int> coarse_parts(static_cast<std::size_t>(nc));
  for (int v = 0; v < nc; ++v) {
    coarse_parts[static_cast<std::size_t>(v)] = v % k;
  }
  const auto fine = project_partition(chain, chain.size(), coarse_parts);
  std::set<int> ids(fine.begin(), fine.end());
  EXPECT_EQ(ids.size(), static_cast<std::size_t>(k));
  // Every fine vertex inherits its coarse image's id — spot-check through
  // the prolong path, which implements the same piecewise-constant map.
  std::vector<double> coarse_vals(coarse_parts.begin(), coarse_parts.end());
  const auto prolonged = prolong_to_finest(chain, chain.size(), coarse_vals);
  for (std::size_t v = 0; v < fine.size(); ++v) {
    EXPECT_EQ(fine[v], static_cast<int>(prolonged[v]));
  }
}

TEST(ProjectPartition, RejectsSizeMismatch) {
  const auto g = make_grid2d(10, 10);
  CoarsenOptions opt;
  opt.min_vertices = 16;
  const auto chain = coarsen_chain(g, opt);
  ASSERT_FALSE(chain.empty());
  const std::vector<int> wrong(3, 0);
  EXPECT_THROW(project_partition(chain, chain.size(), wrong), Error);
}

// ----------------------------------------------------- mlff pipeline ----

Graph family_graph(const std::string& family) {
  if (family == "grid") return make_grid2d(40, 40);
  if (family == "torus") return make_torus(40, 40);
  if (family == "geometric") return make_random_geometric(1600, 0.055, 5);
  return make_power_law(1600, 6.0, 2.5, 5);
}

TEST(Mlff, ValidPartitionAndValueMatchesObjective) {
  const auto g = make_grid2d(40, 40);
  MlffOptions opt;
  opt.coarse_n = 128;
  opt.seed = 7;
  const auto res =
      mlff_partition(g, 8, opt, StopCondition::after_steps(3000));
  ffp::testing::expect_valid_partition(res.best, 8);
  EXPECT_GT(res.levels, 0);
  EXPECT_LE(res.coarse_vertices, 256);  // matching halves at most
  EXPECT_NEAR(objective(opt.objective).evaluate(res.best), res.best_value,
              1e-9);
}

TEST(Mlff, RefinementImprovesOnRawProjection) {
  const auto g = make_grid2d(40, 40);
  MlffOptions opt;
  opt.coarse_n = 128;
  opt.seed = 7;
  MlffOptions raw = opt;
  raw.refine_steps = 0;
  const auto stop = StopCondition::after_steps(3000);
  const auto refined = mlff_partition(g, 8, opt, stop);
  const auto unrefined = mlff_partition(g, 8, raw, stop);
  EXPECT_GT(refined.refine_moves, 0);
  EXPECT_LE(refined.best_value, unrefined.best_value);
}

TEST(Mlff, DeterministicForSeedAllFamilies) {
  for (const char* family : {"grid", "torus", "geometric", "powerlaw"}) {
    const Graph g = family_graph(family);
    MlffOptions opt;
    opt.seed = 2006;
    const auto stop = StopCondition::after_steps(2000);
    EXPECT_EQ(assignment_of(mlff_partition(g, 16, opt, stop).best),
              assignment_of(mlff_partition(g, 16, opt, stop).best))
        << family;
  }
}

TEST(Mlff, SmallGraphSkipsCoarsening) {
  // Below the coarse target the chain is empty and mlff degenerates to
  // pure fusion-fission on the input graph.
  const auto g = make_grid2d(8, 8);
  MlffOptions opt;
  opt.seed = 3;
  const auto res = mlff_partition(g, 4, opt, StopCondition::after_steps(800));
  EXPECT_EQ(res.levels, 0);
  EXPECT_EQ(res.coarse_vertices, g.num_vertices());
  ffp::testing::expect_valid_partition(res.best, 4);
}

TEST(Mlff, RegisteredInRegistryAndSpecRoundTrips) {
  const auto& reg = SolverRegistry::builtin();
  ASSERT_TRUE(reg.contains("mlff"));
  const auto solver = reg.create_from_spec(
      "mlff:coarse_n=128,refine_steps=1000,matching=random");
  EXPECT_EQ(solver->name(), "mlff");
  EXPECT_TRUE(solver->is_metaheuristic());
  EXPECT_THROW(reg.create_from_spec("mlff:bogus=1"), Error);
  EXPECT_THROW(reg.create_from_spec("mlff:threads=2"), Error);
  // Canonicalization sorts and validates the full option set.
  EXPECT_EQ(reg.canonical_spec("mlff: refine_steps=1000 , coarse_n=128"),
            "mlff:coarse_n=128,refine_steps=1000");
}

TEST(Mlff, SolverRunHonorsRequest) {
  const auto g = make_grid2d(32, 32);
  SolverRequest request;
  request.k = 8;
  request.objective = ObjectiveKind::NormalizedCut;
  request.stop = StopCondition::after_steps(2000);
  request.seed = 11;
  const auto solver = make_solver("mlff:coarse_n=128");
  const auto res = solver->run(g, request);
  ffp::testing::expect_valid_partition(res.best, 8);
  EXPECT_NEAR(objective(ObjectiveKind::NormalizedCut).evaluate(res.best),
              res.best_value, 1e-9);
  EXPECT_GT(res.stat("levels"), 0.0);
  EXPECT_GT(res.stat("steps"), 0.0);
}

// ------------------------------------------------------- api + cache ----

TEST(Mlff, ApiRepeatSubmissionHitsResultCache) {
  api::EngineOptions options;
  options.cache_capacity = 4;
  api::Engine engine(options);
  const api::Problem problem = api::Problem::generated("grid2d:24,24");
  api::SolveSpec spec;
  spec.method = "mlff:coarse_n=128,refine_steps=1000";
  spec.k = 8;
  spec.restarts = 2;
  spec.budget_ms = 50.0;  // restarts → deterministic step budget derived

  const auto resolved = spec.resolve();
  EXPECT_TRUE(resolved.metaheuristic);
  EXPECT_TRUE(resolved.deterministic)
      << "mlff portfolios must trigger the resolved_steps rule";
  EXPECT_GT(resolved.steps, 0);

  const auto first = engine.solve(problem, spec);
  const auto again = engine.solve(problem, spec);
  EXPECT_EQ(assignment_of(first.best), assignment_of(again.best));
  EXPECT_EQ(engine.cache_counters().hits, 1);
  EXPECT_EQ(engine.cache_counters().misses, 1);

  // Equivalent spelling of the same spec canonicalizes to the same key.
  api::SolveSpec same = spec;
  same.method = "mlff: refine_steps=1000 , coarse_n=128";
  engine.solve(problem, same);
  EXPECT_EQ(engine.cache_counters().hits, 2);

  // A different option value is a different result identity.
  api::SolveSpec other = spec;
  other.method = "mlff:coarse_n=256,refine_steps=1000";
  engine.solve(problem, other);
  EXPECT_EQ(engine.cache_counters().misses, 2);
}

}  // namespace
}  // namespace ffp
