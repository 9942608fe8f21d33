#include "core/fusion_fission.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "graph/generators.hpp"
#include "metaheuristics/percolation.hpp"
#include "test_support.hpp"

namespace ffp {
namespace {

Graph test_graph() {
  return with_random_weights(make_grid2d(9, 9), 1.0, 7.0, 5);
}

TEST(FusionFission, InitializeReachesTargetPartCount) {
  const auto g = test_graph();
  FusionFissionOptions opt;
  opt.seed = 3;
  FusionFission ff(g, 6, opt);
  const auto init = ff.initialize();
  ffp::testing::expect_valid_partition(init);
  EXPECT_LE(init.num_nonempty_parts(), 8);
  EXPECT_GE(init.num_nonempty_parts(), 2);
}

TEST(FusionFission, RunReturnsExactlyKParts) {
  const auto g = test_graph();
  FusionFissionOptions opt;
  opt.seed = 5;
  FusionFission ff(g, 6, opt);
  const auto res = ff.run(StopCondition::after_steps(3000));
  ffp::testing::expect_valid_partition(res.best, 6);
  EXPECT_NEAR(objective(opt.objective).evaluate(res.best), res.best_value,
              1e-7);
}

TEST(FusionFission, VertexConservationThroughout) {
  // Every vertex stays assigned to exactly one part — guaranteed by the
  // Partition invariants, revalidated on the result.
  const auto g = make_torus(8, 8);
  FusionFissionOptions opt;
  opt.seed = 7;
  FusionFission ff(g, 4, opt);
  const auto res = ff.run(StopCondition::after_steps(2000));
  int total = 0;
  for (int q : res.best.nonempty_parts()) total += res.best.part_size(q);
  EXPECT_EQ(total, g.num_vertices());
}

TEST(FusionFission, ImprovesOverPercolation) {
  const auto g = test_graph();
  const auto base = percolation_partition(g, 6, {});
  const double base_value =
      objective(ObjectiveKind::MinMaxCut).evaluate(base);
  FusionFissionOptions opt;
  opt.seed = 9;
  FusionFission ff(g, 6, opt);
  const auto res = ff.run(StopCondition::after_steps(12000));
  EXPECT_LT(res.best_value, base_value);
}

TEST(FusionFission, TracksBestByPartCount) {
  const auto g = test_graph();
  FusionFissionOptions opt;
  opt.seed = 11;
  FusionFission ff(g, 6, opt);
  const auto res = ff.run(StopCondition::after_steps(6000));
  EXPECT_FALSE(res.best_by_part_count.empty());
  // The target count must have been visited, and typically neighbors too
  // (the paper: good solutions from k−5 to k+6).
  EXPECT_TRUE(res.best_by_part_count.count(6) == 1);
  EXPECT_GE(res.best_by_part_count.size(), 2u);
}

TEST(FusionFission, CountsFusionsAndFissions) {
  const auto g = test_graph();
  FusionFissionOptions opt;
  opt.seed = 13;
  FusionFission ff(g, 6, opt);
  const auto res = ff.run(StopCondition::after_steps(4000));
  EXPECT_GT(res.fusions, 0);
  EXPECT_GT(res.fissions, 0);
  EXPECT_GT(res.steps, 0);
}

TEST(FusionFission, ReheatsWhenFrozen) {
  const auto g = test_graph();
  FusionFissionOptions opt;
  opt.seed = 15;
  opt.nbt = 50;  // freeze quickly
  FusionFission ff(g, 6, opt);
  const auto res = ff.run(StopCondition::after_steps(2000));
  EXPECT_GT(res.reheats, 0);
}

TEST(FusionFission, DeterministicForSeed) {
  // Same seed, same bytes, on every generator family.
  const std::pair<const char*, Graph> families[] = {
      {"grid", make_grid2d(24, 24)},
      {"torus", make_torus(20, 20)},
      {"geometric", make_random_geometric(512, 0.11, 5)},
      {"powerlaw", make_power_law(512, 6.0, 2.5, 5)}};
  for (const auto& [name, g] : families) {
    SCOPED_TRACE(name);
    FusionFissionOptions opt;
    opt.seed = 17;
    FusionFission a(g, 8, opt), b(g, 8, opt);
    const auto ra = a.run(StopCondition::after_steps(3000));
    const auto rb = b.run(StopCondition::after_steps(3000));
    ffp::testing::expect_valid_partition(ra.best, 8);
    EXPECT_TRUE(std::ranges::equal(ra.best.assignment(),
                                   rb.best.assignment()));
    EXPECT_EQ(ra.best_value, rb.best_value);  // bitwise, not NEAR
    EXPECT_EQ(ra.fusions, rb.fusions);
    EXPECT_EQ(ra.fissions, rb.fissions);
    EXPECT_EQ(ra.ejections, rb.ejections);
    EXPECT_EQ(ra.reheats, rb.reheats);
  }
}

TEST(FusionFission, LawsOffAblationStillWorks) {
  const auto g = test_graph();
  FusionFissionOptions opt;
  opt.use_laws = false;
  opt.seed = 19;
  FusionFission ff(g, 6, opt);
  const auto res = ff.run(StopCondition::after_steps(3000));
  ffp::testing::expect_valid_partition(res.best, 6);
  EXPECT_EQ(res.ejections, 0);  // no laws → no ejections
}

TEST(FusionFission, ScalingAblationsWork) {
  const auto g = test_graph();
  for (auto scaling : {ScalingKind::BindingEnergy, ScalingKind::Linear,
                       ScalingKind::Identity}) {
    FusionFissionOptions opt;
    opt.scaling = scaling;
    opt.seed = 21;
    FusionFission ff(g, 5, opt);
    const auto res = ff.run(StopCondition::after_steps(2000));
    ffp::testing::expect_valid_partition(res.best, 5);
  }
}

TEST(FusionFission, RandomFissionAblation) {
  const auto g = test_graph();
  FusionFissionOptions opt;
  opt.percolation_fission = false;
  opt.seed = 23;
  FusionFission ff(g, 5, opt);
  const auto res = ff.run(StopCondition::after_steps(2000));
  ffp::testing::expect_valid_partition(res.best, 5);
}

TEST(FusionFission, WorksPerObjective) {
  const auto g = test_graph();
  for (auto kind : {ObjectiveKind::Cut, ObjectiveKind::NormalizedCut,
                    ObjectiveKind::MinMaxCut}) {
    FusionFissionOptions opt;
    opt.objective = kind;
    opt.seed = 25;
    FusionFission ff(g, 5, opt);
    const auto res = ff.run(StopCondition::after_steps(2500));
    ffp::testing::expect_valid_partition(res.best, 5);
    EXPECT_TRUE(std::isfinite(res.best_value)) << objective_name(kind);
  }
}

TEST(FusionFission, RecorderTracksTargetKImprovements) {
  const auto g = test_graph();
  FusionFissionOptions opt;
  opt.seed = 27;
  FusionFission ff(g, 6, opt);
  AnytimeRecorder rec;
  const auto res = ff.run(StopCondition::after_steps(8000), &rec);
  ASSERT_GE(rec.points().size(), 1u);
  for (std::size_t i = 1; i < rec.points().size(); ++i) {
    EXPECT_LE(rec.points()[i].best_value, rec.points()[i - 1].best_value);
  }
  EXPECT_NEAR(rec.points().back().best_value, res.best_value, 1e-9);
}

TEST(FusionFission, SmallGraphEdgeCases) {
  const auto g = make_path(6);
  FusionFissionOptions opt;
  opt.seed = 29;
  FusionFission ff(g, 2, opt);
  const auto res = ff.run(StopCondition::after_steps(800));
  ffp::testing::expect_valid_partition(res.best, 2);
}

TEST(FusionFission, RejectsBadConfiguration) {
  const auto g = make_path(8);
  FusionFissionOptions opt;
  EXPECT_THROW(FusionFission(g, 1, opt), Error);
  EXPECT_THROW(FusionFission(g, 9, opt), Error);
  opt.tmin = opt.tmax;
  EXPECT_THROW(FusionFission(g, 2, opt), Error);
  opt = {};
  opt.nbt = 0;
  EXPECT_THROW(FusionFission(g, 2, opt), Error);
}

}  // namespace
}  // namespace ffp
