#include "metaheuristics/annealing.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "metaheuristics/percolation.hpp"
#include "test_support.hpp"

namespace ffp {
namespace {

TEST(Annealing, ImprovesFromPercolationOnWeightedGrid) {
  const auto g = with_random_weights(make_grid2d(8, 8), 1.0, 8.0, 3);
  const auto init = percolation_partition(g, 4, {});
  AnnealingOptions opt;
  opt.objective = ObjectiveKind::MinMaxCut;
  opt.seed = 5;
  SimulatedAnnealing sa(g, 4, opt);
  const auto res = sa.run(init, StopCondition::after_steps(60000));
  const double init_value = objective(opt.objective).evaluate(init);
  EXPECT_LE(res.best_value, init_value);
  ffp::testing::expect_valid_partition(res.best, 4);
}

TEST(Annealing, BestValueMatchesBestPartition) {
  const auto g = make_torus(6, 6);
  const auto init = percolation_partition(g, 3, {});
  AnnealingOptions opt;
  opt.objective = ObjectiveKind::Cut;
  SimulatedAnnealing sa(g, 3, opt);
  const auto res = sa.run(init, StopCondition::after_steps(20000));
  EXPECT_NEAR(objective(ObjectiveKind::Cut).evaluate(res.best),
              res.best_value, 1e-6);
}

TEST(Annealing, RespectsStepBudget) {
  const auto g = make_grid2d(6, 6);
  const Partition init(g, 4);
  AnnealingOptions opt;
  SimulatedAnnealing sa(g, 4, opt);
  const auto res = sa.run(init, StopCondition::after_steps(500));
  EXPECT_LE(res.steps, 501);
}

TEST(Annealing, DeterministicForSeed) {
  const auto g = make_grid2d(7, 7);
  const auto init = percolation_partition(g, 4, {});
  AnnealingOptions opt;
  opt.seed = 77;
  SimulatedAnnealing a(g, 4, opt), b(g, 4, opt);
  const auto ra = a.run(init, StopCondition::after_steps(15000));
  const auto rb = b.run(init, StopCondition::after_steps(15000));
  EXPECT_DOUBLE_EQ(ra.best_value, rb.best_value);
  EXPECT_EQ(ra.accepted, rb.accepted);
}

TEST(Annealing, RunBytesArePinned) {
  // Golden digest recorded once: auto-calibrated tmax, then a fast schedule
  // that cools below high_temp_fraction · tmax, where targets are drawn
  // from the parts adjacent to the vertex.
  const auto g = with_random_weights(make_grid2d(12, 12), 1.0, 8.0, 21);
  const auto init = percolation_partition(g, 6, {});
  AnnealingOptions opt;
  opt.cooling = 0.9;
  opt.equilibrium_rejections = 64;
  opt.seed = 23;
  SimulatedAnnealing sa(g, 6, opt);
  const auto res = sa.run(init, StopCondition::after_steps(40000));
  // 0.9^7 < 0.5: at least seven coolings reach the connected-target draw.
  EXPECT_GE(res.coolings, 7);
  using ffp::testing::bits;
  EXPECT_EQ(ffp::testing::partition_digest(
                res.best, {bits(res.best_value),
                           static_cast<std::uint64_t>(res.steps),
                           static_cast<std::uint64_t>(res.accepted),
                           static_cast<std::uint64_t>(res.coolings)}),
            0x77da76af9020eff1ull);
}

TEST(Annealing, RecorderSeesMonotoneImprovement) {
  const auto g = with_random_weights(make_grid2d(8, 8), 1.0, 4.0, 9);
  const auto init = percolation_partition(g, 4, {});
  AnnealingOptions opt;
  opt.seed = 11;
  SimulatedAnnealing sa(g, 4, opt);
  AnytimeRecorder rec;
  rec.start();
  sa.run(init, StopCondition::after_steps(30000), &rec);
  ASSERT_GE(rec.points().size(), 1u);
  for (std::size_t i = 1; i < rec.points().size(); ++i) {
    EXPECT_LE(rec.points()[i].best_value, rec.points()[i - 1].best_value);
    EXPECT_GE(rec.points()[i].seconds, rec.points()[i - 1].seconds);
  }
}

TEST(Annealing, NeverEmptiesAPart) {
  const auto g = make_complete(10);
  const auto init = percolation_partition(g, 5, {});
  AnnealingOptions opt;
  opt.seed = 13;
  SimulatedAnnealing sa(g, 5, opt);
  const auto res = sa.run(init, StopCondition::after_steps(20000));
  EXPECT_EQ(res.best.num_nonempty_parts(), 5);
}

TEST(Annealing, CoolingHappens) {
  const auto g = make_grid2d(8, 8);
  const auto init = percolation_partition(g, 4, {});
  AnnealingOptions opt;
  opt.seed = 15;
  SimulatedAnnealing sa(g, 4, opt);
  const auto res = sa.run(init, StopCondition::after_steps(50000));
  EXPECT_GT(res.coolings, 0);
  EXPECT_GT(res.accepted, 0);
}

TEST(Annealing, ExplicitTemperatureIsUsed) {
  const auto g = make_grid2d(6, 6);
  const auto init = percolation_partition(g, 3, {});
  AnnealingOptions opt;
  opt.tmax = 1e-12;  // effectively greedy: only improving moves
  opt.seed = 17;
  SimulatedAnnealing sa(g, 3, opt);
  const auto res = sa.run(init, StopCondition::after_steps(20000));
  const double init_value = objective(opt.objective).evaluate(init);
  EXPECT_LE(res.best_value, init_value + 1e-9);
}

TEST(Annealing, RejectsBadConfiguration) {
  const auto g = make_grid2d(4, 4);
  AnnealingOptions opt;
  EXPECT_THROW(SimulatedAnnealing(g, 1, opt), Error);
  EXPECT_THROW(SimulatedAnnealing(g, 17, opt), Error);
  opt.cooling = 1.5;
  EXPECT_THROW(SimulatedAnnealing(g, 4, opt), Error);
}

TEST(Annealing, RejectsForeignInitialPartition) {
  const auto g = make_grid2d(4, 4);
  const auto other = make_grid2d(4, 4);
  AnnealingOptions opt;
  SimulatedAnnealing sa(g, 2, opt);
  const Partition foreign(other, 2);
  EXPECT_THROW(sa.run(foreign, StopCondition::after_steps(10)), Error);
}

}  // namespace
}  // namespace ffp
