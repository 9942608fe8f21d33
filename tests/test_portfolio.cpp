#include "solver/portfolio.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "solver/registry.hpp"
#include "test_support.hpp"

namespace ffp {
namespace {

const Graph& grid() {
  static const Graph g = make_grid2d(9, 7);
  return g;
}

/// Step-budget request: metaheuristic runs become deterministic functions
/// of the seed, which is the portfolio determinism contract's precondition.
SolverRequest step_request(int k = 4, std::uint64_t seed = 17,
                           std::int64_t steps = 400) {
  SolverRequest request;
  request.k = k;
  request.objective = ObjectiveKind::MinMaxCut;
  request.stop = StopCondition::after_steps(steps);
  request.seed = seed;
  return request;
}

TEST(SeedStream, DeterministicAndDistinct) {
  const auto a = PortfolioRunner::seed_stream(123, 16);
  const auto b = PortfolioRunner::seed_stream(123, 16);
  EXPECT_EQ(a, b);
  EXPECT_EQ(std::set<std::uint64_t>(a.begin(), a.end()).size(), a.size());
  // A prefix of a longer stream matches the shorter stream.
  const auto longer = PortfolioRunner::seed_stream(123, 32);
  EXPECT_TRUE(std::equal(a.begin(), a.end(), longer.begin()));
  EXPECT_NE(PortfolioRunner::seed_stream(124, 16), a);
}

TEST(Portfolio, RejectsBadConfiguration) {
  EXPECT_THROW(PortfolioRunner(SolverPtr{}, {1, 1}), Error);
  EXPECT_THROW(PortfolioRunner(make_solver("percolation"), {0, 1}), Error);
}

TEST(Portfolio, SingleRestartMatchesDirectRunWithStreamSeed) {
  const auto solver = make_solver("fusion_fission");
  SolverRequest request = step_request();
  const auto team = PortfolioRunner(solver, {1, 2}).run(grid(), request);

  SolverRequest direct = request;
  direct.seed = PortfolioRunner::seed_stream(request.seed, 1)[0];
  const auto solo = solver->run(grid(), direct);
  EXPECT_TRUE(std::equal(team.best.assignment().begin(),
                         team.best.assignment().end(),
                         solo.best.assignment().begin()));
  EXPECT_DOUBLE_EQ(team.best_value, solo.best_value);
}

TEST(Portfolio, BestOfRestartsIsMinOverIndividualRuns) {
  const auto solver = make_solver("annealing");
  const int restarts = 5;
  SolverRequest request = step_request(4, 7, 800);
  const auto team =
      PortfolioRunner(solver, {restarts, 2}).run(grid(), request);

  double expected = std::numeric_limits<double>::infinity();
  for (const auto seed : PortfolioRunner::seed_stream(request.seed, restarts)) {
    SolverRequest direct = request;
    direct.seed = seed;
    expected = std::min(expected, solver->run(grid(), direct).best_value);
  }
  EXPECT_DOUBLE_EQ(team.best_value, expected);
}

TEST(Portfolio, DeterministicAcrossThreadCounts) {
  // The acceptance criterion: same seed, 1 vs 8 threads → bit-identical
  // best partition, for both a metaheuristic and a direct solver.
  for (const char* spec : {"fusion_fission", "multilevel"}) {
    const auto solver = make_solver(spec);
    SolverRequest request = step_request(4, 2006, 600);
    const auto one = PortfolioRunner(solver, {4, 1}).run(grid(), request);
    const auto eight = PortfolioRunner(solver, {4, 8}).run(grid(), request);
    EXPECT_EQ(one.best_value, eight.best_value) << spec;
    EXPECT_TRUE(std::equal(one.best.assignment().begin(),
                           one.best.assignment().end(),
                           eight.best.assignment().begin()))
        << spec;
    EXPECT_DOUBLE_EQ(one.stat("winner_restart", -1.0),
                     eight.stat("winner_restart", -2.0))
        << spec;
  }
}

TEST(Portfolio, StatsReportConfiguration) {
  const auto team = PortfolioRunner(make_solver("percolation"), {3, 2})
                        .run(grid(), step_request());
  EXPECT_DOUBLE_EQ(team.stat("restarts"), 3.0);
  EXPECT_DOUBLE_EQ(team.stat("threads"), 2.0);
  EXPECT_GE(team.stat("winner_restart", -1.0), 0.0);
  EXPECT_LT(team.stat("winner_restart"), 3.0);
}

TEST(Portfolio, SharedRecorderIsMonotoneBestSoFar) {
  AnytimeRecorder recorder;
  SolverRequest request = step_request(4, 11, 1500);
  request.recorder = &recorder;
  const auto team = PortfolioRunner(make_solver("fusion_fission"), {3, 3})
                        .run(grid(), request);
  ASSERT_FALSE(recorder.points().empty());
  double prev = std::numeric_limits<double>::infinity();
  for (const auto& pt : recorder.points()) {
    EXPECT_LT(pt.best_value, prev);  // strict improvements only
    prev = pt.best_value;
  }
  // The merged trajectory ends at the portfolio's winning value.
  EXPECT_DOUBLE_EQ(recorder.points().back().best_value, team.best_value);
}

}  // namespace
}  // namespace ffp
