#include "solver/portfolio.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <stdexcept>

#include "service/thread_budget.hpp"
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
  ThreadBudget budget(1);
  EXPECT_THROW(PortfolioRunner(SolverPtr{}, {1, &budget}), Error);
  EXPECT_THROW(PortfolioRunner(make_solver("percolation"), {0, &budget}),
               Error);
}

TEST(Portfolio, SingleRestartMatchesDirectRunWithStreamSeed) {
  const auto solver = make_solver("fusion_fission");
  SolverRequest request = step_request();
  ThreadBudget budget(2);
  const auto team =
      PortfolioRunner(solver, {1, &budget}).run(grid(), request);

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
  ThreadBudget budget(2);
  const auto team =
      PortfolioRunner(solver, {restarts, &budget}).run(grid(), request);

  double expected = std::numeric_limits<double>::infinity();
  for (const auto seed : PortfolioRunner::seed_stream(request.seed, restarts)) {
    SolverRequest direct = request;
    direct.seed = seed;
    expected = std::min(expected, solver->run(grid(), direct).best_value);
  }
  EXPECT_DOUBLE_EQ(team.best_value, expected);
}

TEST(Portfolio, DeterministicAcrossThreadCounts) {
  // The acceptance criterion: same seed, budget 1 vs 8 → bit-identical
  // best partition, for both a metaheuristic and a direct solver.
  for (const char* spec : {"fusion_fission", "multilevel"}) {
    const auto solver = make_solver(spec);
    SolverRequest request = step_request(4, 2006, 600);
    ThreadBudget budget_one(1);
    ThreadBudget budget_eight(8);
    const auto one =
        PortfolioRunner(solver, {4, &budget_one}).run(grid(), request);
    const auto eight =
        PortfolioRunner(solver, {4, &budget_eight}).run(grid(), request);
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
  // threads = the calling thread + the workers it was granted, of the
  // restarts − 1 it asked for.
  for (const unsigned total : {1u, 2u, 8u}) {
    ThreadBudget budget(total);
    const auto team = PortfolioRunner(make_solver("percolation"), {3, &budget})
                          .run(grid(), step_request());
    EXPECT_DOUBLE_EQ(team.stat("restarts"), 3.0);
    EXPECT_DOUBLE_EQ(team.stat("threads"), 1.0 + std::min(total, 2u));
    EXPECT_GE(team.stat("winner_restart", -1.0), 0.0);
    EXPECT_LT(team.stat("winner_restart"), 3.0);
    EXPECT_EQ(budget.in_use(), 0u);
  }
  // A fully leased budget grants nothing: the caller runs every restart.
  ThreadBudget budget(2);
  const WorkerLease held = budget.lease(2);
  const auto team = PortfolioRunner(make_solver("percolation"), {3, &budget})
                        .run(grid(), step_request());
  EXPECT_DOUBLE_EQ(team.stat("threads"), 1.0);
}

TEST(Portfolio, SharedRecorderIsMonotoneBestSoFar) {
  AnytimeRecorder recorder;
  SolverRequest request = step_request(4, 11, 1500);
  request.recorder = &recorder;
  ThreadBudget budget(3);
  const auto team =
      PortfolioRunner(make_solver("fusion_fission"), {3, &budget})
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

/// Throws distinct messages from restarts 1 and 3, told apart by their
/// stream seeds. Restart 1 waits (at most 2 s) until restart 3 has thrown,
/// so whenever the two run on different threads, restart 3 fails first.
class FailingSolver final : public Solver {
 public:
  FailingSolver(std::uint64_t seed, int restarts)
      : seeds_(PortfolioRunner::seed_stream(seed, restarts)) {}
  std::string name() const override { return "failing"; }
  bool is_metaheuristic() const override { return false; }
  SolverResult run(const Graph& g,
                   const SolverRequest& request) const override {
    ++calls;
    if (request.seed == seeds_[3]) {
      {
        std::lock_guard lock(mu_);
        three_failed_ = true;
      }
      failed_.notify_all();
      throw std::runtime_error("restart 3 failed");
    }
    if (request.seed == seeds_[1]) {
      std::unique_lock lock(mu_);
      failed_.wait_for(lock, std::chrono::seconds(2),
                       [this] { return three_failed_; });
      throw std::runtime_error("restart 1 failed");
    }
    return inner_->run(g, request);
  }

  mutable std::atomic<int> calls{0};

 private:
  std::vector<std::uint64_t> seeds_;
  SolverPtr inner_ = make_solver("percolation");
  mutable std::mutex mu_;
  mutable std::condition_variable failed_;
  mutable bool three_failed_ = false;
};

TEST(Portfolio, RethrowsTheLowestIndexFailureAfterEveryRestart) {
  for (const unsigned total : {1u, 2u, 4u}) {
    ThreadBudget budget(total);
    const SolverRequest request = step_request();
    const auto solver = std::make_shared<FailingSolver>(request.seed, 4);
    try {
      (void)PortfolioRunner(solver, {4, &budget}).run(grid(), request);
      ADD_FAILURE() << "no exception at budget " << total;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "restart 1 failed") << "budget " << total;
    }
    EXPECT_EQ(solver->calls.load(), 4) << "budget " << total;
    EXPECT_EQ(budget.in_use(), 0u);
  }
}

}  // namespace
}  // namespace ffp
