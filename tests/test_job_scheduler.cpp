#include "service/job_scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "solver/portfolio.hpp"
#include "solver/registry.hpp"
#include "test_support.hpp"

namespace ffp {
namespace {

std::shared_ptr<const Graph> test_graph() {
  static const auto g = std::make_shared<const Graph>(make_grid2d(16, 16));
  return g;
}

JobSpec quick_job(std::uint64_t seed, std::int64_t steps = 2000,
                  const std::string& method = "fusion_fission") {
  JobSpec spec;
  spec.graph = test_graph();
  spec.solver = make_solver(method);
  spec.request.k = 6;
  spec.request.seed = seed;
  spec.request.stop = StopCondition::after_steps(steps);
  return spec;
}

/// The partition as the bytes write_partition would put in a file — the
/// currency of the determinism contract.
std::string partition_bytes(const JobStatus& status) {
  EXPECT_NE(status.result, nullptr);
  std::ostringstream out;
  write_partition(status.result->best.assignment(), out);
  return out.str();
}

TEST(JobScheduler, RunsAJobToDone) {
  JobScheduler scheduler;
  const auto id = scheduler.submit(quick_job(7));
  const JobStatus status = scheduler.wait(id);
  EXPECT_EQ(status.state, JobState::Done);
  ASSERT_NE(status.result, nullptr);
  testing::expect_valid_partition(status.result->best, 6);
  EXPECT_GT(status.result->best_value, 0.0);
  EXPECT_FALSE(status.progress.empty());
  EXPECT_EQ(scheduler.jobs_completed(), 1);
}

TEST(JobScheduler, ValidatesSpecsAtSubmit) {
  JobScheduler scheduler;
  JobSpec no_graph = quick_job(1);
  no_graph.graph = nullptr;
  EXPECT_THROW(scheduler.submit(no_graph), Error);
  JobSpec no_solver = quick_job(1);
  no_solver.solver = nullptr;
  EXPECT_THROW(scheduler.submit(no_solver), Error);
  JobSpec bad_k = quick_job(1);
  bad_k.request.k = 0;
  EXPECT_THROW(scheduler.submit(bad_k), Error);
}

TEST(JobScheduler, UnknownIdsThrowOrReturnFalse) {
  JobScheduler scheduler;
  EXPECT_THROW(scheduler.status(99), Error);
  EXPECT_THROW(scheduler.wait(99), Error);
  EXPECT_FALSE(scheduler.cancel(99));
}

TEST(JobScheduler, EmptyQueueShutdownDoesNotHang) {
  JobScheduler scheduler;
  scheduler.shutdown();
  scheduler.shutdown();  // idempotent
  EXPECT_THROW(scheduler.submit(quick_job(1)), Error);
}

TEST(JobScheduler, DrainOnNoJobsReturnsImmediately) {
  JobScheduler scheduler;
  scheduler.drain();
}

TEST(JobScheduler, PriorityBeatsFifoAndFifoHoldsWithinPriority) {
  // Single runner: job A occupies it while B (low) and C (high) queue; the
  // runner must pick C before B. Execution order is observed through each
  // job's first improvement event.
  std::mutex mu;
  std::vector<std::uint64_t> first_seen;
  JobSchedulerOptions options;
  options.runners = 1;
  ThreadBudget budget(1);
  options.budget = &budget;
  options.on_improvement = [&](std::uint64_t job, double, double) {
    std::lock_guard lock(mu);
    if (std::find(first_seen.begin(), first_seen.end(), job) ==
        first_seen.end()) {
      first_seen.push_back(job);
    }
  };
  JobScheduler scheduler(std::move(options));
  const auto a = scheduler.submit(quick_job(1));
  JobSpec low = quick_job(2);
  low.priority = 0;
  JobSpec high = quick_job(3);
  high.priority = 5;
  const auto b = scheduler.submit(low);
  const auto c = scheduler.submit(high);
  scheduler.drain();

  std::lock_guard lock(mu);
  const auto pos = [&](std::uint64_t id) {
    return std::find(first_seen.begin(), first_seen.end(), id) -
           first_seen.begin();
  };
  ASSERT_EQ(first_seen.size(), 3u);
  EXPECT_LT(pos(c), pos(b));  // priority first...
  EXPECT_LT(pos(a), pos(b));  // ...and FIFO within equal priority
}

TEST(JobScheduler, CancelQueuedJobRemovesIt) {
  JobSchedulerOptions options;
  options.runners = 1;
  ThreadBudget budget(1);
  options.budget = &budget;
  JobScheduler scheduler(std::move(options));
  // A long blocker keeps the single runner busy while we cancel the
  // queued victim behind it.
  const auto blocker = scheduler.submit(quick_job(1, 3'000'000));
  const auto victim = scheduler.submit(quick_job(2));
  EXPECT_TRUE(scheduler.cancel(victim));
  const JobStatus victim_status = scheduler.wait(victim);
  EXPECT_EQ(victim_status.state, JobState::Cancelled);
  EXPECT_EQ(victim_status.result, nullptr);
  EXPECT_FALSE(scheduler.cancel(victim));  // already terminal

  EXPECT_TRUE(scheduler.cancel(blocker));
  scheduler.drain();
}

TEST(JobScheduler, CancelMidRunReturnsBestSoFar) {
  JobScheduler scheduler;
  // Far more steps than we are willing to wait for: only cancellation can
  // finish this job promptly.
  const auto id = scheduler.submit(quick_job(5, 50'000'000));
  // Let it actually start and improve a little before pulling the plug.
  while (scheduler.status(id).progress.empty()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(scheduler.cancel(id));
  const JobStatus status = scheduler.wait(id);
  EXPECT_EQ(status.state, JobState::Cancelled);
  ASSERT_NE(status.result, nullptr);  // anytime: best-so-far, not wasted
  testing::expect_valid_partition(status.result->best, 6);
}

TEST(JobScheduler, FailedJobCarriesTheError) {
  JobScheduler scheduler;
  JobSpec spec = quick_job(1);
  spec.request.k = 10'000;  // more parts than vertices: the solver throws
  const auto id = scheduler.submit(spec);
  const JobStatus status = scheduler.wait(id);
  EXPECT_EQ(status.state, JobState::Failed);
  EXPECT_EQ(status.result, nullptr);
  EXPECT_FALSE(status.error.empty());
}

TEST(JobScheduler, BudgetOfOneStillCompletesParallelWork) {
  ThreadBudget budget(1);
  JobSchedulerOptions options;
  options.runners = 4;
  options.budget = &budget;
  JobScheduler scheduler(std::move(options));
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 6; ++i) {
    JobSpec spec = quick_job(100 + static_cast<std::uint64_t>(i));
    spec.restarts = 4;  // wants 4 restart workers; the budget grants none
    ids.push_back(scheduler.submit(spec));
  }
  scheduler.drain();
  for (const auto id : ids) {
    EXPECT_EQ(scheduler.status(id).state, JobState::Done);
  }
  // The acceptance bound: leased workers never exceeded the budget.
  EXPECT_LE(budget.peak_in_use(), budget.total());
  EXPECT_EQ(budget.peak_in_use(), 1u);
}

// The tentpole's determinism contract: a fixed seeded job set produces
// byte-identical partition files whether the jobs run one at a time or
// concurrently, at any worker budget.
TEST(JobScheduler, SerialVsConcurrentByteIdenticalAtBudgets148) {
  std::vector<JobSpec> specs;
  for (std::uint64_t seed = 11; seed <= 14; ++seed) {
    JobSpec spec = quick_job(seed, 3000);
    spec.restarts = 2;  // the portfolio wants workers; grants vary
    specs.push_back(spec);
  }
  specs.push_back(quick_job(21, 20000, "annealing"));
  specs.push_back(quick_job(31, 2000, "multilevel"));

  // Reference: strictly serial (one runner, one worker slot).
  std::vector<std::string> reference;
  {
    ThreadBudget budget(1);
    JobSchedulerOptions options;
    options.runners = 1;
    options.budget = &budget;
    JobScheduler scheduler(std::move(options));
    for (const auto& spec : specs) {
      reference.push_back(partition_bytes(scheduler.wait(scheduler.submit(spec))));
    }
  }

  for (const unsigned budget_size : {1u, 4u, 8u}) {
    ThreadBudget budget(budget_size);
    JobSchedulerOptions options;
    options.runners = 3;
    options.budget = &budget;
    JobScheduler scheduler(std::move(options));
    std::vector<std::uint64_t> ids;
    for (const auto& spec : specs) ids.push_back(scheduler.submit(spec));
    scheduler.drain();
    for (std::size_t i = 0; i < ids.size(); ++i) {
      EXPECT_EQ(partition_bytes(scheduler.status(ids[i])), reference[i])
          << "job " << i << " diverged at budget " << budget_size;
    }
    EXPECT_LE(budget.peak_in_use(), budget.total());
  }
}

TEST(JobScheduler, RestartsRunAPortfolioInsideTheJob) {
  JobSpec spec = quick_job(17, 1500);
  spec.restarts = 3;

  // Reference: the portfolio run directly, same seed stream and options.
  std::string expected;
  {
    ThreadBudget budget(2);
    PortfolioOptions popt;
    popt.restarts = 3;
    popt.budget = &budget;
    const auto team =
        PortfolioRunner(spec.solver, popt).run(*spec.graph, spec.request);
    std::ostringstream out;
    write_partition(team.best.assignment(), out);
    expected = out.str();
  }

  ThreadBudget budget(2);
  JobSchedulerOptions options;
  options.budget = &budget;
  JobScheduler scheduler(std::move(options));
  const JobStatus status = scheduler.wait(scheduler.submit(spec));
  EXPECT_EQ(status.state, JobState::Done);
  EXPECT_EQ(partition_bytes(status), expected);
  ASSERT_NE(status.result, nullptr);
  EXPECT_EQ(status.result->stat("restarts"), 3.0);

  JobSpec bad = quick_job(1);
  bad.restarts = 0;
  EXPECT_THROW(scheduler.submit(bad), Error);
}

/// Counts the runs live at once and the threads they ran on. Each run()
/// waits, at most about 2 s, until `expected` runs have been live together,
/// so restarts the budget lets overlap do overlap.
class LiveCountingSolver final : public Solver {
 public:
  explicit LiveCountingSolver(int expected) : expected_(expected) {}
  std::string name() const override { return "live_counting"; }
  bool is_metaheuristic() const override { return false; }
  SolverResult run(const Graph& g,
                   const SolverRequest& request) const override {
    {
      std::unique_lock lock(mu_);
      max_live_ = std::max(max_live_, ++live_);
      threads_.push_back(std::this_thread::get_id());
      changed_.notify_all();
      changed_.wait_for(lock, std::chrono::seconds(2),
                        [this] { return max_live_ >= expected_; });
    }
    SolverResult result = inner_->run(g, request);
    std::lock_guard lock(mu_);
    --live_;
    return result;
  }

  int max_live() const {
    std::lock_guard lock(mu_);
    return max_live_;
  }
  std::vector<std::thread::id> threads() const {
    std::lock_guard lock(mu_);
    return threads_;
  }

 private:
  const int expected_;
  SolverPtr inner_ = make_solver("percolation");
  mutable std::mutex mu_;
  mutable std::condition_variable changed_;
  mutable int live_ = 0;
  mutable int max_live_ = 0;
  mutable std::vector<std::thread::id> threads_;
};

// The runner's own slot does work: a 4-restart job at budget 4 runs all
// four restarts at once (the runner beside 3 leased workers), and at
// budget 1 the runner runs every restart itself.
TEST(JobScheduler, PortfolioRunsRestartsOnTheRunnersSlot) {
  for (const unsigned total : {4u, 1u}) {
    ThreadBudget budget(total);
    const auto solver =
        std::make_shared<LiveCountingSolver>(static_cast<int>(total));
    JobSpec spec = quick_job(3);
    spec.solver = solver;
    spec.restarts = 4;
    std::thread::id runner;
    {
      JobSchedulerOptions options;
      options.budget = &budget;
      options.on_terminal = [&runner](std::uint64_t, const JobStatus&) {
        runner = std::this_thread::get_id();
      };
      JobScheduler scheduler(std::move(options));
      EXPECT_EQ(scheduler.wait(scheduler.submit(spec)).state,
                JobState::Done);
    }  // joins the runner, so `runner` is safe to read
    EXPECT_EQ(solver->max_live(), static_cast<int>(total));
    EXPECT_LE(budget.peak_in_use(), budget.total());
    const auto threads = solver->threads();
    EXPECT_EQ(threads.size(), 4u);
    if (total == 1) {
      for (const auto id : threads) EXPECT_EQ(id, runner);
    }
  }
}

TEST(JobScheduler, OnTerminalFiresOncePerJob) {
  std::mutex mu;
  std::map<std::uint64_t, int> fired;
  std::map<std::uint64_t, JobState> states;
  JobSchedulerOptions options;
  options.on_terminal = [&](std::uint64_t id, const JobStatus& status) {
    std::lock_guard lock(mu);
    ++fired[id];
    states[id] = status.state;
  };
  std::uint64_t done = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t failed = 0;
  {
    JobScheduler scheduler(std::move(options));
    done = scheduler.submit(quick_job(5, 500));
    JobSpec failing = quick_job(6);
    failing.request.k = 100000;  // more parts than vertices: solver throws
    failed = scheduler.submit(failing);
    scheduler.drain();
    // A queued job cancelled before any runner claims it still notifies.
    JobSpec slow = quick_job(7, 50'000'000);
    cancelled = scheduler.submit(slow);
    scheduler.cancel(cancelled);
    scheduler.shutdown();
  }
  std::lock_guard lock(mu);
  EXPECT_EQ(fired[done], 1);
  EXPECT_EQ(states[done], JobState::Done);
  EXPECT_EQ(fired[failed], 1);
  EXPECT_EQ(states[failed], JobState::Failed);
  EXPECT_EQ(fired[cancelled], 1);
  EXPECT_EQ(states[cancelled], JobState::Cancelled);
}

/// Parks a wall-clock job on the (single) runner and returns once the
/// scheduler reports it Running — so anything submitted after is
/// guaranteed to wait in the queue.
std::uint64_t occupy_runner(JobScheduler& scheduler, double budget_ms) {
  JobSpec blocker = quick_job(1);
  blocker.request.stop = StopCondition::after_millis(budget_ms);
  const auto id = scheduler.submit(std::move(blocker));
  while (scheduler.status(id).state == JobState::Queued) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return id;
}

TEST(JobScheduler, QueueTtlExpiresWaitingJobsWithStructuredError) {
  JobScheduler scheduler;  // one runner
  const auto blocker = occupy_runner(scheduler, 300);
  JobSpec stale = quick_job(2);
  stale.queue_ttl_ms = 1;  // the blocker guarantees > 1 ms in queue
  const auto id = scheduler.submit(std::move(stale));
  const JobStatus status = scheduler.wait(id);
  EXPECT_EQ(status.state, JobState::Failed);
  EXPECT_EQ(status.error_code, ErrCode::QueueExpired);
  EXPECT_TRUE(err_retryable(status.error_code));
  EXPECT_NE(status.error.find("expired in queue"), std::string::npos)
      << status.error;
  EXPECT_EQ(status.result, nullptr);
  scheduler.cancel(blocker);
}

TEST(JobScheduler, BoundedQueueShedsWithRetryHint) {
  JobSchedulerOptions options;
  options.max_queued = 1;
  options.overload_retry_after_ms = 77;
  JobScheduler scheduler(std::move(options));
  const auto blocker = occupy_runner(scheduler, 2000);
  const auto queued = scheduler.submit(quick_job(2));  // fills the queue
  try {
    scheduler.submit(quick_job(3));
    FAIL() << "expected an Overloaded rejection";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), ErrCode::Overloaded);
    EXPECT_TRUE(e.retryable());
    EXPECT_EQ(e.retry_after_ms(), 77.0);
  }
  scheduler.cancel(queued);
  scheduler.cancel(blocker);
}

TEST(JobScheduler, WaitForBoundsTheWaitThenDelivers) {
  JobScheduler scheduler;
  const auto id = occupy_runner(scheduler, 400);
  // Far too short: the deadline-bounded wait must give up, not block.
  EXPECT_FALSE(scheduler.wait_for(id, 1).has_value());
  // Generous: the same call returns the terminal status.
  const auto status = scheduler.wait_for(id, 60000);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, JobState::Done);
}

TEST(JobScheduler, SubmitAfterShutdownIsShuttingDown) {
  JobScheduler scheduler;
  scheduler.shutdown();
  try {
    scheduler.submit(quick_job(1));
    FAIL() << "expected a ShuttingDown rejection";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), ErrCode::ShuttingDown);
    EXPECT_TRUE(e.retryable());
  }
}

}  // namespace
}  // namespace ffp
