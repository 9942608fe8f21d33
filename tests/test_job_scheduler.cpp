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
  const auto job = scheduler.submit(quick_job(7));
  EXPECT_EQ(job->id(), 1u);
  const JobStatus status = job->wait();
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
  std::vector<char> first_seen;
  const auto labelled = [&](std::uint64_t seed, int priority, char label) {
    JobSpec spec = quick_job(seed);
    spec.priority = priority;
    spec.on_improvement = [&mu, &first_seen, label](double, double) {
      std::lock_guard lock(mu);
      if (std::find(first_seen.begin(), first_seen.end(), label) ==
          first_seen.end()) {
        first_seen.push_back(label);
      }
    };
    return spec;
  };
  JobSchedulerOptions options;
  options.runners = 1;
  ThreadBudget budget(1);
  options.budget = &budget;
  JobScheduler scheduler(std::move(options));
  scheduler.submit(labelled(1, 0, 'a'));
  scheduler.submit(labelled(2, 0, 'b'));
  scheduler.submit(labelled(3, 5, 'c'));
  scheduler.drain();

  std::lock_guard lock(mu);
  const auto pos = [&](char label) {
    return std::find(first_seen.begin(), first_seen.end(), label) -
           first_seen.begin();
  };
  ASSERT_EQ(first_seen.size(), 3u);
  EXPECT_LT(pos('c'), pos('b'));  // priority first...
  EXPECT_LT(pos('a'), pos('b'));  // ...and FIFO within equal priority
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
  EXPECT_TRUE(victim->cancel());
  // Terminal before cancel() returned, without a runner touching it.
  EXPECT_EQ(victim->status().state, JobState::Cancelled);
  const JobStatus victim_status = victim->wait();
  EXPECT_EQ(victim_status.state, JobState::Cancelled);
  EXPECT_EQ(victim_status.result, nullptr);
  EXPECT_FALSE(victim->cancel());  // already terminal

  EXPECT_TRUE(blocker->cancel());
  scheduler.drain();
}

TEST(JobScheduler, CancelMidRunReturnsBestSoFar) {
  JobScheduler scheduler;
  // Far more steps than we are willing to wait for: only cancellation can
  // finish this job promptly.
  const auto job = scheduler.submit(quick_job(5, 50'000'000));
  // Let it actually start and improve a little before pulling the plug.
  while (job->status().progress.empty()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(job->cancel());
  const JobStatus status = job->wait();
  EXPECT_EQ(status.state, JobState::Cancelled);
  ASSERT_NE(status.result, nullptr);  // anytime: best-so-far, not wasted
  testing::expect_valid_partition(status.result->best, 6);
}

TEST(JobScheduler, FailedJobCarriesTheError) {
  JobScheduler scheduler;
  JobSpec spec = quick_job(1);
  spec.request.k = 10'000;  // more parts than vertices: the solver throws
  const JobStatus status = scheduler.submit(spec)->wait();
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
  std::vector<std::shared_ptr<Job>> jobs;
  for (int i = 0; i < 6; ++i) {
    JobSpec spec = quick_job(100 + static_cast<std::uint64_t>(i));
    spec.restarts = 4;  // wants 4 restart workers; the budget grants none
    jobs.push_back(scheduler.submit(spec));
  }
  scheduler.drain();
  for (const auto& job : jobs) {
    EXPECT_EQ(job->status().state, JobState::Done);
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
      reference.push_back(partition_bytes(scheduler.submit(spec)->wait()));
    }
  }

  for (const unsigned budget_size : {1u, 4u, 8u}) {
    ThreadBudget budget(budget_size);
    JobSchedulerOptions options;
    options.runners = 3;
    options.budget = &budget;
    JobScheduler scheduler(std::move(options));
    std::vector<std::shared_ptr<Job>> jobs;
    for (const auto& spec : specs) jobs.push_back(scheduler.submit(spec));
    scheduler.drain();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      EXPECT_EQ(partition_bytes(jobs[i]->status()), reference[i])
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
  const JobStatus status = scheduler.submit(spec)->wait();
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
    spec.on_terminal = [&runner](const JobStatus&) {
      runner = std::this_thread::get_id();
    };
    {
      JobSchedulerOptions options;
      options.budget = &budget;
      JobScheduler scheduler(std::move(options));
      EXPECT_EQ(scheduler.submit(spec)->wait().state, JobState::Done);
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

// A terminal job keeps its status, not its spec: a failed job's record no
// longer holds its graph, even while a caller still holds the record.
TEST(JobScheduler, ATerminalJobDropsItsSpec) {
  JobScheduler scheduler;
  JobSpec spec = quick_job(1);
  spec.graph = std::make_shared<const Graph>(make_grid2d(8, 8));
  spec.request.k = 10'000;  // more parts than vertices: the solver throws
  const std::weak_ptr<const Graph> graph = spec.graph;
  const auto job = scheduler.submit(std::move(spec));
  EXPECT_EQ(job->wait().state, JobState::Failed);
  scheduler.drain();  // past the terminal path
  EXPECT_TRUE(graph.expired());
  EXPECT_EQ(job->status().state, JobState::Failed);
}

/// Parks a wall-clock job on the (single) runner and returns once the
/// scheduler reports it Running — so anything submitted after is
/// guaranteed to wait in the queue.
std::shared_ptr<Job> occupy_runner(JobScheduler& scheduler, double budget_ms) {
  JobSpec blocker = quick_job(1);
  blocker.request.stop = StopCondition::after_millis(budget_ms);
  auto job = scheduler.submit(std::move(blocker));
  while (job->status().state == JobState::Queued) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return job;
}

TEST(JobScheduler, OnTerminalFiresOncePerJob) {
  std::mutex mu;
  std::map<char, int> fired;
  std::map<char, JobState> states;
  const auto counted = [&](JobSpec spec, char label) {
    spec.on_terminal = [&mu, &fired, &states, label](const JobStatus& status) {
      std::lock_guard lock(mu);
      ++fired[label];
      states[label] = status.state;
    };
    return spec;
  };
  {
    JobScheduler scheduler;
    scheduler.submit(counted(quick_job(5, 500), 'd'));
    JobSpec failing = quick_job(6);
    failing.request.k = 100000;  // more parts than vertices: solver throws
    scheduler.submit(counted(failing, 'f'));
    scheduler.drain();
    // A queued job cancelled before any runner claims it still notifies.
    const auto blocker = occupy_runner(scheduler, 60000);
    scheduler.submit(counted(quick_job(7), 'c'))->cancel();
    blocker->cancel();
    scheduler.shutdown();
  }
  std::lock_guard lock(mu);
  EXPECT_EQ(fired['d'], 1);
  EXPECT_EQ(states['d'], JobState::Done);
  EXPECT_EQ(fired['f'], 1);
  EXPECT_EQ(states['f'], JobState::Failed);
  EXPECT_EQ(fired['c'], 1);
  EXPECT_EQ(states['c'], JobState::Cancelled);
}

/// What a job's two terminal hooks saw: the job's own state when the hook
/// ran, and the final state the hook was handed.
struct HookView {
  JobState job_state = JobState::Queued;
  JobState final_state = JobState::Queued;
  int calls = 0;
};

/// Records, per label, what on_finish and on_terminal saw. A job must be
/// registered with track() before it can end.
struct TerminalProbe {
  std::mutex mu;
  std::map<std::string, std::shared_ptr<Job>> jobs;
  std::map<std::string, HookView> at_finish;
  std::map<std::string, HookView> at_terminal;

  JobSpec probed(JobSpec spec, const std::string& label) {
    const auto look = [this, label](std::map<std::string, HookView>& into,
                                    const JobStatus& status) {
      std::lock_guard lock(mu);
      HookView& view = into[label];
      view.job_state = jobs.at(label)->status().state;
      view.final_state = status.state;
      ++view.calls;
    };
    spec.on_finish = [this, look](const JobStatus& s) { look(at_finish, s); };
    spec.on_terminal = [this, look](const JobStatus& s) {
      look(at_terminal, s);
    };
    return spec;
  }
  std::shared_ptr<Job> track(const std::string& label,
                             std::shared_ptr<Job> job) {
    std::lock_guard lock(mu);
    jobs[label] = job;
    return job;
  }
  void expect(const std::string& label, JobState final_state) {
    std::lock_guard lock(mu);
    const HookView& finish = at_finish[label];
    const HookView& terminal = at_terminal[label];
    EXPECT_EQ(finish.calls, 1) << label;
    EXPECT_FALSE(is_terminal(finish.job_state))
        << label << ": on_finish ran after the state was published";
    EXPECT_EQ(finish.final_state, final_state) << label;
    EXPECT_EQ(terminal.calls, 1) << label;
    EXPECT_EQ(terminal.job_state, final_state)
        << label << ": on_terminal ran before the state was published";
    EXPECT_EQ(terminal.final_state, final_state) << label;
  }
};

// The terminal path (job_scheduler.hpp) in its fixed order, for every way
// a job ends: on_finish runs while the job still reads non-terminal, and
// on_terminal only once it reads terminal.
TEST(JobScheduler, TerminalPathFeedsBeforePublishingAndDeliversAfter) {
  TerminalProbe probe;
  {
    ThreadBudget budget(1);
    JobSchedulerOptions options;
    options.budget = &budget;
    JobScheduler scheduler(std::move(options));
    // The test holds the only slot: the runner pops the first job and
    // waits for the slot, so the rest stay queued until it is released.
    WorkerLease gate = budget.acquire();
    const auto done = probe.track(
        "done", scheduler.submit(probe.probed(quick_job(5, 500), "done")));
    while (done->status().state == JobState::Queued) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    JobSpec failing = quick_job(6);
    failing.request.k = 100000;  // more parts than vertices: solver throws
    probe.track("failed", scheduler.submit(probe.probed(failing, "failed")));
    JobSpec stale = quick_job(7);
    stale.queue_ttl_ms = 1;
    probe.track("expired", scheduler.submit(probe.probed(stale, "expired")));
    const auto victim = probe.track(
        "cancelled", scheduler.submit(probe.probed(quick_job(8), "cancelled")));
    EXPECT_TRUE(victim->cancel());
    std::this_thread::sleep_for(std::chrono::milliseconds(5));  // > the TTL
    gate.release();
    scheduler.drain();
  }
  probe.expect("done", JobState::Done);
  probe.expect("failed", JobState::Failed);
  probe.expect("expired", JobState::Failed);
  probe.expect("cancelled", JobState::Cancelled);
  {
    std::lock_guard lock(probe.mu);
    EXPECT_EQ(probe.jobs.at("expired")->status().error_code,
              ErrCode::QueueExpired);
  }

  // The shutdown sweep: a job still queued when the scheduler stops.
  {
    ThreadBudget budget(1);
    JobSchedulerOptions options;
    options.budget = &budget;
    JobScheduler scheduler(std::move(options));
    WorkerLease gate = budget.acquire();
    const auto head = scheduler.submit(quick_job(9, 500));
    while (head->status().state == JobState::Queued) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const auto swept = probe.track(
        "swept", scheduler.submit(probe.probed(quick_job(10), "swept")));
    // shutdown() sweeps the queue, then joins the runner, which needs the
    // slot back: run it aside and release the slot once the sweep is done.
    std::thread stopper([&scheduler] { scheduler.shutdown(); });
    EXPECT_EQ(swept->wait().state, JobState::Cancelled);
    gate.release();
    stopper.join();
    EXPECT_EQ(head->status().state, JobState::Done);
  }
  probe.expect("swept", JobState::Cancelled);
}

// A job outlives its scheduler: the scheduler finishes every job first,
// so the record still answers status/wait and refuses a late cancel.
TEST(JobScheduler, JobOutlivesItsScheduler) {
  std::shared_ptr<Job> done;
  std::shared_ptr<Job> swept;
  {
    JobScheduler scheduler;
    done = scheduler.submit(quick_job(3, 500));
    done->wait();
    occupy_runner(scheduler, 200);
    swept = scheduler.submit(quick_job(4));
  }
  EXPECT_EQ(done->wait().state, JobState::Done);
  ASSERT_NE(done->status().result, nullptr);
  testing::expect_valid_partition(done->status().result->best, 6);
  EXPECT_FALSE(done->cancel());
  EXPECT_EQ(swept->wait().state, JobState::Cancelled);
  EXPECT_FALSE(swept->cancel());
}

TEST(JobScheduler, QueueTtlExpiresWaitingJobsWithStructuredError) {
  JobScheduler scheduler;  // one runner
  const auto blocker = occupy_runner(scheduler, 300);
  JobSpec stale = quick_job(2);
  stale.queue_ttl_ms = 1;  // the blocker guarantees > 1 ms in queue
  const JobStatus status = scheduler.submit(std::move(stale))->wait();
  EXPECT_EQ(status.state, JobState::Failed);
  EXPECT_EQ(status.error_code, ErrCode::QueueExpired);
  EXPECT_TRUE(err_retryable(status.error_code));
  EXPECT_NE(status.error.find("expired in queue"), std::string::npos)
      << status.error;
  EXPECT_EQ(status.result, nullptr);
  blocker->cancel();
}

TEST(JobScheduler, BoundedQueueShedsWithRetryHint) {
  JobSchedulerOptions options;
  options.max_queued = 1;
  JobScheduler scheduler(std::move(options));
  const auto blocker = occupy_runner(scheduler, 2000);
  const auto queued = scheduler.submit(quick_job(2));  // fills the queue
  try {
    scheduler.submit(quick_job(3));
    FAIL() << "expected an Overloaded rejection";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), ErrCode::Overloaded);
    EXPECT_TRUE(e.retryable());
    EXPECT_EQ(e.retry_after_ms(), kOverloadRetryAfterMs);
  }
  queued->cancel();
  // Cancelled out of the queue: the slot is free again at once.
  const auto refill = scheduler.submit(quick_job(4));
  refill->cancel();
  blocker->cancel();
}

TEST(JobScheduler, WaitForBoundsTheWaitThenDelivers) {
  JobScheduler scheduler;
  const auto job = occupy_runner(scheduler, 400);
  // Far too short: the deadline-bounded wait must give up, not block.
  EXPECT_FALSE(job->wait_for(1).has_value());
  // Generous: the same call returns the terminal status.
  const auto status = job->wait_for(60000);
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
