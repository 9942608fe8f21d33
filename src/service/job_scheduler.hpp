// Multi-tenant job scheduling over the solver engine layer: the service
// subsystem's core. Clients submit JobSpecs (graph + resolved solver + one
// SolverRequest + restarts + priority); a fixed set of runner threads
// executes them highest-priority-first (FIFO within a priority), each
// runner and each portfolio leasing its workers from a ThreadBudget so N
// concurrent jobs can never oversubscribe the machine, however many
// restarts they ask for.
//
// Determinism contract (what the service tests prove): a job's result
// depends only on its JobSpec — the solver, the request (k, objective,
// seed, step budget, hooks) and restarts. Runner scheduling, the budget
// size, and how many worker slots a portfolio happens to be granted never
// change the partition, because (a) every random draw derives from the
// request's seed, (b) each solver run is serial, and (c) the portfolio's
// winner depends only on its results. So a fixed set of step-budgeted jobs
// yields byte-identical partitions whether submitted serially or
// concurrently, at any budget. (Wall-clock-budgeted jobs trade that
// guarantee for latency control, exactly like the CLI.)
//
// One job record: submit() returns the shared Job the scheduler queues and
// runs, and callers query, wait on and cancel that object directly — there
// is no id table. The scheduler holds a job only while it is queued or
// running. A terminal job keeps its status but no longer its spec (graph
// reference, solver, hooks); its callers own it, and it is freed with
// their last reference.
//
// Cancellation: Job::cancel() removes a queued job outright and flips a
// running job's cancel flag, which the solver's StopCondition observes —
// the job then finishes early with state Cancelled and its best-so-far
// partition attached, an anytime result rather than wasted work.
//
// Progress: each job owns a thread-safe AnytimeRecorder subclass;
// status() snapshots the improvement trajectory mid-run, and the job's
// on_improvement hook streams events as they happen (ffp_serve forwards
// them to the client as `progress` lines).
//
// The terminal path: every job — done, failed, cancelled in the queue or
// mid-run, expired in the queue, or swept by shutdown — ends in one
// function that runs, in this order and with no scheduler lock held:
//   1. JobSpec::on_finish(final status), while the job still reads
//      non-terminal (api::Engine feeds its result cache, durable cache
//      entry and elite archive here);
//   2. publish: the state turns terminal and waiters wake;
//   3. JobSpec::on_terminal(final status) (delivery to a client);
//   4. the journal's terminal record.
// So no waiter sees Done before the cache holds the result, a deliverer
// that checks the state and then registers interest cannot be missed, and
// a terminal journal record implies the durable cache entry is on disk.
// drain() and shutdown() return only after every job finished step 4.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "metaheuristics/anytime.hpp"
#include "service/errors.hpp"
#include "service/thread_budget.hpp"
#include "solver/solver.hpp"
#include "util/timer.hpp"

namespace ffp {

namespace persist {
class Journal;  // persist/journal.hpp
}

enum class JobState { Queued, Running, Done, Cancelled, Failed };

std::string_view to_string(JobState state);

inline bool is_terminal(JobState state) {
  return state == JobState::Done || state == JobState::Cancelled ||
         state == JobState::Failed;
}

/// Point-in-time view of a job. `result` is set once the job is terminal
/// and produced a partition (Done always; Cancelled when it was cancelled
/// mid-run, carrying the best-so-far). A shared result co-owns its graph
/// (share_result), so it stays usable after the job and its submitter let
/// the graph go.
struct JobStatus {
  JobState state = JobState::Queued;
  double seconds = 0.0;  ///< run time so far (terminal: total)
  std::string error;     ///< Failed only
  /// Failed only: the taxonomy code (QueueExpired for TTL expiry,
  /// JobFailed for solver failures) so transports can mark the error
  /// retryable or fatal without parsing the message.
  ErrCode error_code = ErrCode::None;
  std::vector<AnytimeRecorder::Point> progress;
  std::shared_ptr<const SolverResult> result;
};

struct JobSpec {
  std::shared_ptr<const Graph> graph;  ///< required, shared across jobs
  /// Required: the resolved solver (the api engine resolves each method
  /// spec once, at its own boundary, and passes the instance through).
  SolverPtr solver;
  /// The run itself: k, objective, seed, stop condition and hooks. A
  /// deterministic step budget in `request.stop` is what makes the job
  /// byte-identical (documented above). The runner runs a copy with its
  /// progress recorder and cancel flag attached.
  SolverRequest request;
  /// Portfolio multi-start: > 1 fans that many independently seeded
  /// restarts across the budget (solver/portfolio.hpp) and keeps the best
  /// — the per-restart seed stream depends only on `request.seed`, so the
  /// job stays deterministic under a step budget.
  int restarts = 1;
  // Evolve-mode portfolio hooks, forwarded into PortfolioOptions (see
  // solver/portfolio.hpp for the thread-safety/ordering contract). Setting
  // either routes the job through the PortfolioRunner even at restarts=1.
  std::function<void(int restart, SolverRequest& request)> seed_restart;
  std::function<void(int restart, const SolverResult& result)>
      on_restart_result;
  int priority = 0;    ///< higher runs first; FIFO within a priority
  /// Queue TTL: a job that waited longer than this before a runner picked
  /// it up goes terminal Failed with code QueueExpired instead of running
  /// — its caller has typically given up, and running it anyway would
  /// burn a runner on a result nobody reads. 0 = no TTL.
  double queue_ttl_ms = 0;
  /// Write-ahead journaling: when non-empty AND the scheduler has a
  /// journal, this job leaves submitted and terminal records, each
  /// durable before the transition it describes becomes visible. The
  /// payload is opaque to the scheduler — api::Engine builds it with
  /// everything needed to resubmit the job after a crash.
  std::string journal_payload;
  // Per-job hooks. All are optional, called without any scheduler lock,
  // must be thread-safe against the caller's own state, and must not
  // throw: the terminal path has no way back from a failed step.
  /// Streaming: every improvement the job's recorder sees, (seconds since
  /// the run started, new best value), from the threads running the solve.
  std::function<void(double seconds, double value)> on_improvement;
  /// Terminal path step 1: the final status, before any observer can see
  /// the job terminal. Whatever must hold the result by the time a waiter
  /// wakes (a cache) is fed here.
  std::function<void(const JobStatus& status)> on_finish;
  /// Terminal path step 3: the final status, after the state is visible
  /// and before the journal's terminal record. Fired exactly once.
  std::function<void(const JobStatus& status)> on_terminal;
};

struct JobSchedulerOptions {
  unsigned runners = 1;  ///< concurrent jobs (each runner leases a slot)
  /// Budget all runners and their solves lease from; null uses the
  /// process-wide ThreadBudget::process().
  ThreadBudget* budget = nullptr;
  /// Bounded submit queue (load shedding): when more than this many jobs
  /// are waiting, submit() throws ServiceError(Overloaded) with a
  /// retry-after hint instead of queueing — backpressure surfaces at the
  /// API boundary, not as unbounded latency. 0 = unbounded (trusted
  /// in-process callers). Rejections carry kOverloadRetryAfterMs.
  std::size_t max_queued = 0;
  /// Write-ahead journal for jobs carrying a journal_payload; null turns
  /// journaling off. Must outlive the scheduler. The terminal record is
  /// the last step of the terminal path, after the job's on_finish wrote
  /// whatever it persists.
  persist::Journal* journal = nullptr;
};

class JobScheduler;

/// One submitted job: the record the scheduler queues and runs, shared
/// with whoever submitted it. All methods are thread-safe, and a job may
/// outlive its scheduler: the scheduler finishes every job before it dies,
/// so afterwards status/wait see the terminal state and cancel() is false.
class Job {
 public:
  Job(const Job&) = delete;
  Job& operator=(const Job&) = delete;

  std::uint64_t id() const { return id_; }  ///< monotonic from 1

  /// Snapshot, any time.
  JobStatus status() const;
  /// Blocks until the job is terminal, then returns its final status.
  JobStatus wait() const;
  /// Bounded wait: blocks up to `timeout_ms` (<= 0 polls once). Returns
  /// the final status when the job went terminal in time, std::nullopt
  /// otherwise — the deadline-bounded form transports use so one wedged
  /// job cannot hold a session teardown hostage.
  std::optional<JobStatus> wait_for(double timeout_ms) const;
  /// Queued → removed (terminal Cancelled, no result, before this
  /// returns); Running → flagged, the job finishes early with its
  /// best-so-far. False when the job was already terminal.
  bool cancel();

 private:
  friend class JobScheduler;
  Job(JobScheduler* scheduler, std::uint64_t id, JobSpec spec);

  /// Thread-safe recorder: serializes the base AnytimeRecorder and
  /// streams each improvement to the job's on_improvement hook.
  class ProgressRecorder final : public AnytimeRecorder {
   public:
    explicit ProgressRecorder(const JobSpec& spec) : spec_(spec) {}
    void start() override;
    void record(double best_value) override;
    std::vector<Point> snapshot() const;

   private:
    const JobSpec& spec_;
    mutable std::mutex mu_;
  };

  JobStatus status_locked() const;

  /// Only dereferenced while the job is not terminal, which the scheduler
  /// outlives (shutdown finishes every job).
  JobScheduler* const scheduler_;
  const std::uint64_t id_;
  JobSpec spec_;  ///< read-only until finish() empties it
  std::atomic<bool> cancel_flag_{false};
  const WallTimer queued_timer_;  ///< armed at submit; feeds the queue TTL
  WallTimer run_timer_;           ///< armed when the job starts running
  ProgressRecorder recorder_;

  /// Lock order: a job's mu_ may be held while taking its scheduler's
  /// mu_, never the reverse.
  mutable std::mutex mu_;
  mutable std::condition_variable terminal_cv_;
  /// The state; once terminal, the final status. The progress
  /// trajectory lives in recorder_ only.
  JobStatus outcome_;
};

class JobScheduler {
 public:
  explicit JobScheduler(JobSchedulerOptions options = {});
  /// Cancels everything still queued, lets running jobs finish, joins.
  ~JobScheduler();

  JobScheduler(const JobScheduler&) = delete;
  JobScheduler& operator=(const JobScheduler&) = delete;

  /// Enqueues a job and returns its record. Validates the spec (graph and
  /// solver present, k ≥ 1, restarts ≥ 1, TTL ≥ 0) up front so bad
  /// submissions fail at the API boundary, not inside a runner.
  std::shared_ptr<Job> submit(JobSpec spec);

  /// Blocks until every submitted job finished its terminal path.
  void drain();

  /// Stops accepting submissions, cancels the queue, waits for running
  /// jobs. Idempotent; the destructor calls it. Safe on an empty queue.
  void shutdown();

  unsigned runners() const { return static_cast<unsigned>(runners_.size()); }
  ThreadBudget& budget() const { return *budget_; }
  /// Jobs whose terminal state has been published.
  std::int64_t jobs_completed() const {
    return completed_.load(std::memory_order_relaxed);
  }

 private:
  friend class Job;

  /// Takes a queued job out of the queue and returns the queue's
  /// reference; null when a runner or the shutdown sweep already did.
  std::shared_ptr<Job> dequeue(const Job& job);
  void runner_loop();
  /// Runs the solve on the calling runner; returns the terminal status.
  JobStatus run(Job& job);
  /// The terminal path (header comment): the one place a job's state
  /// turns terminal. Exactly once per job, with no lock held; `job` is the
  /// scheduler's reference, dropped before drain() can return.
  void finish(std::shared_ptr<Job> job, JobStatus outcome);

  JobSchedulerOptions options_;
  ThreadBudget* budget_;

  mutable std::mutex mu_;
  std::condition_variable queue_cv_;  ///< runners: work or shutdown
  std::condition_variable idle_cv_;   ///< drain: live_ reached zero
  /// Pop order: highest priority first, FIFO (lowest id) within one.
  std::map<std::pair<int, std::uint64_t>, std::shared_ptr<Job>>
      queue_;  // (-priority, id)
  std::uint64_t next_id_ = 1;
  std::size_t live_ = 0;  ///< submitted jobs not yet through finish()
  std::atomic<std::int64_t> completed_{0};
  bool stopping_ = false;
  std::vector<std::thread> runners_;
};

}  // namespace ffp
