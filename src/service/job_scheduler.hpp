// Multi-tenant job scheduling over the solver engine layer: the service
// subsystem's core. Clients submit JobSpecs (graph + method spec + budget +
// seed + priority); a fixed set of runner threads executes them
// highest-priority-first (FIFO within a priority), each runner and each
// portfolio leasing its workers from a ThreadBudget so N concurrent jobs
// can never oversubscribe the machine, however many restarts they ask for.
//
// Determinism contract (what the service tests prove): a job's result
// depends only on its JobSpec — seed, step budget, method, k, objective,
// restarts. Runner scheduling, the budget size, and how many worker slots
// a portfolio happens to be granted never change the partition, because
// (a) every random draw derives from the spec's seed, (b) each solver run
// is serial, and (c) the portfolio's winner depends only on its results.
// So a fixed set of step-budgeted jobs yields byte-identical partitions
// whether submitted serially or concurrently, at any budget.
// (Wall-clock-budgeted jobs trade that guarantee for latency control,
// exactly like the CLI.)
//
// Cancellation: cancel() removes a queued job outright and flips a running
// job's cancel flag, which the solver's StopCondition observes — the job
// then finishes early with state Cancelled and its best-so-far partition
// attached, an anytime result rather than wasted work.
//
// Progress: each job owns a thread-safe AnytimeRecorder subclass;
// progress() snapshots the improvement trajectory mid-run, and an optional
// on_improvement hook streams events as they happen (ffp_serve forwards
// them to the client as `progress` lines).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "metaheuristics/anytime.hpp"
#include "service/errors.hpp"
#include "service/thread_budget.hpp"
#include "solver/solver.hpp"

namespace ffp {

namespace persist {
class Journal;  // persist/journal.hpp
}

enum class JobState { Queued, Running, Done, Cancelled, Failed };

std::string_view to_string(JobState state);

struct JobSpec {
  std::shared_ptr<const Graph> graph;  ///< required, shared across jobs
  std::string method = "fusion_fission";  ///< registry spec (solver/registry)
  /// Optional pre-resolved solver for `method` (the api engine resolves
  /// specs once and passes the instance through); null → submit() builds
  /// it from `method`.
  SolverPtr solver;
  int k = 2;
  ObjectiveKind objective = ObjectiveKind::MinMaxCut;
  std::uint64_t seed = 1;
  /// Deterministic step budget; 0 falls back to the wall clock, which
  /// forfeits the byte-identical guarantee (documented above).
  std::int64_t steps = 0;
  double budget_ms = 5000;
  int priority = 0;    ///< higher runs first; FIFO within a priority
  /// Queue TTL: a job that waited longer than this before a runner picked
  /// it up goes terminal Failed with code QueueExpired instead of running
  /// — its caller has typically given up, and running it anyway would
  /// burn a runner on a result nobody reads. 0 = no TTL.
  double queue_ttl_ms = 0;
  /// Portfolio multi-start: > 1 fans that many independently seeded
  /// restarts of the method across the budget (solver/portfolio.hpp) and
  /// keeps the best — the per-restart seed stream depends only on `seed`,
  /// so the job stays deterministic under a step budget.
  int restarts = 1;
  // Durable-solve hooks, forwarded verbatim into the SolverRequest (see
  // solver/solver.hpp for the contract). The api engine fills them from
  // the SolveSpec + its state dir; direct scheduler users may too.
  std::shared_ptr<const std::vector<int>> warm_start;
  double warm_start_value = std::numeric_limits<double>::infinity();
  std::int64_t checkpoint_every_ms = 0;
  std::function<void(const std::vector<int>& assignment, double value)>
      checkpoint_sink;
  // Evolve-mode portfolio hooks, forwarded into PortfolioOptions (see
  // solver/portfolio.hpp for the thread-safety/ordering contract). Setting
  // either routes the job through the PortfolioRunner even at restarts=1.
  std::function<void(int restart, SolverRequest& request)> seed_restart;
  std::function<void(int restart, const SolverResult& result)>
      on_restart_result;
  /// Write-ahead journaling: when non-empty AND the scheduler has a
  /// journal, this job leaves submitted/started/terminal records, each
  /// durable before the transition it describes becomes visible. The
  /// payload is opaque to the scheduler — api::Engine builds it with
  /// everything needed to resubmit the job after a crash.
  std::string journal_payload;
};

/// Point-in-time view of a job. `result` is set once the job is terminal
/// and produced a partition (Done always; Cancelled when it was cancelled
/// mid-run, carrying the best-so-far).
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

struct JobSchedulerOptions {
  unsigned runners = 1;  ///< concurrent jobs (each runner leases a slot)
  /// Budget all runners and their solves lease from; null uses the
  /// process-wide ThreadBudget::process().
  ThreadBudget* budget = nullptr;
  /// Bounded submit queue (load shedding): when more than this many jobs
  /// are waiting, submit() throws ServiceError(Overloaded) with a
  /// retry-after hint instead of queueing — backpressure surfaces at the
  /// API boundary, not as unbounded latency. 0 = unbounded (trusted
  /// in-process callers).
  std::size_t max_queued = 0;
  /// The retry-after hint attached to Overloaded rejections, ms.
  double overload_retry_after_ms = 250;
  /// Streaming hook: called from runner threads on every improvement a
  /// job's recorder sees. Must be thread-safe.
  std::function<void(std::uint64_t job, double seconds, double value)>
      on_improvement;
  /// Terminal hook: called exactly once per job, right after it reaches
  /// Done/Cancelled/Failed, with its final status — how the api engine
  /// feeds its result cache without polling. Called outside the scheduler
  /// lock (from runner threads, or from the thread driving cancel/
  /// shutdown); must be thread-safe.
  std::function<void(std::uint64_t job, const JobStatus& status)> on_terminal;
  /// Write-ahead journal for jobs carrying a journal_payload; null turns
  /// journaling off. Must outlive the scheduler. The terminal record is
  /// appended AFTER on_terminal returns, so by the time the journal calls
  /// a job finished, whatever on_terminal persisted (the engine's durable
  /// cache entry) is already on disk — a crash can duplicate work, never
  /// lose it.
  persist::Journal* journal = nullptr;
};

class JobScheduler {
 public:
  explicit JobScheduler(JobSchedulerOptions options = {});
  /// Cancels everything still queued, lets running jobs finish, joins.
  ~JobScheduler();

  JobScheduler(const JobScheduler&) = delete;
  JobScheduler& operator=(const JobScheduler&) = delete;

  /// Enqueues a job; returns its id (monotonic from 1). Validates the spec
  /// (graph present, k ≥ 1, known method) up front so bad submissions fail
  /// at the API boundary, not inside a runner.
  std::uint64_t submit(JobSpec spec);

  /// Queued → removed (terminal Cancelled, no result); Running → flagged,
  /// the job finishes early with its best-so-far. Returns false when the
  /// id is unknown or the job was already terminal.
  bool cancel(std::uint64_t id);

  /// Snapshot, any time. Throws on unknown ids.
  JobStatus status(std::uint64_t id) const;

  /// Blocks until the job is terminal, then returns its final status.
  JobStatus wait(std::uint64_t id);

  /// Bounded wait: blocks up to `timeout_ms` (<= 0 polls once). Returns
  /// the final status when the job went terminal in time, std::nullopt
  /// otherwise — the deadline-bounded form transports use so one wedged
  /// job cannot hold a session teardown hostage.
  std::optional<JobStatus> wait_for(std::uint64_t id, double timeout_ms);

  /// Blocks until every submitted job is terminal.
  void drain();

  /// Stops accepting submissions, cancels the queue, waits for running
  /// jobs. Idempotent; the destructor calls it. Safe on an empty queue.
  void shutdown();

  unsigned runners() const { return static_cast<unsigned>(runners_.size()); }
  ThreadBudget& budget() const { return *budget_; }
  std::int64_t jobs_completed() const;

 private:
  struct Job;
  /// Thread-safe per-job recorder: serializes the base AnytimeRecorder and
  /// forwards improvements to the scheduler's streaming hook.
  class ProgressRecorder final : public AnytimeRecorder {
   public:
    ProgressRecorder(JobScheduler* scheduler, Job* job)
        : scheduler_(scheduler), job_(job) {}
    void start() override;
    void record(double best_value) override;
    std::vector<Point> snapshot() const;

   private:
    JobScheduler* scheduler_;
    Job* job_;
    mutable std::mutex mu_;
  };

  struct Job {
    std::uint64_t id = 0;
    JobSpec spec;
    SolverPtr solver;  ///< resolved at submit so typos fail the API call
    JobState state = JobState::Queued;
    std::atomic<bool> cancel_flag{false};
    WallTimer queued_timer;  ///< armed at submit; feeds the queue TTL
    WallTimer timer;       ///< armed when the job starts running
    double seconds = 0.0;  ///< total run time once terminal
    std::string error;
    ErrCode error_code = ErrCode::None;  ///< Failed only
    std::shared_ptr<const SolverResult> result;
    std::unique_ptr<ProgressRecorder> recorder;
  };

  void runner_loop();
  void run_job(Job& job);
  /// Fires options_.on_terminal for a job that just went terminal; takes
  /// mu_ itself to snapshot, so call it with the lock released.
  void notify_terminal(std::uint64_t id);
  JobStatus status_locked(const Job& job) const;
  static bool terminal(JobState s) {
    return s == JobState::Done || s == JobState::Cancelled ||
           s == JobState::Failed;
  }

  JobSchedulerOptions options_;
  ThreadBudget* budget_;

  mutable std::mutex mu_;
  std::condition_variable queue_cv_;   ///< runners: work or shutdown
  std::condition_variable changed_cv_; ///< waiters: a job went terminal
  std::map<std::uint64_t, std::unique_ptr<Job>> jobs_;
  /// Pop order: highest priority first, FIFO (lowest id) within one.
  std::set<std::pair<int, std::uint64_t>> queue_;  // (-priority, id)
  std::uint64_t next_id_ = 1;
  std::int64_t completed_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> runners_;
};

}  // namespace ffp
