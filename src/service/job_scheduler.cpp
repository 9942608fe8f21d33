#include "service/job_scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <utility>
#include <vector>

#include "persist/journal.hpp"
#include "solver/portfolio.hpp"
#include "solver/registry.hpp"
#include "util/timer.hpp"

namespace ffp {

std::string_view to_string(JobState state) {
  switch (state) {
    case JobState::Queued: return "queued";
    case JobState::Running: return "running";
    case JobState::Done: return "done";
    case JobState::Cancelled: return "cancelled";
    case JobState::Failed: return "failed";
  }
  return "unknown";
}

void JobScheduler::ProgressRecorder::start() {
  std::lock_guard lock(mu_);
  AnytimeRecorder::start();
}

void JobScheduler::ProgressRecorder::record(double best_value) {
  Point point{};
  {
    std::lock_guard lock(mu_);
    AnytimeRecorder::record(best_value);
    point = points().back();
  }
  // Outside the recorder lock: the hook may do arbitrary (slow) I/O.
  if (scheduler_->options_.on_improvement) {
    scheduler_->options_.on_improvement(job_->id, point.seconds,
                                        point.best_value);
  }
}

std::vector<AnytimeRecorder::Point> JobScheduler::ProgressRecorder::snapshot()
    const {
  std::lock_guard lock(mu_);
  return points();
}

JobScheduler::JobScheduler(JobSchedulerOptions options)
    : options_(std::move(options)),
      budget_(options_.budget != nullptr ? options_.budget
                                         : &ThreadBudget::process()) {
  const unsigned runners = std::max(1u, options_.runners);
  runners_.reserve(runners);
  for (unsigned i = 0; i < runners; ++i) {
    runners_.emplace_back([this] { runner_loop(); });
  }
}

JobScheduler::~JobScheduler() { shutdown(); }

std::uint64_t JobScheduler::submit(JobSpec spec) {
  FFP_CHECK(spec.graph != nullptr, "job needs a graph");
  FFP_CHECK(spec.graph->num_vertices() >= 1, "job graph is empty");
  FFP_CHECK(spec.k >= 1, "job needs k >= 1");
  FFP_CHECK(spec.steps >= 0, "job step budget must be >= 0");
  FFP_CHECK(spec.budget_ms >= 0, "job wall-clock budget must be >= 0");
  FFP_CHECK(spec.restarts >= 1, "job needs restarts >= 1");
  FFP_CHECK(spec.queue_ttl_ms >= 0, "job queue TTL must be >= 0");
  // Resolve the method now so a typo fails the submit, not the runner
  // (unless the caller already resolved it — the api engine does).
  SolverPtr solver =
      spec.solver != nullptr ? spec.solver : make_solver(spec.method);

  std::uint64_t id = 0;
  {
    std::lock_guard lock(mu_);
    if (stopping_) {
      throw ServiceError(ErrCode::ShuttingDown,
                         "submit rejected: scheduler is shutting down");
    }
    if (options_.max_queued > 0 && queue_.size() >= options_.max_queued) {
      // Load shedding: reject at the boundary rather than queue without
      // bound. Retryable — the identical resubmission is idempotent.
      throw ServiceError(
          ErrCode::Overloaded,
          "submit rejected: " + std::to_string(queue_.size()) +
              " jobs already queued (max_queued = " +
              std::to_string(options_.max_queued) + ")",
          options_.overload_retry_after_ms);
    }
    id = next_id_++;
    if (options_.journal != nullptr && !spec.journal_payload.empty()) {
      // WAL discipline: the submitted record is durable before the job
      // becomes visible to runners. If the append throws, the submit
      // fails outright; a stray record for a never-queued job only costs
      // an idempotent resubmission on recovery.
      options_.journal->submitted(id, spec.journal_payload);
    }
    auto job = std::make_unique<Job>();
    job->id = id;
    job->spec = std::move(spec);
    job->solver = std::move(solver);
    job->recorder = std::make_unique<ProgressRecorder>(this, job.get());
    queue_.emplace(-job->spec.priority, id);
    jobs_.emplace(id, std::move(job));
  }
  queue_cv_.notify_one();
  return id;
}

bool JobScheduler::cancel(std::uint64_t id) {
  std::unique_lock lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return false;
  Job& job = *it->second;
  if (terminal(job.state)) return false;
  if (job.state == JobState::Queued) {
    queue_.erase({-job.spec.priority, id});
    job.state = JobState::Cancelled;
    ++completed_;
    lock.unlock();
    changed_cv_.notify_all();
    notify_terminal(id);
    return true;
  }
  // Running (or claimed and waiting for budget): the flag stops the solver
  // at its next StopCondition check; the runner finalizes the state.
  job.cancel_flag.store(true, std::memory_order_relaxed);
  return true;
}

JobStatus JobScheduler::status_locked(const Job& job) const {
  JobStatus out;
  out.state = job.state;
  out.seconds =
      job.state == JobState::Running ? job.timer.elapsed_seconds() : job.seconds;
  out.error = job.error;
  out.error_code = job.error_code;
  out.progress = job.recorder->snapshot();
  out.result = job.result;
  return out;
}

JobStatus JobScheduler::status(std::uint64_t id) const {
  std::lock_guard lock(mu_);
  const auto it = jobs_.find(id);
  FFP_CHECK(it != jobs_.end(), "unknown job id ", id);
  return status_locked(*it->second);
}

JobStatus JobScheduler::wait(std::uint64_t id) {
  std::unique_lock lock(mu_);
  const auto it = jobs_.find(id);
  FFP_CHECK(it != jobs_.end(), "unknown job id ", id);
  Job& job = *it->second;
  changed_cv_.wait(lock, [&] { return terminal(job.state); });
  return status_locked(job);
}

std::optional<JobStatus> JobScheduler::wait_for(std::uint64_t id,
                                                double timeout_ms) {
  std::unique_lock lock(mu_);
  const auto it = jobs_.find(id);
  FFP_CHECK(it != jobs_.end(), "unknown job id ", id);
  Job& job = *it->second;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::milli>(std::max(0.0, timeout_ms)));
  if (!changed_cv_.wait_until(lock, deadline,
                              [&] { return terminal(job.state); })) {
    return std::nullopt;
  }
  return status_locked(job);
}

void JobScheduler::drain() {
  std::unique_lock lock(mu_);
  changed_cv_.wait(lock, [this] {
    return completed_ == static_cast<std::int64_t>(jobs_.size());
  });
}

void JobScheduler::shutdown() {
  std::vector<std::uint64_t> swept;
  {
    std::lock_guard lock(mu_);
    stopping_ = true;
    // Cancel everything still queued; running jobs finish on their own.
    for (const auto& [neg_priority, id] : queue_) {
      (void)neg_priority;
      Job& job = *jobs_.at(id);
      job.state = JobState::Cancelled;
      ++completed_;
      swept.push_back(id);
    }
    queue_.clear();
  }
  queue_cv_.notify_all();
  changed_cv_.notify_all();
  for (const std::uint64_t id : swept) notify_terminal(id);
  for (auto& runner : runners_) {
    if (runner.joinable()) runner.join();
  }
}

std::int64_t JobScheduler::jobs_completed() const {
  std::lock_guard lock(mu_);
  return completed_;
}

void JobScheduler::runner_loop() {
  for (;;) {
    Job* job = nullptr;
    {
      std::unique_lock lock(mu_);
      queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;  // spurious wakeup
      }
      const auto it = queue_.begin();
      job = jobs_.at(it->second).get();
      queue_.erase(it);
      // Queue TTL: a job that outwaited its deadline expires with a
      // structured error instead of running — by now its caller has given
      // up, and a runner burned on it would only delay live jobs further.
      const double queued_ms = job->queued_timer.elapsed_millis();
      if (job->spec.queue_ttl_ms > 0 && queued_ms > job->spec.queue_ttl_ms) {
        job->state = JobState::Failed;
        job->error_code = ErrCode::QueueExpired;
        job->error = "expired in queue after " +
                     std::to_string(queued_ms) + " ms (queue_ttl_ms = " +
                     std::to_string(job->spec.queue_ttl_ms) + ")";
        job->seconds = 0.0;
        ++completed_;
        lock.unlock();
        changed_cv_.notify_all();
        notify_terminal(job->id);
        continue;
      }
      job->state = JobState::Running;
      job->timer.reset();
    }
    if (options_.journal != nullptr && !job->spec.journal_payload.empty()) {
      // Outside mu_ (the append fsyncs); spec is immutable after submit.
      try {
        options_.journal->started(job->id);
      } catch (const std::exception&) {
        // A failed started record never fails the job — it only widens
        // the recovery window back to "submitted".
      }
    }

    // The runner's own slot: the one blocking wait in the whole budget
    // protocol, safe exactly here because the runner holds nothing while
    // waiting (thread_budget.hpp).
    WorkerLease self = budget_->acquire(1);
    if (job->cancel_flag.load(std::memory_order_relaxed)) {
      std::lock_guard lock(mu_);
      job->state = JobState::Cancelled;
      job->seconds = job->timer.elapsed_seconds();
      ++completed_;
    } else {
      run_job(*job);
    }
    self.release();
    changed_cv_.notify_all();
    notify_terminal(job->id);
  }
}

void JobScheduler::notify_terminal(std::uint64_t id) {
  JobStatus status;
  bool journaled = false;
  {
    std::lock_guard lock(mu_);
    const Job& job = *jobs_.at(id);
    status = status_locked(job);
    journaled =
        options_.journal != nullptr && !job.spec.journal_payload.empty();
  }
  // Order matters: on_terminal persists the engine's durable cache entry
  // FIRST, so by the time the journal's terminal record lands the result
  // is already on disk. A crash between the two resubmits the job on
  // recovery — duplicated work, never lost work.
  if (options_.on_terminal) options_.on_terminal(id, status);
  if (journaled) {
    try {
      options_.journal->terminal(id, std::string(to_string(status.state)));
    } catch (const std::exception&) {
      // Journal damage must not take the scheduler down; the record is
      // re-derived from a resubmission after restart.
    }
  }
}

void JobScheduler::run_job(Job& job) {
  const JobSpec& spec = job.spec;
  SolverRequest request;
  request.k = spec.k;
  request.objective = spec.objective;
  request.seed = spec.seed;
  request.recorder = job.recorder.get();
  request.warm_start = spec.warm_start;
  request.warm_start_value = spec.warm_start_value;
  request.checkpoint_every_ms = spec.checkpoint_every_ms;
  request.checkpoint_sink = spec.checkpoint_sink;
  request.stop = spec.steps > 0 ? StopCondition::after_steps(spec.steps)
                                : StopCondition::after_millis(spec.budget_ms);
  request.stop.set_cancel_flag(&job.cancel_flag);

  std::shared_ptr<const SolverResult> result;
  std::string error;
  try {
    if (spec.restarts > 1 || spec.seed_restart || spec.on_restart_result) {
      // Portfolio multi-start inside the job: restart workers lease from
      // the scheduler's budget, so a portfolio job obeys the same
      // machine-wide cap as any other.
      // Evolve hooks force this path even at restarts=1, so their seeding
      // and feedback contracts hold uniformly.
      PortfolioOptions popt;
      popt.restarts = spec.restarts;
      popt.budget = budget_;
      popt.seed_restart = spec.seed_restart;
      popt.on_result = spec.on_restart_result;
      result = std::make_shared<const SolverResult>(
          PortfolioRunner(job.solver, popt).run(*spec.graph, request));
    } else {
      result = std::make_shared<const SolverResult>(
          job.solver->run(*spec.graph, request));
    }
  } catch (const std::exception& e) {
    error = e.what();
  }

  std::lock_guard lock(mu_);
  job.seconds = job.timer.elapsed_seconds();
  if (!error.empty()) {
    job.state = JobState::Failed;
    job.error = std::move(error);
    job.error_code = ErrCode::JobFailed;
  } else {
    job.result = std::move(result);
    job.state = job.cancel_flag.load(std::memory_order_relaxed)
                    ? JobState::Cancelled
                    : JobState::Done;
  }
  ++completed_;
}

}  // namespace ffp
