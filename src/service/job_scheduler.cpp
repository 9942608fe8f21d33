#include "service/job_scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <utility>
#include <vector>

#include "persist/journal.hpp"
#include "solver/portfolio.hpp"

namespace ffp {

namespace {

JobStatus status_of(JobState state) {
  JobStatus out;
  out.state = state;
  return out;
}

}  // namespace

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

void Job::ProgressRecorder::start() {
  std::lock_guard lock(mu_);
  AnytimeRecorder::start();
}

void Job::ProgressRecorder::record(double best_value) {
  Point point{};
  {
    std::lock_guard lock(mu_);
    AnytimeRecorder::record(best_value);
    point = points().back();
  }
  // Outside the recorder lock: the hook may do arbitrary (slow) I/O.
  if (spec_.on_improvement) {
    spec_.on_improvement(point.seconds, point.best_value);
  }
}

std::vector<AnytimeRecorder::Point> Job::ProgressRecorder::snapshot() const {
  std::lock_guard lock(mu_);
  return points();
}

Job::Job(JobScheduler* scheduler, std::uint64_t id, JobSpec spec)
    : scheduler_(scheduler),
      id_(id),
      spec_(std::move(spec)),
      recorder_(spec_) {}

JobStatus Job::status_locked() const {
  JobStatus out = outcome_;
  if (out.state == JobState::Running) {
    out.seconds = run_timer_.elapsed_seconds();
  }
  out.progress = recorder_.snapshot();
  return out;
}

JobStatus Job::status() const {
  std::lock_guard lock(mu_);
  return status_locked();
}

JobStatus Job::wait() const {
  std::unique_lock lock(mu_);
  terminal_cv_.wait(lock, [this] { return is_terminal(outcome_.state); });
  return status_locked();
}

std::optional<JobStatus> Job::wait_for(double timeout_ms) const {
  std::unique_lock lock(mu_);
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::milli>(std::max(0.0, timeout_ms)));
  const auto done = [this] { return is_terminal(outcome_.state); };
  if (!terminal_cv_.wait_until(lock, deadline, done)) return std::nullopt;
  return status_locked();
}

bool Job::cancel() {
  std::unique_lock lock(mu_);
  if (is_terminal(outcome_.state)) return false;
  if (outcome_.state == JobState::Queued) {
    if (auto queued = scheduler_->dequeue(*this)) {
      lock.unlock();
      scheduler_->finish(std::move(queued), status_of(JobState::Cancelled));
      return true;
    }
  }
  // Running, or just claimed by a runner or the shutdown sweep: the flag
  // stops the solver at its next StopCondition check (or keeps it from
  // starting), and whoever holds the job finishes it.
  cancel_flag_.store(true, std::memory_order_relaxed);
  return true;
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

std::shared_ptr<Job> JobScheduler::submit(JobSpec spec) {
  FFP_CHECK(spec.graph != nullptr, "job needs a graph");
  FFP_CHECK(spec.graph->num_vertices() >= 1, "job graph is empty");
  FFP_CHECK(spec.solver != nullptr, "job needs a solver");
  FFP_CHECK(spec.request.k >= 1, "job needs k >= 1");
  FFP_CHECK(spec.restarts >= 1, "job needs restarts >= 1");
  FFP_CHECK(spec.queue_ttl_ms >= 0, "job queue TTL must be >= 0");

  std::shared_ptr<Job> job;
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
          kOverloadRetryAfterMs);
    }
    const std::uint64_t id = next_id_++;
    if (options_.journal != nullptr && !spec.journal_payload.empty()) {
      // WAL discipline: the submitted record is durable before the job
      // becomes visible to runners. If the append throws, the submit
      // fails outright; a stray record for a never-queued job only costs
      // an idempotent resubmission on recovery.
      options_.journal->submitted(id, spec.journal_payload);
    }
    job.reset(new Job(this, id, std::move(spec)));
    queue_.emplace(std::pair{-job->spec_.priority, id}, job);
    ++live_;
  }
  queue_cv_.notify_one();
  return job;
}

std::shared_ptr<Job> JobScheduler::dequeue(const Job& job) {
  std::lock_guard lock(mu_);
  auto node = queue_.extract({-job.spec_.priority, job.id_});
  return node.empty() ? nullptr : std::move(node.mapped());
}

void JobScheduler::drain() {
  std::unique_lock lock(mu_);
  idle_cv_.wait(lock, [this] { return live_ == 0; });
}

void JobScheduler::shutdown() {
  std::vector<std::shared_ptr<Job>> swept;
  {
    std::lock_guard lock(mu_);
    stopping_ = true;
    // Cancel everything still queued; running jobs finish on their own.
    for (auto& [key, job] : queue_) swept.push_back(std::move(job));
    queue_.clear();
  }
  queue_cv_.notify_all();
  for (auto& job : swept) {
    finish(std::move(job), status_of(JobState::Cancelled));
  }
  for (auto& runner : runners_) {
    if (runner.joinable()) runner.join();
  }
  // A job cancelled out of the queue on another thread may still be on
  // its terminal path; its hooks must not outlive the scheduler.
  drain();
}

void JobScheduler::runner_loop() {
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock lock(mu_);
      queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping; the sweep took the rest
      job = std::move(queue_.begin()->second);
      queue_.erase(queue_.begin());
    }
    // Queue TTL: a job that outwaited its deadline expires with a
    // structured error instead of running — by now its caller has given
    // up, and a runner burned on it would only delay live jobs further.
    const double queued_ms = job->queued_timer_.elapsed_millis();
    if (job->spec_.queue_ttl_ms > 0 && queued_ms > job->spec_.queue_ttl_ms) {
      JobStatus expired = status_of(JobState::Failed);
      expired.error_code = ErrCode::QueueExpired;
      expired.error = "expired in queue after " + std::to_string(queued_ms) +
                      " ms (queue_ttl_ms = " +
                      std::to_string(job->spec_.queue_ttl_ms) + ")";
      finish(std::move(job), std::move(expired));
      continue;
    }
    {
      std::lock_guard lock(job->mu_);
      job->outcome_.state = JobState::Running;
      job->run_timer_.reset();
    }
    // The runner's own slot: the one blocking wait in the whole budget
    // protocol, safe exactly here because the runner holds nothing while
    // waiting (thread_budget.hpp).
    WorkerLease self = budget_->acquire();
    JobStatus outcome = status_of(JobState::Cancelled);
    if (job->cancel_flag_.load(std::memory_order_relaxed)) {
      outcome.seconds = job->run_timer_.elapsed_seconds();
    } else {
      outcome = run(*job);
    }
    self.release();
    finish(std::move(job), std::move(outcome));
  }
}

void JobScheduler::finish(std::shared_ptr<Job> job, JobStatus outcome) {
  {
    const JobSpec& spec = job->spec_;
    // Scoped: its result (and so the graph) is released before drain()
    // can return.
    JobStatus final_status = outcome;
    final_status.progress = job->recorder_.snapshot();
    // 1. Before anyone can observe the terminal state.
    if (spec.on_finish) spec.on_finish(final_status);
    // 2. Publish and wake the job's waiters. The trajectory stays in the
    // recorder, which status() reads.
    {
      std::lock_guard lock(job->mu_);
      job->outcome_ = std::move(outcome);
      completed_.fetch_add(1, std::memory_order_relaxed);
    }
    job->terminal_cv_.notify_all();
    // 3. After publication: a deliverer that found the job non-terminal
    // and registered interest is answered here.
    if (spec.on_terminal) spec.on_terminal(final_status);
    // 4. Last: a terminal record implies whatever on_finish persisted (the
    // engine's durable cache entry) is already on disk. A crash before it
    // resubmits the job on recovery — duplicated work, never lost work.
    if (options_.journal != nullptr && !spec.journal_payload.empty()) {
      try {
        options_.journal->terminal(job->id_,
                                   std::string(to_string(final_status.state)));
      } catch (const std::exception&) {
        // Journal damage must not take the scheduler down; the record is
        // re-derived from a resubmission after restart.
      }
    }
  }
  // A finished job keeps its status, not its spec: the graph reference,
  // the solver and the hooks' captures go now, not with the last handle
  // (and are destroyed after the lock is released).
  {
    JobSpec spent;
    std::lock_guard lock(job->mu_);
    std::swap(spent, job->spec_);
  }
  // The scheduler's last reference: the job now belongs to its callers.
  job.reset();
  {
    std::lock_guard lock(mu_);
    --live_;
  }
  idle_cv_.notify_all();
}

JobStatus JobScheduler::run(Job& job) {
  const JobSpec& spec = job.spec_;
  SolverRequest request = spec.request;
  request.recorder = &job.recorder_;
  request.stop.set_cancel_flag(&job.cancel_flag_);

  JobStatus outcome;
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
      outcome.result = share_result(
          PortfolioRunner(spec.solver, popt).run(*spec.graph, request),
          spec.graph);
    } else {
      outcome.result =
          share_result(spec.solver->run(*spec.graph, request), spec.graph);
    }
    outcome.state = job.cancel_flag_.load(std::memory_order_relaxed)
                        ? JobState::Cancelled
                        : JobState::Done;
  } catch (const std::exception& e) {
    outcome.state = JobState::Failed;
    outcome.error = e.what();
    outcome.error_code = ErrCode::JobFailed;
  }
  outcome.seconds = job.run_timer_.elapsed_seconds();
  return outcome;
}

}  // namespace ffp
