// Minimal thread pool for coarse-grained parallel work: independent
// portfolio restarts and parameter sweeps. Every parallel consumer in the
// repo is structured so results never depend on scheduling — tasks write
// to disjoint slots and all cross-task ordering happens on the submitting
// thread.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <exception>
#include <mutex>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace ffp {

class ThreadPool {
 public:
  /// threads == 0 means hardware_concurrency (at least 1).
  explicit ThreadPool(unsigned threads = 0) {
    if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  ~ThreadPool() {
    {
      std::lock_guard lock(mu_);
      stopping_ = true;
    }
    cv_.notify_all();
    for (auto& w : workers_) w.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  /// Enqueue a task. Use wait_idle() to join on completion of all tasks.
  void submit(std::function<void()> task) {
    {
      std::lock_guard lock(mu_);
      FFP_CHECK(!stopping_, "submit on stopped ThreadPool");
      tasks_.push(std::move(task));
      ++outstanding_;
    }
    cv_.notify_one();
  }

  /// Block until every submitted task has finished. Exceptions from tasks
  /// are rethrown here (first one wins).
  void wait_idle() {
    std::unique_lock lock(mu_);
    idle_cv_.wait(lock, [this] { return outstanding_ == 0; });
    if (first_error_) {
      auto e = first_error_;
      first_error_ = nullptr;
      std::rethrow_exception(e);
    }
  }

 private:
  void worker_loop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock lock(mu_);
        cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
        if (stopping_ && tasks_.empty()) return;
        task = std::move(tasks_.front());
        tasks_.pop();
      }
      try {
        task();
      } catch (...) {
        std::lock_guard lock(mu_);
        if (!first_error_) first_error_ = std::current_exception();
      }
      {
        std::lock_guard lock(mu_);
        if (--outstanding_ == 0) idle_cv_.notify_all();
      }
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::queue<std::function<void()>> tasks_;
  std::vector<std::thread> workers_;
  std::int64_t outstanding_ = 0;
  bool stopping_ = false;
  std::exception_ptr first_error_;
};

/// Run fn(i) for i in [0, n) across the pool's threads; blocks until done.
/// Only for pools with a single client — wait_idle() joins on EVERY
/// outstanding task.
template <typename Fn>
void parallel_for(ThreadPool& pool, std::int64_t n, Fn&& fn) {
  for (std::int64_t i = 0; i < n; ++i) {
    pool.submit([i, &fn] { fn(i); });
  }
  pool.wait_idle();
}

}  // namespace ffp
