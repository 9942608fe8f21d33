#include "service/thread_budget.hpp"

#include <algorithm>
#include <thread>

namespace ffp {

void WorkerLease::release() {
  if (budget_ != nullptr && granted_ > 0) budget_->give_back(granted_);
  budget_ = nullptr;
  granted_ = 0;
}

ThreadBudget::ThreadBudget(unsigned total)
    : total_(total == 0 ? std::max(1u, std::thread::hardware_concurrency())
                        : total) {}

unsigned ThreadBudget::in_use() const {
  std::lock_guard lock(mu_);
  return in_use_;
}

unsigned ThreadBudget::available() const {
  std::lock_guard lock(mu_);
  return total_ - in_use_;
}

unsigned ThreadBudget::peak_in_use() const {
  std::lock_guard lock(mu_);
  return peak_;
}

WorkerLease ThreadBudget::lease(unsigned want) {
  std::lock_guard lock(mu_);
  const unsigned granted = std::min(want, total_ - in_use_);
  in_use_ += granted;
  peak_ = std::max(peak_, in_use_);
  return WorkerLease(this, granted);
}

WorkerLease ThreadBudget::acquire() {
  std::unique_lock lock(mu_);
  freed_.wait(lock, [this] { return in_use_ < total_; });
  ++in_use_;
  peak_ = std::max(peak_, in_use_);
  return WorkerLease(this, 1);
}

void ThreadBudget::give_back(unsigned slots) {
  {
    std::lock_guard lock(mu_);
    FFP_CHECK(slots <= in_use_, "lease returned more slots than leased");
    in_use_ -= slots;
  }
  freed_.notify_all();
}

ThreadBudget& ThreadBudget::process() {
  static ThreadBudget* budget = new ThreadBudget();
  return *budget;
}

void ThreadBudget::set_process_total(unsigned total) {
  ThreadBudget& b = process();
  std::lock_guard lock(b.mu_);
  FFP_CHECK(b.in_use_ == 0,
            "cannot resize the process thread budget while workers are "
            "leased");
  b.total_ = total == 0 ? std::max(1u, std::thread::hardware_concurrency())
                        : total;
}

}  // namespace ffp
