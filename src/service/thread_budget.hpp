// Process-wide worker-thread governor: both parallel levels in the repo —
// the service JobScheduler's runners (between jobs) and PortfolioRunner's
// restart workers (between restarts of one job) — *lease* their threads
// from one ThreadBudget instead of sizing their own pools, so the two
// levels together can never oversubscribe the machine. A single solver
// run is serial.
//
// The protocol is deliberately non-blocking: `lease(want)` grants
// min(want, available) slots — possibly zero — and never waits. A caller
// granted fewer workers than it wanted degrades to narrower parallelism
// (ultimately to running inline on its own thread), which is always
// correct here because every parallel consumer in the repo is
// scheduling-independent: results are byte-identical at any worker count.
// Non-blocking grants are also what makes nesting deadlock-free — a
// portfolio that leases restart workers from inside a scheduler runner's
// slot can never wait on capacity its own ancestors hold.
//
// Accounting model: a lease covers *worker threads doing work*. The
// calling thread itself is not counted — it either blocks waiting for its
// workers (a portfolio) or is itself covered by its parent's lease (a
// scheduler runner executing a solve). So a budget of B bounds
// the number of runnable leased workers at B; `peak_in_use()` records the
// high-water mark, which the service tests assert never exceeds `total()`.
#pragma once

#include <condition_variable>
#include <memory>
#include <mutex>

#include "util/check.hpp"

namespace ffp {

class ThreadBudget;

/// RAII grant of `granted()` worker slots; slots return to the budget on
/// destruction. Movable, not copyable. A default-constructed (or moved-
/// from) lease holds nothing and grants 0.
class WorkerLease {
 public:
  WorkerLease() = default;
  WorkerLease(WorkerLease&& other) noexcept
      : budget_(other.budget_), granted_(other.granted_) {
    other.budget_ = nullptr;
    other.granted_ = 0;
  }
  WorkerLease& operator=(WorkerLease&& other) noexcept {
    if (this != &other) {
      release();
      budget_ = other.budget_;
      granted_ = other.granted_;
      other.budget_ = nullptr;
      other.granted_ = 0;
    }
    return *this;
  }
  WorkerLease(const WorkerLease&) = delete;
  WorkerLease& operator=(const WorkerLease&) = delete;
  ~WorkerLease() { release(); }

  unsigned granted() const { return granted_; }

  /// Returns the slots early (idempotent; the destructor calls it too).
  void release();

 private:
  friend class ThreadBudget;
  WorkerLease(ThreadBudget* budget, unsigned granted)
      : budget_(budget), granted_(granted) {}

  ThreadBudget* budget_ = nullptr;
  unsigned granted_ = 0;
};

class ThreadBudget {
 public:
  /// total == 0 means hardware_concurrency (at least 1).
  explicit ThreadBudget(unsigned total = 0);

  unsigned total() const { return total_; }
  unsigned in_use() const;
  unsigned available() const;
  /// High-water mark of in_use() since construction — what the service
  /// tests assert against total() to prove the budget is respected.
  unsigned peak_in_use() const;

  /// Non-blocking: grants min(want, available), possibly 0. Never waits,
  /// so nested leases (scheduler runner → portfolio workers) cannot
  /// deadlock; a 0-slot grant means "run inline on your own thread".
  WorkerLease lease(unsigned want);

  /// Blocking: waits until at least one slot is free, then grants
  /// min(want, available) ≥ 1. ONLY for top-level clients that hold no
  /// lease while waiting (the JobScheduler's runners, which block here
  /// before touching a job) — a nested client that blocked could deadlock
  /// on capacity its own ancestors hold, which is why everything below the
  /// scheduler uses the non-blocking lease().
  WorkerLease acquire(unsigned want = 1);

  /// The process-wide budget every CLI-level entry point shares. Defaults
  /// to hardware concurrency; resize it once at startup (before any lease)
  /// with set_process_total().
  static ThreadBudget& process();
  /// Re-sizes the process budget. FFP_CHECKs that nothing is leased.
  static void set_process_total(unsigned total);

 private:
  friend class WorkerLease;
  void give_back(unsigned slots);

  mutable std::mutex mu_;
  std::condition_variable freed_;
  unsigned total_ = 1;
  unsigned in_use_ = 0;
  unsigned peak_ = 0;
};

}  // namespace ffp
