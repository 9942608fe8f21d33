#include "service/thread_budget.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace ffp {
namespace {

TEST(ThreadBudget, LeaseGrantsUpToAvailable) {
  ThreadBudget budget(4);
  EXPECT_EQ(budget.total(), 4u);
  EXPECT_EQ(budget.available(), 4u);

  WorkerLease a = budget.lease(3);
  EXPECT_EQ(a.granted(), 3u);
  EXPECT_EQ(budget.in_use(), 3u);

  WorkerLease b = budget.lease(3);  // only 1 left
  EXPECT_EQ(b.granted(), 1u);
  EXPECT_EQ(budget.available(), 0u);

  WorkerLease c = budget.lease(2);  // exhausted: non-blocking 0 grant
  EXPECT_EQ(c.granted(), 0u);
}

TEST(ThreadBudget, ReleaseReturnsSlots) {
  ThreadBudget budget(2);
  {
    WorkerLease a = budget.lease(2);
    EXPECT_EQ(a.granted(), 2u);
    EXPECT_EQ(budget.available(), 0u);
  }
  EXPECT_EQ(budget.available(), 2u);

  WorkerLease b = budget.lease(1);
  b.release();
  b.release();  // idempotent
  EXPECT_EQ(budget.available(), 2u);
}

TEST(ThreadBudget, MoveTransfersOwnership) {
  ThreadBudget budget(3);
  WorkerLease a = budget.lease(2);
  WorkerLease b = std::move(a);
  EXPECT_EQ(a.granted(), 0u);
  EXPECT_EQ(b.granted(), 2u);
  EXPECT_EQ(budget.in_use(), 2u);
  b = budget.lease(1);  // move-assign releases the old grant first
  EXPECT_EQ(budget.in_use(), 1u);
}

TEST(ThreadBudget, PeakTracksHighWaterMark) {
  ThreadBudget budget(8);
  { WorkerLease a = budget.lease(5); }
  { WorkerLease b = budget.lease(2); }
  EXPECT_EQ(budget.in_use(), 0u);
  EXPECT_EQ(budget.peak_in_use(), 5u);
  EXPECT_LE(budget.peak_in_use(), budget.total());
}

TEST(ThreadBudget, NestedLeasesNeverBlockOrOverflow) {
  // The portfolio-inside-scheduler shape: an outer lease takes most of the
  // budget, inner leases get what's left (possibly zero) without waiting.
  ThreadBudget budget(4);
  WorkerLease outer = budget.lease(3);
  WorkerLease inner1 = budget.lease(4);
  WorkerLease inner2 = budget.lease(4);
  EXPECT_EQ(inner1.granted(), 1u);
  EXPECT_EQ(inner2.granted(), 0u);
  EXPECT_EQ(budget.in_use(), 4u);
  EXPECT_EQ(budget.peak_in_use(), 4u);
}

TEST(ThreadBudget, AcquireBlocksUntilFree) {
  ThreadBudget budget(1);
  WorkerLease held = budget.lease(1);
  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    WorkerLease slot = budget.acquire();
    acquired.store(true);
  });
  // The waiter must not get through while the slot is held.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(acquired.load());
  held.release();
  waiter.join();
  EXPECT_TRUE(acquired.load());
  EXPECT_EQ(budget.in_use(), 0u);
}

TEST(ThreadBudget, ManyConcurrentAcquirersRespectTheCap) {
  ThreadBudget budget(3);
  std::atomic<int> active{0};
  std::atomic<int> max_active{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 12; ++i) {
    threads.emplace_back([&] {
      WorkerLease slot = budget.acquire();
      const int now = ++active;
      int seen = max_active.load();
      while (now > seen && !max_active.compare_exchange_weak(seen, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      --active;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_LE(max_active.load(), 3);
  EXPECT_LE(budget.peak_in_use(), budget.total());
  EXPECT_EQ(budget.in_use(), 0u);
}

TEST(ThreadBudget, ZeroMeansHardwareConcurrency) {
  ThreadBudget budget(0);
  EXPECT_GE(budget.total(), 1u);
}

}  // namespace
}  // namespace ffp
