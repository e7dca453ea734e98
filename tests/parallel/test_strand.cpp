#include "parallel/strand.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <thread>
#include <vector>

namespace bellamy::parallel {
namespace {

TEST(Strand, RunsTasksInPostOrderWithoutOverlap) {
  ThreadPool pool(4);
  Strand strand(pool);

  // No synchronization inside the tasks: the strand's mutual exclusion is
  // the only thing keeping this vector consistent — TSan/ASan would flag a
  // violation, and out-of-order execution breaks the content check.
  std::vector<int> order;
  std::atomic<int> active{0};
  std::atomic<bool> overlapped{false};
  constexpr int kTasks = 200;
  for (int i = 0; i < kTasks; ++i) {
    strand.post([&, i] {
      if (active.fetch_add(1) != 0) overlapped.store(true);
      order.push_back(i);
      active.fetch_sub(1);
    });
  }
  strand.wait_idle();

  EXPECT_FALSE(overlapped.load());
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kTasks));
  for (int i = 0; i < kTasks; ++i) EXPECT_EQ(order[i], i);
}

TEST(Strand, IndependentStrandsProgressConcurrently) {
  ThreadPool pool(4);
  Strand a(pool);
  Strand b(pool);

  // a's first task blocks until b has demonstrably run — if strands shared
  // one serial queue this would deadlock (caught by the test timeout).
  std::atomic<bool> b_ran{false};
  std::atomic<bool> a_ran{false};
  a.post([&] {
    while (!b_ran.load()) std::this_thread::yield();
    a_ran.store(true);
  });
  b.post([&] { b_ran.store(true); });
  a.wait_idle();
  b.wait_idle();
  EXPECT_TRUE(a_ran.load());
}

TEST(Strand, TasksMayPostFollowUpsOntoTheirOwnStrand) {
  ThreadPool pool(2);
  Strand strand(pool);
  std::vector<int> order;
  strand.post([&] {
    order.push_back(1);
    strand.post([&] { order.push_back(3); });
    order.push_back(2);
  });
  strand.wait_idle();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
  EXPECT_EQ(order[2], 3);
}

TEST(Strand, WaitIdleFromAPoolWorkerHelpsInsteadOfDeadlocking) {
  ThreadPool pool(1);  // a single worker forces the helping path
  Strand strand(pool);
  std::atomic<int> ran{0};
  // The outer task occupies the pool's only worker, then waits for strand
  // work that can only run if the waiter helps drain the pool queue.
  auto outer = pool.submit([&] {
    strand.post([&] { ran.fetch_add(1); });
    strand.post([&] { ran.fetch_add(1); });
    strand.wait_idle();
  });
  outer.get();
  EXPECT_EQ(ran.load(), 2);
}

// Regression: the FINAL task's closure may hold the last reference to the
// strand's owner (serve: a registry entry erased while a refit was in
// flight).  The closure dies inside drain(), running ~Owner -> ~Strand ->
// wait_idle() on the pool worker INSIDE the strand's own loop; before the
// retire-before-destroy ordering + re-entry guard this spun the worker
// forever and the pool destructor below never joined (test times out).
TEST(Strand, FinalTaskClosureOwningTheStrandDoesNotWedgeTheWorker) {
  ThreadPool pool(1);
  struct Owner {
    explicit Owner(ThreadPool& p) : strand(p) {}
    Strand strand;
  };
  std::atomic<bool> ran{false};
  auto owner = std::make_shared<Owner>(pool);
  owner->strand.post([owner, &ran] { ran.store(true); });
  owner.reset();  // the queued closure now owns the Owner (and its Strand)
  while (!ran.load()) std::this_thread::yield();
  // ~ThreadPool at scope exit must join cleanly: a wedged worker hangs here.
}

// strand.hpp promises that a throwing task terminates the process.  Without
// that, the pool's packaged_task would swallow the exception, leave the
// strand marked as draining, never run later posts, and hang ~Strand.
TEST(StrandDeathTest, ThrowingTaskTerminates) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(
      {
        ThreadPool pool(1);
        Strand strand(pool);
        strand.post([] { throw std::runtime_error("strand task failed"); });
        std::this_thread::sleep_for(std::chrono::seconds(10));
        std::_Exit(0);  // survived: skip ~Strand, which would hang here
      },
      "");
}

TEST(Strand, DestructorDrainsPostedTasks) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  {
    Strand strand(pool);
    for (int i = 0; i < 32; ++i) {
      strand.post([&] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        ran.fetch_add(1);
      });
    }
  }  // ~Strand waits for all 32
  EXPECT_EQ(ran.load(), 32);
}

}  // namespace
}  // namespace bellamy::parallel
