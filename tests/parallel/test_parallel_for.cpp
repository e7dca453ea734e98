#include "parallel/parallel_for.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace bellamy::parallel {
namespace {

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); }, &pool);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, ZeroIterationsIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  parallel_for(0, [&](std::size_t) { called = true; }, &pool);
  EXPECT_FALSE(called);
}

TEST(ParallelFor, SingleIteration) {
  ThreadPool pool(2);
  int value = 0;
  parallel_for(1, [&](std::size_t i) { value = static_cast<int>(i) + 5; }, &pool);
  EXPECT_EQ(value, 5);
}

TEST(ParallelFor, PropagatesFirstException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      parallel_for(
          100,
          [&](std::size_t i) {
            if (i == 57) throw std::runtime_error("bad index");
          },
          &pool),
      std::runtime_error);
}

TEST(ParallelFor, WorksWithSingleThreadPool) {
  ThreadPool pool(1);
  std::vector<int> out(50, 0);
  parallel_for(out.size(), [&](std::size_t i) { out[i] = static_cast<int>(i * i); }, &pool);
  EXPECT_EQ(out[7], 49);
}

TEST(ParallelMap, PreservesOrder) {
  ThreadPool pool(4);
  std::vector<int> in(100);
  std::iota(in.begin(), in.end(), 0);
  const auto out = parallel_map(in, [](int v) { return v * 2; }, &pool);
  ASSERT_EQ(out.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) EXPECT_EQ(out[i], static_cast<int>(i) * 2);
}

TEST(ParallelMap, EmptyInput) {
  ThreadPool pool(2);
  const std::vector<int> in;
  const auto out = parallel_map(in, [](int v) { return v; }, &pool);
  EXPECT_TRUE(out.empty());
}

// A throwing chunk must not let parallel_for return while sibling chunks
// are still running: they read `body` and everything it captures by
// reference from the caller's frame.
TEST(ParallelFor, ThrowingChunkWaitsForEverySibling) {
  ThreadPool pool(4);
  std::atomic<int> finished{0};
  EXPECT_THROW(parallel_for(
                   16,
                   [&](std::size_t i) {
                     if (i == 0) throw std::runtime_error("chunk 0 failed");
                     std::this_thread::sleep_for(std::chrono::milliseconds(2));
                     finished.fetch_add(1);
                   },
                   &pool),
               std::runtime_error);
  EXPECT_EQ(finished.load(), 15) << "parallel_for returned before its sibling chunks finished";
}

TEST(ParallelFor, LargeWorkStress) {
  ThreadPool pool(4);
  std::atomic<long long> sum{0};
  parallel_for(
      100000, [&](std::size_t i) { sum.fetch_add(static_cast<long long>(i), std::memory_order_relaxed); },
      &pool);
  EXPECT_EQ(sum.load(), 100000LL * 99999 / 2);
}

// Nested fan-out: a parallel_for issued from inside a worker of the same
// pool must complete (the caller helps drain the queue instead of blocking a
// worker forever) and still visit every index exactly once.
TEST(ParallelFor, NestedFromPoolWorkerCompletes) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(4 * 200);
  parallel_for(
      4,
      [&](std::size_t outer) {
        parallel_for(
            200, [&](std::size_t inner) { hits[outer * 200 + inner].fetch_add(1); }, &pool);
      },
      &pool);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// Even when EVERY worker blocks on a nested fan-out simultaneously, helping
// guarantees progress — this deadlocked (or serialised wrongly) with a
// plain future wait.
TEST(ParallelFor, AllWorkersNestingSimultaneously) {
  ThreadPool pool(4);
  std::vector<long long> slots(8 * 1000, -1);
  parallel_for(
      8,
      [&](std::size_t outer) {
        parallel_for(
            1000,
            [&](std::size_t inner) {
              slots[outer * 1000 + inner] = static_cast<long long>(inner);
            },
            &pool);
      },
      &pool);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    EXPECT_EQ(slots[i], static_cast<long long>(i % 1000));
  }
}

TEST(ParallelFor, NestedExceptionPropagates) {
  ThreadPool pool(2);
  EXPECT_THROW(
      parallel_for(
          2,
          [&](std::size_t) {
            parallel_for(
                50,
                [](std::size_t i) {
                  if (i == 31) throw std::runtime_error("nested failure");
                },
                &pool);
          },
          &pool),
      std::runtime_error);
}

TEST(ThreadPool, TryRunPendingTaskDrainsQueue) {
  ThreadPool pool(1);
  // Park the single worker so submitted tasks stay queued.  Wait until the
  // worker has actually STARTED the parking task — otherwise this thread
  // could pop it out of the queue itself and block on its own promise.
  std::promise<void> started;
  std::promise<void> release;
  auto released = release.get_future().share();
  auto parked = pool.submit([&started, released] {
    started.set_value();
    released.wait();
  });
  started.get_future().wait();
  std::atomic<int> ran{0};
  std::vector<std::future<void>> tasks;
  for (int i = 0; i < 3; ++i) tasks.push_back(pool.submit([&ran] { ran.fetch_add(1); }));
  // Drain from THIS thread while the worker is blocked.
  while (pool.try_run_pending_task()) {
  }
  EXPECT_EQ(ran.load(), 3);
  release.set_value();
  parked.get();
  for (auto& t : tasks) t.get();
  EXPECT_FALSE(pool.try_run_pending_task());
}

}  // namespace
}  // namespace bellamy::parallel
