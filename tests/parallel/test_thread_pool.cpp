#include "parallel/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <thread>
#include <vector>

namespace bellamy::parallel {
namespace {

TEST(ThreadPool, ExecutesSubmittedTask) {
  ThreadPool pool(2);
  auto f = pool.submit([] { return 21 * 2; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, ExecutesManyTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.submit([&counter] { counter.fetch_add(1); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, PassesArguments) {
  ThreadPool pool(1);
  auto f = pool.submit([](int a, int b) { return a + b; }, 3, 4);
  EXPECT_EQ(f.get(), 7);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(1);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, SizeMatchesRequest) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, ZeroThreadsUsesHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, TasksRunConcurrently) {
  ThreadPool pool(2);
  std::atomic<int> in_flight{0};
  std::atomic<int> max_in_flight{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(pool.submit([&] {
      const int now = in_flight.fetch_add(1) + 1;
      int prev = max_in_flight.load();
      while (prev < now && !max_in_flight.compare_exchange_weak(prev, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      in_flight.fetch_sub(1);
    }));
  }
  for (auto& f : futures) f.get();
  if (std::thread::hardware_concurrency() > 1) {
    EXPECT_GE(max_in_flight.load(), 1);
  }
  EXPECT_EQ(in_flight.load(), 0);
}

TEST(ThreadPool, GlobalPoolIsSingleton) {
  EXPECT_EQ(&ThreadPool::global(), &ThreadPool::global());
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 20; ++i) {
      pool.submit([&done] { done.fetch_add(1); });
    }
  }  // destructor joins workers after queue drains
  EXPECT_EQ(done.load(), 20);
}

TEST(ThreadPool, TryRunPendingTaskFromExternalThread) {
  // Any thread may help: an external (non-worker) caller pops from the same
  // queue the workers use.
  ThreadPool pool(1);
  std::atomic<bool> blocker_started{false};
  std::atomic<bool> release{false};
  auto blocker = pool.submit([&] {  // occupy the only worker
    blocker_started.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  // Wait until the WORKER holds the blocker — otherwise this thread's
  // helping loop below would claim it first (queue FIFO) and spin on a
  // release flag only set after the loop.
  while (!blocker_started.load()) std::this_thread::yield();
  std::atomic<int> ran{0};
  for (int i = 0; i < 4; ++i) pool.submit([&ran] { ran.fetch_add(1); });
  while (pool.try_run_pending_task()) {
  }
  EXPECT_EQ(ran.load(), 4);  // helper drained everything the worker couldn't
  release.store(true);
  blocker.get();
}

TEST(ThreadPool, ExternalSubmittersFromManyThreadsRunExactlyOnce) {
  // Hammers the shared queue: 8 submitter threads, one pool.
  ThreadPool pool(4);
  constexpr int kPerThread = 500;
  constexpr int kThreads = 8;
  std::vector<std::atomic<std::uint8_t>> ran(kThreads * kPerThread);
  for (auto& r : ran) r.store(0);
  std::vector<std::thread> submitters;
  std::vector<std::vector<std::future<void>>> futures(kThreads);
  std::atomic<int> double_runs{0};
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const int id = t * kPerThread + i;
        futures[static_cast<std::size_t>(t)].push_back(pool.submit([&, id] {
          if (ran[static_cast<std::size_t>(id)].fetch_add(1) != 0) {
            double_runs.fetch_add(1);
          }
        }));
      }
    });
  }
  for (auto& s : submitters) s.join();
  for (auto& per_thread : futures) {
    for (auto& f : per_thread) f.get();
  }
  EXPECT_EQ(double_runs.load(), 0);
  int executed = 0;
  for (auto& r : ran) executed += r.load();
  EXPECT_EQ(executed, kThreads * kPerThread);
}

TEST(ThreadPool, WorkerRecursiveSubmitCompletesOnSingleWorker) {
  // A task submitting from inside the pool queues its children behind
  // itself; with one worker, that worker must run every descendant.  A
  // node counts itself before it spawns, so the count reaching the tree
  // size means no task is left to submit more.
  ThreadPool pool(1);
  std::atomic<int> ran{0};
  std::function<void(int)> spawn = [&](int depth) {
    ran.fetch_add(1);
    if (depth > 0) {
      pool.submit(spawn, depth - 1);
      pool.submit(spawn, depth - 1);
    }
  };
  pool.submit(spawn, 6).get();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (ran.load() < (1 << 7) - 1 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(ran.load(), (1 << 7) - 1);  // full binary tree of depth 6
}

}  // namespace
}  // namespace bellamy::parallel
