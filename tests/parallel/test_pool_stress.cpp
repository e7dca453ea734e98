// Concurrency stress suite for the ThreadPool (ctest labels:
// parallel + stress; the TSan CI lane runs it under -fsanitize=thread).
//
// The seeded soak mixes every submission path the rest of the codebase
// exercises — external submits, worker-recursive submits, nested
// parallel_for — across 1/2/4/8 workers, and asserts the
// pool's three load-bearing properties:
//
//   1. exactly-once execution (every task id claimed once, none lost),
//   2. no lost wakeups (every task finishes within a bounded wall-clock
//      budget — a missed notify would leave a queued task unrun forever),
//   3. bit-identical parallel_map results vs serial (integer arithmetic,
//      summed serially afterwards, so any scheduling of the chunks must
//      produce the same bits).
//
// Acceptance: 20/20 seeds green.  Each seed derives its worker count, task
// mix, and burst shape from a SplitMix64 stream, so the 20 runs cover the
// whole worker-count grid with different interleavings.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"

namespace bellamy::parallel {
namespace {

// Self-contained deterministic stream (util::Rng would also do; SplitMix64
// keeps the suite dependent on nothing but the parallel layer under test).
struct SplitMix64 {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }
};

// Wait until `finished` tasks reach `target` within a wall-clock budget: a
// lost wakeup leaves a queued task unrun forever, so "reaches the target
// within the budget" IS the no-lost-wakeup assertion.  The budget is
// generous (single-core CI under TSan is ~10x slow) but bounded — a hang
// fails the test instead of timing out the ctest run.
void wait_finished_bounded(const std::atomic<std::size_t>& finished, std::size_t target,
                           std::chrono::seconds budget) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (finished.load() < target && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(finished.load(), target)
      << "tasks did not finish within " << budget.count() << "s — lost wakeup or lost task";
}

class PoolStress : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PoolStress, SeededMixedSoakRunsEveryTaskExactlyOnce) {
  const std::uint64_t seed = GetParam();
  SplitMix64 rng{seed * 0x2545f4914f6cdd1dull + 1};

  static constexpr std::size_t kWorkerGrid[4] = {1, 2, 4, 8};
  const std::size_t workers = kWorkerGrid[seed % 4];
  ThreadPool pool(workers);

  constexpr std::size_t kIds = 4096;
  std::vector<std::atomic<std::uint32_t>> runs(kIds);
  for (auto& r : runs) r.store(0);
  std::atomic<std::size_t> next_id{0};
  // Task bodies that have returned; every claimed id below kIds is
  // submitted exactly once, so the soak is drained at kIds.
  std::atomic<std::size_t> finished{0};
  struct CountOnReturn {
    std::atomic<std::size_t>& finished;
    ~CountOnReturn() { finished.fetch_add(1); }
  };

  // Claim a fresh task id; returns kIds when the budget is exhausted (the
  // task then just doesn't recurse further).
  auto claim_id = [&]() { return next_id.fetch_add(1); };
  auto mark = [&](std::size_t id) {
    if (id < kIds) runs[id].fetch_add(1);
  };

  // Worker-recursive task: marks its id, then maybe spawns children and
  // maybe runs a nested parallel_for from inside the pool.
  std::function<void(std::size_t, std::uint64_t)> task_body =
      [&](std::size_t id, std::uint64_t stream) {
        const CountOnReturn count_on_return{finished};
        mark(id);
        if (id >= kIds) return;
        SplitMix64 local{stream};
        const std::uint64_t shape = local.below(8);
        if (shape == 0) {  // recursive fan-out: two children from a worker
          for (int c = 0; c < 2; ++c) {
            const std::size_t child = claim_id();
            if (child < kIds) {
              pool.submit(task_body, child, local.next());
            }
          }
        } else if (shape == 1) {  // nested parallel_for from a pool worker
          std::atomic<std::uint32_t> hits{0};
          parallel_for(
              8, [&](std::size_t) { hits.fetch_add(1); }, &pool);
          EXPECT_EQ(hits.load(), 8u);
        }
      };

  // External submitters: a couple of plain threads pushing onto the queue
  // while the workers generate their own recursive load.
  const int submitters = 1 + static_cast<int>(rng.below(3));
  std::vector<std::thread> external;
  external.reserve(static_cast<std::size_t>(submitters));
  std::atomic<bool> go{false};
  for (int s = 0; s < submitters; ++s) {
    const std::uint64_t stream = rng.next();
    external.emplace_back([&, stream] {
      SplitMix64 local{stream};
      while (!go.load()) std::this_thread::yield();
      for (;;) {
        const std::size_t id = claim_id();
        if (id >= kIds) break;
        pool.submit(task_body, id, local.next());
        if (local.below(32) == 0) std::this_thread::yield();
      }
    });
  }

  // Serial vs parallel_map-then-serial-sum, exact integer arithmetic: any
  // chunking and any interleaving must produce the same bits.
  constexpr std::size_t kReduceN = 10000;
  auto value = [](std::size_t i) {
    return static_cast<std::uint64_t>(i) * 2654435761ull + 17;
  };
  std::vector<std::size_t> indices(kReduceN);
  std::iota(indices.begin(), indices.end(), std::size_t{0});
  std::uint64_t serial_sum = 0;
  for (std::size_t i = 0; i < kReduceN; ++i) serial_sum += value(i);

  go.store(true);
  // Main thread interleaves nested-free parallel_map calls while the
  // external submitters and workers churn.
  for (int probe = 0; probe < 4; ++probe) {
    const auto values = parallel_map(indices, value, &pool);
    std::uint64_t parallel_sum = 0;
    for (const auto v : values) parallel_sum += v;
    EXPECT_EQ(parallel_sum, serial_sum) << "parallel_map diverged from serial";
  }

  for (auto& t : external) t.join();
  // Everything submitted; drain and verify exactly-once.
  wait_finished_bounded(finished, kIds, std::chrono::seconds(120));

  std::size_t executed = 0;
  for (std::size_t id = 0; id < kIds; ++id) {
    const std::uint32_t n = runs[id].load();
    if (n != 1) {
      ADD_FAILURE() << "task " << id << " ran " << n << " times (seed " << seed
                    << ", workers " << workers << ")";
      break;
    }
    ++executed;
  }
  EXPECT_EQ(executed, kIds);
}

// 20 seeds; the worker grid {1,2,4,8} cycles through seed % 4, so every
// worker count sees five different interleaving seeds.
INSTANTIATE_TEST_SUITE_P(TwentySeeds, PoolStress,
                         ::testing::Range<std::uint64_t>(0, 20));

// Submit/park churn: tiny batches with full drains in between is the worst
// case for sleep/wake (every batch must wake a parked worker).
// A lost wakeup hangs a batch; the bounded wait converts that into a fail.
TEST(PoolStressFocused, RepeatedDrainCyclesNeverLoseAWakeup) {
  ThreadPool pool(2);
  std::atomic<std::size_t> done{0};
  for (int cycle = 0; cycle < 500; ++cycle) {
    for (int i = 0; i < 4; ++i) {
      pool.submit([&done] { done.fetch_add(1); });
    }
    const auto drained = static_cast<std::size_t>((cycle + 1) * 4);
    wait_finished_bounded(done, drained, std::chrono::seconds(60));
    ASSERT_EQ(done.load(), drained);
  }
}

// Nested parallel_for at depth 3 from pool workers on every worker count:
// the helping protocol must keep making progress with all workers occupied
// by outer frames.
TEST(PoolStressFocused, DeeplyNestedParallelForCompletesOnEveryWorkerCount) {
  for (std::size_t workers : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(workers);
    std::atomic<std::uint32_t> leaf_hits{0};
    parallel_for(
        4,
        [&](std::size_t) {
          parallel_for(
              4,
              [&](std::size_t) {
                parallel_for(
                    4, [&](std::size_t) { leaf_hits.fetch_add(1); }, &pool);
              },
              &pool);
        },
        &pool);
    EXPECT_EQ(leaf_hits.load(), 64u) << "workers=" << workers;
  }
}

}  // namespace
}  // namespace bellamy::parallel
