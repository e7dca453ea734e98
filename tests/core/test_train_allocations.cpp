// Heap allocations of a steady-state training step and of a batched
// prediction.  Modules write into buffers they own, BellamyModel keeps one
// training workspace, and the training loops refill one BellamyBatch, so
// once the first epoch has sized every buffer a step should allocate (next
// to) nothing.  A prediction does its per-context and per-scale-out work once
// per distinct value, so its allocations must not grow with queries that
// repeat them.  This binary replaces the global operator new with a counting
// one to hold both lines.
//
// Sanitizer runtimes interpose the allocator themselves, so the count is
// meaningless there and the tests skip.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <numeric>
#include <span>
#include <vector>

#include "core/bellamy_model.hpp"
#include "data/c3o_generator.hpp"
#include "nn/optimizer.hpp"
#include "util/rng.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define BELLAMY_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define BELLAMY_SANITIZED 1
#endif
#endif

namespace {
std::atomic<long> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace bellamy::core {
namespace {

// The ceiling the steady state must stay under (the value-returning design
// made ~97 per B=64 pretrain step).
constexpr long kMaxAllocationsPerStep = 8;

long allocations() { return g_allocations.load(std::memory_order_relaxed); }

std::vector<data::JobRun> corpus() {
  data::C3OGeneratorConfig cfg;
  cfg.seed = 5;
  return data::C3OGenerator(cfg).generate_algorithm("sgd").runs();
}

TEST(TrainAllocations, PretrainStepAtBatch64) {
#ifdef BELLAMY_SANITIZED
  GTEST_SKIP() << "the sanitizer runtime owns the allocator";
#endif
  const std::vector<data::JobRun> runs = corpus();
  constexpr std::size_t kBatch = 64;
  ASSERT_GT(runs.size(), 2 * kBatch);
  ASSERT_NE(runs.size() % kBatch, 0u) << "want a ragged last batch";

  BellamyModel model(BellamyConfig{}, 3);
  model.fit_normalization(runs);
  model.set_dropout_rate(0.1);
  model.set_trainable_components(true, true, true, true);
  nn::Adam::Config adam;
  adam.lr = 1e-2;
  adam.weight_decay = 1e-3;
  nn::Adam optimizer(model.parameters(), adam);
  const BellamyEncodedRuns encoded = model.encode_runs(runs);
  BellamyGatherCache cache;
  BellamyBatch batch;
  util::Rng rng(7);
  std::vector<std::size_t> order(runs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});

  long worst = 0;
  std::size_t steps = 0;
  for (int epoch = 0; epoch < 3; ++epoch) {  // epoch 0 warms the buffers up
    rng.shuffle(order);
    for (std::size_t begin = 0; begin < order.size(); begin += kBatch) {
      const std::size_t end = std::min(order.size(), begin + kBatch);
      const long before = allocations();
      optimizer.zero_grad();
      model.gather_batch(encoded, std::span<const std::size_t>(order).subspan(begin, end - begin),
                         batch, &cache);
      model.train_step(batch, 1.0);
      optimizer.step();
      if (epoch > 0) {
        worst = std::max(worst, allocations() - before);
        ++steps;
      }
    }
  }
  ASSERT_GT(steps, 0u);
  EXPECT_LE(worst, kMaxAllocationsPerStep) << "over " << steps << " steps";
}

TEST(TrainAllocations, FullBatchFinetuneEpochAtBatch3) {
#ifdef BELLAMY_SANITIZED
  GTEST_SKIP() << "the sanitizer runtime owns the allocator";
#endif
  const std::vector<data::JobRun> runs = corpus();
  BellamyModel model(BellamyConfig{}, 4);
  model.fit_normalization(runs);
  model.set_dropout_rate(0.0);
  model.set_trainable_components(true, false, false, true);  // f and z, as after the unlock
  nn::Adam::Config adam;
  adam.lr = 1e-3;
  adam.weight_decay = 1e-3;
  nn::Adam optimizer(model.parameters(), adam);
  const BellamyBatch batch = model.make_batch({runs[0], runs[1], runs[2]});

  long worst = 0;
  for (int epoch = 0; epoch < 20; ++epoch) {  // epoch 0 warms the buffers up
    const long before = allocations();
    optimizer.zero_grad();
    model.train_step(batch, 0.0);
    optimizer.step();
    if (epoch > 0) worst = std::max(worst, allocations() - before);
  }
  EXPECT_LE(worst, kMaxAllocationsPerStep);
}

// A sweep batch repeats a few contexts and scale-outs many times.  Encoding
// and the f forward work per distinct value, so repeating every query four
// times must not add a heap allocation.  Encoding every run on its own would
// allocate per query and make the B=2048 count about four times the B=512
// one.
TEST(PredictAllocations, RepeatedQueriesAddNoAllocations) {
#ifdef BELLAMY_SANITIZED
  GTEST_SKIP() << "the sanitizer runtime owns the allocator";
#endif
  data::C3OGeneratorConfig cfg;
  cfg.seed = 5;
  const data::Dataset ds = data::C3OGenerator(cfg).generate_algorithm("sgd", 8);
  const auto groups = ds.contexts();
  ASSERT_EQ(groups.size(), 8u);
  BellamyModel model(BellamyConfig{}, 6);
  model.fit_normalization(ds.runs());
  model.set_predict_chunk_threshold(0);  // one serial pass, no pool

  std::vector<data::JobRun> once;
  for (const data::ContextGroup& group : groups) {
    for (int x = 1; x <= 64; ++x) {
      data::JobRun q = group.runs.front();
      q.scale_out = x;
      once.push_back(std::move(q));
    }
  }
  std::vector<data::JobRun> four;
  for (int repeat = 0; repeat < 4; ++repeat) four.insert(four.end(), once.begin(), once.end());

  const auto allocations_of = [&](const std::vector<data::JobRun>& batch) {
    model.predict_batch(batch);  // warm up
    const long before = allocations();
    model.predict_batch(batch);
    return allocations() - before;
  };
  const long single = allocations_of(once);
  const long repeated = allocations_of(four);
  EXPECT_LE(repeated, single) << "B=" << once.size() << " vs B=" << four.size();
}

}  // namespace
}  // namespace bellamy::core
