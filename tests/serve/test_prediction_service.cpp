#include "serve/prediction_service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <deque>
#include <random>
#include <thread>
#include <vector>

#include "core/trainer.hpp"
#include "core/variants.hpp"
#include "data/c3o_generator.hpp"
#include "serve/serve.hpp"
#include "support/registry_testing.hpp"

namespace bellamy::serve {
namespace {

struct Fixture {
  Fixture() {
    data::C3OGeneratorConfig cfg;
    cfg.seed = 83;
    ds = data::C3OGenerator(cfg).generate_algorithm("sgd", 4);
    model.emplace(core::BellamyConfig{}, 17);
    core::PreTrainConfig pre;
    pre.epochs = 80;
    core::pretrain(*model, ds.runs(), pre);
  }

  /// A deterministic query stream: the context template with scale-outs
  /// swept 1..60.
  std::vector<data::JobRun> make_queries(std::size_t n) const {
    std::vector<data::JobRun> queries;
    queries.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      data::JobRun q = ds.runs().front();
      q.scale_out = static_cast<int>(1 + i % 60);
      queries.push_back(std::move(q));
    }
    return queries;
  }

  data::Dataset ds;
  std::optional<core::BellamyModel> model;
};

core::FineTuneConfig quick_finetune() {
  core::FineTuneConfig cfg;
  cfg.max_epochs = 100;
  cfg.patience = 50;
  return cfg;
}

// The acceptance-criteria soak: >= 8 concurrent client threads with
// randomized arrival, every response bit-identical to a serial
// predict-one-by-one loop over the same stream, and exactly one response per
// request (nothing lost, nothing duplicated, nothing cross-wired — a value
// landing on the wrong request would break bit-identity, because every
// scale-out predicts differently).
TEST(PredictionService, ConcurrentSoakIsBitIdenticalToSerialLoop) {
  Fixture fx;
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 48;

  const std::vector<data::JobRun> queries = fx.make_queries(kThreads * kPerThread);
  // Serial reference BEFORE publishing: the per-sample loop on the source.
  std::vector<double> expected(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    expected[i] = fx.model->predict_one(queries[i]);
  }

  ModelRegistry registry;
  const ModelHandle handle = registry.publish({"sgd", "soak"}, *fx.model).unwrap();

  ServeOptions cfg;
  cfg.max_batch = 16;
  cfg.max_queue = 64;
  cfg.flush_deadline = std::chrono::microseconds(200);
  cfg.workers = 2;
  PredictionService service(registry, cfg);

  std::atomic<std::size_t> failures{0};
  std::atomic<std::size_t> mismatches{0};
  std::atomic<std::size_t> responses{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      std::mt19937 rng(static_cast<unsigned>(1234 + t));
      std::uniform_int_distribution<int> jitter_us(0, 120);
      std::uniform_int_distribution<int> coin(0, 3);
      // A small async window per client so micro-batches actually fill.
      std::vector<std::pair<std::size_t, std::future<ServeResult<double>>>> window;
      auto drain_one = [&] {
        auto [index, future] = std::move(window.front());
        window.erase(window.begin());
        ServeResult<double> r = future.get();
        if (!r.ok()) {
          failures.fetch_add(1);
          return;
        }
        responses.fetch_add(1);
        if (r.value() != expected[index]) mismatches.fetch_add(1);
      };
      for (std::size_t i = 0; i < kPerThread; ++i) {
        const std::size_t index = t * kPerThread + i;
        window.emplace_back(index, service.predict_async(handle, queries[index]));
        if (window.size() >= 8) drain_one();
        if (coin(rng) == 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(jitter_us(rng)));
        }
      }
      while (!window.empty()) drain_one();
    });
  }
  for (std::thread& c : clients) c.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(responses.load(), queries.size());  // one response per request

  const ServeMetrics m = service.metrics(handle).unwrap();
  EXPECT_EQ(m.requests, queries.size());
  EXPECT_EQ(m.responses, queries.size());
  EXPECT_EQ(m.queue_depth, 0u);
  EXPECT_GE(m.batches, 1u);
  EXPECT_LE(m.batches, m.responses);
  EXPECT_LE(m.max_queue_depth, cfg.max_queue);
  // Every batch was flushed for exactly one reason.
  EXPECT_EQ(m.coalesced + m.deadline_flushes + m.drain_flushes, m.batches);
}

TEST(PredictionService, CoalescesBurstsIntoFullBatches) {
  Fixture fx;
  ModelRegistry registry;
  const ModelHandle handle = registry.publish({"sgd", "burst"}, *fx.model).unwrap();

  ServeOptions cfg;
  cfg.max_batch = 16;
  cfg.flush_deadline = std::chrono::seconds(10);  // only full batches may flush
  cfg.workers = 1;
  PredictionService service(registry, cfg);

  const std::vector<data::JobRun> queries = fx.make_queries(64);
  std::vector<std::future<ServeResult<double>>> futures;
  futures.reserve(queries.size());
  for (const auto& q : queries) futures.push_back(service.predict_async(handle, q));
  for (auto& f : futures) {
    const auto r = f.get();
    ASSERT_TRUE(r.ok()) << r.error_text();
  }

  const ServeMetrics m = service.metrics(handle).unwrap();
  EXPECT_EQ(m.responses, 64u);
  EXPECT_EQ(m.batches, 4u);  // 64 requests / full batches of 16
  EXPECT_EQ(m.coalesced, 4u);  // every flush was size-triggered
  EXPECT_EQ(m.coalesced_requests, 64u);
  EXPECT_EQ(m.deadline_flushes, 0u);
  EXPECT_EQ(m.drain_flushes, 0u);
  EXPECT_DOUBLE_EQ(m.mean_batch_fill(), 16.0);
}

TEST(PredictionService, DeadlineFlushesAPartialBatch) {
  Fixture fx;
  ModelRegistry registry;
  const ModelHandle handle = registry.publish({"sgd", "deadline"}, *fx.model).unwrap();

  ServeOptions cfg;
  cfg.max_batch = 1000;  // a single request can never fill a batch
  cfg.flush_deadline = std::chrono::milliseconds(5);
  PredictionService service(registry, cfg);

  const data::JobRun query = fx.make_queries(1)[0];
  const auto r = service.predict(handle, query);
  ASSERT_TRUE(r.ok()) << r.error_text();
  EXPECT_EQ(r.value(), fx.model->predict_one(query));

  const ServeMetrics m = service.metrics(handle).unwrap();
  EXPECT_EQ(m.batches, 1u);
  EXPECT_EQ(m.deadline_flushes, 1u);
  EXPECT_EQ(m.coalesced, 0u);           // the flush was deadline-, not size-triggered
  EXPECT_EQ(m.coalesced_requests, 0u);  // a batch of one shared nothing
}

TEST(PredictionService, TypedErrorsForUnknownAndUnfittedHandles) {
  Fixture fx;
  ModelRegistry registry;
  PredictionService service(registry);

  const data::JobRun query = fx.make_queries(1)[0];
  EXPECT_EQ(service.predict(ModelHandle{}, query).status(), ServeStatus::kUnknownModel);
  EXPECT_EQ(service.metrics(ModelHandle{}).status(), ServeStatus::kUnknownModel);

  const ModelHandle reserved = unfitted_entry(registry, {"sgd", "pending"});
  const auto r = service.predict(reserved, query);
  ASSERT_EQ(r.status(), ServeStatus::kNotFitted);
  EXPECT_NE(r.message().find("sgd/pending"), std::string::npos) << r.message();

  // predict_many surfaces the first per-request error.
  const auto many = service.predict_many(reserved, fx.make_queries(3));
  EXPECT_EQ(many.status(), ServeStatus::kNotFitted);
  // ...and an empty batch succeeds trivially.
  EXPECT_TRUE(service.predict_many(reserved, {}).ok());
}

// A malformed query fails alone: it must not take down the requests that
// would have been coalesced into its micro-batch.
TEST(PredictionService, InvalidScaleOutFailsOnlyItsOwnRequest) {
  Fixture fx;
  ModelRegistry registry;
  const ModelHandle handle = registry.publish({"sgd", "invalid"}, *fx.model).unwrap();

  ServeOptions cfg;
  cfg.max_batch = 2;  // the bad and the good request would fill one batch
  cfg.flush_deadline = std::chrono::milliseconds(5);
  PredictionService service(registry, cfg);

  data::JobRun bad = fx.make_queries(1)[0];
  bad.scale_out = 0;
  const data::JobRun good = fx.make_queries(2)[1];
  auto bad_future = service.predict_async(handle, bad);
  auto good_future = service.predict_async(handle, good);

  const auto bad_result = bad_future.get();
  EXPECT_EQ(bad_result.status(), ServeStatus::kInvalidArgument) << bad_result.error_text();
  const auto good_result = good_future.get();
  ASSERT_TRUE(good_result.ok()) << good_result.error_text();
  EXPECT_EQ(good_result.value(), fx.model->predict_one(good));
}

TEST(PredictionService, StopDrainsAcceptedRequestsAndRejectsNewOnes) {
  Fixture fx;
  ModelRegistry registry;
  const ModelHandle handle = registry.publish({"sgd", "stop"}, *fx.model).unwrap();

  ServeOptions cfg;
  cfg.max_batch = 1000;
  cfg.flush_deadline = std::chrono::seconds(10);  // parked until stop() drains
  PredictionService service(registry, cfg);

  const std::vector<data::JobRun> queries = fx.make_queries(12);
  std::vector<std::future<ServeResult<double>>> futures;
  for (const auto& q : queries) futures.push_back(service.predict_async(handle, q));
  service.stop();

  for (std::size_t i = 0; i < futures.size(); ++i) {
    const auto r = futures[i].get();
    ASSERT_TRUE(r.ok()) << r.error_text();  // accepted requests are never lost
    EXPECT_EQ(r.value(), fx.model->predict_one(queries[i]));
  }
  EXPECT_EQ(service.predict(handle, queries[0]).status(), ServeStatus::kShutdown);
}

TEST(PredictionService, RefitHotSwapsBetweenMicroBatches) {
  Fixture fx;
  ModelRegistry registry;
  const ModelHandle handle = registry.publish({"sgd", "swap"}, *fx.model).unwrap();
  PredictionService service(registry);

  const data::JobRun query = fx.make_queries(1)[0];
  const double before = service.predict(handle, query).unwrap();
  EXPECT_EQ(before, fx.model->predict_one(query));

  // Refit on a few target-context runs; the service must serve the NEW
  // weights afterwards, bit-identically to the legacy fine-tune recipe.
  const auto groups = fx.ds.contexts();
  const std::vector<data::JobRun> observed(groups.front().runs.begin(),
                                           groups.front().runs.begin() + 3);
  registry.refit(handle, observed, quick_finetune()).expect();

  auto reference = core::BellamyModel::from_checkpoint(*registry.base_checkpoint(handle));
  const core::FineTuneConfig cfg = core::apply_reuse_strategy(
      core::ReuseStrategy::kPartialUnfreeze, reference, quick_finetune());
  core::finetune(reference, observed, cfg);

  const double after = service.predict(handle, query).unwrap();
  EXPECT_EQ(after, reference.predict_one(query));
  // Two distinct weight states were served: the swap reached the next batch.
  EXPECT_NE(after, before);

  // The replica counters are retired (kept for the wire format only).
  const ServeMetrics m = service.metrics(handle).unwrap();
  EXPECT_EQ(m.replica_hits + m.replica_misses + m.replica_invalidations, 0u);
}

TEST(PredictionService, QosValidationAndIntrospection) {
  Fixture fx;
  ModelRegistry registry;
  const ModelHandle handle = registry.publish({"sgd", "qos"}, *fx.model).unwrap();
  PredictionService service(registry);

  // Untouched lanes report the default policy.
  EXPECT_EQ(service.qos(handle).unwrap().qos, QosClass::kInteractive);
  EXPECT_DOUBLE_EQ(service.qos(handle).unwrap().weight, 1.0);
  EXPECT_EQ(service.qos(handle).unwrap().max_lag.count(), 0);

  service.set_qos(handle, HandleQos{QosClass::kInteractive, 4.0}).expect();
  EXPECT_EQ(service.qos(handle).unwrap().qos, QosClass::kInteractive);
  EXPECT_DOUBLE_EQ(service.qos(handle).unwrap().weight, 4.0);

  EXPECT_EQ(service.set_qos(handle, HandleQos{QosClass::kBulk, 0.0}).status(),
            ServeStatus::kInvalidArgument);
  EXPECT_EQ(service.set_qos(handle, HandleQos{QosClass::kBulk, -1.0}).status(),
            ServeStatus::kInvalidArgument);
  EXPECT_EQ(service.set_qos(ModelHandle{}, HandleQos{}).status(),
            ServeStatus::kUnknownModel);
  EXPECT_EQ(service.qos(ModelHandle{}).status(), ServeStatus::kUnknownModel);
}

// The acceptance-criteria starvation test: one handle saturated by bulk
// traffic must not starve an interactive handle.  The hot handle is created
// FIRST (lower id), which under the old id-order lane scan made it win every
// dispatch while its queue was non-empty — the cold handle's latency was
// unbounded at saturation.  The deadline-ordered dispatcher bounds it: a
// cold request's virtual deadline expires while hot batches are merely
// recent, so the cold lane sorts ahead.
TEST(PredictionService, SaturatedBulkHandleCannotStarveInteractiveHandle) {
  Fixture fx;
  ModelRegistry registry;
  const ModelHandle hot = registry.publish({"sgd", "hot-bulk"}, *fx.model).unwrap();
  const ModelHandle cold = registry.publish({"sgd", "cold-interactive"}, *fx.model).unwrap();

  ServeOptions opt;
  opt.max_batch = 16;
  opt.max_queue = 256;
  opt.flush_deadline = std::chrono::microseconds(500);
  opt.workers = 1;  // a single dispatcher makes the ordering decision visible
  PredictionService service(registry, opt);
  service.set_qos(hot, HandleQos{QosClass::kBulk, 1.0}).expect();
  service.set_qos(cold, HandleQos{QosClass::kInteractive, 4.0}).expect();

  const std::vector<data::JobRun> queries = fx.make_queries(60);
  constexpr std::size_t kColdProbes = 60;

  auto cold_latencies_ms = [&](std::size_t n) {
    std::vector<double> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const auto start = std::chrono::steady_clock::now();
      const auto r = service.predict(cold, queries[i % queries.size()]);
      const auto end = std::chrono::steady_clock::now();
      EXPECT_TRUE(r.ok()) << r.error_text();
      out.push_back(std::chrono::duration<double, std::milli>(end - start).count());
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  auto p99 = [](const std::vector<double>& sorted) {
    return sorted[(sorted.size() * 99) / 100];
  };

  // Unloaded reference first.
  const std::vector<double> unloaded = cold_latencies_ms(kColdProbes);

  // Saturate the hot handle: 3 producers, each keeping a deep async window
  // in flight until the cold probes finish.
  std::atomic<bool> stop_flood{false};
  std::atomic<std::uint64_t> hot_ok{0};
  std::vector<std::thread> flood;
  for (int t = 0; t < 3; ++t) {
    flood.emplace_back([&] {
      std::deque<std::future<ServeResult<double>>> window;
      std::size_t i = 0;
      while (!stop_flood.load(std::memory_order_relaxed)) {
        window.push_back(service.predict_async(hot, queries[i++ % queries.size()]));
        if (window.size() >= 48) {
          if (window.front().get().ok()) hot_ok.fetch_add(1, std::memory_order_relaxed);
          window.pop_front();
        }
      }
      while (!window.empty()) {
        if (window.front().get().ok()) hot_ok.fetch_add(1, std::memory_order_relaxed);
        window.pop_front();
      }
    });
  }
  // Let the flood reach saturation before probing.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  const std::vector<double> loaded = cold_latencies_ms(kColdProbes);
  stop_flood.store(true);
  for (std::thread& t : flood) t.join();

  // The hot handle really was saturated the whole time...
  EXPECT_GT(hot_ok.load(), kColdProbes * 10);
  // ...yet the cold handle's p99 stays within a bounded factor of its
  // unloaded p99.  The factor is deliberately generous (shared CI runners);
  // under the old id-order scan the loaded probes do not complete until the
  // flood stops, which fails this by orders of magnitude.
  EXPECT_LT(p99(loaded), 50.0 * p99(unloaded) + 100.0)
      << "unloaded p99 " << p99(unloaded) << " ms, loaded p99 " << p99(loaded) << " ms";

  const ServeMetrics cold_m = service.metrics(cold).unwrap();
  EXPECT_EQ(cold_m.requests, cold_m.responses + cold_m.queue_depth);
  // Dispatch lag of the interactive lane stayed bounded (no starvation).
  EXPECT_LT(cold_m.max_dispatch_lag_us, 1000000u);
}

// Satellite: metrics consistency under the cross-handle dispatcher.  A
// randomized multi-handle soak with mixed priorities and a concurrent
// refit_async must leave every lane's books balanced:
//   requests == responses,  coalesced + deadline_flushes == batches
// (no drain flushes — the service is still running when we check), and the
// refit neither blocks nor fails a single predict call.
TEST(PredictionService, MetricsStayConsistentUnderMixedPrioritySoakWithRefitAsync) {
  Fixture fx;
  ModelRegistry registry;
  constexpr std::size_t kHandles = 4;
  std::vector<ModelHandle> handles;
  for (std::size_t h = 0; h < kHandles; ++h) {
    handles.push_back(
        registry.publish({"sgd", "soak-" + std::to_string(h)}, *fx.model).unwrap());
  }

  ServeOptions opt;
  opt.max_batch = 8;
  opt.max_queue = 64;
  opt.flush_deadline = std::chrono::microseconds(300);
  opt.workers = 2;
  PredictionService service(registry, opt);
  service.set_qos(handles[0], HandleQos{QosClass::kInteractive, 4.0}).expect();
  service.set_qos(handles[1], HandleQos{QosClass::kBulk, 1.0}).expect();
  service.set_qos(handles[2], HandleQos{QosClass::kBulk, 0.5}).expect();
  // handles[3] keeps the default policy.

  const std::vector<data::JobRun> queries = fx.make_queries(60);
  constexpr std::size_t kThreads = 6;
  constexpr std::size_t kPerThread = 80;

  std::atomic<std::size_t> failures{0};
  std::array<std::atomic<std::uint64_t>, kHandles> issued{};
  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      std::mt19937 rng(static_cast<unsigned>(99 + t));
      std::uniform_int_distribution<std::size_t> pick_handle(0, kHandles - 1);
      std::uniform_int_distribution<int> jitter_us(0, 150);
      std::deque<std::future<ServeResult<double>>> window;
      auto drain_one = [&] {
        if (!window.front().get().ok()) failures.fetch_add(1);
        window.pop_front();
      };
      for (std::size_t i = 0; i < kPerThread; ++i) {
        const std::size_t h = pick_handle(rng);
        issued[h].fetch_add(1, std::memory_order_relaxed);
        window.push_back(service.predict_async(handles[h], queries[i % queries.size()]));
        if (window.size() >= 6) drain_one();
        std::this_thread::sleep_for(std::chrono::microseconds(jitter_us(rng)));
      }
      while (!window.empty()) drain_one();
    });
  }

  // Two background refits of handle 0 mid-soak: serving continues on the old
  // weights until each swap; no predict call may fail or wait for them.
  const auto groups = fx.ds.contexts();
  const std::vector<data::JobRun> observed(groups.front().runs.begin(),
                                           groups.front().runs.begin() + 3);
  auto refit1 = registry.refit_async(handles[0], observed, quick_finetune());
  auto refit2 = registry.refit_async(handles[0], observed, quick_finetune());

  for (std::thread& c : clients) c.join();
  ASSERT_TRUE(refit1.get().ok()) << refit1.get().error_text();
  ASSERT_TRUE(refit2.get().ok()) << refit2.get().error_text();
  EXPECT_EQ(failures.load(), 0u);

  for (std::size_t h = 0; h < kHandles; ++h) {
    const ServeMetrics m = service.metrics(handles[h]).unwrap();
    EXPECT_EQ(m.requests, issued[h].load()) << "handle " << h;
    EXPECT_EQ(m.responses, m.requests) << "handle " << h;
    EXPECT_EQ(m.queue_depth, 0u) << "handle " << h;
    EXPECT_EQ(m.coalesced + m.deadline_flushes, m.batches) << "handle " << h;
    EXPECT_EQ(m.drain_flushes, 0u) << "handle " << h;
    EXPECT_LE(m.batches, m.responses) << "handle " << h;
  }

  // Post-swap predictions are bit-identical to a manual fine-tune of the
  // same base with the same recipe.
  auto reference = core::BellamyModel::from_checkpoint(*registry.base_checkpoint(handles[0]));
  const core::FineTuneConfig cfg = core::apply_reuse_strategy(
      core::ReuseStrategy::kPartialUnfreeze, reference, quick_finetune());
  core::finetune(reference, observed, cfg);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(service.predict(handles[0], queries[i]).unwrap(),
              reference.predict_one(queries[i]));
  }
}

TEST(PredictionService, ManyQueriesMatchLegacyBatchPredictions) {
  Fixture fx;
  ModelRegistry registry;
  const ModelHandle handle = registry.publish({"sgd", "many"}, *fx.model).unwrap();
  PredictionService service(registry);

  const std::vector<data::JobRun> queries = fx.make_queries(100);
  const auto served = service.predict_many(handle, queries);
  ASSERT_TRUE(served.ok()) << served.error_text();
  const std::vector<double> direct = fx.model->predict_batch(queries);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(served.value()[i], direct[i]);
  }
}

TEST(PredictionService, LatencyPercentilesTrackEveryResponse) {
  Fixture fx;
  ModelRegistry registry;
  const ModelHandle handle = registry.publish({"sgd", "latency"}, *fx.model).unwrap();
  ServeOptions cfg;
  cfg.max_batch = 8;
  cfg.flush_deadline = std::chrono::microseconds(200);
  PredictionService service(registry, cfg);

  const std::vector<data::JobRun> queries = fx.make_queries(120);
  service.predict_many(handle, queries).expect();

  const ServeMetrics m = service.metrics(handle).unwrap();
  EXPECT_EQ(m.responses, queries.size());
  // Every response was measured into the histogram, and the quantiles are
  // ordered and non-zero (a response cannot take 0 us end to end).
  EXPECT_EQ(m.latency_count, m.responses);
  EXPECT_GT(m.latency_p50_us, 0u);
  EXPECT_LE(m.latency_p50_us, m.latency_p95_us);
  EXPECT_LE(m.latency_p95_us, m.latency_p99_us);
}

TEST(PredictionService, MaxLagCapsTheEffectiveDeadlineOfADownWeightedLane) {
  Fixture fx;
  ModelRegistry registry;
  const ModelHandle handle = registry.publish({"sgd", "aging"}, *fx.model).unwrap();
  ServeOptions cfg;
  cfg.max_batch = 64;
  cfg.flush_deadline = std::chrono::microseconds(2000);
  PredictionService service(registry, cfg);

  // Touch the lane so metrics report it, then down-weight it hard: the
  // weighted deadline would be 2000 / 0.1 = 20000 us.
  service.predict(handle, fx.make_queries(1).front()).expect();
  HandleQos slow;
  slow.qos = QosClass::kBulk;
  slow.weight = 0.1;
  service.set_qos(handle, slow).expect();
  EXPECT_EQ(service.metrics(handle).unwrap().effective_flush_deadline_us, 20000u);

  // The aging cap bounds it: effective deadline == max_lag, not the
  // weight-stretched value.
  slow.max_lag = std::chrono::microseconds(700);
  service.set_qos(handle, slow).expect();
  EXPECT_EQ(service.metrics(handle).unwrap().effective_flush_deadline_us, 700u);

  // And the cap is real scheduling, not just a reported number: a single
  // request on the capped lane (which can never fill a 64-batch) flushes
  // within the cap's order of magnitude rather than after 20 ms.
  const auto start = std::chrono::steady_clock::now();
  service.predict(handle, fx.make_queries(1).front()).expect();
  const auto waited = std::chrono::steady_clock::now() - start;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::microseconds>(waited).count(), 15000);

  // Validation: a negative cap is rejected like a bad weight.
  HandleQos bad;
  bad.max_lag = std::chrono::microseconds(-5);
  EXPECT_EQ(service.set_qos(handle, bad).status(), ServeStatus::kInvalidArgument);
}

// A tiny (but positive, finite) weight stretches flush_deadline / weight far
// past what steady_clock can add to a time point.  The deadline is clamped to
// kMaxFlushDeadline instead: the request waits like any long-deadline request
// (it is neither dispatched at once as "starved" nor reported with a wrapped
// deadline), and stop() still drains it.
TEST(PredictionService, TinyQosWeightClampsTheDeadlineInsteadOfOverflowing) {
  Fixture fx;
  for (const double weight : {1e-14, 1e-300}) {
    SCOPED_TRACE(weight);
    ModelRegistry registry;
    const ModelHandle handle = registry.publish({"sgd", "tiny-weight"}, *fx.model).unwrap();
    ServeOptions cfg;
    cfg.max_batch = 1000;  // a single request can never fill a batch
    cfg.workers = 1;
    PredictionService service(registry, cfg);
    // Before any traffic or set_qos the lane does not exist: metrics are zero.
    EXPECT_EQ(service.metrics(handle).unwrap().effective_flush_deadline_us, 0u);
    service.set_qos(handle, HandleQos{QosClass::kBulk, weight}).expect();

    const data::JobRun query = fx.make_queries(1)[0];
    auto future = service.predict_async(handle, query);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const ServeMetrics waiting = service.metrics(handle).unwrap();
    EXPECT_EQ(waiting.queue_depth, 1u);  // still parked on its deadline
    EXPECT_EQ(waiting.batches, 0u);
    EXPECT_GE(waiting.effective_flush_deadline_us, 1u);
    EXPECT_LE(waiting.effective_flush_deadline_us,
              static_cast<std::uint64_t>(kMaxFlushDeadline.count()));

    service.stop();
    const auto r = future.get();
    ASSERT_TRUE(r.ok()) << r.error_text();
    EXPECT_EQ(r.value(), fx.model->predict_one(query));
    const ServeMetrics drained = service.metrics(handle).unwrap();
    EXPECT_EQ(drained.responses, 1u);
    EXPECT_EQ(drained.drain_flushes, 1u);
    EXPECT_EQ(drained.starved_flushes, 0u);
  }
}

}  // namespace
}  // namespace bellamy::serve
