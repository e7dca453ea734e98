// DriftMonitor properties: the error EWMA matches the reference recurrence,
// stable traffic NEVER queues a refit, a degradation episode queues EXACTLY
// one (the latch), the latch re-arms only after recovery, and a triggered
// refit actually lands — through the entry's ReductionConfig when one is set.
//
// Episode tests use a zero-epoch fine-tune so the triggered refit hot-swaps
// BIT-IDENTICAL weights: predictions never move under the test's feet and
// the error sequence stays fully scripted.

#include "serve/drift_monitor.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include "core/predictor.hpp"
#include "core/trainer.hpp"
#include "data/c3o_generator.hpp"
#include "serve/model_registry.hpp"

namespace bellamy::serve {
namespace {

struct Fixture {
  Fixture() {
    data::C3OGeneratorConfig cfg;
    cfg.seed = 77;
    ds = data::C3OGenerator(cfg).generate_algorithm("sgd", 4);
    core::PreTrainConfig pre;
    pre.epochs = 60;
    model = std::make_unique<core::BellamyModel>(core::BellamyConfig{}, 13);
    core::pretrain(*model, ds.runs(), pre);
    handle = registry.publish({"sgd", "drift"}, *model).unwrap();
  }

  /// A query run whose OBSERVED runtime is `factor` x the model's own
  /// prediction — factor 1.0 scripts a perfectly healthy cluster.
  data::JobRun observed(std::size_t i, double factor) {
    data::JobRun run = ds.runs()[i % ds.runs().size()];
    run.runtime_s = factor * model->predict_one(run);
    return run;
  }

  data::Dataset ds;
  std::unique_ptr<core::BellamyModel> model;
  ModelRegistry registry;
  ModelHandle handle;
};

/// Zero-epoch fine-tune: the swap installs bit-identical weights.
DriftOptions episode_options(double threshold) {
  DriftOptions options;
  options.ewma_alpha = 0.2;
  options.threshold = threshold;
  options.min_reports = 3;
  options.finetune.max_epochs = 0;
  options.finetune.mae_target_seconds = 0.0;
  return options;
}

/// Relative error the monitor computes for factor-x-prediction runs.
double scripted_error(double prediction, double factor) {
  const double obs = factor * prediction;
  return std::abs(prediction - obs) / std::max(std::abs(obs), 1.0);
}

TEST(DriftMonitor, UnknownAndUnreportedHandlesAreTyped) {
  Fixture fx;
  DriftMonitor monitor(fx.registry);
  const auto missing = monitor.report(ModelHandle{}, fx.ds.runs().front());
  EXPECT_EQ(missing.status(), ServeStatus::kUnknownModel);

  const DriftStats zero = monitor.stats(fx.handle);
  EXPECT_EQ(zero.reports, 0u);
  EXPECT_EQ(zero.refits, 0u);
  EXPECT_TRUE(zero.armed);
  EXPECT_TRUE(monitor.history(fx.handle).empty());
}

TEST(DriftMonitor, EwmaMatchesTheReferenceRecurrence) {
  Fixture fx;
  DriftOptions options;
  options.ewma_alpha = 0.25;
  DriftMonitor monitor(fx.registry, options);

  double want = 0.0;
  for (std::size_t i = 0; i < 10; ++i) {
    const double factor = 1.0 + 0.1 * static_cast<double>(i);
    const data::JobRun run = fx.observed(i, factor);
    const double err = scripted_error(fx.model->predict_one(run), factor);
    want = i == 0 ? err : options.ewma_alpha * err + (1.0 - options.ewma_alpha) * want;

    const auto obs = monitor.report(fx.handle, run);
    ASSERT_TRUE(obs.ok()) << obs.error_text();
    EXPECT_EQ(obs.value().reports, i + 1);
    EXPECT_NEAR(obs.value().error_ewma, want, 1e-12);
    EXPECT_FALSE(obs.value().refit_triggered);  // threshold 0 = monitor only
  }
  EXPECT_EQ(monitor.stats(fx.handle).refits, 0u);
}

TEST(DriftMonitor, StableTrafficNeverTriggers) {
  Fixture fx;
  DriftMonitor monitor(fx.registry, episode_options(0.25));
  const std::uint64_t stamp = fx.registry.state_stamp(fx.handle);
  for (std::size_t i = 0; i < 50; ++i) {
    const auto obs = monitor.report(fx.handle, fx.observed(i, 1.0));
    ASSERT_TRUE(obs.ok()) << obs.error_text();
    EXPECT_FALSE(obs.value().refit_triggered) << "report " << i;
    EXPECT_NEAR(obs.value().error_ewma, 0.0, 1e-9);
  }
  const DriftStats stats = monitor.stats(fx.handle);
  EXPECT_EQ(stats.reports, 50u);
  EXPECT_EQ(stats.refits, 0u);
  EXPECT_TRUE(stats.armed);
  EXPECT_EQ(fx.registry.state_stamp(fx.handle), stamp) << "a stable handle was refit";
}

TEST(DriftMonitor, MonitorOnlyThresholdNeverTriggersUnderDegradation) {
  Fixture fx;
  DriftMonitor monitor(fx.registry, episode_options(0.0));  // 0 = monitor only
  for (std::size_t i = 0; i < 30; ++i) {
    const auto obs = monitor.report(fx.handle, fx.observed(i, 4.0));
    ASSERT_TRUE(obs.ok());
    EXPECT_FALSE(obs.value().refit_triggered);
    EXPECT_GT(obs.value().error_ewma, 0.5);
  }
  EXPECT_EQ(monitor.stats(fx.handle).refits, 0u);
}

TEST(DriftMonitor, TriggersExactlyOncePerEpisodeAndRearmsAfterRecovery) {
  Fixture fx;
  DriftMonitor monitor(fx.registry, episode_options(0.5));

  // Episode 1: 3x-off runtimes (relative error 2/3).  min_reports gates the
  // first two; the third crosses; every later degraded report is latched.
  std::size_t triggers = 0;
  for (std::size_t i = 0; i < 20; ++i) {
    const auto obs = monitor.report(fx.handle, fx.observed(i, 3.0));
    ASSERT_TRUE(obs.ok()) << obs.error_text();
    if (obs.value().refit_triggered) {
      triggers += 1;
      EXPECT_EQ(obs.value().reports, 3u) << "trigger before/after min_reports boundary";
    }
    if (i < 2) {
      EXPECT_FALSE(obs.value().refit_triggered) << "min_reports ignored";
    }
  }
  EXPECT_EQ(triggers, 1u);
  EXPECT_EQ(monitor.stats(fx.handle).refits, 1u);
  EXPECT_FALSE(monitor.stats(fx.handle).armed);

  // Recovery: healthy traffic decays the EWMA below the threshold and
  // re-arms the latch WITHOUT triggering anything.
  for (std::size_t i = 0; monitor.stats(fx.handle).armed == false; ++i) {
    ASSERT_LT(i, 50u) << "EWMA never recovered";
    const auto obs = monitor.report(fx.handle, fx.observed(i, 1.0));
    ASSERT_TRUE(obs.ok());
    EXPECT_FALSE(obs.value().refit_triggered);
  }
  EXPECT_EQ(monitor.stats(fx.handle).refits, 1u);

  // Episode 2: a fresh degradation fires exactly one more refit.
  triggers = 0;
  for (std::size_t i = 0; i < 30 && triggers == 0; ++i) {
    const auto obs = monitor.report(fx.handle, fx.observed(i, 3.0));
    ASSERT_TRUE(obs.ok());
    if (obs.value().refit_triggered) triggers += 1;
  }
  EXPECT_EQ(triggers, 1u);
  EXPECT_EQ(monitor.stats(fx.handle).refits, 2u);
}

// A non-finite runtime is rejected before it reaches the EWMA: a NaN there
// would compare false against the threshold forever and disarm the monitor.
TEST(DriftMonitor, NonFiniteRuntimeIsRejectedWithoutTouchingState) {
  Fixture fx;
  DriftMonitor monitor(fx.registry, episode_options(0.5));
  ASSERT_TRUE(monitor.report(fx.handle, fx.observed(0, 1.0)).ok());

  for (const double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    data::JobRun run = fx.observed(1, 1.0);
    run.runtime_s = bad;
    EXPECT_EQ(monitor.report(fx.handle, run).status(), ServeStatus::kInvalidArgument);
  }
  const DriftStats after = monitor.stats(fx.handle);
  EXPECT_EQ(after.reports, 1u);
  EXPECT_TRUE(std::isfinite(after.error_ewma));
  EXPECT_EQ(monitor.history(fx.handle).size(), 1u);

  // Skewed traffic afterwards still latches exactly one refit.
  std::size_t triggers = 0;
  for (std::size_t i = 0; i < 20; ++i) {
    const auto obs = monitor.report(fx.handle, fx.observed(i, 10.0));
    ASSERT_TRUE(obs.ok()) << obs.error_text();
    if (obs.value().refit_triggered) triggers += 1;
  }
  EXPECT_EQ(triggers, 1u);
  EXPECT_EQ(monitor.stats(fx.handle).refits, 1u);
}

TEST(DriftMonitor, HistoryIsBoundedToTheNewestRuns) {
  Fixture fx;
  DriftOptions options;
  options.history_limit = 5;
  DriftMonitor monitor(fx.registry, options);

  std::vector<double> runtimes;
  for (std::size_t i = 0; i < 12; ++i) {
    const data::JobRun run = fx.observed(i, 1.0 + 0.01 * static_cast<double>(i));
    runtimes.push_back(run.runtime_s);
    ASSERT_TRUE(monitor.report(fx.handle, run).ok());
  }
  const std::vector<data::JobRun> window = monitor.history(fx.handle);
  ASSERT_EQ(window.size(), 5u);
  for (std::size_t i = 0; i < window.size(); ++i) {
    EXPECT_EQ(window[i].runtime_s, runtimes[runtimes.size() - 5 + i]) << i;
  }
}

TEST(DriftMonitor, TriggeredRefitLandsThroughTheEntrysReduction) {
  Fixture fx;

  reduce::ReductionConfig reduction;
  reduction.policy = reduce::ReductionPolicy::kCoverage;
  reduction.budget = 8;
  fx.registry.set_default_reduction(reduction);
  const ModelHandle handle = fx.registry.publish({"sgd", "drift-reduced"}, *fx.model).unwrap();

  DriftOptions options = episode_options(0.5);
  options.finetune.max_epochs = 5;  // a real (tiny) fine-tune this time
  options.finetune.patience = 100;
  options.min_reports = 12;  // trigger only once the window exceeds the budget
  DriftMonitor monitor(fx.registry, options);

  const std::uint64_t stamp = fx.registry.state_stamp(handle);
  bool triggered = false;
  for (std::size_t i = 0; i < 20 && !triggered; ++i) {
    const auto obs = monitor.report(handle, fx.observed(i, 3.0));
    ASSERT_TRUE(obs.ok()) << obs.error_text();
    triggered = obs.value().refit_triggered;
  }
  ASSERT_TRUE(triggered);

  // The refit runs on a background drain task: poll (bounded) for the swap.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (fx.registry.reduction_counters(handle).first == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "drift refit never landed";
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_NE(fx.registry.state_stamp(handle), stamp);

  const reduce::ReductionReport report = fx.registry.last_reduction(handle);
  EXPECT_EQ(report.policy, reduce::ReductionPolicy::kCoverage);
  EXPECT_LE(report.kept_runs, reduction.budget);
  EXPECT_GT(report.input_runs, report.kept_runs);
  EXPECT_EQ(fx.registry.reduction_counters(handle).second, report.dropped_runs);
}

TEST(DriftMonitor, AnnotateCopiesCountersIntoMetrics) {
  Fixture fx;
  DriftMonitor monitor(fx.registry, episode_options(0.0));
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(monitor.report(fx.handle, fx.observed(i, 2.0)).ok());
  }

  ServeMetrics metrics;
  metrics.requests = 123;  // annotate must leave serving counters alone
  monitor.annotate(fx.handle, metrics);
  EXPECT_EQ(metrics.requests, 123u);
  EXPECT_EQ(metrics.drift_reports, 4u);
  EXPECT_EQ(metrics.drift_refits, 0u);
  EXPECT_GT(metrics.drift_error_ewma, 0.0);
}

}  // namespace
}  // namespace bellamy::serve
