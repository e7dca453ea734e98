#include "serve/model_registry.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <future>
#include <memory>

#include "core/predictor.hpp"
#include "core/trainer.hpp"
#include "data/c3o_generator.hpp"
#include "serve/serve.hpp"
#include "support/registry_testing.hpp"

namespace bellamy::serve {
namespace {

struct Fixture {
  Fixture() {
    data::C3OGeneratorConfig cfg;
    cfg.seed = 61;
    ds = data::C3OGenerator(cfg).generate_algorithm("sgd", 4);
    const auto groups = ds.contexts();
    target_runs = groups.front().runs;
    rest = ds.exclude_context(groups.front().key);
  }

  core::BellamyModel pretrained(std::uint64_t seed) const {
    core::BellamyModel model(core::BellamyConfig{}, seed);
    core::PreTrainConfig pre;
    pre.epochs = 100;
    core::pretrain(model, rest.runs(), pre);
    return model;
  }

  data::Dataset ds;
  std::vector<data::JobRun> target_runs;
  data::Dataset rest;
};

core::FineTuneConfig quick_finetune() {
  core::FineTuneConfig cfg;
  cfg.max_epochs = 120;
  cfg.patience = 60;
  return cfg;
}

TEST(ModelRegistry, PublishFindAndIntrospect) {
  Fixture fx;
  ModelRegistry registry;
  const core::BellamyModel model = fx.pretrained(1);

  const auto published = registry.publish({"sgd", "ctx-a"}, model);
  ASSERT_TRUE(published.ok()) << published.error_text();
  const ModelHandle handle = published.value();
  EXPECT_TRUE(static_cast<bool>(handle));

  const auto found = registry.find({"sgd", "ctx-a"});
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found.value(), handle);

  EXPECT_TRUE(registry.fitted(handle));
  EXPECT_EQ(registry.state_stamp(handle), model.state_stamp());
  EXPECT_EQ(registry.size(), 1u);
  ASSERT_EQ(registry.keys().size(), 1u);
  EXPECT_EQ(registry.keys()[0].str(), "sgd/ctx-a");
}

TEST(ModelRegistry, PublishToExistingKeyHotSwapsSameHandle) {
  Fixture fx;
  ModelRegistry registry;
  const ModelHandle h1 = registry.publish({"sgd", "ctx"}, fx.pretrained(1)).unwrap();
  const std::uint64_t stamp1 = registry.state_stamp(h1);

  const ModelHandle h2 = registry.publish({"sgd", "ctx"}, fx.pretrained(2)).unwrap();
  EXPECT_EQ(h1, h2);  // stable handle across the weight swap
  EXPECT_NE(registry.state_stamp(h1), stamp1);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(ModelRegistry, FindUnknownKeyIsTyped) {
  ModelRegistry registry;
  const auto missing = registry.find({"sgd", "nope"});
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status(), ServeStatus::kUnknownModel);
}

TEST(ModelRegistry, EmptyKeyPartsRejected) {
  Fixture fx;
  ModelRegistry registry;
  EXPECT_EQ(registry.publish({"", "ctx"}, fx.pretrained(1)).status(),
            ServeStatus::kInvalidArgument);
  EXPECT_EQ(registry.derive(ModelHandle{}, {"sgd", ""}).status(),
            ServeStatus::kInvalidArgument);
}

TEST(ModelRegistry, DeriveSharesTheBaseCheckpointObject) {
  Fixture fx;
  ModelRegistry registry;
  const ModelHandle base = registry.publish({"sgd", "cloud"}, fx.pretrained(3)).unwrap();
  const ModelHandle derived = registry.derive(base, {"sgd", "cluster"}).unwrap();

  // The checkpoint is shared, not copied: both handles point at the SAME
  // object, and both start serving the same weights.
  EXPECT_EQ(registry.base_checkpoint(base).get(), registry.base_checkpoint(derived).get());
  EXPECT_EQ(registry.state_stamp(base), registry.state_stamp(derived));
  EXPECT_TRUE(registry.fitted(derived));

  // Deriving onto a taken key or from an unknown base is a typed error.
  EXPECT_EQ(registry.derive(base, {"sgd", "cloud"}).status(), ServeStatus::kInvalidArgument);
  EXPECT_EQ(registry.derive(ModelHandle{}, {"sgd", "x"}).status(),
            ServeStatus::kUnknownModel);
}

constexpr core::ReuseStrategy kStrategies[] = {
    core::ReuseStrategy::kPartialUnfreeze, core::ReuseStrategy::kFullUnfreeze,
    core::ReuseStrategy::kPartialReset, core::ReuseStrategy::kFullReset};

TEST(ModelRegistry, RefitMatchesTheLegacyPredictorBitExactly) {
  Fixture fx;
  ModelRegistry registry;
  const core::BellamyModel model = fx.pretrained(4);
  const ModelHandle handle = registry.publish({"sgd", "ctx"}, model).unwrap();
  PredictionService service(registry);

  const std::vector<data::JobRun> observed(fx.target_runs.begin(), fx.target_runs.begin() + 3);
  for (const core::ReuseStrategy strategy : kStrategies) {
    SCOPED_TRACE(core::strategy_name(strategy));
    const auto refit = registry.refit(handle, observed, quick_finetune(), strategy);
    ASSERT_TRUE(refit.ok()) << refit.error_text();
    EXPECT_GT(refit.value().epochs_run, 0u);

    // Same recipe, legacy path: restart from the checkpoint, same strategy,
    // same config.  Epochs and predictions must agree bit-for-bit.
    core::BellamyPredictor legacy(model, quick_finetune(), strategy);
    legacy.fit(observed);
    EXPECT_EQ(refit.value().epochs_run, legacy.last_fit().epochs_run);
    for (std::size_t i = 4; i < 8; ++i) {
      const auto served = service.predict(handle, fx.target_runs[i]);
      ASSERT_TRUE(served.ok()) << served.error_text();
      EXPECT_EQ(served.value(), legacy.model().predict_one(fx.target_runs[i]));
    }
  }
}

TEST(ModelRegistry, RefitWithoutRunsResetsToTheBaseWeights) {
  Fixture fx;
  ModelRegistry registry;
  const ModelHandle handle = registry.publish({"sgd", "ctx"}, fx.pretrained(5)).unwrap();
  const std::uint64_t base_stamp = registry.state_stamp(handle);

  const std::vector<data::JobRun> observed(fx.target_runs.begin(), fx.target_runs.begin() + 3);
  for (const core::ReuseStrategy strategy : kStrategies) {
    SCOPED_TRACE(core::strategy_name(strategy));
    registry.refit(handle, observed, quick_finetune()).expect();
    EXPECT_NE(registry.state_stamp(handle), base_stamp);

    // Direct reuse: no runs to relearn from, so no strategy may reset.
    registry.refit(handle, {}, quick_finetune(), strategy).expect();
    EXPECT_EQ(registry.state_stamp(handle), base_stamp);
  }
}

TEST(ModelRegistry, RefitAsyncMatchesTheBlockingRefitBitExactly) {
  Fixture fx;
  ModelRegistry registry;
  const core::BellamyModel model = fx.pretrained(12);
  const ModelHandle handle = registry.publish({"sgd", "async"}, model).unwrap();

  const std::vector<data::JobRun> observed(fx.target_runs.begin(), fx.target_runs.begin() + 3);
  auto future = registry.refit_async(handle, observed, quick_finetune());
  const auto result = future.get();
  ASSERT_TRUE(result.ok()) << result.error_text();
  EXPECT_GT(result.value().epochs_run, 0u);
  EXPECT_FALSE(registry.refit_pending(handle));

  // The background job runs the exact recipe of the blocking path, so the
  // swapped-in weights are bit-identical to a manual fine-tune of the base.
  core::BellamyPredictor legacy(model, quick_finetune());
  legacy.fit(observed);
  PredictionService service(registry);
  for (std::size_t i = 4; i < 8; ++i) {
    const auto served = service.predict(handle, fx.target_runs[i]);
    ASSERT_TRUE(served.ok()) << served.error_text();
    EXPECT_EQ(served.value(), legacy.model().predict_one(fx.target_runs[i]));
  }
}

TEST(ModelRegistry, RefitAsyncCoalescesWhileQueuedAndServesTheLatestPayload) {
  Fixture fx;
  ModelRegistry registry;
  const core::BellamyModel model = fx.pretrained(13);
  const ModelHandle handle = registry.publish({"sgd", "coalesce"}, model).unwrap();

  // Park the entry's refit strand behind a blocker task so the first
  // refit_async job stays QUEUED (not started) while we file a duplicate.
  const auto entry = registry.resolve(handle);
  ASSERT_NE(entry, nullptr);
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  entry->refit_strand.post([released] { released.wait(); });

  const std::vector<data::JobRun> first(fx.target_runs.begin(), fx.target_runs.begin() + 2);
  const std::vector<data::JobRun> latest(fx.target_runs.begin(), fx.target_runs.begin() + 4);
  auto f1 = registry.refit_async(handle, first, quick_finetune());
  EXPECT_TRUE(registry.refit_pending(handle));
  auto f2 = registry.refit_async(handle, latest, quick_finetune());

  release.set_value();
  const auto r1 = f1.get();
  const auto r2 = f2.get();
  ASSERT_TRUE(r1.ok()) << r1.error_text();
  ASSERT_TRUE(r2.ok()) << r2.error_text();
  EXPECT_FALSE(registry.refit_pending(handle));

  // Exactly one fine-tune ran, on the LATEST payload: the served weights
  // match a manual fine-tune on `latest`, not on `first`.
  core::BellamyPredictor on_latest(model, quick_finetune());
  on_latest.fit(latest);
  core::BellamyPredictor on_first(model, quick_finetune());
  on_first.fit(first);
  PredictionService service(registry);
  const data::JobRun probe = fx.target_runs[5];
  const double served = service.predict(handle, probe).unwrap();
  EXPECT_EQ(served, on_latest.model().predict_one(probe));
  EXPECT_NE(served, on_first.model().predict_one(probe));
}

// Regression: erasing a handle (or tearing the registry down) while its
// background refit is queued must neither lose the job nor wedge the shared
// pool worker when the job's closure drops the entry's last reference.
TEST(ModelRegistry, EraseDuringBackgroundRefitFinishesOffRegistry) {
  Fixture fx;
  std::shared_future<ServeResult<core::FineTuneResult>> future;
  {
    ModelRegistry registry;
    const ModelHandle handle =
        registry.publish({"sgd", "orphan"}, fx.pretrained(14)).unwrap();

    // Park the strand so the refit is still queued when the handle goes.
    const auto entry = registry.resolve(handle);
    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();
    entry->refit_strand.post([released] { released.wait(); });

    const std::vector<data::JobRun> observed(fx.target_runs.begin(),
                                             fx.target_runs.begin() + 2);
    future = registry.refit_async(handle, observed, quick_finetune());
    registry.erase(handle).expect();
    EXPECT_EQ(registry.resolve(handle), nullptr);
    release.set_value();
  }  // registry dies with the refit possibly still in flight
  // The orphaned entry (kept alive by the job's closure) still completes.
  const auto result = future.get();
  EXPECT_TRUE(result.ok()) << result.error_text();
}

TEST(ModelRegistry, RefitAsyncTypedErrors) {
  Fixture fx;
  ModelRegistry registry;
  // Unknown handle: the future is immediately ready with a typed failure.
  auto missing = registry.refit_async(ModelHandle{}, {}, quick_finetune());
  EXPECT_EQ(missing.get().status(), ServeStatus::kUnknownModel);
  EXPECT_FALSE(registry.refit_pending(ModelHandle{}));

  // No base checkpoint yet: same kNotFitted the blocking path reports.
  const ModelHandle unfitted_handle = unfitted_entry(registry, {"sgd", "pending"});
  auto unfitted = registry.refit_async(unfitted_handle, {}, quick_finetune());
  EXPECT_EQ(unfitted.get().status(), ServeStatus::kNotFitted);
}

TEST(ModelRegistry, EntryWithoutWeightsIsUnfittedUntilPublish) {
  Fixture fx;
  ModelRegistry registry;
  const ModelHandle handle = unfitted_entry(registry, {"sgd", "pending"});
  EXPECT_FALSE(registry.fitted(handle));
  EXPECT_EQ(registry.state_stamp(handle), 0u);
  EXPECT_EQ(registry.base_checkpoint(handle), nullptr);
  EXPECT_EQ(registry.refit(handle, {}, quick_finetune()).status(), ServeStatus::kNotFitted);

  // publish onto the key keeps the handle and makes it serveable.
  const ModelHandle same = registry.publish({"sgd", "pending"}, fx.pretrained(6)).unwrap();
  EXPECT_EQ(same, handle);
  EXPECT_TRUE(registry.fitted(handle));
}

TEST(ModelRegistry, EraseRetiresTheHandle) {
  Fixture fx;
  ModelRegistry registry;
  const ModelHandle handle = registry.publish({"sgd", "ctx"}, fx.pretrained(7)).unwrap();
  registry.erase(handle).expect();

  EXPECT_EQ(registry.size(), 0u);
  EXPECT_FALSE(registry.fitted(handle));
  EXPECT_EQ(registry.resolve(handle), nullptr);
  EXPECT_EQ(registry.find({"sgd", "ctx"}).status(), ServeStatus::kUnknownModel);
  EXPECT_EQ(registry.erase(handle).status(), ServeStatus::kUnknownModel);
}

// The registry's own record of weight changes: every assignment bumps the
// entry's version (a refit also sets the refit flag, a publish clears it)
// and fires the change observer once; unfitted entries are not listed.
TEST(ModelRegistry, WeightVersionsRecordEveryAssignmentAndNotifyTheObserver) {
  Fixture fx;
  ModelRegistry registry;
  unfitted_entry(registry, {"sgd", "pending"});
  std::atomic<int> changes{0};
  registry.set_on_change([&] { changes.fetch_add(1); });

  EXPECT_TRUE(registry.versions().empty());
  EXPECT_EQ(changes.load(), 0);

  std::uint64_t published = 0;
  const ModelHandle base = registry.publish({"sgd", "a"}, fx.pretrained(1), &published).unwrap();
  EXPECT_EQ(published, 1u);
  const ModelHandle derived = registry.derive(base, {"sgd", "b"}).unwrap();
  EXPECT_EQ(changes.load(), 2);

  ASSERT_TRUE(registry.refit_async(base, fx.target_runs, quick_finetune()).get().ok());
  EXPECT_EQ(changes.load(), 3);
  auto versions = registry.versions();
  ASSERT_EQ(versions.size(), 2u);
  EXPECT_EQ(versions[0].key.str(), "sgd/a");
  EXPECT_EQ(versions[0].handle, base);
  EXPECT_EQ(versions[0].version, 2u);
  EXPECT_TRUE(versions[0].refit);
  EXPECT_EQ(versions[1].handle, derived);
  EXPECT_EQ(versions[1].version, 1u);
  EXPECT_FALSE(versions[1].refit);

  registry.publish({"sgd", "a"}, fx.pretrained(2), &published).expect();
  EXPECT_EQ(published, 3u);
  EXPECT_FALSE(registry.versions()[0].refit);

  // A refit that cannot swap (an unfitted entry) records nothing.
  EXPECT_FALSE(registry.refit(registry.find({"sgd", "pending"}).value(), {}, quick_finetune())
                   .ok());
  EXPECT_EQ(changes.load(), 4);

  registry.set_on_change(nullptr);
  registry.publish({"sgd", "a"}, fx.pretrained(3)).expect();
  EXPECT_EQ(changes.load(), 4);
  EXPECT_EQ(registry.versions()[0].version, 4u);
}

TEST(ModelRegistry, StoreBackedOpenPersistAndSharing) {
  Fixture fx;
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("bellamy_registry_" + std::to_string(::getpid())))
          .string();
  auto store = std::make_shared<core::ModelStore>(dir);

  const core::BellamyModel model = fx.pretrained(8);
  std::vector<double> expected;
  {
    ModelRegistry provider(store);
    const ModelHandle handle = provider.publish({"sgd", "v1"}, model).unwrap();
    provider.persist(handle).expect();
    // persisting an unfitted entry is a typed error
    const ModelHandle empty = unfitted_entry(provider, {"sgd", "empty"});
    EXPECT_EQ(provider.persist(empty).status(), ServeStatus::kNotFitted);
  }

  ModelRegistry consumer(store);
  // An entry that has no weights yet when the open arrives must still be
  // materialized from the store (regression: the early-return used to hand
  // back the empty entry).
  const ModelHandle reserved = unfitted_entry(consumer, {"sgd", "v1"});
  EXPECT_FALSE(consumer.fitted(reserved));
  const auto opened = consumer.open({"sgd", "v1"});
  ASSERT_TRUE(opened.ok()) << opened.error_text();
  EXPECT_EQ(opened.value(), reserved);  // same handle, now serveable
  EXPECT_EQ(consumer.state_stamp(opened.value()), model.state_stamp());
  // Re-opening the key reuses the materialized entry (same handle) and
  // leaves its weight version alone: only the first open assigned weights.
  EXPECT_EQ(consumer.open({"sgd", "v1"}).unwrap(), opened.value());
  ASSERT_EQ(consumer.versions().size(), 1u);
  EXPECT_EQ(consumer.versions()[0].version, 1u);

  const auto missing = consumer.open({"sgd", "v2"});
  ASSERT_EQ(missing.status(), ServeStatus::kUnknownModel);
  EXPECT_NE(missing.message().find(store->path_for("sgd", "v2")), std::string::npos)
      << missing.message();

  ModelRegistry storeless;
  EXPECT_EQ(storeless.open({"sgd", "v1"}).status(), ServeStatus::kInvalidArgument);
  EXPECT_EQ(storeless.persist(unfitted_entry(storeless, {"a", "b"})).status(),
            ServeStatus::kInvalidArgument);

  std::filesystem::remove_all(dir);
}

TEST(ModelRegistry, RefitCallbackFiresAfterTheSwapWithTheFutureResult) {
  Fixture fx;
  ModelRegistry registry;
  const ModelHandle handle = registry.publish({"sgd", "notify"}, fx.pretrained(29)).unwrap();

  const std::uint64_t stamp_before = registry.state_stamp(handle);
  std::promise<ServeResult<core::FineTuneResult>> seen;
  std::atomic<std::uint64_t> stamp_at_callback{0};
  auto future = registry.refit_async(
      handle, fx.target_runs, quick_finetune(), core::ReuseStrategy::kPartialUnfreeze,
      [&](const ServeResult<core::FineTuneResult>& result) {
        // The swap already happened when the callback runs.
        stamp_at_callback.store(registry.state_stamp(handle));
        seen.set_value(result);
      });

  const ServeResult<core::FineTuneResult> from_future = future.get();
  const ServeResult<core::FineTuneResult> from_callback = seen.get_future().get();
  ASSERT_TRUE(from_future.ok()) << from_future.error_text();
  ASSERT_TRUE(from_callback.ok());
  EXPECT_EQ(from_callback.value().epochs_run, from_future.value().epochs_run);
  EXPECT_EQ(from_callback.value().best_mae_seconds, from_future.value().best_mae_seconds);
  EXPECT_NE(stamp_at_callback.load(), stamp_before);
}

TEST(ModelRegistry, CoalescedRefitCallbacksAllFireWithTheSharedResult) {
  Fixture fx;
  ModelRegistry registry;
  const core::BellamyModel model = fx.pretrained(31);
  const ModelHandle handle = registry.publish({"sgd", "notify-coalesce"}, model).unwrap();

  // Park the strand so both requests coalesce into one queued job.
  const auto entry = registry.resolve(handle);
  ASSERT_NE(entry, nullptr);
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  entry->refit_strand.post([released] { released.wait(); });

  std::promise<ServeResult<core::FineTuneResult>> first_seen;
  std::promise<ServeResult<core::FineTuneResult>> second_seen;
  const std::vector<data::JobRun> latest(fx.target_runs.begin(), fx.target_runs.begin() + 4);
  auto f1 = registry.refit_async(
      handle, {fx.target_runs.begin(), fx.target_runs.begin() + 2}, quick_finetune(),
      core::ReuseStrategy::kPartialUnfreeze,
      [&](const ServeResult<core::FineTuneResult>& r) { first_seen.set_value(r); });
  auto f2 = registry.refit_async(
      handle, latest, quick_finetune(), core::ReuseStrategy::kPartialUnfreeze,
      [&](const ServeResult<core::FineTuneResult>& r) { second_seen.set_value(r); });
  release.set_value();

  // ONE fine-tune ran (the latest payload), and BOTH callbacks fired with
  // its result — the coalesced caller is notified, not dropped.
  const auto r1 = first_seen.get_future().get();
  const auto r2 = second_seen.get_future().get();
  ASSERT_TRUE(r1.ok()) << r1.error_text();
  ASSERT_TRUE(r2.ok()) << r2.error_text();
  EXPECT_EQ(r1.value().epochs_run, r2.value().epochs_run);
  EXPECT_EQ(r1.value().best_mae_seconds, r2.value().best_mae_seconds);
  EXPECT_EQ(f1.get().value().epochs_run, r1.value().epochs_run);
  (void)f2;
}

TEST(ModelRegistry, RefitCallbackOnUnknownHandleFiresInline) {
  ModelRegistry registry;
  bool fired = false;
  ServeStatus status = ServeStatus::kOk;
  auto future = registry.refit_async(ModelHandle{}, {}, quick_finetune(),
                                     core::ReuseStrategy::kPartialUnfreeze,
                                     [&](const ServeResult<core::FineTuneResult>& r) {
                                       fired = true;
                                       status = r.status();
                                     });
  // Inline: no strand exists for an unknown handle, so by the time
  // refit_async returns the callback already ran.
  EXPECT_TRUE(fired);
  EXPECT_EQ(status, ServeStatus::kUnknownModel);
  EXPECT_EQ(future.get().status(), ServeStatus::kUnknownModel);
}

// Regression: a store-backed entry went silently stale after refit_async —
// the swap never reached disk, so a restarted process served PRE-refit
// weights.  With auto-persist on, the completion hook writes the swapped
// weights back to the store; a fresh registry opening the same store must
// see the refit, not the original publish.
TEST(ModelRegistry, AutoPersistWritesTheRefitSwapBackToTheStore) {
  Fixture fx;
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("bellamy_autopersist_" + std::to_string(::getpid())))
          .string();
  auto store = std::make_shared<core::ModelStore>(dir);

  std::uint64_t refit_stamp = 0;
  {
    ModelRegistry registry(store);
    EXPECT_FALSE(registry.auto_persist());
    registry.set_auto_persist(true);
    EXPECT_TRUE(registry.auto_persist());

    const ModelHandle handle =
        registry.publish({"sgd", "stale"}, fx.pretrained(31)).unwrap();
    registry.persist(handle).expect();

    const auto result = registry.refit_async(handle, fx.target_runs, quick_finetune()).get();
    ASSERT_TRUE(result.ok()) << result.error_text();
    refit_stamp = registry.state_stamp(handle);
  }

  ModelRegistry restarted(store);
  const auto reopened = restarted.open({"sgd", "stale"});
  ASSERT_TRUE(reopened.ok()) << reopened.error_text();
  // Pre-fix this held the PUBLISH-time weights; the state stamp (a content
  // hash of the weights) proves the refit swap reached disk.
  EXPECT_EQ(restarted.state_stamp(reopened.value()), refit_stamp);

  std::filesystem::remove_all(dir);
}

TEST(ModelRegistry, AutoPersistFailureSurfacesAsStoreErrorButTheSwapLands) {
  Fixture fx;
  // A registry with NO backing store: the swap itself must land (serving
  // moves to the new weights), but the result reports kStoreError so the
  // caller knows disk and memory diverged.
  ModelRegistry registry;
  registry.set_auto_persist(true);
  const ModelHandle handle =
      registry.publish({"sgd", "nostore"}, fx.pretrained(32)).unwrap();
  const std::uint64_t stamp_before = registry.state_stamp(handle);

  const auto result = registry.refit_async(handle, fx.target_runs, quick_finetune()).get();
  EXPECT_EQ(result.status(), ServeStatus::kStoreError);
  EXPECT_NE(result.message().find("auto-persist"), std::string::npos) << result.message();
  // The fine-tune swap was NOT rolled back or blocked.
  EXPECT_NE(registry.state_stamp(handle), stamp_before);
  EXPECT_TRUE(registry.fitted(handle));
}

TEST(ModelRegistry, RefitHonorsTheEntrysReductionConfig) {
  Fixture fx;
  ModelRegistry registry;
  reduce::ReductionConfig reduction;
  reduction.policy = reduce::ReductionPolicy::kRecency;
  reduction.budget = 6;
  registry.set_default_reduction(reduction);
  const ModelHandle handle = registry.publish({"sgd", "ctx"}, fx.pretrained(1)).unwrap();

  ASSERT_GT(fx.target_runs.size(), reduction.budget);
  const auto result = registry.refit(handle, fx.target_runs, quick_finetune());
  ASSERT_TRUE(result.ok()) << result.error_text();

  const reduce::ReductionReport report = registry.last_reduction(handle);
  EXPECT_EQ(report.policy, reduce::ReductionPolicy::kRecency);
  EXPECT_EQ(report.input_runs, fx.target_runs.size());
  EXPECT_EQ(report.kept_runs, reduction.budget);
  EXPECT_EQ(report.dropped_runs, fx.target_runs.size() - reduction.budget);
  const auto [reductions, dropped] = registry.reduction_counters(handle);
  EXPECT_EQ(reductions, 1u);
  EXPECT_EQ(dropped, report.dropped_runs);

  // The reduced refit is bit-identical to fine-tuning the coreset directly.
  const auto coreset = reduce::reduce_runs(fx.target_runs, reduction);
  ModelRegistry plain;
  const ModelHandle reference = plain.publish({"sgd", "ctx"}, fx.pretrained(1)).unwrap();
  ASSERT_TRUE(plain.refit(reference, coreset, quick_finetune()).ok());
  EXPECT_EQ(registry.checkpoint_text(handle).unwrap(),
            plain.checkpoint_text(reference).unwrap());
}

TEST(ModelRegistry, ReductionCountersUntouchedWhenInactiveOrEmpty) {
  Fixture fx;
  ModelRegistry registry;
  const ModelHandle handle = registry.publish({"sgd", "ctx"}, fx.pretrained(1)).unwrap();

  // No reduction configured: a refit reports nothing.
  ASSERT_TRUE(registry.refit(handle, fx.target_runs, quick_finetune()).ok());
  EXPECT_EQ(registry.reduction_counters(handle).first, 0u);

  // Reduction configured but the refit carries no runs (direct reuse):
  // nothing to reduce, nothing counted.
  reduce::ReductionConfig reduction;
  reduction.policy = reduce::ReductionPolicy::kUniform;
  reduction.budget = 4;
  registry.set_default_reduction(reduction);
  const ModelHandle reduced = registry.publish({"sgd", "reduced"}, fx.pretrained(1)).unwrap();
  ASSERT_TRUE(registry.refit(reduced, {}, quick_finetune()).ok());
  EXPECT_EQ(registry.reduction_counters(reduced).first, 0u);
  EXPECT_EQ(registry.last_reduction(reduced).kept_runs, 0u);
}

TEST(ModelRegistry, DefaultReductionIsInheritedByNewEntriesOnly) {
  Fixture fx;
  ModelRegistry registry;
  const ModelHandle before =
      registry.publish({"sgd", "before"}, fx.pretrained(1)).unwrap();

  reduce::ReductionConfig def;
  def.policy = reduce::ReductionPolicy::kCoverage;
  def.budget = 10;
  registry.set_default_reduction(def);
  ASSERT_GT(fx.target_runs.size(), def.budget);

  // An entry's config shows in what its refits keep.
  const auto kept_by_refit = [&](const ModelHandle& handle) {
    registry.refit(handle, fx.target_runs, quick_finetune()).expect();
    return registry.last_reduction(handle);
  };
  const ModelHandle after = registry.publish({"sgd", "after"}, fx.pretrained(2)).unwrap();
  const reduce::ReductionReport after_report = kept_by_refit(after);
  EXPECT_EQ(after_report.policy, reduce::ReductionPolicy::kCoverage);
  EXPECT_EQ(after_report.kept_runs, 10u);
  // Entries created before the default was set keep their config.
  kept_by_refit(before);
  EXPECT_EQ(registry.reduction_counters(before).first, 0u);

  // Derived handles inherit the default too.
  const ModelHandle derived = registry.derive(after, {"sgd", "derived"}).unwrap();
  EXPECT_EQ(kept_by_refit(derived).kept_runs, 10u);
}

}  // namespace
}  // namespace bellamy::serve
