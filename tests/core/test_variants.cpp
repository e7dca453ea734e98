#include "core/variants.hpp"

#include <gtest/gtest.h>

#include "data/c3o_generator.hpp"
#include "support/matrix_testing.hpp"

namespace bellamy::core {
namespace {

data::Dataset corpus() {
  data::C3OGeneratorConfig cfg;
  cfg.seed = 21;
  return data::C3OGenerator(cfg).generate_algorithm("kmeans", 6);
}

TEST(Variants, Names) {
  EXPECT_STREQ(strategy_name(ReuseStrategy::kPartialUnfreeze), "partial-unfreeze");
  EXPECT_STREQ(strategy_name(ReuseStrategy::kFullUnfreeze), "full-unfreeze");
  EXPECT_STREQ(strategy_name(ReuseStrategy::kPartialReset), "partial-reset");
  EXPECT_STREQ(strategy_name(ReuseStrategy::kFullReset), "full-reset");
}

TEST(PretrainingCorpus, LocalIsEmpty) {
  const auto ds = corpus();
  const auto target = ds.runs().front();
  EXPECT_TRUE(pretraining_corpus(PretrainScenario::kLocal, ds, target).empty());
}

TEST(PretrainingCorpus, FullExcludesTargetContextOnly) {
  const auto ds = corpus();
  const auto target = ds.runs().front();
  const auto full = pretraining_corpus(PretrainScenario::kFull, ds, target);
  EXPECT_EQ(full.size(), ds.exclude_context(target.context_key()).size());
  for (const auto& r : full.runs()) {
    EXPECT_NE(r.context_key(), target.context_key());
    EXPECT_EQ(r.algorithm, target.algorithm);
  }
}

TEST(PretrainingCorpus, FilteredIsSubsetOfFull) {
  const auto ds = corpus();
  const auto target = ds.runs().front();
  const auto full = pretraining_corpus(PretrainScenario::kFull, ds, target);
  const auto filtered = pretraining_corpus(PretrainScenario::kFiltered, ds, target);
  EXPECT_LE(filtered.size(), full.size());
  for (const auto& r : filtered.runs()) {
    EXPECT_NE(r.node_type, target.node_type);
    EXPECT_NE(r.data_characteristics, target.data_characteristics);
    EXPECT_NE(r.job_parameters, target.job_parameters);
    const double rel =
        std::abs(static_cast<double>(r.dataset_size_mb) -
                 static_cast<double>(target.dataset_size_mb)) /
        static_cast<double>(target.dataset_size_mb);
    EXPECT_GE(rel, 0.20);
  }
}

// Step one of the cross-context experiment: pre-train on the scenario's
// corpus, or keep the fresh model when that corpus is empty.

TEST(ScenarioPretraining, LocalIsUntrained) {
  const auto ds = corpus();
  const auto target = ds.runs().front();
  BellamyModel model(BellamyConfig{}, 1);
  const auto local = pretraining_corpus(PretrainScenario::kLocal, ds, target);
  if (!local.empty()) pretrain(model, local.runs(), PreTrainConfig{});
  EXPECT_FALSE(model.normalization_fitted());
}

TEST(ScenarioPretraining, FullIsPretrained) {
  const auto ds = corpus();
  const auto target = ds.runs().front();
  PreTrainConfig pre;
  pre.epochs = 30;
  BellamyModel model(BellamyConfig{}, 2);
  const auto full = pretraining_corpus(PretrainScenario::kFull, ds, target);
  if (!full.empty()) pretrain(model, full.runs(), pre);
  EXPECT_TRUE(model.normalization_fitted());
}

TEST(ScenarioPretraining, EmptyFilteredCorpusFallsBackToLocal) {
  // A dataset with only the target context: filtered corpus is empty.
  const auto ds = corpus();
  const auto target = ds.runs().front();
  const auto only_target = ds.filter_context(target.context_key());
  PreTrainConfig pre;
  pre.epochs = 10;
  BellamyModel model(BellamyConfig{}, 3);
  const auto filtered = pretraining_corpus(PretrainScenario::kFiltered, only_target, target);
  if (!filtered.empty()) pretrain(model, filtered.runs(), pre);
  EXPECT_FALSE(model.normalization_fitted());
}

TEST(ApplyReuseStrategy, PartialUnfreezeKeepsWeights) {
  BellamyModel model(BellamyConfig{}, 4);
  const auto f = model.f().parameters()[0]->value;
  const auto z = model.z().parameters()[0]->value;
  const auto cfg = apply_reuse_strategy(ReuseStrategy::kPartialUnfreeze, model, {});
  EXPECT_FALSE(cfg.unlock_f_immediately);
  EXPECT_EQ(model.f().parameters()[0]->value, f);
  EXPECT_EQ(model.z().parameters()[0]->value, z);
}

TEST(ApplyReuseStrategy, FullUnfreezeSetsFlagOnly) {
  BellamyModel model(BellamyConfig{}, 5);
  const auto f = model.f().parameters()[0]->value;
  const auto cfg = apply_reuse_strategy(ReuseStrategy::kFullUnfreeze, model, {});
  EXPECT_TRUE(cfg.unlock_f_immediately);
  EXPECT_EQ(model.f().parameters()[0]->value, f);
}

TEST(ApplyReuseStrategy, PartialResetReinitializesZOnly) {
  BellamyModel model(BellamyConfig{}, 6);
  const auto f = model.f().parameters()[0]->value;
  const auto z = model.z().parameters()[0]->value;
  apply_reuse_strategy(ReuseStrategy::kPartialReset, model, {});
  EXPECT_EQ(model.f().parameters()[0]->value, f);
  EXPECT_NE(model.z().parameters()[0]->value, z);
}

TEST(ApplyReuseStrategy, FullResetReinitializesFAndZ) {
  BellamyModel model(BellamyConfig{}, 7);
  const auto f = model.f().parameters()[0]->value;
  const auto z = model.z().parameters()[0]->value;
  const auto g = model.g().parameters()[0]->value;
  const auto cfg = apply_reuse_strategy(ReuseStrategy::kFullReset, model, {});
  EXPECT_NE(model.f().parameters()[0]->value, f);
  EXPECT_NE(model.z().parameters()[0]->value, z);
  EXPECT_EQ(model.g().parameters()[0]->value, g);  // auto-encoder untouched
  EXPECT_TRUE(cfg.unlock_f_immediately);
}

}  // namespace
}  // namespace bellamy::core
