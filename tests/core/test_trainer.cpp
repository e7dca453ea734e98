#include "core/trainer.hpp"

#include <gtest/gtest.h>

#include "data/c3o_generator.hpp"
#include "support/matrix_testing.hpp"

namespace bellamy::core {
namespace {

data::Dataset tiny_corpus() {
  data::C3OGeneratorConfig cfg;
  cfg.seed = 5;
  return data::C3OGenerator(cfg).generate_algorithm("sgd", 4);
}

std::vector<data::JobRun> group_first_half(const std::vector<data::JobRun>& runs) {
  return {runs.begin(), runs.begin() + static_cast<std::ptrdiff_t>(runs.size() / 2)};
}

PreTrainConfig fast_pretrain() {
  PreTrainConfig cfg;
  cfg.epochs = 120;
  cfg.learning_rate = 1e-2;
  cfg.dropout = 0.05;
  return cfg;
}

FineTuneConfig fast_finetune() {
  FineTuneConfig cfg;
  cfg.max_epochs = 300;
  cfg.patience = 150;
  cfg.mae_target_seconds = 5.0;
  return cfg;
}

TEST(Pretrain, LossDecreases) {
  const auto corpus = tiny_corpus();
  BellamyModel model(BellamyConfig{}, 1);
  const auto result = pretrain(model, corpus.runs(), fast_pretrain());
  EXPECT_EQ(result.epochs_run, 120u);
  ASSERT_GE(result.loss_history.size(), 2u);
  EXPECT_LT(result.loss_history.back(), result.loss_history.front());
}

TEST(Pretrain, FitsNormalization) {
  const auto corpus = tiny_corpus();
  BellamyModel model(BellamyConfig{}, 2);
  EXPECT_FALSE(model.normalization_fitted());
  pretrain(model, corpus.runs(), fast_pretrain());
  EXPECT_TRUE(model.normalization_fitted());
}

TEST(Pretrain, EmptyRunsThrows) {
  BellamyModel model(BellamyConfig{}, 3);
  EXPECT_THROW(pretrain(model, {}, fast_pretrain()), std::invalid_argument);
}

TEST(Pretrain, ImprovesMaeSubstantially) {
  const auto corpus = tiny_corpus();
  BellamyModel model(BellamyConfig{}, 4);
  PreTrainConfig cfg = fast_pretrain();
  cfg.epochs = 400;
  const auto result = pretrain(model, corpus.runs(), cfg);
  // Mean runtime of sgd contexts is in the hundreds of seconds; after
  // pre-training the in-sample MAE should be a small fraction of that.
  double mean_rt = 0.0;
  for (const auto& r : corpus.runs()) mean_rt += r.runtime_s;
  mean_rt /= static_cast<double>(corpus.size());
  EXPECT_LT(result.final_mae_seconds, 0.4 * mean_rt);
}

TEST(Finetune, LocalModelFitsSmallContext) {
  const auto ds = tiny_corpus();
  const auto group = ds.contexts().front();
  BellamyModel model(BellamyConfig{}, 5);
  FineTuneConfig cfg = fast_finetune();
  cfg.unlock_f_immediately = true;
  cfg.max_epochs = 800;
  cfg.patience = 400;
  const auto result = finetune(model, group.runs, cfg);
  EXPECT_GT(result.epochs_run, 0u);
  // Best MAE must be well below the context's mean runtime.
  EXPECT_LT(result.best_mae_seconds, group.runs.front().runtime_s);
}

TEST(Finetune, StopsAtMaeTarget) {
  const auto ds = tiny_corpus();
  const auto group = ds.contexts().front();
  BellamyModel model(BellamyConfig{}, 6);
  FineTuneConfig cfg = fast_finetune();
  cfg.mae_target_seconds = 1e9;  // trivially satisfied after one epoch
  const auto result = finetune(model, group.runs, cfg);
  EXPECT_TRUE(result.reached_target);
  EXPECT_LE(result.epochs_run, 1u);
}

TEST(Finetune, PatienceStopsTraining) {
  const auto ds = tiny_corpus();
  const auto group = ds.contexts().front();
  BellamyModel model(BellamyConfig{}, 7);
  FineTuneConfig cfg = fast_finetune();
  cfg.mae_target_seconds = 0.0;  // unreachable
  cfg.patience = 30;
  cfg.max_epochs = 2000;
  const auto result = finetune(model, group.runs, cfg);
  EXPECT_LT(result.epochs_run, 2000u);
  EXPECT_FALSE(result.reached_target);
}

TEST(Finetune, FreezePolicyKeepsAutoencoderFixed) {
  const auto corpus = tiny_corpus();
  BellamyModel model(BellamyConfig{}, 8);
  pretrain(model, corpus.runs(), fast_pretrain());
  const auto g_before = model.g().parameters()[0]->value;
  const auto h_before = model.h().parameters()[0]->value;
  const auto group = corpus.contexts().front();
  finetune(model, group.runs, fast_finetune());
  EXPECT_EQ(model.g().parameters()[0]->value, g_before);
  EXPECT_EQ(model.h().parameters()[0]->value, h_before);
}

TEST(Finetune, FreezesFInitiallyThenUnlocks) {
  const auto corpus = tiny_corpus();
  BellamyModel model(BellamyConfig{}, 9);
  pretrain(model, corpus.runs(), fast_pretrain());
  const auto f_before = model.f().parameters()[0]->value;

  const auto group = corpus.contexts().front();
  // Short run that ends before the unlock threshold: f must stay fixed.
  FineTuneConfig cfg = fast_finetune();
  cfg.unlock_f_after = 1000;
  cfg.max_epochs = 20;
  cfg.patience = 1000;
  cfg.mae_target_seconds = 0.0;
  finetune(model, group.runs, cfg);
  EXPECT_EQ(model.f().parameters()[0]->value, f_before);

  // Long run past the unlock epoch: f adapts.  (Restore-best may return an
  // early state, so compare against the raw trained value via a fresh run
  // whose best state is forced to the end by an unreachable target.)
  BellamyModel model2(BellamyConfig{}, 9);
  pretrain(model2, corpus.runs(), fast_pretrain());
  const auto f2_before = model2.f().parameters()[0]->value;
  FineTuneConfig cfg2 = fast_finetune();
  cfg2.unlock_f_after = 5;
  cfg2.max_epochs = 200;
  cfg2.patience = 1000;
  cfg2.mae_target_seconds = 0.0;
  finetune(model2, group.runs, cfg2);
  EXPECT_NE(model2.f().parameters()[0]->value, f2_before);
}

TEST(Finetune, UnlockImmediatelyTrainsFFromStart) {
  const auto corpus = tiny_corpus();
  const auto group = corpus.contexts().front();
  BellamyModel model(BellamyConfig{}, 10);
  pretrain(model, corpus.runs(), fast_pretrain());
  const auto f_before = model.f().parameters()[0]->value;
  FineTuneConfig cfg = fast_finetune();
  cfg.unlock_f_immediately = true;
  cfg.max_epochs = 30;
  cfg.patience = 1000;
  cfg.mae_target_seconds = 0.0;
  finetune(model, group.runs, cfg);
  EXPECT_NE(model.f().parameters()[0]->value, f_before);
}

TEST(Finetune, BestStateRestored) {
  // After fine-tuning, the model's MAE equals the reported best MAE.
  const auto corpus = tiny_corpus();
  const auto group = corpus.contexts().front();
  BellamyModel model(BellamyConfig{}, 11);
  pretrain(model, corpus.runs(), fast_pretrain());
  const auto result = finetune(model, group.runs, fast_finetune());
  const auto batch = model.make_batch(group.runs);
  const double mae_now = model.evaluate(batch, 0.0).mae_seconds;
  EXPECT_NEAR(mae_now, result.best_mae_seconds, 1e-9);
}

TEST(Finetune, PretrainedConvergesFasterThanLocal) {
  // The paper's Fig. 7 claim, in miniature: starting from a pre-trained
  // model needs fewer fine-tuning epochs than starting from scratch.
  data::C3OGeneratorConfig gcfg;
  gcfg.seed = 77;
  const auto corpus = data::C3OGenerator(gcfg).generate_algorithm("sgd", 6);
  const auto groups = corpus.contexts();
  const auto& target = groups.front();

  PreTrainConfig pre = fast_pretrain();
  pre.epochs = 400;
  FineTuneConfig fine = fast_finetune();
  fine.mae_target_seconds = 30.0;
  fine.max_epochs = 1500;
  fine.patience = 1500;

  BellamyModel pretrained(BellamyConfig{}, 12);
  data::Dataset rest = corpus.exclude_context(target.key);
  pretrain(pretrained, rest.runs(), pre);
  const auto r_pre = finetune(pretrained, group_first_half(target.runs), fine);

  BellamyModel local(BellamyConfig{}, 12);
  FineTuneConfig fine_local = fine;
  fine_local.unlock_f_immediately = true;
  const auto r_local = finetune(local, group_first_half(target.runs), fine_local);

  EXPECT_LE(r_pre.epochs_run, r_local.epochs_run + 100);
}

TEST(Finetune, EmptyRunsThrows) {
  BellamyModel model(BellamyConfig{}, 13);
  EXPECT_THROW(finetune(model, {}, fast_finetune()), std::invalid_argument);
}

}  // namespace
}  // namespace bellamy::core
