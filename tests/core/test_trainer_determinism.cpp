// Training determinism regression: two Trainer runs from the same seed must
// produce bit-identical checkpoints.  This guards the order of the
// dedup-gradient accumulation (shared property rows sum their slot gradients
// in a fixed slot order) and the encode-once/gather-per-batch pre-training
// loop — any nondeterministic reordering of those sums shows up here as a
// bit difference.

#include <gtest/gtest.h>

#include "core/trainer.hpp"
#include "data/c3o_generator.hpp"
#include "nn/serialize.hpp"
#include "support/matrix_testing.hpp"

namespace bellamy::core {
namespace {

data::Dataset corpus() {
  data::C3OGeneratorConfig cfg;
  cfg.seed = 61;
  return data::C3OGenerator(cfg).generate_algorithm("sort", 4);
}

PreTrainConfig pretrain_config() {
  PreTrainConfig cfg;
  cfg.epochs = 40;
  cfg.batch_size = 16;  // several mini-batches per epoch, with a ragged tail
  cfg.dropout = 0.10;   // keep the stochastic path in play
  cfg.seed = 5;
  return cfg;
}

void expect_identical_checkpoints(const nn::Checkpoint& a, const nn::Checkpoint& b) {
  ASSERT_EQ(a.matrices.size(), b.matrices.size());
  for (const auto& [name, matrix] : a.matrices) {
    const auto it = b.matrices.find(name);
    ASSERT_NE(it, b.matrices.end()) << name;
    // operator== compares every double bit for bit (no tolerance).
    EXPECT_EQ(matrix, it->second) << name;
  }
  EXPECT_EQ(a.meta, b.meta);
}

TEST(TrainerDeterminism, PretrainSameSeedBitIdentical) {
  const auto runs = corpus().runs();
  BellamyModel first(BellamyConfig{}, 21);
  BellamyModel second(BellamyConfig{}, 21);
  const auto r1 = pretrain(first, runs, pretrain_config());
  const auto r2 = pretrain(second, runs, pretrain_config());
  EXPECT_EQ(r1.loss_history, r2.loss_history);
  EXPECT_EQ(r1.final_mae_seconds, r2.final_mae_seconds);
  expect_identical_checkpoints(first.to_checkpoint(), second.to_checkpoint());
}

TEST(TrainerDeterminism, FinetuneSameSeedBitIdentical) {
  const auto ds = corpus();
  const auto groups = ds.contexts();
  const auto& target = groups.front().runs;
  const auto rest = ds.exclude_context(groups.front().key);

  FineTuneConfig ft;
  ft.max_epochs = 80;
  ft.patience = 40;

  auto fit_once = [&](BellamyModel& model) {
    PreTrainConfig pre = pretrain_config();
    pre.epochs = 30;
    pretrain(model, rest.runs(), pre);
    return finetune(model, target, ft);
  };

  BellamyModel first(BellamyConfig{}, 33);
  BellamyModel second(BellamyConfig{}, 33);
  const auto f1 = fit_once(first);
  const auto f2 = fit_once(second);
  EXPECT_EQ(f1.epochs_run, f2.epochs_run);
  EXPECT_EQ(f1.best_mae_seconds, f2.best_mae_seconds);
  expect_identical_checkpoints(first.to_checkpoint(), second.to_checkpoint());
}

TEST(TrainerDeterminism, PretrainedPredictionsIdenticalAcrossRuns) {
  const auto runs = corpus().runs();
  BellamyModel first(BellamyConfig{}, 77);
  BellamyModel second(BellamyConfig{}, 77);
  pretrain(first, runs, pretrain_config());
  pretrain(second, runs, pretrain_config());
  const auto p1 = first.predict_batch(runs);
  const auto p2 = second.predict_batch(runs);
  EXPECT_EQ(p1, p2);
}

}  // namespace
}  // namespace bellamy::core
