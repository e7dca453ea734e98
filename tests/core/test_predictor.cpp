#include "core/predictor.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/trainer.hpp"
#include "data/c3o_generator.hpp"

namespace bellamy::core {
namespace {

struct Fixture {
  Fixture() {
    data::C3OGeneratorConfig cfg;
    cfg.seed = 31;
    ds = data::C3OGenerator(cfg).generate_algorithm("sgd", 4);
    const auto groups = ds.contexts();
    target_runs = groups.front().runs;
    rest = ds.exclude_context(groups.front().key);
  }
  data::Dataset ds;
  std::vector<data::JobRun> target_runs;
  data::Dataset rest;
};

FineTuneConfig quick_finetune() {
  FineTuneConfig cfg;
  cfg.max_epochs = 150;
  cfg.patience = 80;
  return cfg;
}

BellamyModel quick_pretrained(const data::Dataset& corpus, std::uint64_t seed) {
  BellamyModel model(BellamyConfig{}, seed);
  PreTrainConfig pre;
  pre.epochs = 120;
  pretrain(model, corpus.runs(), pre);
  return model;
}

TEST(BellamyPredictor, LocalFitAndPredict) {
  Fixture fx;
  BellamyPredictor pred(BellamyConfig{}, quick_finetune(), 1);
  EXPECT_EQ(pred.min_training_points(), 1u);
  pred.fit({fx.target_runs.begin(), fx.target_runs.begin() + 4});
  const double p = pred.predict(fx.target_runs[5]);
  EXPECT_TRUE(std::isfinite(p));
  EXPECT_GT(pred.last_fit().epochs_run, 0u);
}

TEST(BellamyPredictor, LocalRejectsEmptyFit) {
  BellamyPredictor pred(BellamyConfig{}, quick_finetune(), 2);
  EXPECT_THROW(pred.fit({}), std::invalid_argument);
}

TEST(BellamyPredictor, LocalPredictBeforeFitThrows) {
  BellamyPredictor pred(BellamyConfig{}, quick_finetune(), 3);
  data::JobRun q;
  q.scale_out = 4;
  EXPECT_THROW(pred.predict(q), std::runtime_error);
  EXPECT_THROW(pred.predict_batch({q}), std::runtime_error);
}

TEST(BellamyPredictor, PretrainedAcceptsZeroPoints) {
  Fixture fx;
  const BellamyModel pretrained = quick_pretrained(fx.rest, 4);
  // Direct reuse serves the pre-trained weights: with no runs to relearn
  // from, a reset strategy must not leave re-initialized (untrained) f/z.
  for (const ReuseStrategy strategy :
       {ReuseStrategy::kPartialUnfreeze, ReuseStrategy::kFullReset}) {
    SCOPED_TRACE(strategy_name(strategy));
    BellamyPredictor pred(pretrained, quick_finetune(), strategy);
    EXPECT_EQ(pred.min_training_points(), 0u);
    pred.fit({});  // direct reuse, no fine-tuning
    const double p = pred.predict(fx.target_runs[0]);
    EXPECT_TRUE(std::isfinite(p));
    EXPECT_EQ(pred.last_fit().epochs_run, 0u);
    EXPECT_EQ(p, pretrained.predict_one(fx.target_runs[0]));
  }
}

TEST(BellamyPredictor, RepeatedFitsAreIndependent) {
  // Fitting on split A then split B must equal fitting on split B directly
  // (every fit restarts from the stored checkpoint).
  Fixture fx;
  const BellamyModel pretrained = quick_pretrained(fx.rest, 5);
  const std::vector<data::JobRun> split_a(fx.target_runs.begin(), fx.target_runs.begin() + 3);
  const std::vector<data::JobRun> split_b(fx.target_runs.begin() + 3,
                                          fx.target_runs.begin() + 6);

  BellamyPredictor chained(pretrained, quick_finetune());
  chained.fit(split_a);
  chained.fit(split_b);

  BellamyPredictor direct(pretrained, quick_finetune());
  direct.fit(split_b);

  const double pa = chained.predict(fx.target_runs[10]);
  const double pb = direct.predict(fx.target_runs[10]);
  EXPECT_DOUBLE_EQ(pa, pb);
}

TEST(BellamyPredictor, LocalRefitsAreDeterministic) {
  Fixture fx;
  const std::vector<data::JobRun> split(fx.target_runs.begin(), fx.target_runs.begin() + 4);
  BellamyPredictor a(BellamyConfig{}, quick_finetune(), 42);
  BellamyPredictor b(BellamyConfig{}, quick_finetune(), 42);
  a.fit(split);
  b.fit(split);
  EXPECT_DOUBLE_EQ(a.predict(fx.target_runs[8]), b.predict(fx.target_runs[8]));
}

TEST(BellamyPredictor, StrategiesProduceDifferentModels) {
  Fixture fx;
  const BellamyModel pretrained = quick_pretrained(fx.rest, 6);
  const std::vector<data::JobRun> split(fx.target_runs.begin(), fx.target_runs.begin() + 3);

  BellamyPredictor keep(pretrained, quick_finetune(), ReuseStrategy::kPartialUnfreeze);
  BellamyPredictor reset(pretrained, quick_finetune(), ReuseStrategy::kFullReset);
  keep.fit(split);
  reset.fit(split);
  // Full reset relearns f/z from scratch — almost surely a different model.
  EXPECT_NE(keep.predict(fx.target_runs[9]), reset.predict(fx.target_runs[9]));
}

TEST(BellamyPredictor, NamesArePropagated) {
  Fixture fx;
  BellamyPredictor local(BellamyConfig{}, quick_finetune(), 7, "Bellamy (local)");
  EXPECT_EQ(local.name(), "Bellamy (local)");
  const BellamyModel pretrained = quick_pretrained(fx.rest, 8);
  BellamyPredictor full(pretrained, quick_finetune(), ReuseStrategy::kPartialUnfreeze,
                        "Bellamy (full)");
  EXPECT_EQ(full.name(), "Bellamy (full)");
}

TEST(BellamyPredictor, ModelAccessorThrowsBeforeFit) {
  // Regression: before the fit, the optional holding the model is empty —
  // the accessor must throw a descriptive runtime_error, not dereference it.
  BellamyPredictor pred(BellamyConfig{}, quick_finetune(), 9, "Bellamy (unfitted)");
  try {
    pred.model();
    FAIL() << "model() on an unfitted predictor must throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("Bellamy (unfitted)"), std::string::npos) << what;
    EXPECT_NE(what.find("fit()"), std::string::npos) << what;
  }
}

TEST(BellamyPredictor, ConstModelAccess) {
  // model() has a const overload with the same throw contract.
  Fixture fx;
  BellamyPredictor pred(BellamyConfig{}, quick_finetune(), 11);
  const BellamyPredictor& const_unfitted = pred;
  EXPECT_THROW(const_unfitted.model(), std::runtime_error);

  pred.fit({fx.target_runs.begin(), fx.target_runs.begin() + 4});
  const BellamyPredictor& const_fitted = pred;
  EXPECT_EQ(&const_fitted.model(), &pred.model());
}

TEST(BellamyPredictor, FitTimeIsRecorded) {
  Fixture fx;
  BellamyPredictor pred(BellamyConfig{}, quick_finetune(), 10);
  pred.fit({fx.target_runs.begin(), fx.target_runs.begin() + 4});
  EXPECT_GT(pred.last_fit().fit_seconds, 0.0);
}

}  // namespace
}  // namespace bellamy::core
