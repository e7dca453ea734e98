#include "core/bellamy_model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "data/c3o_generator.hpp"
#include "nn/optimizer.hpp"
#include "support/matrix_testing.hpp"

namespace bellamy::core {
namespace {

data::JobRun make_run(int x = 4, double rt = 300.0) {
  data::JobRun r;
  r.algorithm = "sgd";
  r.node_type = "m4.2xlarge";
  r.job_parameters = "25";
  r.dataset_size_mb = 19353;
  r.data_characteristics = "features-100-dense";
  r.memory_mb = 32768;
  r.cpu_cores = 8;
  r.scale_out = x;
  r.runtime_s = rt;
  return r;
}

std::vector<data::JobRun> small_context() {
  std::vector<data::JobRun> runs;
  for (int x = 2; x <= 12; x += 2) {
    runs.push_back(make_run(x, 100.0 + 600.0 / x));
  }
  return runs;
}

TEST(BellamyModel, PropertyExtraction) {
  const data::JobRun r = make_run();
  const auto ess = essential_properties(r);
  ASSERT_EQ(ess.size(), 4u);
  EXPECT_EQ(std::get<std::string>(ess[0]), "m4.2xlarge");
  EXPECT_EQ(std::get<std::string>(ess[1]), "25");
  EXPECT_EQ(std::get<std::uint64_t>(ess[2]), 19353u);
  EXPECT_EQ(std::get<std::string>(ess[3]), "features-100-dense");
  const auto opt = optional_properties(r);
  ASSERT_EQ(opt.size(), 3u);
  EXPECT_EQ(std::get<std::uint64_t>(opt[0]), 32768u);
  EXPECT_EQ(std::get<std::uint64_t>(opt[1]), 8u);
  EXPECT_EQ(std::get<std::string>(opt[2]), "sgd");
}

TEST(BellamyModel, CombinedDimensionMatchesPaperFormula) {
  // F + (m+1) * M = 8 + 5*4 = 28.
  BellamyConfig cfg;
  EXPECT_EQ(cfg.combined_dim(), 28u);
  EXPECT_EQ(cfg.props_per_sample(), 7u);
}

TEST(BellamyModel, MakeBatchShapes) {
  BellamyConfig cfg;
  BellamyModel model(cfg, 1);
  const auto batch = model.make_batch(small_context());
  EXPECT_EQ(batch.batch_size, 6u);
  EXPECT_EQ(batch.scaleout_raw.rows(), 6u);
  EXPECT_EQ(batch.scaleout_raw.cols(), 3u);
  // All six runs share the same context, so the deduplicated property matrix
  // holds exactly one batch's worth of rows; the stacked view restores the
  // full sample-major layout.
  EXPECT_EQ(batch.properties.rows(), 7u);
  EXPECT_EQ(batch.properties.cols(), 40u);
  EXPECT_EQ(batch.prop_row.size(), 6u * 7u);
  const auto stacked = batch.stacked_properties();
  EXPECT_EQ(stacked.rows(), 6u * 7u);
  EXPECT_EQ(stacked.cols(), 40u);
  EXPECT_EQ(batch.targets_raw.rows(), 6u);
  double total_weight = 0.0;
  for (double w : batch.prop_weight) total_weight += w;
  EXPECT_DOUBLE_EQ(total_weight, 6.0 * 7.0);
}

TEST(BellamyModel, GatherBatchMatchesMakeBatch) {
  BellamyModel model(BellamyConfig{}, 1);
  const auto runs = small_context();
  const auto encoded = model.encode_runs(runs);
  const std::vector<std::size_t> idx{4, 1, 2};
  const auto gathered = model.gather_batch(encoded, idx);
  const std::vector<data::JobRun> subset{runs[4], runs[1], runs[2]};
  const auto direct = model.make_batch(subset);
  EXPECT_EQ(gathered.scaleout_raw, direct.scaleout_raw);
  EXPECT_EQ(gathered.targets_raw, direct.targets_raw);
  EXPECT_EQ(gathered.stacked_properties(), direct.stacked_properties());
  EXPECT_EQ(gathered.prop_weight, direct.prop_weight);
  EXPECT_THROW(model.gather_batch(encoded, std::vector<std::size_t>{}),
               std::invalid_argument);
  EXPECT_THROW(model.gather_batch(encoded, std::vector<std::size_t>{99}), std::out_of_range);
}

// Training loops refill one batch; each refill must equal a fresh gather,
// whether the batch shrinks or grows, and after a gather that threw.
TEST(BellamyModel, GatherBatchRefillMatchesAFreshGather) {
  BellamyModel model(BellamyConfig{}, 1);
  data::C3OGeneratorConfig gen;
  gen.seed = 3;
  const auto runs = data::C3OGenerator(gen).generate_algorithm("sgd", 4).runs();
  const auto encoded = model.encode_runs(runs);
  std::vector<std::size_t> all(runs.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  const std::vector<std::vector<std::size_t>> sequence{
      all, {runs.size() - 1, 0}, {5, 5, 6}, all, {1}};
  BellamyBatch batch;
  for (const auto& idx : sequence) {
    EXPECT_THROW(model.gather_batch(encoded, std::vector<std::size_t>{0, runs.size()}, batch),
                 std::out_of_range);
    model.gather_batch(encoded, idx, batch);
    const BellamyBatch fresh = model.gather_batch(encoded, idx);
    EXPECT_EQ(batch.batch_size, fresh.batch_size);
    EXPECT_EQ(batch.scaleout_raw, fresh.scaleout_raw);
    EXPECT_EQ(batch.targets_raw, fresh.targets_raw);
    EXPECT_EQ(batch.properties, fresh.properties);
    EXPECT_EQ(batch.prop_row, fresh.prop_row);
    EXPECT_EQ(batch.prop_weight, fresh.prop_weight);
  }
}

// encode_runs shares one prop_row block between runs of the same context.
// A context is all seven property fields, so a run that differs from
// another in any single one of them, including the optional memory, cores
// and algorithm that JobRun::context_key() leaves out, must get its own row
// for that field, and every row must be the encoder's vector of its value.
TEST(BellamyModel, EncodeRunsSeparatesRunsThatDifferInAnyOneProperty) {
  BellamyModel model(BellamyConfig{}, 1);
  const data::JobRun base = make_run(4);
  std::vector<data::JobRun> runs{base};
  const std::vector<void (*)(data::JobRun&)> edits{
      [](data::JobRun& r) { r.node_type = "r4.2xlarge"; },
      [](data::JobRun& r) { r.job_parameters = "30"; },
      [](data::JobRun& r) { r.dataset_size_mb = 14540; },
      [](data::JobRun& r) { r.data_characteristics = "features-200-sparse"; },
      [](data::JobRun& r) { r.memory_mb = 65536; },
      [](data::JobRun& r) { r.cpu_cores = 16; },
      [](data::JobRun& r) { r.algorithm = "kmeans"; },
  };
  for (const auto& edit : edits) {
    data::JobRun run = base;
    edit(run);
    runs.push_back(run);
  }
  runs.push_back(make_run(6));  // the base context again: shares every row

  const auto encoded = model.encode_runs(runs);
  const std::size_t ppr = BellamyConfig{}.props_per_sample();
  ASSERT_EQ(ppr, edits.size());
  EXPECT_EQ(encoded.properties.rows(), 2 * ppr);  // the base's rows + one per edit
  const auto row_of = [&](std::size_t run, std::size_t slot) {
    return encoded.prop_row[run * ppr + slot];
  };
  for (std::size_t k = 0; k < edits.size(); ++k) {
    for (std::size_t slot = 0; slot < ppr; ++slot) {
      if (slot == k) {
        EXPECT_NE(row_of(1 + k, slot), row_of(0, slot)) << "edit " << k;
      } else {
        EXPECT_EQ(row_of(1 + k, slot), row_of(0, slot)) << "edit " << k << " slot " << slot;
      }
    }
  }
  for (std::size_t slot = 0; slot < ppr; ++slot) {
    EXPECT_EQ(row_of(runs.size() - 1, slot), row_of(0, slot)) << "slot " << slot;
  }

  const encoding::PropertyEncoder encoder(BellamyConfig{}.property_dim);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    auto props = essential_properties(runs[i]);
    for (auto& p : optional_properties(runs[i])) props.push_back(std::move(p));
    for (std::size_t slot = 0; slot < ppr; ++slot) {
      const std::vector<double> want = encoder.encode(props[slot]);
      std::vector<double> got(encoded.properties.cols());
      for (std::size_t j = 0; j < got.size(); ++j) got[j] = encoded.properties(row_of(i, slot), j);
      EXPECT_EQ(got, want) << "run " << i << " slot " << slot;
    }
  }
}

TEST(BellamyModel, MakeBatchScaleoutFeatures) {
  BellamyModel model(BellamyConfig{}, 1);
  const auto batch = model.make_batch({make_run(4)});
  EXPECT_DOUBLE_EQ(batch.scaleout_raw(0, 0), 0.25);
  EXPECT_NEAR(batch.scaleout_raw(0, 1), std::log(4.0), 1e-12);
  EXPECT_DOUBLE_EQ(batch.scaleout_raw(0, 2), 4.0);
}

TEST(BellamyModel, MakeBatchRejectsEmptyAndInvalid) {
  BellamyModel model(BellamyConfig{}, 1);
  EXPECT_THROW(model.make_batch({}), std::invalid_argument);
  EXPECT_THROW(model.make_batch({make_run(0)}), std::invalid_argument);
}

TEST(BellamyModel, ForwardRequiresNormalization) {
  BellamyModel model(BellamyConfig{}, 1);
  const auto batch = model.make_batch(small_context());
  EXPECT_THROW(model.forward(batch, false), std::logic_error);
}

TEST(BellamyModel, ForwardShapes) {
  BellamyModel model(BellamyConfig{}, 1);
  const auto runs = small_context();
  model.fit_normalization(runs);
  const auto batch = model.make_batch(runs);
  const auto fw = model.forward(batch, false);
  EXPECT_EQ(fw.prediction_raw.rows(), 6u);
  EXPECT_EQ(fw.prediction_raw.cols(), 1u);
  // codes/reconstruction cover the batch's unique property rows (one shared
  // context here); the stacked views expand to sample-major layout.
  EXPECT_EQ(fw.codes.rows(), batch.num_unique_properties());
  EXPECT_EQ(fw.codes.cols(), 4u);
  EXPECT_EQ(fw.reconstruction.rows(), batch.num_unique_properties());
  EXPECT_EQ(fw.reconstruction.cols(), 40u);
  EXPECT_EQ(fw.stacked_codes().rows(), 42u);
  EXPECT_EQ(fw.stacked_reconstruction().rows(), 42u);
  EXPECT_EQ(fw.combined.rows(), 6u);
  EXPECT_EQ(fw.combined.cols(), 28u);
}

TEST(BellamyModel, EvalForwardDeterministic) {
  BellamyModel model(BellamyConfig{}, 2);
  const auto runs = small_context();
  model.fit_normalization(runs);
  const auto batch = model.make_batch(runs);
  const auto a = model.forward(batch, false);
  const auto b = model.forward(batch, false);
  EXPECT_EQ(a.prediction_raw, b.prediction_raw);
}

TEST(BellamyModel, CombinedVectorLayout) {
  // The combined vector must be [e | essential codes | mean(optional codes)].
  BellamyModel model(BellamyConfig{}, 3);
  const auto runs = small_context();
  model.fit_normalization(runs);
  const auto batch = model.make_batch({runs[0]});
  const auto fw = model.forward(batch, false);
  const auto codes = fw.stacked_codes();
  const auto& cfg = model.config();
  const std::size_t F = cfg.scaleout_out;
  const std::size_t M = cfg.code_dim;
  // Essential code p occupies columns F + p*M .. F + (p+1)*M.
  for (std::size_t p = 0; p < cfg.num_essential; ++p) {
    for (std::size_t j = 0; j < M; ++j) {
      EXPECT_DOUBLE_EQ(fw.combined(0, F + p * M + j), codes(p, j));
    }
  }
  // Mean of optional codes in the last M columns.
  for (std::size_t j = 0; j < M; ++j) {
    double mean = 0.0;
    for (std::size_t p = 0; p < cfg.num_optional; ++p) {
      mean += codes(cfg.num_essential + p, j);
    }
    mean /= static_cast<double>(cfg.num_optional);
    EXPECT_NEAR(fw.combined(0, F + cfg.num_essential * M + j), mean, 1e-12);
  }
}

TEST(BellamyModel, TrainStepReducesLoss) {
  BellamyModel model(BellamyConfig{}, 4);
  const auto runs = small_context();
  model.fit_normalization(runs);
  model.set_dropout_rate(0.0);
  const auto batch = model.make_batch(runs);

  nn::Adam::Config adam;
  adam.lr = 1e-2;
  nn::Adam opt(model.parameters(), adam);
  const double initial = model.evaluate(batch, 1.0).total;
  for (int i = 0; i < 200; ++i) {
    opt.zero_grad();
    model.train_step(batch, 1.0);
    opt.step();
  }
  const double after = model.evaluate(batch, 1.0).total;
  EXPECT_LT(after, initial);
}

TEST(BellamyModel, ReconstructionLossDecreases) {
  BellamyModel model(BellamyConfig{}, 5);
  const auto runs = small_context();
  model.fit_normalization(runs);
  model.set_dropout_rate(0.0);
  const auto batch = model.make_batch(runs);
  nn::Adam::Config adam;
  adam.lr = 1e-2;
  nn::Adam opt(model.parameters(), adam);
  const double initial = model.evaluate(batch, 1.0).reconstruction;
  for (int i = 0; i < 300; ++i) {
    opt.zero_grad();
    model.train_step(batch, 1.0);
    opt.step();
  }
  EXPECT_LT(model.evaluate(batch, 1.0).reconstruction, initial);
}

TEST(BellamyModel, DecoderGetsNoGradientWithoutReconstructionLoss) {
  // Fine-tuning disables the reconstruction term: h must receive no gradient
  // while f, g and z still do.
  BellamyModel model(BellamyConfig{}, 6);
  const auto runs = small_context();
  model.fit_normalization(runs);
  model.set_dropout_rate(0.0);
  const auto batch = model.make_batch(runs);
  for (nn::Parameter* p : model.parameters()) p->zero_grad();
  model.train_step(batch, /*reconstruction_weight=*/0.0);
  for (nn::Parameter* p : model.h().parameters()) {
    EXPECT_DOUBLE_EQ(squared_norm(p->grad), 0.0) << p->name;
  }
  double fz_grad = 0.0;
  for (nn::Parameter* p : model.f().parameters()) fz_grad += squared_norm(p->grad);
  for (nn::Parameter* p : model.z().parameters()) fz_grad += squared_norm(p->grad);
  EXPECT_GT(fz_grad, 0.0);
}

// train_step skips the work of frozen components (and the decoder when its
// loss has weight 0).  Under every freeze pattern, including fine-tuning's
// (only z, then f and z), frozen gradients stay exactly zero and trainable
// ones are bit-identical to those of an all-trainable twin from the same seed.
TEST(BellamyModel, FrozenComponentsGetNoGradientTrainableOnesKeepTheirBits) {
  struct Case {
    bool f, g, h;
    double reconstruction_weight;
  };
  const Case cases[] = {{false, false, false, 0.0},
                        {true, false, false, 0.0},
                        {false, true, false, 1.0},
                        {false, false, true, 1.0},
                        {true, false, true, 1.0}};
  const auto runs = small_context();
  for (const Case& c : cases) {
    BellamyModel all(BellamyConfig{}, 12);
    BellamyModel frozen(BellamyConfig{}, 12);
    for (BellamyModel* m : {&all, &frozen}) {
      m->fit_normalization(runs);
      m->set_dropout_rate(0.0);
      for (nn::Parameter* p : m->parameters()) p->zero_grad();
    }
    frozen.set_trainable_components(c.f, c.g, c.h, true);
    const auto batch = all.make_batch(runs);
    all.train_step(batch, c.reconstruction_weight);
    frozen.train_step(batch, c.reconstruction_weight);

    const auto want = all.parameters();
    const auto got = frozen.parameters();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      SCOPED_TRACE(got[i]->name + " f=" + std::to_string(c.f) + " g=" + std::to_string(c.g) +
                   " h=" + std::to_string(c.h));
      if (got[i]->trainable) {
        EXPECT_EQ(got[i]->grad, want[i]->grad);
      } else {
        EXPECT_EQ(squared_norm(got[i]->grad), 0.0);
      }
    }
  }
}

TEST(BellamyModel, FiniteDifferenceOnJointLoss) {
  // Check one representative weight of each component against central
  // differences of the full joint objective.
  BellamyConfig cfg;
  BellamyModel model(cfg, 7);
  const auto runs = small_context();
  model.fit_normalization(runs);
  model.set_dropout_rate(0.0);
  const auto batch = model.make_batch(runs);

  for (nn::Parameter* p : model.parameters()) p->zero_grad();
  model.train_step(batch, 1.0);

  auto loss_value = [&]() { return model.evaluate(batch, 1.0).total; };
  const double eps = 1e-6;
  for (nn::Parameter* p : model.parameters()) {
    // Probe the first entry of every parameter tensor.
    const double analytic = p->grad.data()[0];
    const double orig = p->value.data()[0];
    p->value.data()[0] = orig + eps;
    const double up = loss_value();
    p->value.data()[0] = orig - eps;
    const double down = loss_value();
    p->value.data()[0] = orig;
    const double numeric = (up - down) / (2.0 * eps);
    EXPECT_NEAR(analytic, numeric, 1e-4) << p->name;
  }
}

TEST(BellamyModel, PredictDenormalizesToSeconds) {
  BellamyModel model(BellamyConfig{}, 8);
  const auto runs = small_context();
  model.fit_normalization(runs);
  const auto preds = model.predict_batch(runs);
  ASSERT_EQ(preds.size(), runs.size());
  // Untrained predictions are near the target mean (network outputs ~0).
  double mean_rt = 0.0;
  for (const auto& r : runs) mean_rt += r.runtime_s;
  mean_rt /= runs.size();
  for (double p : preds) EXPECT_NEAR(p, mean_rt, 400.0);
}

TEST(BellamyModel, CheckpointRoundTripPreservesPredictions) {
  BellamyModel model(BellamyConfig{}, 9);
  const auto runs = small_context();
  model.fit_normalization(runs);
  const auto before = model.predict_batch(runs);
  const nn::Checkpoint ckpt = model.to_checkpoint();
  BellamyModel restored = BellamyModel::from_checkpoint(ckpt);
  const auto after = restored.predict_batch(runs);
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_DOUBLE_EQ(before[i], after[i]);
  }
}

TEST(BellamyModel, CheckpointPreservesConfig) {
  BellamyConfig cfg;
  cfg.scaleout_hidden = 12;
  cfg.code_dim = 5;
  cfg.dropout = 0.2;
  BellamyModel model(cfg, 10);
  model.fit_normalization(small_context());
  BellamyModel restored = BellamyModel::from_checkpoint(model.to_checkpoint());
  EXPECT_EQ(restored.config().scaleout_hidden, 12u);
  EXPECT_EQ(restored.config().code_dim, 5u);
  EXPECT_DOUBLE_EQ(restored.config().dropout, 0.2);
}

TEST(BellamyModel, FromCheckpointRejectsForeignFormat) {
  nn::Checkpoint ckpt;
  ckpt.meta["format"] = "something-else";
  EXPECT_THROW(BellamyModel::from_checkpoint(ckpt), std::runtime_error);
}

// Checkpoints arrive over the wire (publish, peer install), so from_checkpoint
// must reject normalization entries of the wrong shape instead of reading
// past them (norm.target 1x1 was a heap-buffer-overflow).
TEST(BellamyModel, FromCheckpointRejectsMisshapenNormalization) {
  BellamyModel model(BellamyConfig{}, 12);
  model.fit_normalization(small_context());
  const nn::Checkpoint good = model.to_checkpoint();
  const std::pair<const char*, nn::Matrix> bad[] = {
      {"norm.target", nn::Matrix(1, 1, 5.0)},
      {"norm.target", nn::Matrix(2, 1, 5.0)},
      {"norm.target", nn::Matrix(0, 0)},
      {"norm.scaleout_min", nn::Matrix(1, 2, 0.0)},
      {"norm.scaleout_min", nn::Matrix(3, 1, 0.0)},
      {"norm.scaleout_max", nn::Matrix(1, 1, 1.0)},
      {"norm.scaleout_max", nn::Matrix(1, 4, 1.0)},
  };
  for (const auto& [name, m] : bad) {
    nn::Checkpoint ckpt = good;
    ckpt.matrices.at(name) = m;
    EXPECT_THROW(BellamyModel::from_checkpoint(ckpt), std::runtime_error)
        << name << " " << m.shape_str();
  }
  EXPECT_NO_THROW(BellamyModel::from_checkpoint(good));
}

// Layer widths come from the checkpoint's meta; one that no stored weight
// could back must be rejected before it sizes the model's allocations.
TEST(BellamyModel, FromCheckpointRejectsWidthsTheValuesCannotBack) {
  BellamyModel model(BellamyConfig{}, 13);
  model.fit_normalization(small_context());
  const nn::Checkpoint good = model.to_checkpoint();
  for (const char* key : {"scaleout_hidden", "scaleout_out", "property_dim", "encoder_hidden",
                          "code_dim", "predictor_hidden"}) {
    for (const char* width : {"4000000000", "18446744073709551615", "60000"}) {
      nn::Checkpoint ckpt = good;
      ckpt.meta[key] = width;
      EXPECT_THROW(BellamyModel::from_checkpoint(ckpt), std::runtime_error)
          << key << " = " << width;
    }
  }
}

// property_dim is the encoder's N: its L = N - 1 bits must fit a 64-bit
// value and leave at least one bucket, so a checkpoint outside [2, 64] is
// refused by the encoder before any layer is built.
TEST(BellamyModel, FromCheckpointRejectsPropertyDimOutsideTheEncoderRange) {
  BellamyModel model(BellamyConfig{}, 13);
  model.fit_normalization(small_context());
  const nn::Checkpoint good = model.to_checkpoint();
  for (const char* dim : {"0", "1", "65"}) {
    nn::Checkpoint ckpt = good;
    ckpt.meta["property_dim"] = dim;
    EXPECT_THROW(BellamyModel::from_checkpoint(ckpt), std::invalid_argument)
        << "property_dim = " << dim;
  }
}

// Hyperparameters come off the wire too; std::stod parses "nan", so each
// value must be range-checked, not just parsed.  A model accepted with one
// of these failed (or trained on NaN losses) only at its first refit.
void expect_hyperparameter_rejected(const char* key, const char* value) {
  BellamyModel model(BellamyConfig{}, 14);
  model.fit_normalization(small_context());
  nn::Checkpoint ckpt = model.to_checkpoint();
  ckpt.meta[key] = value;
  try {
    BellamyModel::from_checkpoint(ckpt);
    ADD_FAILURE() << key << " = " << value << " was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(key), std::string::npos) << e.what();
  }
}

TEST(BellamyModel, FromCheckpointRejectsNanHuberDelta) {
  expect_hyperparameter_rejected("huber_delta", "nan");
}

TEST(BellamyModel, FromCheckpointRejectsZeroHuberDelta) {
  expect_hyperparameter_rejected("huber_delta", "0");
}

TEST(BellamyModel, FromCheckpointRejectsNegativeHuberDelta) {
  expect_hyperparameter_rejected("huber_delta", "-1");
}

TEST(BellamyModel, FromCheckpointRejectsNanDropout) {
  expect_hyperparameter_rejected("dropout", "nan");
}

TEST(BellamyModel, SetTrainableComponents) {
  BellamyModel model(BellamyConfig{}, 11);
  model.set_trainable_components(false, false, false, true);
  for (nn::Parameter* p : model.f().parameters()) EXPECT_FALSE(p->trainable);
  for (nn::Parameter* p : model.g().parameters()) EXPECT_FALSE(p->trainable);
  for (nn::Parameter* p : model.h().parameters()) EXPECT_FALSE(p->trainable);
  for (nn::Parameter* p : model.z().parameters()) EXPECT_TRUE(p->trainable);
}

TEST(BellamyModel, ReinitChangesOnlyTargetComponents) {
  BellamyModel model(BellamyConfig{}, 12);
  const auto g_before = model.g().parameters()[0]->value;
  const auto f_before = model.f().parameters()[0]->value;
  const auto z_before = model.z().parameters()[0]->value;
  model.reinit_z();
  EXPECT_EQ(model.g().parameters()[0]->value, g_before);
  EXPECT_EQ(model.f().parameters()[0]->value, f_before);
  EXPECT_NE(model.z().parameters()[0]->value, z_before);
  model.reinit_f();
  EXPECT_NE(model.f().parameters()[0]->value, f_before);
}

TEST(BellamyModel, SnapshotRestoreRoundTrip) {
  BellamyModel model(BellamyConfig{}, 13);
  const auto runs = small_context();
  model.fit_normalization(runs);
  const auto snap = model.snapshot_parameters();
  const auto before = model.predict_batch(runs);
  model.reinit_f();
  model.reinit_z();
  model.restore_parameters(snap);
  const auto after = model.predict_batch(runs);
  for (std::size_t i = 0; i < before.size(); ++i) EXPECT_DOUBLE_EQ(before[i], after[i]);
}

TEST(BellamyModel, NormalizationDegenerateSinglePoint) {
  // One training point: feature range collapses; must not divide by zero.
  BellamyModel model(BellamyConfig{}, 14);
  model.fit_normalization({make_run(4, 100.0)});
  const auto pred = model.predict_batch({make_run(8, 0.0)});
  EXPECT_TRUE(std::isfinite(pred[0]));
}

TEST(BellamyModel, RawTargetModeSkipsStandardization) {
  BellamyConfig cfg;
  cfg.standardize_target = false;
  BellamyModel model(cfg, 15);
  const auto runs = small_context();
  model.fit_normalization(runs);
  // In raw mode the untrained network predicts values near 0 seconds, not
  // near the target mean — the scale must be learned.
  const auto preds = model.predict_batch(runs);
  for (double p : preds) EXPECT_LT(std::abs(p), 50.0);
}

TEST(BellamyModel, RawTargetModeSurvivesCheckpoint) {
  BellamyConfig cfg;
  cfg.standardize_target = false;
  BellamyModel model(cfg, 16);
  model.fit_normalization(small_context());
  BellamyModel restored = BellamyModel::from_checkpoint(model.to_checkpoint());
  EXPECT_FALSE(restored.config().standardize_target);
  const auto a = model.predict_batch(small_context());
  const auto b = restored.predict_batch(small_context());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
}

TEST(BellamyModel, RawTargetModeTrainsTowardsScale) {
  // With an aggressive LR, even raw-seconds targets are reachable — but it
  // takes visibly more work than the standardized mode, which is the
  // mechanism behind the paper's Fig. 7 / training-time results.
  BellamyConfig cfg;
  cfg.standardize_target = false;
  BellamyModel model(cfg, 17);
  const auto runs = small_context();
  model.fit_normalization(runs);
  model.set_dropout_rate(0.0);
  const auto batch = model.make_batch(runs);
  nn::Adam::Config adam;
  adam.lr = 5e-2;
  nn::Adam opt(model.parameters(), adam);
  const double before = model.evaluate(batch, 0.0).mae_seconds;
  for (int i = 0; i < 400; ++i) {
    opt.zero_grad();
    model.train_step(batch, 0.0);
    opt.step();
  }
  const double after = model.evaluate(batch, 0.0).mae_seconds;
  EXPECT_LT(after, before * 0.5);
}

TEST(BellamyModel, RejectsUnsupportedSchema) {
  BellamyConfig cfg;
  cfg.num_essential = 2;
  EXPECT_THROW(BellamyModel(cfg, 1), std::invalid_argument);
}

}  // namespace
}  // namespace bellamy::core
