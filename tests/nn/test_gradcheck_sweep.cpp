// Property-style gradient verification sweeps: every differentiable module is
// checked against central finite differences across a grid of layer shapes,
// batch sizes and activations (TEST_P / INSTANTIATE_TEST_SUITE_P).

#include <gtest/gtest.h>

#include <cmath>

#include "core/bellamy_model.hpp"
#include "core/trainer.hpp"
#include "nn/activations.hpp"
#include "nn/dropout.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/sequential.hpp"
#include "support/gradcheck.hpp"
#include "support/matrix_testing.hpp"
#include "util/rng.hpp"

namespace bellamy::nn {
namespace {

struct ShapeCase {
  std::size_t in;
  std::size_t out;
  std::size_t batch;
  bool bias;
};

class LinearGradSweep : public ::testing::TestWithParam<ShapeCase> {};

TEST_P(LinearGradSweep, MatchesFiniteDifferences) {
  const auto c = GetParam();
  util::Rng rng(c.in * 1000 + c.out * 10 + c.batch);
  Linear layer(c.in, c.out, c.bias, Init::kHeNormal, rng);
  const Matrix x = Matrix::randn(c.batch, c.in, rng);
  const auto result = grad_check(layer, x);
  EXPECT_TRUE(result.ok(1e-5)) << "in=" << c.in << " out=" << c.out << " batch=" << c.batch
                               << " input_err=" << result.max_input_grad_error
                               << " param_err=" << result.max_param_grad_error;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LinearGradSweep,
    ::testing::Values(ShapeCase{1, 1, 1, true}, ShapeCase{1, 1, 1, false},
                      ShapeCase{3, 16, 4, true},   // the paper's f first layer
                      ShapeCase{16, 8, 4, true},   // f second layer
                      ShapeCase{40, 8, 2, false},  // g first layer (no bias)
                      ShapeCase{8, 4, 2, false},   // g second layer
                      ShapeCase{4, 8, 3, false},   // h first layer
                      ShapeCase{8, 40, 3, false},  // h second layer
                      ShapeCase{28, 8, 5, true},   // z first layer
                      ShapeCase{8, 1, 5, true},    // z output layer
                      ShapeCase{40, 8, 7, false},  // encoder at odd batch
                      ShapeCase{40, 8, 64, false},  // encoder at pre-train batch
                      ShapeCase{3, 16, 64, true}),  // f at pre-train batch
    [](const auto& info) {
      return "in" + std::to_string(info.param.in) + "_out" + std::to_string(info.param.out) +
             "_b" + std::to_string(info.param.batch) + (info.param.bias ? "_bias" : "_nobias");
    });

// The model's two activations: SELU, and tanh on the decoder output.  The
// enumerator values seed the sweeps' generators.
enum class Activation { kSelu, kTanh };

const char* activation_name(Activation act) {
  return act == Activation::kSelu ? "selu" : "tanh";
}

ModulePtr make_activation(Activation act) {
  if (act == Activation::kSelu) return std::make_unique<Selu>();
  return std::make_unique<Tanh>();
}

class ActivationGradSweep
    : public ::testing::TestWithParam<std::tuple<Activation, std::size_t>> {};

TEST_P(ActivationGradSweep, MatchesFiniteDifferences) {
  const auto [act, batch] = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(batch) * 7 + static_cast<std::uint64_t>(act));
  auto module = make_activation(act);
  const Matrix x = Matrix::randn(batch, 6, rng);
  const auto result = grad_check(*module, x);
  EXPECT_TRUE(result.ok(1e-6)) << activation_name(act) << " batch=" << batch;
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, ActivationGradSweep,
    ::testing::Combine(::testing::Values(Activation::kSelu, Activation::kTanh),
                       ::testing::Values<std::size_t>(1, 2, 4, 7, 16, 64)),
    [](const auto& info) {
      return std::string(activation_name(std::get<0>(info.param))) + "_b" +
             std::to_string(std::get<1>(info.param));
    });

// Batched-backward certification: a Linear / activation / AlphaDropout(eval)
// / Linear / activation stack — the exact module mix of the Bellamy
// encoder/decoder — gradchecked against central differences for both
// activations at batch sizes {1, 2, 7, 64}.
class BatchedBackwardSweep
    : public ::testing::TestWithParam<std::tuple<Activation, std::size_t>> {};

TEST_P(BatchedBackwardSweep, LinearActivationDropoutStack) {
  const auto [act, batch] = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(batch) * 101 + static_cast<std::uint64_t>(act));
  Sequential net;
  net.emplace<Linear>(6, 9, false, Init::kLeCunNormal, rng, "l1");
  net.add(make_activation(act));
  net.emplace<AlphaDropout>(0.10, util::Rng(7));
  net.emplace<Linear>(9, 5, true, Init::kHeNormal, rng, "l2");
  net.add(make_activation(act));
  // Dropout must behave as identity under gradcheck: eval mode.
  net.set_training(false);
  const Matrix x = Matrix::randn(batch, 6, rng);
  const auto result = grad_check(net, x, {}, 1e-6);
  EXPECT_TRUE(result.ok(1e-5)) << activation_name(act) << " batch=" << batch
                              << " input_err=" << result.max_input_grad_error
                              << " param_err=" << result.max_param_grad_error;
}

INSTANTIATE_TEST_SUITE_P(
    Combos, BatchedBackwardSweep,
    ::testing::Combine(::testing::Values(Activation::kSelu, Activation::kTanh),
                       ::testing::Values<std::size_t>(1, 2, 7, 64)),
    [](const auto& info) {
      return std::string(activation_name(std::get<0>(info.param))) + "_b" +
             std::to_string(std::get<1>(info.param));
    });

class MlpGradSweep : public ::testing::TestWithParam<std::tuple<std::size_t, Activation>> {};

TEST_P(MlpGradSweep, TwoLayerNetworkGradients) {
  const auto [hidden, act] = GetParam();
  util::Rng rng(hidden * 31 + static_cast<std::uint64_t>(act));
  Sequential net;
  net.emplace<Linear>(5, hidden, true, Init::kHeNormal, rng, "l1");
  net.add(make_activation(act));
  net.emplace<Linear>(hidden, 3, true, Init::kHeNormal, rng, "l2");
  net.add(make_activation(act));
  const Matrix x = Matrix::randn(4, 5, rng);
  const auto result = grad_check(net, x, {}, 1e-6);
  EXPECT_TRUE(result.ok(1e-5)) << "hidden=" << hidden << " act=" << activation_name(act)
                              << " input_err=" << result.max_input_grad_error
                              << " param_err=" << result.max_param_grad_error;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MlpGradSweep,
    ::testing::Combine(::testing::Values<std::size_t>(2, 8, 16),
                       ::testing::Values(Activation::kSelu, Activation::kTanh)),
    [](const auto& info) {
      return "h" + std::to_string(std::get<0>(info.param)) + "_" +
             activation_name(std::get<1>(info.param));
    });

class LossGradSweep : public ::testing::TestWithParam<double> {};

TEST_P(LossGradSweep, HuberGradThroughNetwork) {
  // End-to-end grad check: loss(network(x)) with Huber at various deltas.
  const double delta = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(delta * 1000));
  Sequential net;
  net.emplace<Linear>(3, 8, true, Init::kHeNormal, rng, "l1");
  net.emplace<Selu>();
  net.emplace<Linear>(8, 1, true, Init::kHeNormal, rng, "l2");
  const Matrix x = Matrix::randn(6, 3, rng);
  const Matrix target = Matrix::randn(6, 1, rng);
  const auto loss_fn = [&](const Matrix& y) {
    Matrix grad;
    const double value = huber_loss(y, target, delta, &grad);
    return std::make_pair(value, grad);
  };
  const auto result = grad_check(net, x, loss_fn);
  EXPECT_TRUE(result.ok(1e-5)) << "delta=" << delta;
}

INSTANTIATE_TEST_SUITE_P(Deltas, LossGradSweep, ::testing::Values(0.1, 1.0, 5.0),
                         [](const auto& info) {
                           return "delta_x10_" +
                                  std::to_string(static_cast<int>(info.param * 10));
                         });

// ---- batched train_step vs accumulated per-sample steps --------------------
//
// One stacked train_step over a B-sample batch must produce (a) the mean of
// the per-sample losses and (b) 1/B times the SUM of the per-sample
// gradients, because every loss term is normalized by the batch element
// count.  This certifies the dedup-aware batched backward (gradients of
// shared property rows accumulated by multiplicity) against the per-sample
// path to 1e-9.

data::JobRun equivalence_run(int ctx, int scale_out, double runtime_s) {
  data::JobRun r;
  r.algorithm = ctx % 2 ? "sgd" : "grep";
  r.node_type = ctx % 3 ? "m4.2xlarge" : "r4.2xlarge";
  r.job_parameters = std::to_string(25 + ctx);
  r.dataset_size_mb = 10000 + 500 * static_cast<std::uint64_t>(ctx);
  r.data_characteristics = "features-100-dense";
  r.memory_mb = 32768;
  r.cpu_cores = 8;
  r.scale_out = scale_out;
  r.runtime_s = runtime_s;
  return r;
}

class TrainStepEquivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TrainStepEquivalence, BatchedMatchesAccumulatedPerSample) {
  const std::size_t b = GetParam();
  // Mix duplicated contexts (exercising multiplicity > 1) with distinct ones.
  std::vector<data::JobRun> runs;
  for (std::size_t i = 0; i < b; ++i) {
    runs.push_back(equivalence_run(static_cast<int>(i % 5), 2 + static_cast<int>(i % 7),
                                   120.0 + 10.0 * static_cast<double>(i)));
  }

  core::BellamyModel model(core::BellamyConfig{}, 42);
  model.fit_normalization(runs);
  model.set_dropout_rate(0.0);  // equivalence requires the deterministic path
  const auto params = model.parameters();

  // Batched: one stacked forward/backward.
  for (nn::Parameter* p : params) p->zero_grad();
  const auto batch_loss = model.train_step(model.make_batch(runs), 1.0);
  std::vector<Matrix> batched_grads;
  for (nn::Parameter* p : params) batched_grads.push_back(p->grad);

  // Per-sample: B singleton steps, gradients and losses accumulated.
  for (nn::Parameter* p : params) p->zero_grad();
  double sum_total = 0.0, sum_huber = 0.0, sum_recon = 0.0, sum_mae = 0.0;
  for (const auto& run : runs) {
    const auto loss = model.train_step(model.make_batch({run}), 1.0);
    sum_total += loss.total;
    sum_huber += loss.huber;
    sum_recon += loss.reconstruction;
    sum_mae += loss.mae_seconds;
  }

  const double inv_b = 1.0 / static_cast<double>(b);
  EXPECT_NEAR(batch_loss.total, sum_total * inv_b, 1e-9);
  EXPECT_NEAR(batch_loss.huber, sum_huber * inv_b, 1e-9);
  EXPECT_NEAR(batch_loss.reconstruction, sum_recon * inv_b, 1e-9);
  EXPECT_NEAR(batch_loss.mae_seconds, sum_mae * inv_b, 1e-9);
  for (std::size_t i = 0; i < params.size(); ++i) {
    Matrix scaled = params[i]->grad;
    scaled *= inv_b;
    EXPECT_LE(max_abs_diff(batched_grads[i], scaled), 1e-9) << params[i]->name;
  }
}

INSTANTIATE_TEST_SUITE_P(BatchSizes, TrainStepEquivalence,
                         ::testing::Values<std::size_t>(1, 2, 7, 64),
                         [](const auto& info) {
                           return "b" + std::to_string(info.param);
                         });

// ---- mini-batch finetune vs the full-batch reference -----------------------
//
// FineTuneConfig::batch_size opts into SGD-style mini-batching inside
// finetune().  Two certifications against the full-batch path:
//
//   (a) batch_size = 0 (the default) and batch_size >= run count must be
//       BIT-IDENTICAL to the pre-existing full-batch loop — the knob is
//       opt-in, so the default cannot move a single bit;
//   (b) genuine mini-batches optimize the SAME objective: best MAE is
//       tracked against the full batch every epoch, so the mini-batch fit
//       must land within a modest factor of the full-batch fit (and never
//       return a non-finite or zero-epoch result).

std::vector<data::JobRun> finetune_runs(std::size_t n) {
  std::vector<data::JobRun> runs;
  for (std::size_t i = 0; i < n; ++i) {
    runs.push_back(equivalence_run(static_cast<int>(i % 5), 2 + static_cast<int>(i % 7),
                                   120.0 + 15.0 * static_cast<double>(i % 9)));
  }
  return runs;
}

core::FineTuneConfig short_finetune(std::size_t batch_size) {
  core::FineTuneConfig cfg;
  cfg.max_epochs = 40;
  cfg.mae_target_seconds = 0.0;  // never early-stop on target: fixed work
  cfg.patience = 1000;
  cfg.seed = 19;
  cfg.batch_size = batch_size;
  return cfg;
}

TEST(FineTuneBatchEquivalence, FullBatchFallbackIsBitIdenticalToDefault) {
  const std::vector<data::JobRun> runs = finetune_runs(12);
  // batch_size 0, == n, and > n must all take the full-batch path.
  std::vector<core::BellamyModel> models;
  std::vector<core::FineTuneResult> results;
  for (const std::size_t bs : {std::size_t{0}, runs.size(), runs.size() + 5}) {
    core::BellamyModel model(core::BellamyConfig{}, 42);
    model.fit_normalization(runs);
    results.push_back(core::finetune(model, runs, short_finetune(bs)));
    models.push_back(std::move(model));
  }
  const auto reference = models.front().parameters();
  for (std::size_t m = 1; m < models.size(); ++m) {
    EXPECT_EQ(results[m].epochs_run, results[0].epochs_run);
    EXPECT_EQ(results[m].best_mae_seconds, results[0].best_mae_seconds);  // bit-exact
    const auto params = models[m].parameters();
    ASSERT_EQ(params.size(), reference.size());
    for (std::size_t i = 0; i < params.size(); ++i) {
      EXPECT_EQ(max_abs_diff(params[i]->value, reference[i]->value), 0.0)
          << "model " << m << " " << params[i]->name;
    }
  }
}

class FineTuneBatchSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FineTuneBatchSweep, MiniBatchTracksTheFullBatchObjective) {
  const std::size_t batch_size = GetParam();
  const std::vector<data::JobRun> runs = finetune_runs(24);

  core::BellamyModel full(core::BellamyConfig{}, 42);
  full.fit_normalization(runs);
  const auto full_result = core::finetune(full, runs, short_finetune(0));

  core::BellamyModel mini(core::BellamyConfig{}, 42);
  mini.fit_normalization(runs);
  const auto mini_result = core::finetune(mini, runs, short_finetune(batch_size));

  EXPECT_GT(mini_result.epochs_run, 0u);
  ASSERT_TRUE(std::isfinite(mini_result.best_mae_seconds));
  EXPECT_GE(mini_result.best_mae_seconds, 0.0);
  // best_mae is evaluated on the FULL batch in both paths, so the two fits
  // share one objective; more steps per epoch may land better or slightly
  // worse, but the same optimum must be in reach.
  EXPECT_LE(mini_result.best_mae_seconds, 3.0 * full_result.best_mae_seconds + 1.0)
      << "full " << full_result.best_mae_seconds << "s vs mini "
      << mini_result.best_mae_seconds << "s";
}

INSTANTIATE_TEST_SUITE_P(BatchSizes, FineTuneBatchSweep,
                         ::testing::Values<std::size_t>(1, 4, 8, 16),
                         [](const auto& info) {
                           return "b" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace bellamy::nn
