#include "nn/optimizer.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "util/rng.hpp"

namespace bellamy::nn {
namespace {

Parameter make_param(double value) { return Parameter("p", Matrix{{value}}); }

TEST(Optimizer, RejectsNonPositiveLr) {
  Parameter p = make_param(1.0);
  EXPECT_THROW(Adam({&p}, Adam::Config{.lr = 0.0}), std::invalid_argument);
  EXPECT_THROW(Adam({&p}, Adam::Config{.lr = -1.0}), std::invalid_argument);
  Adam opt({&p}, Adam::Config{.lr = 0.1});
  EXPECT_THROW(opt.set_learning_rate(0.0), std::invalid_argument);
}

TEST(Adam, FirstStepMovesByLr) {
  // With bias correction the very first Adam update is ≈ lr * sign(grad).
  Parameter p = make_param(0.0);
  p.grad = Matrix{{3.7}};
  Adam::Config cfg;
  cfg.lr = 0.01;
  Adam opt({&p}, cfg);
  opt.step();
  EXPECT_NEAR(p.value(0, 0), -0.01, 1e-6);
}

TEST(Adam, MatchesReferenceImplementationTwoSteps) {
  // Hand-computed Adam reference with constant gradient 1.0.
  Parameter p = make_param(0.0);
  Adam::Config cfg;
  cfg.lr = 0.1;
  cfg.beta1 = 0.9;
  cfg.beta2 = 0.999;
  cfg.eps = 1e-8;
  Adam opt({&p}, cfg);

  double m = 0.0;
  double v = 0.0;
  double ref = 0.0;
  for (int t = 1; t <= 2; ++t) {
    const double g = 1.0;
    m = 0.9 * m + 0.1 * g;
    v = 0.999 * v + 0.001 * g * g;
    const double mh = m / (1.0 - std::pow(0.9, t));
    const double vh = v / (1.0 - std::pow(0.999, t));
    ref -= 0.1 * mh / (std::sqrt(vh) + 1e-8);

    p.grad = Matrix{{g}};
    opt.step();
  }
  EXPECT_NEAR(p.value(0, 0), ref, 1e-12);
}

TEST(Adam, WeightDecayAddsToGradient) {
  Parameter with_wd = make_param(1.0);
  Parameter no_wd = make_param(1.0);
  with_wd.grad = Matrix{{0.0}};
  no_wd.grad = Matrix{{0.0}};
  Adam::Config cfg;
  cfg.lr = 0.01;
  cfg.weight_decay = 0.1;
  Adam opt1({&with_wd}, cfg);
  cfg.weight_decay = 0.0;
  Adam opt2({&no_wd}, cfg);
  opt1.step();
  opt2.step();
  EXPECT_LT(with_wd.value(0, 0), no_wd.value(0, 0));
}

TEST(Adam, SkipsFrozenParameters) {
  Parameter p = make_param(2.0);
  p.grad = Matrix{{1.0}};
  p.trainable = false;
  Adam opt({&p}, Adam::Config{});
  opt.step();
  EXPECT_DOUBLE_EQ(p.value(0, 0), 2.0);
}

TEST(Adam, StatePersistsAcrossFreezeToggle) {
  // Freezing then unfreezing must not reset the moment estimates.
  Parameter p = make_param(0.0);
  Adam::Config cfg;
  cfg.lr = 0.1;
  Adam opt({&p}, cfg);
  p.grad = Matrix{{1.0}};
  opt.step();
  const double after_one = p.value(0, 0);
  p.trainable = false;
  opt.step();
  EXPECT_DOUBLE_EQ(p.value(0, 0), after_one);
  p.trainable = true;
  p.grad = Matrix{{1.0}};
  opt.step();  // t advances to 2 for this parameter
  EXPECT_LT(p.value(0, 0), after_one);
}

TEST(Adam, RejectsInvalidBetas) {
  Parameter p = make_param(0.0);
  Adam::Config cfg;
  cfg.beta1 = 1.0;
  EXPECT_THROW(Adam({&p}, cfg), std::invalid_argument);
}

TEST(Adam, ConvergesOnQuadratic) {
  // min (w - 3)^2 — Adam should reach the optimum.
  Parameter w = make_param(0.0);
  Adam::Config cfg;
  cfg.lr = 0.1;
  Adam opt({&w}, cfg);
  for (int i = 0; i < 500; ++i) {
    opt.zero_grad();
    w.grad(0, 0) = 2.0 * (w.value(0, 0) - 3.0);
    opt.step();
  }
  EXPECT_NEAR(w.value(0, 0), 3.0, 1e-3);
}

TEST(Adam, TrainsLinearRegressionToLowLoss) {
  // Fit y = 2x - 1 with a single Linear layer.
  util::Rng rng(1);
  Linear layer(1, 1, true, Init::kHeNormal, rng);
  Adam::Config cfg;
  cfg.lr = 0.05;
  Adam opt(layer.parameters(), cfg);

  Matrix x(16, 1);
  Matrix y(16, 1);
  for (int i = 0; i < 16; ++i) {
    x(i, 0) = static_cast<double>(i) / 8.0 - 1.0;
    y(i, 0) = 2.0 * x(i, 0) - 1.0;
  }
  double loss = 0.0;
  for (int epoch = 0; epoch < 400; ++epoch) {
    opt.zero_grad();
    const Matrix pred = layer.forward(x);
    const auto res = mse_loss(pred, y);
    loss = res.value;
    layer.backward(res.grad);
    opt.step();
  }
  EXPECT_LT(loss, 1e-4);
  EXPECT_NEAR(layer.weight().value(0, 0), 2.0, 0.05);
  EXPECT_NEAR(layer.bias().value(0, 0), -1.0, 0.05);
}

TEST(Optimizer, ZeroGradClearsAll) {
  Parameter a = make_param(1.0);
  Parameter b = make_param(2.0);
  a.grad = Matrix{{5.0}};
  b.grad = Matrix{{6.0}};
  Adam opt({&a, &b}, Adam::Config{});
  opt.zero_grad();
  EXPECT_DOUBLE_EQ(a.grad(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(b.grad(0, 0), 0.0);
}

}  // namespace
}  // namespace bellamy::nn
