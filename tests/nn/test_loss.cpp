#include "nn/loss.hpp"

#include <gtest/gtest.h>

#include "support/matrix_testing.hpp"
#include "util/rng.hpp"

namespace bellamy::nn {
namespace {

// A loss value with its gradient, through the forms the model trains with
// (they write the gradient into a caller's buffer).
struct LossResult {
  double value = 0.0;
  Matrix grad;
};

LossResult huber_loss(const Matrix& pred, const Matrix& target, double delta = 1.0) {
  LossResult res;
  res.value = nn::huber_loss(pred, target, delta, &res.grad);
  return res;
}

LossResult mae_loss(const Matrix& pred, const Matrix& target) {
  LossResult res;
  res.value = nn::mae_loss(pred, target, &res.grad);
  return res;
}

TEST(HuberLoss, QuadraticRegion) {
  const Matrix pred{{0.5}};
  const Matrix target{{0.0}};
  const auto res = huber_loss(pred, target, 1.0);
  EXPECT_DOUBLE_EQ(res.value, 0.5 * 0.25);
  EXPECT_DOUBLE_EQ(res.grad(0, 0), 0.5);
}

TEST(HuberLoss, LinearRegion) {
  const Matrix pred{{3.0}};
  const Matrix target{{0.0}};
  const auto res = huber_loss(pred, target, 1.0);
  EXPECT_DOUBLE_EQ(res.value, 1.0 * (3.0 - 0.5));
  EXPECT_DOUBLE_EQ(res.grad(0, 0), 1.0);
}

TEST(HuberLoss, NegativeLinearRegion) {
  const Matrix pred{{-4.0}};
  const Matrix target{{0.0}};
  const auto res = huber_loss(pred, target, 2.0);
  EXPECT_DOUBLE_EQ(res.value, 2.0 * (4.0 - 1.0));
  EXPECT_DOUBLE_EQ(res.grad(0, 0), -2.0);
}

TEST(HuberLoss, ContinuousAtDelta) {
  const Matrix target{{0.0}};
  const double delta = 1.0;
  const auto below = huber_loss(Matrix{{delta - 1e-9}}, target, delta);
  const auto above = huber_loss(Matrix{{delta + 1e-9}}, target, delta);
  EXPECT_NEAR(below.value, above.value, 1e-8);
  EXPECT_NEAR(below.grad(0, 0), above.grad(0, 0), 1e-8);
}

TEST(HuberLoss, MatchesMseForSmallErrors) {
  // Within |e| <= delta, Huber = 0.5 e^2 (i.e. MSE/2).
  util::Rng rng(2);
  Matrix pred = Matrix::rand_uniform(2, 3, rng, -0.4, 0.4);
  const Matrix target = Matrix::zeros(2, 3);
  const auto huber = huber_loss(pred, target, 1.0);
  const double mse = squared_norm(pred) / static_cast<double>(pred.size());
  EXPECT_NEAR(huber.value, 0.5 * mse, 1e-12);
}

TEST(HuberLoss, InvalidDeltaThrows) {
  EXPECT_THROW(huber_loss(Matrix(1, 1), Matrix(1, 1), 0.0), std::invalid_argument);
  EXPECT_THROW(huber_loss(Matrix(1, 1), Matrix(1, 1), -1.0), std::invalid_argument);
}

TEST(HuberLoss, GradientMatchesFiniteDifference) {
  util::Rng rng(3);
  Matrix pred = Matrix::randn(2, 2, rng);
  pred *= 2.0;  // spans both regions
  const Matrix target = Matrix::zeros(2, 2);
  const auto res = huber_loss(pred, target, 1.0);
  const double eps = 1e-7;
  for (std::size_t i = 0; i < pred.size(); ++i) {
    const double orig = pred.data()[i];
    pred.data()[i] = orig + eps;
    const double up = huber_loss(pred, target, 1.0).value;
    pred.data()[i] = orig - eps;
    const double down = huber_loss(pred, target, 1.0).value;
    pred.data()[i] = orig;
    EXPECT_NEAR(res.grad.data()[i], (up - down) / (2.0 * eps), 1e-6);
  }
}

TEST(MaeLoss, ValueAndSignGradient) {
  const Matrix pred{{2.0, -3.0, 1.0}};
  const Matrix target{{1.0, -1.0, 1.0}};
  const auto res = mae_loss(pred, target);
  EXPECT_DOUBLE_EQ(res.value, (1.0 + 2.0 + 0.0) / 3.0);
  EXPECT_DOUBLE_EQ(res.grad(0, 0), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(res.grad(0, 1), -1.0 / 3.0);
  EXPECT_DOUBLE_EQ(res.grad(0, 2), 0.0);
}

TEST(Losses, EmptyInputThrows) {
  EXPECT_THROW(huber_loss(Matrix(), Matrix()), std::invalid_argument);
  EXPECT_THROW(mae_loss(Matrix(), Matrix()), std::invalid_argument);
}

}  // namespace
}  // namespace bellamy::nn
