#include "nn/activations.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "support/gradcheck.hpp"
#include "util/rng.hpp"

namespace bellamy::nn {
namespace {

// Scalar SELU through the production module.
double selu(double x) { return Selu().infer(Matrix{{x}})(0, 0); }

TEST(Selu, PositiveBranchIsScaledIdentity) {
  EXPECT_NEAR(selu(2.0), kSeluScale * 2.0, 1e-12);
}

TEST(Selu, NegativeBranchSaturates) {
  // As x -> -inf, selu(x) -> -scale * alpha.
  EXPECT_NEAR(selu(-100.0), -kSeluScale * kSeluAlpha, 1e-9);
}

TEST(Selu, ContinuousAtZero) {
  EXPECT_NEAR(selu(1e-12), selu(-1e-12), 1e-9);
  EXPECT_NEAR(selu(0.0), 0.0, 1e-15);
}

TEST(Selu, SelfNormalizingFixedPointProperty) {
  // SELU approximately preserves zero mean / unit variance of its input —
  // the property the paper relies on to avoid vanishing/exploding gradients.
  util::Rng rng(1);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double y = selu(rng.normal());
    sum += y;
    sq += y * y;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(SeluModule, GradCheck) {
  util::Rng rng(2);
  Selu act;
  const auto result = grad_check(act, Matrix::randn(4, 6, rng));
  EXPECT_TRUE(result.ok(1e-6));
}

TEST(TanhModule, ForwardValues) {
  Tanh act;
  const Matrix y = act.forward(Matrix{{0.0, 1.0, -1.0}});
  EXPECT_DOUBLE_EQ(y(0, 0), 0.0);
  EXPECT_NEAR(y(0, 1), std::tanh(1.0), 1e-12);
  EXPECT_NEAR(y(0, 2), -std::tanh(1.0), 1e-12);
}

TEST(TanhModule, GradCheck) {
  util::Rng rng(3);
  Tanh act;
  EXPECT_TRUE(grad_check(act, Matrix::randn(3, 5, rng)).ok(1e-6));
}

}  // namespace
}  // namespace bellamy::nn
