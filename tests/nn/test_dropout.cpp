#include "nn/dropout.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "nn/activations.hpp"
#include "util/rng.hpp"

namespace bellamy::nn {
namespace {

TEST(AlphaDropout, RejectsInvalidRate) {
  EXPECT_THROW(AlphaDropout(-0.1, util::Rng(1)), std::invalid_argument);
  EXPECT_THROW(AlphaDropout(1.0, util::Rng(1)), std::invalid_argument);
  EXPECT_NO_THROW(AlphaDropout(0.0, util::Rng(1)));
}

// NaN fails every ordered comparison, so a range check written as
// "rate < 0 || rate >= 1" let it through.
TEST(AlphaDropout, RejectsNanRate) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(AlphaDropout(nan, util::Rng(1)), std::invalid_argument);
  AlphaDropout drop(0.1, util::Rng(1));
  EXPECT_THROW(drop.set_rate(nan), std::invalid_argument);
  EXPECT_EQ(drop.rate(), 0.1);
}

TEST(AlphaDropout, EvalModeIsIdentity) {
  AlphaDropout drop(0.5, util::Rng(2));
  drop.set_training(false);
  const Matrix x = Matrix{{1.0, -2.0, 3.0}};
  EXPECT_EQ(drop.forward(x), x);
  EXPECT_EQ(drop.backward(x), x);
}

TEST(AlphaDropout, ZeroRateIsIdentityEvenInTraining) {
  AlphaDropout drop(0.0, util::Rng(3));
  drop.set_training(true);
  const Matrix x = Matrix{{0.5, -0.5}};
  EXPECT_EQ(drop.forward(x), x);
}

TEST(AlphaDropout, TrainingModifiesSomeEntries) {
  AlphaDropout drop(0.5, util::Rng(4));
  drop.set_training(true);
  const Matrix x(10, 10, 1.0);
  const Matrix y = drop.forward(x);
  int changed = 0;
  for (std::size_t r = 0; r < 10; ++r) {
    for (std::size_t c = 0; c < 10; ++c) {
      if (y(r, c) != 1.0) ++changed;
    }
  }
  EXPECT_GT(changed, 0);
}

TEST(AlphaDropout, DroppedEntriesTakeSaturationValue) {
  AlphaDropout drop(0.5, util::Rng(5));
  drop.set_training(true);
  const Matrix x(20, 20, 0.0);
  const Matrix y = drop.forward(x);
  // With input 0: kept -> a*0 + b = b, dropped -> a*alpha' + b.
  // There must be exactly two distinct output values.
  std::set<double> values;
  for (std::size_t i = 0; i < y.size(); ++i) values.insert(y.data()[i]);
  EXPECT_EQ(values.size(), 2u);
}

TEST(AlphaDropout, PreservesMeanAndVarianceApproximately) {
  // The affine correction must keep N(0,1) inputs at ~zero mean/unit var.
  AlphaDropout drop(0.1, util::Rng(6));
  drop.set_training(true);
  util::Rng rng(7);
  const Matrix x = Matrix::randn(300, 300, rng);
  const Matrix y = drop.forward(x);
  double sum = 0.0;
  double sq = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    sum += y.data()[i];
    sq += y.data()[i] * y.data()[i];
  }
  const double n = static_cast<double>(y.size());
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(AlphaDropout, BackwardMasksGradient) {
  AlphaDropout drop(0.5, util::Rng(8));
  drop.set_training(true);
  const Matrix x(5, 5, 1.0);
  const Matrix y = drop.forward(x);
  const Matrix grad = drop.backward(Matrix::ones(5, 5));
  // Gradient is a * mask: zero exactly where dropped, constant a where kept.
  for (std::size_t r = 0; r < 5; ++r) {
    for (std::size_t c = 0; c < 5; ++c) {
      const bool kept = y(r, c) != y(0, 0) || true;  // can't infer per-cell here
      (void)kept;
      EXPECT_TRUE(grad(r, c) == 0.0 || grad(r, c) > 0.0);
    }
  }
  // At least one zero and one non-zero with rate 0.5 on 25 entries (w.h.p.).
  int zeros = 0;
  int nonzeros = 0;
  for (std::size_t i = 0; i < grad.size(); ++i) {
    if (grad.data()[i] == 0.0) ++zeros; else ++nonzeros;
  }
  EXPECT_GT(zeros, 0);
  EXPECT_GT(nonzeros, 0);
}

TEST(AlphaDropout, BackwardAfterEvalForwardIsIdentity) {
  AlphaDropout drop(0.3, util::Rng(9));
  drop.set_training(false);
  drop.forward(Matrix(2, 2, 1.0));
  const Matrix g{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(drop.backward(g), g);
}

TEST(AlphaDropout, SetRateRecomputesAffine) {
  AlphaDropout drop(0.2, util::Rng(10));
  drop.set_rate(0.0);
  drop.set_training(true);
  const Matrix x{{1.0, 2.0}};
  EXPECT_EQ(drop.forward(x), x);
  EXPECT_THROW(drop.set_rate(1.5), std::invalid_argument);
}

TEST(AlphaDropout, DropFractionMatchesRate) {
  AlphaDropout drop(0.25, util::Rng(11));
  drop.set_training(true);
  const Matrix x(100, 100, 1.0);
  drop.forward(x);
  const Matrix grad = drop.backward(Matrix::ones(100, 100));
  int zeros = 0;
  for (std::size_t i = 0; i < grad.size(); ++i) {
    if (grad.data()[i] == 0.0) ++zeros;
  }
  EXPECT_NEAR(static_cast<double>(zeros) / 10000.0, 0.25, 0.02);
}

}  // namespace
}  // namespace bellamy::nn
