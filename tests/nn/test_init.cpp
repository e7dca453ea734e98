#include "nn/init.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "support/matrix_testing.hpp"
#include "util/rng.hpp"

namespace bellamy::nn {
namespace {

double sample_variance(const Matrix& m) {
  const double mean = nn::mean(m);
  double var = 0.0;
  for (std::size_t i = 0; i < m.size(); ++i) {
    const double d = m.data()[i] - mean;
    var += d * d;
  }
  return var / static_cast<double>(m.size() - 1);
}

TEST(Init, HeNormalVariance) {
  util::Rng rng(1);
  const std::size_t fan_in = 64;
  const Matrix w = make_weights(Init::kHeNormal, 256, fan_in, rng);
  EXPECT_NEAR(sample_variance(w), 2.0 / static_cast<double>(fan_in),
              0.15 * 2.0 / static_cast<double>(fan_in));
  EXPECT_NEAR(mean(w), 0.0, 0.01);
}

TEST(Init, LeCunNormalVariance) {
  util::Rng rng(2);
  const std::size_t fan_in = 100;
  const Matrix w = make_weights(Init::kLeCunNormal, 200, fan_in, rng);
  EXPECT_NEAR(sample_variance(w), 1.0 / static_cast<double>(fan_in),
              0.15 / static_cast<double>(fan_in));
}

TEST(Init, XavierNormalVariance) {
  util::Rng rng(3);
  const Matrix w = make_weights(Init::kXavierNormal, 100, 100, rng);
  EXPECT_NEAR(sample_variance(w), 2.0 / 200.0, 0.15 * 2.0 / 200.0);
}

TEST(Init, ZerosAreZero) {
  util::Rng rng(4);
  const Matrix w = make_weights(Init::kZeros, 5, 5, rng);
  EXPECT_DOUBLE_EQ(squared_norm(w), 0.0);
}

TEST(Init, ShapeIsFanOutByFanIn) {
  util::Rng rng(5);
  const Matrix w = make_weights(Init::kHeNormal, 3, 7, rng);
  EXPECT_EQ(w.rows(), 3u);
  EXPECT_EQ(w.cols(), 7u);
}

TEST(Init, ZeroFanInThrows) {
  util::Rng rng(6);
  EXPECT_THROW(make_weights(Init::kHeNormal, 3, 0, rng), std::invalid_argument);
}

TEST(Init, Names) {
  EXPECT_STREQ(init_name(Init::kHeNormal), "he_normal");
  EXPECT_STREQ(init_name(Init::kLeCunNormal), "lecun_normal");
  EXPECT_STREQ(init_name(Init::kXavierNormal), "xavier_normal");
  EXPECT_STREQ(init_name(Init::kZeros), "zeros");
}

TEST(Init, DeterministicGivenSeed) {
  util::Rng rng1(42);
  util::Rng rng2(42);
  const Matrix a = make_weights(Init::kHeNormal, 4, 4, rng1);
  const Matrix b = make_weights(Init::kHeNormal, 4, 4, rng2);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace bellamy::nn
