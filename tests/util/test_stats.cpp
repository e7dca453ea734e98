#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace bellamy::util {
namespace {

TEST(Stats, MeanBasic) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
}

TEST(Stats, MeanEmptyIsZero) {
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{}), 0.0);
}

TEST(Stats, VarianceUnbiased) {
  const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_NEAR(variance(xs), 32.0 / 7.0, 1e-12);
}

TEST(Stats, VarianceSingleElementZero) {
  const std::vector<double> xs{3.0};
  EXPECT_DOUBLE_EQ(variance(xs), 0.0);
}

TEST(Stats, StddevIsSqrtVariance) {
  const std::vector<double> xs{1.0, 3.0, 5.0};
  EXPECT_DOUBLE_EQ(stddev(xs) * stddev(xs), variance(xs));
}

TEST(Stats, MedianOdd) {
  const std::vector<double> xs{5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(median(xs), 3.0);
}

TEST(Stats, MedianEven) {
  const std::vector<double> xs{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(median(xs), 2.5);
}

TEST(Stats, PercentileEndpoints) {
  const std::vector<double> xs{10.0, 20.0, 30.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 30.0);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> xs{0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 25.0), 2.5);
}

TEST(Stats, PercentileThrowsOutOfRange) {
  const std::vector<double> xs{1.0};
  EXPECT_THROW(percentile(xs, -1.0), std::invalid_argument);
  EXPECT_THROW(percentile(xs, 101.0), std::invalid_argument);
}

TEST(Stats, MinMax) {
  const std::vector<double> xs{3.0, -1.0, 7.0};
  EXPECT_DOUBLE_EQ(min(xs), -1.0);
  EXPECT_DOUBLE_EQ(max(xs), 7.0);
}

TEST(Stats, CoeffOfVariation) {
  const std::vector<double> xs{2.0, 2.0, 2.0};
  EXPECT_DOUBLE_EQ(coeff_of_variation(xs), 0.0);
  const std::vector<double> ys{1.0, 3.0};
  EXPECT_NEAR(coeff_of_variation(ys), stddev(ys) / 2.0, 1e-12);
}

TEST(Stats, EcdfAtThresholds) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  const std::vector<double> ts{0.0, 2.0, 2.5, 10.0};
  const auto probs = ecdf(xs, ts);
  ASSERT_EQ(probs.size(), 4u);
  EXPECT_DOUBLE_EQ(probs[0], 0.0);
  EXPECT_DOUBLE_EQ(probs[1], 0.5);
  EXPECT_DOUBLE_EQ(probs[2], 0.5);
  EXPECT_DOUBLE_EQ(probs[3], 1.0);
}

}  // namespace
}  // namespace bellamy::util
