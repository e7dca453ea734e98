#include "encoding/binarizer.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace bellamy::encoding {
namespace {

TEST(Binarizer, EncodesZero) {
  Binarizer b(8);
  const auto bits = b.transform(0);
  ASSERT_EQ(bits.size(), 8u);
  for (double bit : bits) EXPECT_DOUBLE_EQ(bit, 0.0);
}

TEST(Binarizer, EncodesKnownValueMsbFirst) {
  Binarizer b(8);
  const auto bits = b.transform(5);  // 00000101
  const std::vector<double> expected{0, 0, 0, 0, 0, 1, 0, 1};
  EXPECT_EQ(bits, expected);
}

TEST(Binarizer, MaxValue) {
  Binarizer b(8);
  EXPECT_EQ(b.max_value(), 255u);
  const auto bits = b.transform(255);
  for (double bit : bits) EXPECT_DOUBLE_EQ(bit, 1.0);
}

TEST(Binarizer, OverflowThrows) {
  Binarizer b(8);
  EXPECT_THROW(b.transform(256), std::out_of_range);
}

TEST(Binarizer, DefaultWidthHandlesPaperValues) {
  // N = 40 gives L = 39 bits: plenty for dataset sizes in MB (Fig. 4 shows
  // '19353' MB) and memory sizes.
  Binarizer b(39);
  EXPECT_NO_THROW(b.transform(19353));
  EXPECT_NO_THROW(b.transform(62464));
  EXPECT_GT(b.max_value(), 500ULL * 1000 * 1000 * 1000);  // > 5e11
}

TEST(Binarizer, InvalidWidthThrows) {
  EXPECT_THROW(Binarizer(0), std::invalid_argument);
  EXPECT_THROW(Binarizer(64), std::invalid_argument);
  EXPECT_NO_THROW(Binarizer(63));
}

TEST(Binarizer, DistinctValuesDistinctCodes) {
  Binarizer b(10);
  EXPECT_NE(b.transform(100), b.transform(101));
}

// Property sweep: round-trip over random values for several widths.
class BinarizerSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BinarizerSweep, RandomRoundTrip) {
  const std::size_t bits = GetParam();
  Binarizer b(bits);
  util::Rng rng(bits);
  for (int i = 0; i < 200; ++i) {
    const auto v = static_cast<std::uint64_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(b.max_value())));
    const auto code = b.transform(v);
    ASSERT_EQ(code.size(), bits);
    std::uint64_t decoded = 0;  // most significant bit first
    for (const double bit : code) {
      ASSERT_TRUE(bit == 0.0 || bit == 1.0);
      decoded = (decoded << 1) | (bit == 1.0 ? 1u : 0u);
    }
    EXPECT_EQ(decoded, v);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, BinarizerSweep,
                         ::testing::Values<std::size_t>(1, 4, 8, 16, 39, 63));

}  // namespace
}  // namespace bellamy::encoding
