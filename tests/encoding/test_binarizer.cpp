// The binarizer branch of PropertyEncoder: a natural number (or an all-digit
// string that fits) becomes lambda = 1 followed by its L = N - 1 bits.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "encoding/property_encoder.hpp"
#include "util/rng.hpp"

namespace bellamy::encoding {
namespace {

PropertyValue text(std::string s) { return PropertyValue{std::move(s)}; }
PropertyValue number(std::uint64_t v) { return PropertyValue{v}; }

double l2norm_of_q(const std::vector<double>& v) {
  double s = 0.0;
  for (std::size_t i = 1; i < v.size(); ++i) s += v[i] * v[i];
  return std::sqrt(s);
}

TEST(PropertyEncoder, NaturalNumbersAreWrittenMsbFirst) {
  PropertyEncoder enc(9);
  EXPECT_EQ(enc.encode(number(5)), (std::vector<double>{1, 0, 0, 0, 0, 0, 1, 0, 1}));
  EXPECT_EQ(enc.encode(number(0)), (std::vector<double>{1, 0, 0, 0, 0, 0, 0, 0, 0}));
  EXPECT_EQ(enc.encode(number(255)), (std::vector<double>{1, 1, 1, 1, 1, 1, 1, 1, 1}));
  EXPECT_NE(PropertyEncoder(11).encode(number(100)), PropertyEncoder(11).encode(number(101)));
}

TEST(PropertyEncoder, NumberAboveTheWidthThrows) {
  EXPECT_THROW(PropertyEncoder(9).encode(number(256)), std::out_of_range);
  EXPECT_THROW(PropertyEncoder{}.encode(number(std::uint64_t{1} << 39)), std::out_of_range);
}

// N = 40 gives L = 39 bits: plenty for dataset sizes in MB (Fig. 4 shows
// '19353' MB) and memory sizes.
TEST(PropertyEncoder, DefaultWidthHandlesPaperValues) {
  PropertyEncoder enc;
  for (const std::uint64_t v : {std::uint64_t{19353}, std::uint64_t{62464},
                                std::uint64_t{500} * 1000 * 1000 * 1000}) {
    EXPECT_EQ(enc.encode(number(v))[0], PropertyEncoder::kLambdaBinarizer) << v;
  }
}

// Round trip over random values for several widths.
class BinarizerWidthSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BinarizerWidthSweep, RandomValuesDecodeToThemselves) {
  const std::size_t bits = GetParam();
  const PropertyEncoder enc(bits + 1);
  const std::uint64_t max = (std::uint64_t{1} << bits) - 1;
  util::Rng rng(bits);
  for (int i = 0; i < 200; ++i) {
    const auto v = static_cast<std::uint64_t>(rng.uniform_int(0, static_cast<std::int64_t>(max)));
    const std::vector<double> code = enc.encode(number(v));
    ASSERT_EQ(code[0], PropertyEncoder::kLambdaBinarizer);
    std::uint64_t decoded = 0;  // most significant bit first
    for (std::size_t j = 1; j < code.size(); ++j) {
      ASSERT_TRUE(code[j] == 0.0 || code[j] == 1.0);
      decoded = (decoded << 1) | (code[j] == 1.0 ? 1u : 0u);
    }
    EXPECT_EQ(decoded, v);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, BinarizerWidthSweep,
                         ::testing::Values<std::size_t>(1, 4, 8, 16, 39, 63));

// "25" (max iterations, Fig. 4) must encode identically to 25, however the
// trace recorded it; leading zeros do not change the value.
TEST(PropertyEncoder, DigitStringsTakeTheBinarizerBranch) {
  PropertyEncoder enc;
  EXPECT_EQ(enc.encode(text("25")), enc.encode(number(25)));
  EXPECT_EQ(enc.encode(text("007")), enc.encode(number(7)));
  EXPECT_EQ(enc.encode(text("549755813887")), enc.encode(number((std::uint64_t{1} << 39) - 1)));
}

// A digit string above 2^L - 1 is hashed like any other text.
TEST(PropertyEncoder, DigitStringsTooLargeToBinarizeAreHashed) {
  PropertyEncoder enc;
  for (const char* s : {"549755813888", "9223372036854775808", "18446744073709551616",
                        "1234567890123456789012345"}) {
    const std::vector<double> v = enc.encode(text(s));
    EXPECT_EQ(v[0], PropertyEncoder::kLambdaHasher) << s;
    EXPECT_NEAR(l2norm_of_q(v), 1.0, 1e-12) << s;
  }
  EXPECT_EQ(PropertyEncoder(9).encode(text("256"))[0], PropertyEncoder::kLambdaHasher);
  EXPECT_EQ(PropertyEncoder(2).encode(text("2"))[0], PropertyEncoder::kLambdaHasher);
}

TEST(PropertyEncoder, TextThatIsNotAllDigitsIsHashed) {
  PropertyEncoder enc;
  for (const char* s : {"25iters", "12.3", "-3", " 25", "", "m4.2xlarge"}) {
    EXPECT_EQ(enc.encode(text(s))[0], PropertyEncoder::kLambdaHasher) << s;
  }
}

}  // namespace
}  // namespace bellamy::encoding
