#include "encoding/property_encoder.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace bellamy::encoding {
namespace {

TEST(PropertyEncoder, OutputLengthIsN) {
  PropertyEncoder enc;
  EXPECT_EQ(enc.vector_size(), 40u);
  EXPECT_EQ(enc.encode(PropertyValue{std::string("m4.2xlarge")}).size(), 40u);
  EXPECT_EQ(enc.encode(PropertyValue{std::uint64_t{123}}).size(), 40u);
}

TEST(PropertyEncoder, NumericUsesBinarizerLambda) {
  PropertyEncoder enc;
  const auto v = enc.encode(PropertyValue{std::uint64_t{5}});
  EXPECT_DOUBLE_EQ(v[0], PropertyEncoder::kLambdaBinarizer);
  // last two bits of 5 = ...101
  EXPECT_DOUBLE_EQ(v[39], 1.0);
  EXPECT_DOUBLE_EQ(v[38], 0.0);
  EXPECT_DOUBLE_EQ(v[37], 1.0);
}

TEST(PropertyEncoder, TextUsesHasherLambda) {
  PropertyEncoder enc;
  const auto v = enc.encode(PropertyValue{std::string("m4.2xlarge")});
  EXPECT_DOUBLE_EQ(v[0], PropertyEncoder::kLambdaHasher);
  double norm = 0.0;
  for (std::size_t i = 1; i < v.size(); ++i) norm += v[i] * v[i];
  EXPECT_NEAR(std::sqrt(norm), 1.0, 1e-12);
}

TEST(PropertyEncoder, NumericStringTakesBinarizerPath) {
  // "25" (max iterations, Fig. 4) must encode identically to 25.
  PropertyEncoder enc;
  EXPECT_EQ(enc.encode(PropertyValue{std::string("25")}),
            enc.encode(PropertyValue{std::uint64_t{25}}));
}

TEST(PropertyEncoder, HugeNumericStringFallsBackToHasher) {
  PropertyEncoder enc;
  // 2^63 > max 39-bit value -> hashing path.
  const auto v = enc.encode(PropertyValue{std::string("9223372036854775808")});
  EXPECT_DOUBLE_EQ(v[0], PropertyEncoder::kLambdaHasher);
}

TEST(PropertyEncoder, MixedTextNeverBinarized) {
  PropertyEncoder enc;
  const auto v = enc.encode(PropertyValue{std::string("25iters")});
  EXPECT_DOUBLE_EQ(v[0], PropertyEncoder::kLambdaHasher);
}

TEST(PropertyEncoder, Deterministic) {
  PropertyEncoder enc;
  const PropertyValue p{std::string("features-1000-sparse")};
  EXPECT_EQ(enc.encode(p), enc.encode(p));
}

TEST(PropertyEncoder, DistinctPropertiesDistinctVectors) {
  PropertyEncoder enc;
  EXPECT_NE(enc.encode(PropertyValue{std::string("m4.2xlarge")}),
            enc.encode(PropertyValue{std::string("r4.2xlarge")}));
  EXPECT_NE(enc.encode(PropertyValue{std::uint64_t{14540}}),
            enc.encode(PropertyValue{std::uint64_t{19353}}));
}

TEST(PropertyEncoder, CustomVectorSize) {
  PropertyEncoder::Config cfg;
  cfg.vector_size = 17;
  PropertyEncoder enc(cfg);
  EXPECT_EQ(enc.encode(PropertyValue{std::string("x")}).size(), 17u);
  EXPECT_EQ(enc.encode(PropertyValue{std::uint64_t{9}}).size(), 17u);
}

TEST(PropertyEncoder, TooSmallVectorSizeThrows) {
  PropertyEncoder::Config cfg;
  cfg.vector_size = 1;
  EXPECT_THROW(PropertyEncoder{cfg}, std::invalid_argument);
}

TEST(PropertyEncoder, LooksNumeric) {
  EXPECT_TRUE(looks_numeric("123"));
  EXPECT_FALSE(looks_numeric("12.3"));
  EXPECT_FALSE(looks_numeric("abc"));
  EXPECT_FALSE(looks_numeric(""));
}

TEST(PropertyEncoder, ValuesStayInTanhRange) {
  // The decoder reconstructs with tanh, so every encoded component must lie
  // in [-1, 1] (paper: tanh "is in line with the nature of our vectorized
  // properties").
  PropertyEncoder enc;
  for (const auto& p :
       {PropertyValue{std::string("web-graph")}, PropertyValue{std::uint64_t{61440}},
        PropertyValue{std::string("GET /api")}}) {
    for (double v : enc.encode(p)) {
      EXPECT_GE(v, -1.0);
      EXPECT_LE(v, 1.0);
    }
  }
}

}  // namespace
}  // namespace bellamy::encoding
