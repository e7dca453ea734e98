// The hasher branch of PropertyEncoder: text becomes lambda = 0 followed by
// its n-gram counts in L = N - 1 buckets, scaled to unit norm.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "encoding/property_encoder.hpp"
#include "util/rng.hpp"

namespace bellamy::encoding {
namespace {

PropertyValue text(std::string s) { return PropertyValue{std::move(s)}; }

double l2norm_of_q(const std::vector<double>& v) {
  double s = 0.0;
  for (std::size_t i = 1; i < v.size(); ++i) s += v[i] * v[i];
  return std::sqrt(s);
}

TEST(PropertyEncoder, EmptyOrVocabularyFreeTextIsTheZeroVector) {
  PropertyEncoder enc;
  for (const char* s : {"", "!!!@@@", "\xc2\xa7\xc2\xa7", "+*?#"}) {
    for (const double v : enc.encode(text(s))) EXPECT_EQ(v, 0.0) << s;
  }
}

TEST(PropertyEncoder, HashedTextHasUnitNorm) {
  PropertyEncoder enc;
  for (const char* s : {"sgd", "a", "m4.2xlarge", "some longer parameter string"}) {
    EXPECT_NEAR(l2norm_of_q(enc.encode(text(s))), 1.0, 1e-12) << s;
  }
}

// Unit norm and determinism over random strings of the vocabulary.
class HasherSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HasherSweep, RandomStringsNormalizedAndStable) {
  util::Rng rng(GetParam());
  PropertyEncoder enc;
  const std::string alphabet = "abcdefghijklmnopqrstuvwxyz0123456789.-_/: ";
  for (int trial = 0; trial < 50; ++trial) {
    std::string s;
    const auto len = static_cast<std::size_t>(rng.uniform_int(1, 30));
    for (std::size_t i = 0; i < len; ++i) {
      s += alphabet[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(alphabet.size()) - 1))];
    }
    const std::vector<double> v = enc.encode(text(s));
    if (v[0] == PropertyEncoder::kLambdaBinarizer) continue;  // an all-digit draw
    EXPECT_NEAR(l2norm_of_q(v), 1.0, 1e-12) << s;
    EXPECT_EQ(v, enc.encode(text(s))) << s;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HasherSweep, ::testing::Values(1ULL, 2ULL, 3ULL, 4ULL));

}  // namespace
}  // namespace bellamy::encoding
