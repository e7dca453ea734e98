#include "encoding/hashing_vectorizer.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.hpp"

namespace bellamy::encoding {
namespace {

double l2norm(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x * x;
  return std::sqrt(s);
}

TEST(HashingVectorizer, OutputDimensionMatchesConfig) {
  HashingVectorizer::Config cfg;
  cfg.num_features = 39;
  HashingVectorizer hv(cfg);
  EXPECT_EQ(hv.transform("m4.2xlarge").size(), 39u);
}

TEST(HashingVectorizer, Deterministic) {
  HashingVectorizer hv;
  EXPECT_EQ(hv.transform("pagerank"), hv.transform("pagerank"));
}

TEST(HashingVectorizer, CaseInsensitiveViaVocabulary) {
  HashingVectorizer hv;
  EXPECT_EQ(hv.transform("SGD-Job"), hv.transform("sgd-job"));
}

TEST(HashingVectorizer, StripsNonVocabularyCharacters) {
  HashingVectorizer hv;
  EXPECT_EQ(hv.transform("a!b@c"), hv.transform("abc"));
}

TEST(HashingVectorizer, DifferentTextsUsuallyDiffer) {
  HashingVectorizer hv;
  EXPECT_NE(hv.transform("m4.2xlarge"), hv.transform("r4.2xlarge"));
  EXPECT_NE(hv.transform("grep"), hv.transform("sort"));
}

TEST(HashingVectorizer, UnitNormWhenNonEmpty) {
  HashingVectorizer hv;
  for (const char* text : {"sgd", "a", "m4.2xlarge", "some longer parameter string"}) {
    EXPECT_NEAR(l2norm(hv.transform(text)), 1.0, 1e-12) << text;
  }
}

TEST(HashingVectorizer, EmptyTextIsZeroVector) {
  HashingVectorizer hv;
  const auto v = hv.transform("");
  EXPECT_DOUBLE_EQ(l2norm(v), 0.0);
}

TEST(HashingVectorizer, TextOutsideVocabularyIsZeroVector) {
  HashingVectorizer hv;
  EXPECT_DOUBLE_EQ(l2norm(hv.transform("!!!@@@")), 0.0);
}

TEST(HashingVectorizer, CountsWithoutNormalization) {
  HashingVectorizer::Config cfg;
  cfg.l2_normalize = false;
  HashingVectorizer hv(cfg);
  // "aa" -> unigrams {a, a}, bigram {aa}: total mass 3 distributed in buckets.
  const auto v = hv.transform("aa");
  double sum = 0.0;
  for (double x : v) sum += x;
  EXPECT_DOUBLE_EQ(sum, 3.0);
}

TEST(HashingVectorizer, AlternateSignMode) {
  HashingVectorizer::Config cfg;
  cfg.alternate_sign = true;
  cfg.l2_normalize = false;
  HashingVectorizer hv(cfg);
  const auto v = hv.transform("some reasonably long text value");
  bool has_negative = false;
  for (double x : v) has_negative |= x < 0.0;
  EXPECT_TRUE(has_negative);
}

TEST(HashingVectorizer, InvalidConfigThrows) {
  HashingVectorizer::Config cfg;
  cfg.num_features = 0;
  EXPECT_THROW(HashingVectorizer{cfg}, std::invalid_argument);
  HashingVectorizer::Config bad_ngrams;
  bad_ngrams.min_ngram = 3;
  bad_ngrams.max_ngram = 2;
  EXPECT_THROW(HashingVectorizer{bad_ngrams}, std::invalid_argument);
}

// Property sweep: unit-norm and determinism over random strings.
class HashingVectorizerSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HashingVectorizerSweep, RandomStringsNormalizedAndStable) {
  util::Rng rng(GetParam());
  HashingVectorizer hv;
  const std::string alphabet = "abcdefghijklmnopqrstuvwxyz0123456789.-_/: ";
  for (int trial = 0; trial < 50; ++trial) {
    std::string s;
    const auto len = static_cast<std::size_t>(rng.uniform_int(1, 30));
    for (std::size_t i = 0; i < len; ++i) {
      s += alphabet[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(alphabet.size()) - 1))];
    }
    const auto v = hv.transform(s);
    EXPECT_EQ(v.size(), hv.config().num_features);
    const double norm = l2norm(v);
    // Strings of only spaces hash to nothing; anything else must be unit norm.
    if (norm > 0.0) {
      EXPECT_NEAR(norm, 1.0, 1e-12) << s;
    }
    EXPECT_EQ(v, hv.transform(s)) << s;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HashingVectorizerSweep,
                         ::testing::Values(1ULL, 2ULL, 3ULL, 4ULL));

}  // namespace
}  // namespace bellamy::encoding
