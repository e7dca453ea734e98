// The n-grams PropertyEncoder hashes: every 1-, 2- and 3-gram of the cleaned
// text, each adding 1 to bucket fnv1a64(gram) mod L.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "encoding/property_encoder.hpp"
#include "util/hash.hpp"

namespace bellamy::encoding {
namespace {

PropertyValue text(std::string s) { return PropertyValue{std::move(s)}; }

/// The q part of the hasher branch computed by hand: each listed gram adds 1
/// to bucket fnv1a64(gram) mod L, then the counts are scaled to unit norm.
std::vector<double> expected_q(const std::vector<std::string>& grams, std::size_t l = 39) {
  std::vector<double> q(l, 0.0);
  for (const std::string& g : grams) q[util::fnv1a64(g) % l] += 1.0;
  double sq = 0.0;
  for (const double v : q) sq += v * v;
  for (double& v : q) v /= std::sqrt(sq);
  return q;
}

std::vector<double> q_of(const std::vector<double>& v) { return {v.begin() + 1, v.end()}; }

TEST(PropertyEncoder, KnownNgramCounts) {
  PropertyEncoder enc;
  const auto near = [](const std::vector<double>& got, const std::vector<double>& want) {
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) EXPECT_NEAR(got[i], want[i], 1e-15) << i;
  };
  // "aaa": unigram a x3, bigram aa x2, trigram aaa x1.
  near(q_of(enc.encode(text("aaa"))), expected_q({"a", "a", "a", "aa", "aa", "aaa"}));
  near(q_of(enc.encode(text("abcd"))),
       expected_q({"a", "b", "c", "d", "ab", "bc", "cd", "abc", "bcd"}));
  near(q_of(enc.encode(text("a"))), expected_q({"a"}));
  // Grams span the bytes that cleaning removed.
  near(q_of(enc.encode(text("A!b"))), expected_q({"a", "b", "ab"}));
}

// Each of the n unigrams, n - 1 bigrams and n - 2 trigrams of an n-byte
// text is counted once; text shorter than three bytes has no trigram.
TEST(PropertyEncoder, EveryGramOfOneToThreeBytesIsCounted) {
  PropertyEncoder enc;
  for (const std::string s : {"ab", "abc", "spark", "m4.2xlarge"}) {
    std::vector<std::string> grams;
    for (std::size_t n = 1; n <= 3; ++n) {
      for (std::size_t i = 0; i + n <= s.size(); ++i) grams.push_back(s.substr(i, n));
    }
    const std::vector<double> got = q_of(enc.encode(text(s)));
    const std::vector<double> want = expected_q(grams);
    ASSERT_EQ(got.size(), want.size()) << s;
    for (std::size_t i = 0; i < got.size(); ++i) EXPECT_NEAR(got[i], want[i], 1e-15) << s << " " << i;
  }
}

}  // namespace
}  // namespace bellamy::encoding
