// The vocabulary PropertyEncoder hashes text over: ASCII letters folded to
// lower case, digits, ". - _ / :" and space; every other byte is dropped.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "encoding/property_encoder.hpp"

namespace bellamy::encoding {
namespace {

PropertyValue text(std::string s) { return PropertyValue{std::move(s)}; }

TEST(PropertyEncoder, TextIsCaseFoldedAndStrippedToTheVocabulary) {
  PropertyEncoder enc;
  EXPECT_EQ(enc.encode(text("SGD-Job")), enc.encode(text("sgd-job")));
  EXPECT_EQ(enc.encode(text("M4.2xLarge")), enc.encode(text("m4.2xlarge")));
  EXPECT_EQ(enc.encode(text("a!b@c")), enc.encode(text("abc")));
  EXPECT_EQ(enc.encode(text("Hello, World!")), enc.encode(text("hello world")));
  EXPECT_EQ(enc.encode(text("m4\xff.2x\x80l\xc3\xa9")), enc.encode(text("m4.2xl")));
}

// A byte appended to "x" changes the vector exactly when the vocabulary
// keeps it: [a-z0-9], their upper-case forms, ". - _ / :" and space.
TEST(PropertyEncoder, VocabularyIsAlphanumericsFiveSymbolsAndSpace) {
  PropertyEncoder enc;
  const std::string kept = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789.-_/: ";
  const std::vector<double> x = enc.encode(text("x"));
  for (int b = 0; b < 256; ++b) {
    const char c = static_cast<char>(b);
    const bool changed = enc.encode(text(std::string("x") + c)) != x;
    EXPECT_EQ(changed, kept.find(c) != std::string::npos) << "byte " << b;
  }
}

TEST(PropertyEncoder, VocabularySymbolsAreKeptNotDropped) {
  PropertyEncoder enc;
  EXPECT_NE(enc.encode(text("a-b_c/d:e.f")), enc.encode(text("abcdef")));
  EXPECT_NE(enc.encode(text("a b")), enc.encode(text("ab")));
}

}  // namespace
}  // namespace bellamy::encoding
