#include "util/string_utils.hpp"

#include <gtest/gtest.h>

#include "util/hash.hpp"

namespace bellamy::util {
namespace {

TEST(StringUtils, ToLower) {
  EXPECT_EQ(to_lower("M4.2xLARGE"), "m4.2xlarge");
  EXPECT_EQ(to_lower(""), "");
}

TEST(StringUtils, Trim) {
  EXPECT_EQ(trim("  a b  "), "a b");
  EXPECT_EQ(trim("\t\nx\r "), "x");
  EXPECT_EQ(trim("   "), "");
}

TEST(StringUtils, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtils, SplitSingleField) {
  const auto parts = split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(StringUtils, JoinRoundTrip) {
  const std::vector<std::string> parts{"x", "y", "z"};
  EXPECT_EQ(join(parts, "-"), "x-y-z");
  EXPECT_EQ(join({}, "-"), "");
}

TEST(StringUtils, ParseDouble) {
  EXPECT_DOUBLE_EQ(parse_double("3.5"), 3.5);
  EXPECT_DOUBLE_EQ(parse_double(" -2e3 "), -2000.0);
  EXPECT_THROW(parse_double("abc"), std::invalid_argument);
  EXPECT_THROW(parse_double("1.5x"), std::invalid_argument);
}

TEST(StringUtils, ParseInt) {
  EXPECT_EQ(parse_int("42"), 42);
  EXPECT_EQ(parse_int(" -7 "), -7);
  EXPECT_THROW(parse_int("4.2"), std::invalid_argument);
  EXPECT_THROW(parse_int(""), std::invalid_argument);
}

TEST(StringUtils, Format) {
  EXPECT_EQ(format("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(format("%.2f", 1.239), "1.24");
}

TEST(Hash, Fnv1a64KnownValues) {
  // Standard FNV-1a test vectors.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
}

TEST(Hash, Fnv1a64Deterministic) {
  EXPECT_EQ(fnv1a64("m4.2xlarge"), fnv1a64("m4.2xlarge"));
  EXPECT_NE(fnv1a64("m4.2xlarge"), fnv1a64("r4.2xlarge"));
}

}  // namespace
}  // namespace bellamy::util
