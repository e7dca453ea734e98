#include "encoding/property_encoder.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "data/bell_generator.hpp"
#include "data/c3o_generator.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace bellamy::encoding {
namespace {

PropertyValue text(std::string s) { return PropertyValue{std::move(s)}; }
PropertyValue number(std::uint64_t v) { return PropertyValue{v}; }

TEST(PropertyEncoder, OutputLengthIsN) {
  PropertyEncoder enc;
  EXPECT_EQ(enc.vector_size(), 40u);
  EXPECT_EQ(enc.encode(text("m4.2xlarge")).size(), 40u);
  EXPECT_EQ(enc.encode(number(123)).size(), 40u);
}

TEST(PropertyEncoder, CustomVectorSize) {
  PropertyEncoder enc(17);
  EXPECT_EQ(enc.encode(text("x")).size(), 17u);
  EXPECT_EQ(enc.encode(number(9)).size(), 17u);
}

// L = N - 1 bits must fit a 64-bit value and leave at least one bucket.
TEST(PropertyEncoder, VectorSizeOutsideTwoToSixtyFourThrows) {
  for (const std::size_t n : {0u, 1u, 65u, 1000u}) {
    EXPECT_THROW(PropertyEncoder{n}, std::invalid_argument) << n;
  }
  EXPECT_EQ(PropertyEncoder(2).encode(number(1)), (std::vector<double>{1.0, 1.0}));
  const std::vector<double> widest = PropertyEncoder(64).encode(number(~std::uint64_t{0} >> 1));
  ASSERT_EQ(widest.size(), 64u);
  for (const double bit : widest) EXPECT_EQ(bit, 1.0);
}

TEST(PropertyEncoder, DistinctPropertiesDistinctVectors) {
  PropertyEncoder enc;
  EXPECT_NE(enc.encode(text("m4.2xlarge")), enc.encode(text("r4.2xlarge")));
  EXPECT_NE(enc.encode(text("grep")), enc.encode(text("sort")));
  EXPECT_NE(enc.encode(number(14540)), enc.encode(number(19353)));
}

// The decoder reconstructs with tanh, so every encoded component must lie
// in [-1, 1] (paper: tanh "is in line with the nature of our vectorized
// properties").
TEST(PropertyEncoder, ValuesStayInTanhRange) {
  PropertyEncoder enc;
  for (const auto& p : {text("web-graph"), number(61440), text("GET /api")}) {
    for (const double v : enc.encode(p)) {
      EXPECT_GE(v, -1.0);
      EXPECT_LE(v, 1.0);
    }
  }
}

// ---- bit pin -----------------------------------------------------------------

/// Every property value of the C3O and Bell generator catalogs (the seven
/// property fields of every generated run), the edge cases of both branches,
/// and random byte strings.
std::vector<PropertyValue> pinned_values() {
  std::set<PropertyValue> catalog;
  for (const data::Dataset& ds : {data::C3OGenerator{}.generate(), data::BellGenerator{}.generate()}) {
    for (const data::JobRun& run : ds.runs()) {
      for (const PropertyValue& p :
           {text(run.node_type), text(run.job_parameters), number(run.dataset_size_mb),
            text(run.data_characteristics), number(run.memory_mb), number(run.cpu_cores),
            text(run.algorithm)}) {
        catalog.insert(p);
      }
    }
  }
  std::vector<PropertyValue> values(catalog.begin(), catalog.end());
  const std::uint64_t max39 = (std::uint64_t{1} << 39) - 1;
  for (const PropertyValue& p :
       {text(""), text("!!!@@@\xc2\xa7"), text("M4.2XLarge Spark-JOB"),
        text("m4\xff.2x\x80large \xc3\xa9t\xc3\xa9"), number(0), number(max39),
        text(std::to_string(max39)), text(std::to_string(max39 + 1)), text("007"),
        text("1234567890123456789012345")}) {
    values.push_back(p);
  }
  util::Rng rng(29);
  for (int i = 0; i < 256; ++i) {
    std::string s(static_cast<std::size_t>(rng.uniform_int(0, 48)), '\0');
    for (char& c : s) c = static_cast<char>(rng.uniform_int(0, 255));
    values.push_back(text(std::move(s)));
  }
  return values;
}

constexpr std::size_t kPinnedValueCount = 338;
constexpr std::uint64_t kPinnedBits = 0x1c9340d0c344bc7bULL;

// The encoder's output bits for a fixed value set, recorded from the
// clean-then-extract-then-hash pipeline that this one-pass encoder replaced.
// Any change to cleaning, gram hashing, bucket arithmetic or normalization
// moves it, and with it every pretrained model's bits.
TEST(PropertyEncoder, BitsPinnedOnCatalogsAndEdgeCases) {
  const PropertyEncoder enc;
  const std::vector<PropertyValue> values = pinned_values();
  std::uint64_t h = util::kFnv1a64Seed;
  for (const PropertyValue& p : values) {
    const std::vector<double> row = enc.encode(p);
    h = util::fnv1a64_bytes(row.data(), row.size() * sizeof(double), h);
  }
  EXPECT_EQ(values.size(), kPinnedValueCount);
  EXPECT_EQ(h, kPinnedBits) << std::hex << "0x" << h;
}

}  // namespace
}  // namespace bellamy::encoding
