#include "encoding/property_encoder.hpp"

#include <cctype>
#include <stdexcept>

#include "util/string_utils.hpp"

namespace bellamy::encoding {

bool looks_numeric(const std::string& s) { return util::is_unsigned_integer(s); }

namespace {
HashingVectorizer::Config with_features(HashingVectorizer::Config cfg, std::size_t n) {
  cfg.num_features = n;
  return cfg;
}
}  // namespace

PropertyEncoder::PropertyEncoder(Config config)
    : config_(config),
      binarizer_(config.vector_size - 1),
      hasher_(with_features(config.hasher, config.vector_size - 1)) {
  if (config.vector_size < 2) {
    throw std::invalid_argument("PropertyEncoder: vector_size must be >= 2");
  }
}

std::vector<double> PropertyEncoder::encode(const PropertyValue& value) const {
  std::vector<double> out;
  out.reserve(config_.vector_size);
  if (std::holds_alternative<std::uint64_t>(value)) {
    out.push_back(kLambdaBinarizer);
    const auto bits = binarizer_.transform(std::get<std::uint64_t>(value));
    out.insert(out.end(), bits.begin(), bits.end());
    return out;
  }
  const std::string& text = std::get<std::string>(value);
  if (looks_numeric(text)) {
    // Numeric-looking strings are parsed and binarized, so "25" and 25 encode
    // identically regardless of how the trace recorded them.
    std::uint64_t parsed = 0;
    try {
      parsed = static_cast<std::uint64_t>(util::parse_int(text));
      if (parsed <= binarizer_.max_value()) {
        out.push_back(kLambdaBinarizer);
        const auto bits = binarizer_.transform(parsed);
        out.insert(out.end(), bits.begin(), bits.end());
        return out;
      }
    } catch (const std::exception&) {
      // fall through to hashing
    }
  }
  out.push_back(kLambdaHasher);
  const auto hashed = hasher_.transform(text);
  out.insert(out.end(), hashed.begin(), hashed.end());
  return out;
}

}  // namespace bellamy::encoding
