#include "encoding/property_encoder.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>
#include <span>
#include <stdexcept>
#include <string_view>

#include "util/hash.hpp"

namespace bellamy::encoding {

namespace {

// Byte -> its lower-case form if that is in the vocabulary, else 0.
constexpr std::array<char, 256> kVocabulary = [] {
  std::array<char, 256> table{};
  for (char c = 'a'; c <= 'z'; ++c) {
    table[static_cast<unsigned char>(c)] = c;
    table[static_cast<unsigned char>(c - 'a' + 'A')] = c;
  }
  for (char c = '0'; c <= '9'; ++c) table[static_cast<unsigned char>(c)] = c;
  for (char c : std::string_view(".-_/: ")) table[static_cast<unsigned char>(c)] = c;
  return table;
}();

/// The value of an all-digit `text` if it is at most `max`, else nullopt.
std::optional<std::uint64_t> parse_natural(std::string_view text, std::uint64_t max) {
  if (text.empty()) return std::nullopt;
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (digit > max || value > (max - digit) / 10) return std::nullopt;
    value = value * 10 + digit;
  }
  return value;
}

/// Count the 1/2/3-grams of the cleaned `text` into `q`, then L2-normalize.
/// The window holds the last three kept bytes; each kept byte ends one gram
/// of each length the window can supply.
void hash_ngrams(std::string_view text, std::span<double> q) {
  char window[3] = {};
  std::size_t kept = 0;
  for (const char byte : text) {
    const char c = kVocabulary[static_cast<unsigned char>(byte)];
    if (c == 0) continue;
    window[0] = window[1];
    window[1] = window[2];
    window[2] = c;
    kept = std::min<std::size_t>(kept + 1, 3);
    for (std::size_t n = 1; n <= kept; ++n) {
      q[util::fnv1a64(std::string_view(window + 3 - n, n)) % q.size()] += 1.0;
    }
  }
  double sq = 0.0;
  for (const double v : q) sq += v * v;
  if (sq > 0.0) {
    const double inv = 1.0 / std::sqrt(sq);
    for (double& v : q) v *= inv;
  }
}

}  // namespace

PropertyEncoder::PropertyEncoder(std::size_t vector_size) : vector_size_(vector_size) {
  if (vector_size < 2 || vector_size > 64) {
    throw std::invalid_argument("PropertyEncoder: vector_size must be in [2, 64], got " +
                                std::to_string(vector_size));
  }
}

std::vector<double> PropertyEncoder::encode(const PropertyValue& value) const {
  const std::size_t bits = vector_size_ - 1;
  const std::uint64_t max = (std::uint64_t{1} << bits) - 1;
  std::optional<std::uint64_t> natural;
  if (const auto* number = std::get_if<std::uint64_t>(&value)) {
    if (*number > max) {
      throw std::out_of_range("PropertyEncoder: value " + std::to_string(*number) +
                              " exceeds max encodable " + std::to_string(max));
    }
    natural = *number;
  } else {
    natural = parse_natural(std::get<std::string>(value), max);
  }
  std::vector<double> out(vector_size_, 0.0);
  if (natural) {
    out[0] = kLambdaBinarizer;
    for (std::size_t i = 0; i < bits; ++i) {
      out[1 + i] = static_cast<double>((*natural >> (bits - 1 - i)) & 1U);
    }
  } else {
    out[0] = kLambdaHasher;
    hash_ngrams(std::get<std::string>(value), std::span<double>(out).subspan(1));
  }
  return out;
}

}  // namespace bellamy::encoding
