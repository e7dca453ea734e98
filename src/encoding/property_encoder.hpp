#pragma once
// Property vectorization (§III-C, Eq. 3):
//
//   p^(i)  ->  [lambda, q_1, ..., q_L]  in  R^N,   L = N - 1
//
// where q comes from the Binarizer when the property is a natural number and
// from the HashingVectorizer otherwise, and lambda is a binary prefix
// indicating the utilized method (1 = binarizer, 0 = hasher).

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "encoding/binarizer.hpp"
#include "encoding/hashing_vectorizer.hpp"

namespace bellamy::encoding {

/// A descriptive property of a job execution context.  Natural numbers are a
/// separate alternative because they take the binarizer path.
using PropertyValue = std::variant<std::uint64_t, std::string>;

/// True if the string is all digits (such strings take the binarizer path,
/// e.g. "25" max iterations, "19353" MB — see Fig. 4's examples).
bool looks_numeric(const std::string& s);

class PropertyEncoder {
 public:
  struct Config {
    std::size_t vector_size = 40;  ///< N; the paper uses 40 (§IV-A)
    HashingVectorizer::Config hasher;  ///< num_features is overridden to N-1
  };

  PropertyEncoder() : PropertyEncoder(Config{}) {}
  explicit PropertyEncoder(Config config);

  /// Encode one property into a length-N vector.
  std::vector<double> encode(const PropertyValue& value) const;

  std::size_t vector_size() const { return config_.vector_size; }

  /// lambda prefix written for each path.
  static constexpr double kLambdaBinarizer = 1.0;
  static constexpr double kLambdaHasher = 0.0;

 private:
  Config config_;
  Binarizer binarizer_;
  HashingVectorizer hasher_;
};

}  // namespace bellamy::encoding
