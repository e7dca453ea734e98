#pragma once
// Property vectorization (§III-C, Eq. 3; §IV-A):
//
//   p^(i)  ->  [lambda, q_1, ..., q_L]  in  R^N,   L = N - 1
//
// A natural number p <= 2^L - 1, given as a number or as an all-digit string
// ("25" max iterations, "19353" MB — Fig. 4), takes the binarizer branch
// (lambda = 1): q is p's L binary digits, most significant first, which
// "saves the trouble of feature-wise scaling".  Any other text takes the
// hasher branch (lambda = 0), sklearn's HashingVectorizer(analyzer='char',
// ngram_range=(1,3)) without alternate signs: the text is lower-cased and
// stripped to a "case insensitive character-vocabulary with alphanumeric
// characters and a handful of special symbols" ([a-z0-9] and ". - _ / :" and
// space), every character 1-, 2- and 3-gram of what remains adds 1 to bucket
// fnv1a64(gram) mod L, and q is projected onto the euclidean unit sphere.
//
// encode() reads the text once and allocates only the returned vector, so a
// long property costs time linear in its length and constant memory.

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

namespace bellamy::encoding {

/// A descriptive property of a job execution context.  Natural numbers are a
/// separate alternative because they take the binarizer branch.
using PropertyValue = std::variant<std::uint64_t, std::string>;

class PropertyEncoder {
 public:
  /// N = `vector_size`; the paper uses 40 (§IV-A).  Throws
  /// std::invalid_argument unless 2 <= N <= 64 (L = N - 1 bits must fit a
  /// 64-bit value).
  explicit PropertyEncoder(std::size_t vector_size = 40);

  /// Encode one property into a length-N vector.  Throws std::out_of_range
  /// for a number above 2^L - 1 (an all-digit string that large is hashed).
  std::vector<double> encode(const PropertyValue& value) const;

  std::size_t vector_size() const { return vector_size_; }

  /// lambda prefix written for each branch.
  static constexpr double kLambdaBinarizer = 1.0;
  static constexpr double kLambdaHasher = 0.0;

 private:
  std::size_t vector_size_;
};

}  // namespace bellamy::encoding
