#pragma once
// Binary encoding of natural-number properties (§III-C, Eq. 4 "binarizer"
// branch): a value p ∈ N0 is written as its L-bit binary representation,
// which "saves the trouble of feature-wise scaling" while uniquely encoding
// any number p <= 2^L - 1.

#include <cstdint>
#include <vector>

namespace bellamy::encoding {

class Binarizer {
 public:
  explicit Binarizer(std::size_t num_bits = 39);

  /// Bits of `value`, most significant first. Throws std::out_of_range if the
  /// value does not fit into num_bits.
  std::vector<double> transform(std::uint64_t value) const;

  /// Largest encodable value (2^num_bits - 1).
  std::uint64_t max_value() const;

  std::size_t num_bits() const { return num_bits_; }

 private:
  std::size_t num_bits_;
};

}  // namespace bellamy::encoding
