#include "encoding/binarizer.hpp"

#include <stdexcept>
#include <string>

namespace bellamy::encoding {

Binarizer::Binarizer(std::size_t num_bits) : num_bits_(num_bits) {
  if (num_bits == 0 || num_bits > 63) {
    throw std::invalid_argument("Binarizer: num_bits must be in [1, 63]");
  }
}

std::uint64_t Binarizer::max_value() const { return (1ULL << num_bits_) - 1; }

std::vector<double> Binarizer::transform(std::uint64_t value) const {
  if (value > max_value()) {
    throw std::out_of_range("Binarizer: value " + std::to_string(value) +
                            " exceeds max encodable " + std::to_string(max_value()));
  }
  std::vector<double> bits(num_bits_, 0.0);
  for (std::size_t i = 0; i < num_bits_; ++i) {
    // Most significant bit first.
    const std::size_t shift = num_bits_ - 1 - i;
    bits[i] = static_cast<double>((value >> shift) & 1ULL);
  }
  return bits;
}

}  // namespace bellamy::encoding
