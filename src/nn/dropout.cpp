#include "nn/dropout.hpp"

#include <cmath>
#include <stdexcept>

#include "nn/activations.hpp"
#include "util/string_utils.hpp"

namespace bellamy::nn {

namespace {
// SELU negative saturation value: lim_{x->-inf} selu(x) = -scale * alpha.
constexpr double kAlphaPrime = -kSeluScale * kSeluAlpha;

// Written so that NaN fails the check too.
bool valid_rate(double rate) { return rate >= 0.0 && rate < 1.0; }
}  // namespace

AlphaDropout::AlphaDropout(double rate, util::Rng rng) : rate_(rate), rng_(rng) {
  if (!valid_rate(rate)) {
    throw std::invalid_argument("AlphaDropout: rate must be in [0, 1)");
  }
  recompute_affine();
}

void AlphaDropout::set_rate(double rate) {
  if (!valid_rate(rate)) {
    throw std::invalid_argument("AlphaDropout::set_rate: rate must be in [0, 1)");
  }
  rate_ = rate;
  recompute_affine();
}

void AlphaDropout::recompute_affine() {
  const double p = rate_;
  const double q = 1.0 - p;
  if (p == 0.0) {
    a_ = 1.0;
    b_ = 0.0;
    return;
  }
  // Keep mean/variance of a unit-Gaussian input: y = a * (x*m + alpha'*(1-m)) + b
  // with a = (q + alpha'^2 * q * p)^(-1/2), b = -a * p * alpha'.
  a_ = 1.0 / std::sqrt(q + kAlphaPrime * kAlphaPrime * q * p);
  b_ = -a_ * p * kAlphaPrime;
}

const Matrix& AlphaDropout::forward(const Matrix& input) {
  identity_ = !training_ || rate_ == 0.0;
  if (identity_) {
    output_ = input;
    return output_;
  }
  mask_.resize(input.rows(), input.cols());
  output_.resize(input.rows(), input.cols());
  for (std::size_t r = 0; r < input.rows(); ++r) {
    for (std::size_t c = 0; c < input.cols(); ++c) {
      const bool keep = !rng_.bernoulli(rate_);
      mask_(r, c) = keep ? 1.0 : 0.0;
      const double v = keep ? input(r, c) : kAlphaPrime;
      output_(r, c) = a_ * v + b_;
    }
  }
  return output_;
}

const Matrix& AlphaDropout::backward(const Matrix& grad_output) {
  if (identity_) {
    grad_input_ = grad_output;
    return grad_input_;
  }
  if (!grad_output.same_shape(mask_)) {
    throw std::invalid_argument("AlphaDropout::backward: grad shape " +
                                grad_output.shape_str() + " != mask " + mask_.shape_str());
  }
  // dy/dx = a where kept, 0 where dropped.
  grad_input_.resize(grad_output.rows(), grad_output.cols());
  const double* go = grad_output.data();
  const double* m = mask_.data();
  double* g = grad_input_.data();
  for (std::size_t i = 0; i < grad_input_.size(); ++i) g[i] = (go[i] * m[i]) * a_;
  return grad_input_;
}

std::string AlphaDropout::describe() const {
  return util::format("AlphaDropout(rate=%.3f)", rate_);
}

}  // namespace bellamy::nn
