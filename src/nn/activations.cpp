#include "nn/activations.hpp"

#include <stdexcept>

#include "nn/simd.hpp"

namespace bellamy::nn {

// SELU and tanh have hand-written AVX2 (nn/simd.hpp): the model is SELU
// everywhere but the decoder output, which is tanh, and their scalar exp /
// tanh are the largest element-wise costs of a pretrain.  Tanh
// back-propagates from its own output, which output_ already holds.

namespace {

void check_grad_shape(const Matrix& grad_output, const Matrix& cached, const char* who) {
  if (!grad_output.same_shape(cached)) {
    throw std::invalid_argument(std::string(who) + "::backward: grad " +
                                grad_output.shape_str() + " does not match forward output " +
                                cached.shape_str());
  }
}

}  // namespace

// Training keeps selu'(x) from the exp lane the forward already computes
// (simd::selu_forward_deriv gives the same output bits as selu_forward), so
// backward is a single multiply.
const Matrix& Selu::forward(const Matrix& input) {
  output_ = input;
  derivative_.resize(input.rows(), input.cols());
  simd::selu_forward_deriv(output_.data(), derivative_.data(), output_.size());
  return output_;
}

Matrix Selu::infer(const Matrix& input) const {
  Matrix out = input;
  simd::selu_forward(out.data(), out.size());
  return out;
}

const Matrix& Selu::backward(const Matrix& grad_output) {
  check_grad_shape(grad_output, derivative_, "Selu");
  grad_input_.resize(grad_output.rows(), grad_output.cols());
  const double* go = grad_output.data();
  const double* d = derivative_.data();
  double* g = grad_input_.data();
  for (std::size_t i = 0; i < grad_input_.size(); ++i) g[i] = go[i] * d[i];
  return grad_input_;
}

const Matrix& Tanh::forward(const Matrix& input) {
  output_ = input;
  simd::tanh_forward(output_.data(), output_.size());
  return output_;
}

Matrix Tanh::infer(const Matrix& input) const {
  Matrix out = input;
  simd::tanh_forward(out.data(), out.size());
  return out;
}

const Matrix& Tanh::backward(const Matrix& grad_output) {
  check_grad_shape(grad_output, output_, "Tanh");
  grad_input_ = grad_output;
  simd::tanh_backward(grad_input_.data(), output_.data(), grad_input_.size());
  return grad_input_;
}

}  // namespace bellamy::nn
