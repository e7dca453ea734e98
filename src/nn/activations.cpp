#include "nn/activations.hpp"

#include <cmath>
#include <stdexcept>

#include "nn/simd.hpp"

namespace bellamy::nn {

double selu(double x) {
  return x > 0.0 ? kSeluScale * x : kSeluScale * kSeluAlpha * (std::exp(x) - 1.0);
}

double selu_derivative(double x) {
  return x > 0.0 ? kSeluScale : kSeluScale * kSeluAlpha * std::exp(x);
}

// SELU and tanh have hand-written AVX2 (nn/simd.hpp): the model is SELU
// everywhere but the decoder output, which is tanh, and their scalar exp /
// tanh are the largest element-wise costs of a pretrain.  The model uses
// neither relu nor sigmoid, so those are plain loops.

Matrix Selu::forward(const Matrix& input) {
  cached_input_ = input;
  return infer(input);
}

Matrix Selu::infer(const Matrix& input) const {
  Matrix out = input;
  simd::selu_forward(out.data(), out.size());
  return out;
}

Matrix Selu::backward(const Matrix& grad_output) {
  Matrix grad = grad_output;
  simd::selu_backward(grad.data(), cached_input_.data(), grad.size());
  return grad;
}

Matrix Tanh::forward(const Matrix& input) {
  cached_output_ = infer(input);
  return cached_output_;
}

Matrix Tanh::infer(const Matrix& input) const {
  Matrix out = input;
  simd::tanh_forward(out.data(), out.size());
  return out;
}

Matrix Tanh::backward(const Matrix& grad_output) {
  Matrix grad = grad_output;
  simd::tanh_backward(grad.data(), cached_output_.data(), grad.size());
  return grad;
}

Matrix Relu::forward(const Matrix& input) {
  cached_input_ = input;
  return infer(input);
}

Matrix Relu::infer(const Matrix& input) const {
  Matrix out = input;
  double* x = out.data();
  for (std::size_t i = 0; i < out.size(); ++i) x[i] = x[i] > 0.0 ? x[i] : 0.0;
  return out;
}

Matrix Relu::backward(const Matrix& grad_output) {
  Matrix grad = grad_output;
  double* g = grad.data();
  const double* x = cached_input_.data();
  for (std::size_t i = 0; i < grad.size(); ++i) {
    if (x[i] <= 0.0) g[i] = 0.0;
  }
  return grad;
}

Matrix Sigmoid::forward(const Matrix& input) {
  cached_output_ = infer(input);
  return cached_output_;
}

Matrix Sigmoid::infer(const Matrix& input) const {
  return input.apply([](double v) { return 1.0 / (1.0 + std::exp(-v)); });
}

Matrix Sigmoid::backward(const Matrix& grad_output) {
  Matrix grad = grad_output;
  double* g = grad.data();
  const double* y = cached_output_.data();
  for (std::size_t i = 0; i < grad.size(); ++i) g[i] *= y[i] * (1.0 - y[i]);
  return grad;
}

ModulePtr make_activation(Activation act) {
  switch (act) {
    case Activation::kSelu: return std::make_unique<Selu>();
    case Activation::kTanh: return std::make_unique<Tanh>();
    case Activation::kRelu: return std::make_unique<Relu>();
    case Activation::kSigmoid: return std::make_unique<Sigmoid>();
    case Activation::kIdentity: return std::make_unique<Identity>();
  }
  throw std::invalid_argument("make_activation: unknown activation");
}

const char* activation_name(Activation act) {
  switch (act) {
    case Activation::kSelu: return "selu";
    case Activation::kTanh: return "tanh";
    case Activation::kRelu: return "relu";
    case Activation::kSigmoid: return "sigmoid";
    case Activation::kIdentity: return "identity";
  }
  return "?";
}

}  // namespace bellamy::nn
