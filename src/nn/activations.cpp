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
// neither relu nor sigmoid, so those are plain loops.  Tanh and sigmoid
// back-propagate from their own output, which output_ already holds.

namespace {

void check_grad_shape(const Matrix& grad_output, const Matrix& cached, const char* who) {
  if (!grad_output.same_shape(cached)) {
    throw std::invalid_argument(std::string(who) + "::backward: grad " +
                                grad_output.shape_str() + " does not match forward output " +
                                cached.shape_str());
  }
}

void relu_inplace(Matrix& m) {
  m.apply_inplace([](double v) { return v > 0.0 ? v : 0.0; });
}

void sigmoid_inplace(Matrix& m) {
  m.apply_inplace([](double v) { return 1.0 / (1.0 + std::exp(-v)); });
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

const Matrix& Relu::forward(const Matrix& input) {
  input_ = input;
  output_ = input;
  relu_inplace(output_);
  return output_;
}

Matrix Relu::infer(const Matrix& input) const {
  Matrix out = input;
  relu_inplace(out);
  return out;
}

const Matrix& Relu::backward(const Matrix& grad_output) {
  check_grad_shape(grad_output, input_, "Relu");
  grad_input_ = grad_output;
  double* g = grad_input_.data();
  const double* x = input_.data();
  for (std::size_t i = 0; i < grad_input_.size(); ++i) {
    if (x[i] <= 0.0) g[i] = 0.0;
  }
  return grad_input_;
}

const Matrix& Sigmoid::forward(const Matrix& input) {
  output_ = input;
  sigmoid_inplace(output_);
  return output_;
}

Matrix Sigmoid::infer(const Matrix& input) const {
  Matrix out = input;
  sigmoid_inplace(out);
  return out;
}

const Matrix& Sigmoid::backward(const Matrix& grad_output) {
  check_grad_shape(grad_output, output_, "Sigmoid");
  grad_input_ = grad_output;
  double* g = grad_input_.data();
  const double* y = output_.data();
  for (std::size_t i = 0; i < grad_input_.size(); ++i) g[i] *= y[i] * (1.0 - y[i]);
  return grad_input_;
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
