#pragma once
// Element-wise activation modules.  The paper uses SELU everywhere except the
// decoder's output layer, which uses tanh to match the (-1, 1)-ish range of
// the vectorized properties (§IV-A).

#include <string>

#include "nn/module.hpp"

namespace bellamy::nn {

/// SELU constants from Klambauer et al. 2017 ("Self-Normalizing Neural Networks").
inline constexpr double kSeluAlpha = 1.6732632423543772848170429916717;
inline constexpr double kSeluScale = 1.0507009873554804934193349852946;

class Selu : public Module {
 public:
  const Matrix& forward(const Matrix& input) override;
  Matrix infer(const Matrix& input) const override;
  const Matrix& backward(const Matrix& grad_output) override;
  void release_buffers() override {
    Module::release_buffers();
    derivative_ = Matrix();
  }
  std::string describe() const override { return "SELU"; }

 private:
  Matrix derivative_;  ///< selu'(x) of the last forward() input
};

class Tanh : public Module {
 public:
  const Matrix& forward(const Matrix& input) override;
  Matrix infer(const Matrix& input) const override;
  const Matrix& backward(const Matrix& grad_output) override;
  std::string describe() const override { return "Tanh"; }
};

class Relu : public Module {
 public:
  const Matrix& forward(const Matrix& input) override;
  Matrix infer(const Matrix& input) const override;
  const Matrix& backward(const Matrix& grad_output) override;
  void release_buffers() override {
    Module::release_buffers();
    input_ = Matrix();
  }
  std::string describe() const override { return "ReLU"; }

 private:
  Matrix input_;  ///< copy of the last forward() input
};

class Sigmoid : public Module {
 public:
  const Matrix& forward(const Matrix& input) override;
  Matrix infer(const Matrix& input) const override;
  const Matrix& backward(const Matrix& grad_output) override;
  std::string describe() const override { return "Sigmoid"; }
};

class Identity : public Module {
 public:
  const Matrix& forward(const Matrix& input) override {
    output_ = input;
    return output_;
  }
  Matrix infer(const Matrix& input) const override { return input; }
  const Matrix& backward(const Matrix& grad_output) override {
    grad_input_ = grad_output;
    return grad_input_;
  }
  std::string describe() const override { return "Identity"; }
};

/// Scalar SELU helpers (used by tests and by AlphaDropout constants).
double selu(double x);
double selu_derivative(double x);

enum class Activation { kSelu, kTanh, kRelu, kSigmoid, kIdentity };

ModulePtr make_activation(Activation act);
const char* activation_name(Activation act);

}  // namespace bellamy::nn
