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

}  // namespace bellamy::nn
