#pragma once
// Fully-connected layer: Y = X Wᵀ (+ b).
//
// Note the paper's encoder/decoder networks "waive additional additive
// biases" (§IV-A), so bias is optional here.

#include <string>

#include "nn/init.hpp"
#include "nn/module.hpp"

namespace bellamy::util {
class Rng;
}

namespace bellamy::nn {

class Linear : public Module {
 public:
  /// W is (out x in); bias (1 x out) if with_bias.
  Linear(std::size_t in_features, std::size_t out_features, bool with_bias,
         Init init, util::Rng& rng, std::string name = "linear");

  const Matrix& forward(const Matrix& input) override;
  Matrix infer(const Matrix& input) const override;
  const Matrix& backward(const Matrix& grad_output) override;
  void backward_params(const Matrix& grad_output) override;
  std::vector<Parameter*> parameters() override;
  bool has_trainable() override;
  void release_buffers() override;
  std::string describe() const override;

  std::size_t in_features() const { return in_; }
  std::size_t out_features() const { return out_; }

  Parameter& weight() { return weight_; }
  const Parameter& weight() const { return weight_; }
  Parameter& bias();

  /// Re-draw weights (and zero bias) — used by the *-reset reuse variants.
  void reinitialize(Init init, util::Rng& rng);

 private:
  std::size_t in_;
  std::size_t out_;
  bool with_bias_;
  Parameter weight_;
  Parameter bias_;
  Matrix input_;      ///< copy of the last forward() input
  Matrix step_grad_;  ///< this step's weight (then bias) gradient, before accumulation

  void check_input(const Matrix& input) const;
  /// out = input Wᵀ (+ b): the one arithmetic of forward() and infer().
  void affine(const Matrix& input, Matrix& out) const;
};

}  // namespace bellamy::nn
