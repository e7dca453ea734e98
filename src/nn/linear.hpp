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

  Matrix forward(const Matrix& input) override;
  Matrix infer(const Matrix& input) const override;
  Matrix backward(const Matrix& grad_output) override;
  void backward_params(const Matrix& grad_output) override;
  std::vector<Parameter*> parameters() override;
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
  Matrix cached_input_;
};

}  // namespace bellamy::nn
