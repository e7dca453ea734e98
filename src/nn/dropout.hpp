#pragma once
// Alpha-dropout (Klambauer et al. 2017): the dropout variant that preserves
// the self-normalizing property of SELU networks.  Instead of zeroing
// activations it sets them to the SELU negative saturation value alpha' =
// -scale*alpha and applies an affine correction so mean and variance are
// kept.  Used by the paper between encoder/decoder layers during
// pre-training (§IV-A); inactive in eval mode or with rate 0.

#include "nn/module.hpp"
#include "util/rng.hpp"

namespace bellamy::nn {

class AlphaDropout : public Module {
 public:
  /// rate = probability of dropping; rng is forked for per-call masks.
  AlphaDropout(double rate, util::Rng rng);

  Matrix forward(const Matrix& input) override;
  /// Eval mode: alpha-dropout is the identity.
  Matrix infer(const Matrix& input) const override { return input; }
  Matrix backward(const Matrix& grad_output) override;
  std::string describe() const override;

  double rate() const { return rate_; }
  void set_rate(double rate);

 private:
  double rate_;
  double a_ = 1.0;  ///< affine scale, recomputed when rate changes
  double b_ = 0.0;  ///< affine shift
  util::Rng rng_;
  Matrix mask_;  ///< 1 = keep, 0 = drop (for the most recent forward)

  void recompute_affine();
};

}  // namespace bellamy::nn
