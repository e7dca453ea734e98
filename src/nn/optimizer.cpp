#include "nn/optimizer.hpp"

#include <cmath>
#include <stdexcept>

#include "nn/simd.hpp"

namespace bellamy::nn {

Adam::Adam(std::vector<Parameter*> params, Config config)
    : params_(std::move(params)), lr_(config.lr), config_(config), state_(params_.size()) {
  if (config.lr <= 0.0) throw std::invalid_argument("Adam: lr must be > 0");
  if (config.beta1 < 0.0 || config.beta1 >= 1.0 || config.beta2 < 0.0 || config.beta2 >= 1.0) {
    throw std::invalid_argument("Adam: betas must be in [0, 1)");
  }
}

void Adam::step() {
  // The whole moment/update loop is one fused element-wise kernel
  // (nn/simd.hpp): weight decay folds into the effective gradient inside the
  // kernel, so no per-step gradient copy is materialized.
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Parameter* p = params_[i];
    if (!p->trainable) continue;
    State& s = state_[i];
    if (s.t == 0) {
      s.m = Matrix::zeros(p->value.rows(), p->value.cols());
      s.v = Matrix::zeros(p->value.rows(), p->value.cols());
    }
    ++s.t;
    simd::AdamStep step;
    step.beta1 = config_.beta1;
    step.beta2 = config_.beta2;
    step.bias1 = 1.0 - std::pow(config_.beta1, static_cast<double>(s.t));
    step.bias2 = 1.0 - std::pow(config_.beta2, static_cast<double>(s.t));
    step.lr = lr_;
    step.eps = config_.eps;
    step.weight_decay = config_.weight_decay;
    simd::adam_update(p->value.data(), p->grad.data(), s.m.data(), s.v.data(),
                      p->value.size(), step);
  }
}

void Adam::zero_grad() {
  for (Parameter* p : params_) p->zero_grad();
}

void Adam::set_learning_rate(double lr) {
  if (lr <= 0.0) throw std::invalid_argument("Adam::set_learning_rate: lr must be > 0");
  lr_ = lr;
}

}  // namespace bellamy::nn
