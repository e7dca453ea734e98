#pragma once
// The optimizer over Parameter lists.  The paper trains with Adam (Table I)
// and L2 weight decay; frozen parameters (trainable == false) are skipped,
// which is how the fine-tuning freeze policy is enforced.

#include <cstddef>
#include <vector>

#include "nn/module.hpp"

namespace bellamy::nn {

/// Adam (Kingma & Ba 2015) with L2 weight decay added to the gradient,
/// matching torch.optim.Adam's `weight_decay` semantics used by the paper.
class Adam {
 public:
  struct Config {
    double lr = 1e-3;
    double beta1 = 0.9;
    double beta2 = 0.999;
    double eps = 1e-8;
    double weight_decay = 0.0;
  };

  Adam(std::vector<Parameter*> params, Config config);

  /// Apply one update using the accumulated gradients.
  void step();

  void zero_grad();
  double learning_rate() const { return lr_; }
  void set_learning_rate(double lr);

  const Config& config() const { return config_; }

 private:
  struct State {
    Matrix m;  ///< first-moment estimate
    Matrix v;  ///< second-moment estimate
    std::size_t t = 0;  ///< steps taken; 0 until the parameter first trains
  };
  std::vector<Parameter*> params_;
  double lr_;
  Config config_;
  std::vector<State> state_;  ///< indexed like params_
};

}  // namespace bellamy::nn
