#pragma once
// Optimizers over Parameter lists.  The paper trains with Adam (Table I) and
// L2 weight decay; frozen parameters (trainable == false) are skipped, which
// is how the fine-tuning freeze policy is enforced.

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "nn/module.hpp"

namespace bellamy::nn {

class Optimizer {
 public:
  explicit Optimizer(std::vector<Parameter*> params, double lr);
  virtual ~Optimizer() = default;

  /// Apply one update using the accumulated gradients.
  virtual void step() = 0;

  void zero_grad();
  double learning_rate() const { return lr_; }
  void set_learning_rate(double lr);

 protected:
  std::vector<Parameter*> params_;
  double lr_;
};

/// SGD with optional classical momentum.
class Sgd : public Optimizer {
 public:
  Sgd(std::vector<Parameter*> params, double lr, double momentum = 0.0,
      double weight_decay = 0.0);
  void step() override;

 private:
  double momentum_;
  double weight_decay_;
  std::unordered_map<Parameter*, Matrix> velocity_;
};

/// Adam (Kingma & Ba 2015) with L2 weight decay added to the gradient,
/// matching torch.optim.Adam's `weight_decay` semantics used by the paper.
class Adam : public Optimizer {
 public:
  struct Config {
    double lr = 1e-3;
    double beta1 = 0.9;
    double beta2 = 0.999;
    double eps = 1e-8;
    double weight_decay = 0.0;
  };

  Adam(std::vector<Parameter*> params, Config config);
  void step() override;

  const Config& config() const { return config_; }

 private:
  struct State {
    Matrix m;  ///< first-moment estimate
    Matrix v;  ///< second-moment estimate
    std::size_t t = 0;
  };
  Config config_;
  std::unordered_map<Parameter*, State> state_;
};

}  // namespace bellamy::nn
