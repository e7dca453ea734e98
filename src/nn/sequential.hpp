#pragma once
// Sequential container.  The paper's four functions f, g, h, z are each a
// two-layer feed-forward network built as a Sequential of Linear /
// activation / AlphaDropout modules (§III-B, §IV-A).

#include <memory>
#include <string>
#include <vector>

#include "nn/module.hpp"

namespace bellamy::nn {

class Sequential : public Module {
 public:
  Sequential() = default;
  explicit Sequential(std::vector<ModulePtr> modules) : modules_(std::move(modules)) {}

  void add(ModulePtr module) { modules_.push_back(std::move(module)); }

  /// Construct-in-place convenience: seq.emplace<Linear>(...).
  template <typename M, typename... Args>
  M& emplace(Args&&... args) {
    auto mod = std::make_unique<M>(std::forward<Args>(args)...);
    M& ref = *mod;
    modules_.push_back(std::move(mod));
    return ref;
  }

  /// Chains the modules' own buffers: the result is the last module's.
  const Matrix& forward(const Matrix& input) override;
  Matrix infer(const Matrix& input) const override;
  const Matrix& backward(const Matrix& grad_output) override;
  /// Back-propagates only down to the lowest module that has a trainable
  /// parameter, which takes the parameter-only step: the chain's input
  /// gradient, and every gradient below that module, is never formed.
  void backward_params(const Matrix& grad_output) override;
  std::vector<Parameter*> parameters() override;
  bool has_trainable() override;
  void release_buffers() override;
  void set_training(bool training) override;
  std::string describe() const override;

  std::size_t num_modules() const { return modules_.size(); }
  Module& module(std::size_t i) { return *modules_.at(i); }
  const Module& module(std::size_t i) const { return *modules_.at(i); }

 private:
  std::vector<ModulePtr> modules_;
};

}  // namespace bellamy::nn
