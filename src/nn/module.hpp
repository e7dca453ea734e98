#pragma once
// Module / Parameter abstractions for the manual-backprop NN stack.
//
// A Module maps a (B x in) batch to a (B x out) batch in forward() and, given
// dL/d(output), accumulates dL/d(params) and returns dL/d(input) in
// backward().  backward() must be called with the gradient matching the most
// recent forward() — modules cache whatever they need between the two calls.
// infer() is the same eval-mode arithmetic with nothing cached: it leaves
// the module unchanged, so any number of threads may call it on one module.
//
// Freezing (the paper's fine-tuning policy keeps most components fixed) is
// expressed per-parameter via Parameter::trainable; optimizers skip frozen
// parameters, and backward() never accumulates a frozen parameter's
// gradient.

#include <memory>
#include <string>
#include <vector>

#include "nn/matrix.hpp"

namespace bellamy::nn {

/// A learnable tensor together with its gradient accumulator.
struct Parameter {
  std::string name;
  Matrix value;
  Matrix grad;
  bool trainable = true;

  Parameter() = default;
  Parameter(std::string n, Matrix v)
      : name(std::move(n)), value(std::move(v)), grad(value.rows(), value.cols(), 0.0) {}

  void zero_grad() { grad.setZero(); }
};

class Module {
 public:
  virtual ~Module() = default;

  /// Compute outputs for a batch: cache what backward() needs, then return
  /// infer(input) — one arithmetic for both paths, so they agree bit for
  /// bit.  Dropout in training mode is the one module that differs.
  virtual Matrix forward(const Matrix& input) = 0;

  /// Eval-mode outputs for a batch; caches nothing and mutates nothing.
  virtual Matrix infer(const Matrix& input) const = 0;

  /// Propagate dL/d(output) -> dL/d(input), accumulating parameter grads.
  virtual Matrix backward(const Matrix& grad_output) = 0;

  /// backward() without dL/d(input): accumulate the trainable parameters'
  /// gradients only.  For a module whose input is data, or whose input
  /// gradient nothing upstream needs.
  virtual void backward_params(const Matrix& grad_output) { backward(grad_output); }

  /// All parameters owned by this module (possibly recursively).
  virtual std::vector<Parameter*> parameters() { return {}; }

  /// Training vs evaluation mode (affects dropout).
  virtual void set_training(bool training) { training_ = training; }
  bool training() const { return training_; }

  /// Mark every owned parameter (non-)trainable.
  void set_trainable(bool trainable) {
    for (Parameter* p : parameters()) p->trainable = trainable;
  }

  /// True when at least one owned parameter is trainable.
  bool has_trainable() {
    for (const Parameter* p : parameters()) {
      if (p->trainable) return true;
    }
    return false;
  }

  void zero_grad() {
    for (Parameter* p : parameters()) p->zero_grad();
  }

  /// Number of scalar parameters.
  std::size_t num_parameters() {
    std::size_t n = 0;
    for (Parameter* p : parameters()) n += p->value.size();
    return n;
  }

  /// Human-readable one-line description ("Linear(3 -> 16, bias)").
  virtual std::string describe() const = 0;

 protected:
  bool training_ = true;
};

using ModulePtr = std::unique_ptr<Module>;

}  // namespace bellamy::nn
