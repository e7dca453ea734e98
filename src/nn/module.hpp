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
// Buffer contract.  forward() and backward() return references into buffers
// the module owns and reuses, so a steady-state training step allocates
// nothing.  A returned reference stays valid, and its values unchanged, until
// the next forward() (for a forward result) or backward() (for a gradient)
// or release_buffers() on the same module; copy it to keep it longer.  A module never keeps a
// reference to its caller's matrices: what backward() needs is copied into
// the module's own storage, so the caller may overwrite or destroy its input
// as soon as forward() returns.  Training is single-threaded per module.
// infer() is unchanged: const, value-returning, thread-safe.
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
  Module() = default;
  // The virtual destructor would otherwise suppress the implicit moves, and
  // the buffers below would make every move a throwing copy.
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;
  Module(Module&&) noexcept = default;
  Module& operator=(Module&&) noexcept = default;
  virtual ~Module() = default;

  /// Compute outputs for a batch and cache what backward() needs.  Shares
  /// infer()'s arithmetic, so the two agree bit for bit; dropout in training
  /// mode is the one module that differs.  The result lives in output_.
  virtual const Matrix& forward(const Matrix& input) = 0;

  /// Eval-mode outputs for a batch; caches nothing and mutates nothing.
  virtual Matrix infer(const Matrix& input) const = 0;

  /// Propagate dL/d(output) -> dL/d(input), accumulating parameter grads.
  /// The result lives in grad_input_.
  virtual const Matrix& backward(const Matrix& grad_output) = 0;

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

  /// True when at least one owned parameter is trainable.  Modules that own
  /// parameters override it to answer without building parameters().
  virtual bool has_trainable() {
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

  /// Free the buffers forward() and backward() reuse.  They hold no state,
  /// so a trained model need not carry them; the next training call
  /// allocates them again.
  virtual void release_buffers() {
    output_ = Matrix();
    grad_input_ = Matrix();
  }

  /// Human-readable one-line description ("Linear(3 -> 16, bias)").
  virtual std::string describe() const = 0;

 protected:
  bool training_ = true;
  Matrix output_;      ///< forward()'s result
  Matrix grad_input_;  ///< backward()'s result
};

using ModulePtr = std::unique_ptr<Module>;

}  // namespace bellamy::nn
