#pragma once
// Finite-difference gradient verification: the test suite certifies every
// layer's backward() against central differences with it.

#include <functional>

#include "nn/module.hpp"

namespace bellamy::nn {

struct GradCheckResult {
  double max_input_grad_error = 0.0;  ///< max |analytic - numeric| over inputs
  double max_param_grad_error = 0.0;  ///< max over all parameters
  bool ok(double tol = 1e-6) const {
    return max_input_grad_error <= tol && max_param_grad_error <= tol;
  }
};

/// Checks d(scalar loss)/d(input) and d(loss)/d(params) for `module` where the
/// scalar loss is loss_fn(module.forward(input)).  loss_fn must be a pure
/// function of the output (the default is 0.5 * ||y||^2, whose gradient is y).
///
/// The module is evaluated in its current training mode; stochastic modules
/// (dropout) must be put in eval mode by the caller first.
GradCheckResult grad_check(
    Module& module, const Matrix& input,
    const std::function<std::pair<double, Matrix>(const Matrix&)>& loss_fn = {},
    double epsilon = 1e-6);

}  // namespace bellamy::nn
