#pragma once
// Loss functions.  The paper's joint objective (§III-A, Table I) is
//   L = Huber(predicted runtime, actual runtime) + MSE(reconstruction)
// during pre-training, and Huber alone during fine-tuning.
//
// Each loss returns the scalar mean loss together with dL/d(prediction),
// already divided by the element count so that gradients are means.

#include <utility>

#include "nn/matrix.hpp"

namespace bellamy::nn {

struct LossResult {
  double value = 0.0;
  Matrix grad;  ///< same shape as prediction
};

// Huber and MAE also come in a form that writes the gradient into *grad
// (resized, its storage reused; skipped when grad is null) and returns the
// value; their LossResult forms wrap it.

/// Mean squared error: mean((pred - target)^2).
LossResult mse_loss(const Matrix& pred, const Matrix& target);

/// Huber loss with threshold delta (PyTorch SmoothL1/Huber semantics):
///   0.5 e^2            for |e| <= delta
///   delta(|e| - delta/2) otherwise
LossResult huber_loss(const Matrix& pred, const Matrix& target, double delta = 1.0);
double huber_loss(const Matrix& pred, const Matrix& target, double delta, Matrix* grad);

/// Mean absolute error (metric only; subgradient at 0 taken as 0).
LossResult mae_loss(const Matrix& pred, const Matrix& target);
double mae_loss(const Matrix& pred, const Matrix& target, Matrix* grad);

}  // namespace bellamy::nn
