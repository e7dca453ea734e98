#pragma once
// Loss functions.  The paper's joint objective (§III-A, Table I) is
//   L = Huber(predicted runtime, actual runtime) + MSE(reconstruction)
// during pre-training, and Huber alone during fine-tuning.
//
// Each loss returns the scalar mean loss and writes dL/d(prediction), already
// divided by the element count so that gradients are means, into *grad
// (resized, its storage reused; skipped when grad is null).

#include "nn/matrix.hpp"

namespace bellamy::nn {

/// Huber loss with threshold delta (PyTorch SmoothL1/Huber semantics):
///   0.5 e^2            for |e| <= delta
///   delta(|e| - delta/2) otherwise
double huber_loss(const Matrix& pred, const Matrix& target, double delta, Matrix* grad);

/// Mean absolute error (metric only; subgradient at 0 taken as 0).
double mae_loss(const Matrix& pred, const Matrix& target, Matrix* grad);

}  // namespace bellamy::nn
