#include "nn/loss.hpp"

#include <cmath>
#include <stdexcept>

namespace bellamy::nn {

namespace {
void check_shapes(const Matrix& pred, const Matrix& target, const char* name) {
  if (!pred.same_shape(target)) {
    throw std::invalid_argument(std::string(name) + ": shape mismatch " + pred.shape_str() +
                                " vs " + target.shape_str());
  }
  if (pred.empty()) throw std::invalid_argument(std::string(name) + ": empty input");
}
}  // namespace

// Each loss is one pass that writes the per-element gradient and sums the
// per-element terms sequentially; the value is that sum over N.

double huber_loss(const Matrix& pred, const Matrix& target, double delta, Matrix* grad) {
  check_shapes(pred, target, "huber_loss");
  if (delta <= 0.0) throw std::invalid_argument("huber_loss: delta must be > 0");
  const double n = static_cast<double>(pred.size());
  const double inv_n = 1.0 / n;
  const double dn = delta * inv_n;
  if (grad) grad->resize(pred.rows(), pred.cols());
  const double* p = pred.data();
  const double* t = target.data();
  double* g = grad ? grad->data() : nullptr;
  double acc = 0.0;
  for (std::size_t i = 0; i < pred.size(); ++i) {
    const double e = p[i] - t[i];
    const double ae = std::fabs(e);
    if (ae <= delta) {
      acc += (0.5 * e) * e;
      if (g) g[i] = e * inv_n;
    } else {
      acc += delta * (ae - 0.5 * delta);
      if (g) g[i] = e > 0.0 ? dn : -dn;
    }
  }
  return acc / n;
}

double mae_loss(const Matrix& pred, const Matrix& target, Matrix* grad) {
  check_shapes(pred, target, "mae_loss");
  const double n = static_cast<double>(pred.size());
  const double inv_n = 1.0 / n;
  if (grad) grad->resize(pred.rows(), pred.cols());
  const double* p = pred.data();
  const double* t = target.data();
  double* g = grad ? grad->data() : nullptr;
  double acc = 0.0;
  for (std::size_t i = 0; i < pred.size(); ++i) {
    const double e = p[i] - t[i];
    acc += std::fabs(e);
    if (g) g[i] = e > 0.0 ? inv_n : (e < 0.0 ? -inv_n : 0.0);
  }
  return acc / n;
}

}  // namespace bellamy::nn
