#include "support/gradcheck.hpp"

#include <cmath>

#include "support/matrix_testing.hpp"

namespace bellamy::nn {

namespace {
std::pair<double, Matrix> default_loss(const Matrix& y) {
  return {0.5 * squared_norm(y), y};
}
}  // namespace

GradCheckResult grad_check(
    Module& module, const Matrix& input,
    const std::function<std::pair<double, Matrix>(const Matrix&)>& loss_fn, double epsilon) {
  const auto loss = loss_fn ? loss_fn : default_loss;

  // Analytic pass.
  module.zero_grad();
  const Matrix out = module.forward(input);
  const auto [value, grad_out] = loss(out);
  (void)value;
  const Matrix analytic_input_grad = module.backward(grad_out);

  // Capture analytic parameter grads before the numeric passes overwrite state.
  std::vector<Matrix> analytic_param_grads;
  for (Parameter* p : module.parameters()) analytic_param_grads.push_back(p->grad);

  auto eval = [&](const Matrix& x) {
    const Matrix y = module.forward(x);
    return loss(y).first;
  };

  GradCheckResult result;

  // Numeric input gradient (central differences).
  Matrix x = input;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double orig = x.data()[i];
    x.data()[i] = orig + epsilon;
    const double f_plus = eval(x);
    x.data()[i] = orig - epsilon;
    const double f_minus = eval(x);
    x.data()[i] = orig;
    const double numeric = (f_plus - f_minus) / (2.0 * epsilon);
    const double err = std::abs(numeric - analytic_input_grad.data()[i]);
    result.max_input_grad_error = std::max(result.max_input_grad_error, err);
  }

  // Numeric parameter gradients.
  const auto params = module.parameters();
  for (std::size_t pi = 0; pi < params.size(); ++pi) {
    Parameter* p = params[pi];
    for (std::size_t i = 0; i < p->value.size(); ++i) {
      const double orig = p->value.data()[i];
      p->value.data()[i] = orig + epsilon;
      const double f_plus = eval(input);
      p->value.data()[i] = orig - epsilon;
      const double f_minus = eval(input);
      p->value.data()[i] = orig;
      const double numeric = (f_plus - f_minus) / (2.0 * epsilon);
      const double err = std::abs(numeric - analytic_param_grads[pi].data()[i]);
      result.max_param_grad_error = std::max(result.max_param_grad_error, err);
    }
  }
  return result;
}

}  // namespace bellamy::nn
