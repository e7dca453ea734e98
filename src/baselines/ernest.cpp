#include "baselines/ernest.hpp"

#include <cmath>
#include <stdexcept>

#include "opt/nnls.hpp"

namespace bellamy::baselines {

std::array<double, 4> ernest_features(double scale_out) {
  if (scale_out < 1.0) throw std::invalid_argument("ernest_features: scale-out must be >= 1");
  return {1.0, 1.0 / scale_out, std::log(scale_out), scale_out};
}

void ErnestModel::fit(const std::vector<data::JobRun>& runs) {
  if (runs.empty()) throw std::invalid_argument("ErnestModel::fit: no training points");
  nn::Matrix a(runs.size(), 4);
  std::vector<double> b(runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto f = ernest_features(static_cast<double>(runs[i].scale_out));
    for (std::size_t j = 0; j < 4; ++j) a(i, j) = f[j];
    b[i] = runs[i].runtime_s;
  }
  const auto result = opt::solve_nnls(a, b);
  for (std::size_t j = 0; j < 4; ++j) theta_[j] = result.x[j];
  fitted_ = true;
}

double ErnestModel::predict_scaleout(double scale_out) const {
  if (!fitted_) {
    throw std::runtime_error("ErnestModel::predict_scaleout: model is not fitted — "
                             "call fit() first");
  }
  const auto f = ernest_features(scale_out);
  double r = 0.0;
  for (std::size_t j = 0; j < 4; ++j) r += theta_[j] * f[j];
  return r;
}

std::vector<double> ErnestModel::predict_batch(const std::vector<data::JobRun>& queries) {
  std::vector<double> out;
  out.reserve(queries.size());
  for (const data::JobRun& q : queries) {
    out.push_back(predict_scaleout(static_cast<double>(q.scale_out)));
  }
  return out;
}

}  // namespace bellamy::baselines
