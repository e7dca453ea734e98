#include "support/matrix_testing.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <stdexcept>
#include <string>

namespace bellamy::nn {

namespace {

void check(bool ok, const char* op, const Matrix& a, const Matrix& b) {
  if (!ok) {
    throw std::invalid_argument(std::string(op) + ": shape mismatch " + a.shape_str() +
                                " vs " + b.shape_str());
  }
}

}  // namespace

Matrix matmul_ref(const Matrix& a, const Matrix& b) {
  check(a.cols() == b.rows(), "matmul_ref", a, b);
  Matrix out(a.rows(), b.cols(), 0.0);
  // ikj loop order: streams through b and out rows contiguously.
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      for (std::size_t j = 0; j < b.cols(); ++j) out(i, j) += aik * b(k, j);
    }
  }
  return out;
}

Matrix matmul_tn_ref(const Matrix& a, const Matrix& b) {
  check(a.rows() == b.rows(), "matmul_tn_ref", a, b);
  Matrix out(a.cols(), b.cols(), 0.0);
  for (std::size_t k = 0; k < a.rows(); ++k) {
    for (std::size_t i = 0; i < a.cols(); ++i) {
      const double aki = a(k, i);
      for (std::size_t j = 0; j < b.cols(); ++j) out(i, j) += aki * b(k, j);
    }
  }
  return out;
}

Matrix matmul_nt_ref(const Matrix& a, const Matrix& b) {
  check(a.cols() == b.cols(), "matmul_nt_ref", a, b);
  Matrix out(a.rows(), b.rows(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.rows(); ++j) {
      double dot = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) dot += a(i, k) * b(j, k);
      out(i, j) = dot;
    }
  }
  return out;
}

bool operator==(const Matrix& a, const Matrix& b) {
  return a.same_shape(b) && std::equal(a.data(), a.data() + a.size(), b.data());
}

double max_abs_diff(const Matrix& a, const Matrix& b) {
  check(a.same_shape(b), "max_abs_diff", a, b);
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(a.data()[i] - b.data()[i]));
  }
  return m;
}

double squared_norm(const Matrix& m) {
  double s = 0.0;
  for (std::size_t i = 0; i < m.size(); ++i) s += m.data()[i] * m.data()[i];
  return s;
}

double mean(const Matrix& m) {
  if (m.empty()) return 0.0;
  double s = 0.0;
  for (std::size_t i = 0; i < m.size(); ++i) s += m.data()[i];
  return s / static_cast<double>(m.size());
}

void PrintTo(const Matrix& m, std::ostream* os) {
  constexpr std::size_t kMax = 8;
  const std::size_t rlim = std::min(m.rows(), kMax);
  const std::size_t clim = std::min(m.cols(), kMax);
  *os << "[";
  for (std::size_t r = 0; r < rlim; ++r) {
    *os << (r ? ", [" : "[");
    for (std::size_t c = 0; c < clim; ++c) *os << (c ? ", " : "") << m(r, c);
    *os << (clim < m.cols() ? ", ...]" : "]");
  }
  *os << (rlim < m.rows() ? ", ...]" : "]");
}

}  // namespace bellamy::nn
