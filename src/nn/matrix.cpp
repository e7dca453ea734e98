#include "nn/matrix.hpp"

#include <algorithm>
#include <stdexcept>

#include "nn/simd.hpp"
#include "util/rng.hpp"

namespace bellamy::nn {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix::Matrix(std::size_t rows, std::size_t cols, std::vector<double> data)
    : rows_(rows), cols_(cols), data_(std::move(data)) {
  if (data_.size() != rows * cols) {
    throw std::invalid_argument("Matrix: data size " + std::to_string(data_.size()) +
                                " does not match shape " + std::to_string(rows) + "x" +
                                std::to_string(cols));
  }
}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ ? rows.begin()->size() : 0;
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    if (r.size() != cols_) throw std::invalid_argument("Matrix: ragged initializer list");
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Matrix Matrix::zeros(std::size_t rows, std::size_t cols) { return Matrix(rows, cols, 0.0); }
Matrix Matrix::randn(std::size_t rows, std::size_t cols, util::Rng& rng, double mean,
                     double stddev) {
  Matrix m(rows, cols);
  for (double& v : m.data_) v = rng.normal(mean, stddev);
  return m;
}

Matrix Matrix::rand_uniform(std::size_t rows, std::size_t cols, util::Rng& rng, double lo,
                            double hi) {
  Matrix m(rows, cols);
  for (double& v : m.data_) v = rng.uniform(lo, hi);
  return m;
}

void Matrix::slice_cols_into(std::size_t begin, std::size_t end, Matrix& out) const {
  if (begin > end || end > cols_) throw std::out_of_range("Matrix::slice_cols");
  out.resize(rows_, end - begin);
  for (std::size_t r = 0; r < rows_; ++r) {
    std::copy_n(data_.data() + r * cols_ + begin, end - begin, out.data_.data() + r * out.cols_);
  }
}

Matrix Matrix::gather_rows(std::span<const std::size_t> indices) const {
  Matrix out;
  gather_rows_into(indices, out);
  return out;
}

void Matrix::gather_rows_into(std::span<const std::size_t> indices, Matrix& out) const {
  for (const std::size_t i : indices) {
    if (i >= rows_) throw std::out_of_range("Matrix::gather_rows");
  }
  out.resize(indices.size(), cols_);
  for (std::size_t i = 0; i < indices.size(); ++i) {
    std::copy_n(data_.data() + indices[i] * cols_, cols_, out.data_.data() + i * cols_);
  }
}

void Matrix::check_same_shape(const Matrix& other, const char* op) const {
  if (!same_shape(other)) {
    throw std::invalid_argument(std::string("Matrix::") + op + ": shape mismatch " +
                                shape_str() + " vs " + other.shape_str());
  }
}

Matrix& Matrix::operator+=(const Matrix& rhs) {
  check_same_shape(rhs, "operator+=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  for (double& v : data_) v *= s;
  return *this;
}

namespace {

// Tile sizes for the blocked GEMM: a 64x64 double tile is 32 KB, so one
// packed B tile plus the four active C rows stay resident in L1 while the
// k loop runs.
constexpr std::size_t kTileI = 64;
constexpr std::size_t kTileJ = 64;
constexpr std::size_t kTileK = 64;

// Copies columns [j0, j0 + w) of op(B) into a contiguous (k x w) row-major
// panel.  op(B) is B itself (k x n, row-major) or, with b_trans, Bᵀ where B
// is stored (n x k) — packing absorbs the transpose so the micro-kernel
// always streams the panel contiguously.
void pack_b_panel(const double* b, std::size_t ldb, bool b_trans, std::size_t k,
                  std::size_t j0, std::size_t w, double* dst) {
  if (!b_trans) {
    for (std::size_t kk = 0; kk < k; ++kk) {
      std::copy_n(b + kk * ldb + j0, w, dst + kk * w);
    }
  } else {
    for (std::size_t j = 0; j < w; ++j) {
      const double* bcol = b + (j0 + j) * ldb;
      for (std::size_t kk = 0; kk < k; ++kk) dst[kk * w + j] = bcol[kk];
    }
  }
}

// Shared serial blocked kernel: C (m x n, zero-initialized) = A (m x k) *
// op(B), with A(i, kk) at a[i * lda + kk * ka] so matmul_tn reads a stored Aᵀ
// in place (lda = 1).  All three public matmul variants route here.  The
// model's widest product is B x 40 x 8, far too small for a tile split
// across threads to pay; callers parallelize over rows instead (chunked
// predict), which the per-row accumulation order makes exact.
void gemm_blocked(std::size_t m, std::size_t n, std::size_t k, const double* a,
                  std::size_t lda, std::size_t ka, const double* b, std::size_t ldb,
                  bool b_trans, double* c, std::size_t ldc) {
  if (m == 0 || n == 0 || k == 0) return;
  // Per-thread scratch so small products don't pay a malloc per call.
  thread_local std::vector<double> panel;
  for (std::size_t j0 = 0; j0 < n; j0 += kTileJ) {
    const std::size_t w = std::min(kTileJ, n - j0);
    if (panel.size() < k * w) panel.resize(k * w);
    pack_b_panel(b, ldb, b_trans, k, j0, w, panel.data());
    for (std::size_t i0 = 0; i0 < m; i0 += kTileI) {
      const std::size_t mi = std::min(kTileI, m - i0);
      for (std::size_t k0 = 0; k0 < k; k0 += kTileK) {
        const std::size_t kk = std::min(kTileK, k - k0);
        simd::gemm_tile(a + i0 * lda + k0 * ka, lda, ka, panel.data() + k0 * w, w, mi, kk,
                        c + i0 * ldc + j0, ldc);
      }
    }
  }
}

// The *_into products accumulate into `out`, so it must not be an operand.
void check_not_operand(const Matrix& a, const Matrix& b, const Matrix& out, const char* op) {
  if (&out == &a || &out == &b) {
    throw std::invalid_argument(std::string("Matrix::") + op + ": out aliases an operand");
  }
}

}  // namespace

void Matrix::matmul_into(const Matrix& a, const Matrix& b, Matrix& out) {
  if (a.cols_ != b.rows_) {
    throw std::invalid_argument("Matrix::matmul: inner dim mismatch " + a.shape_str() +
                                " * " + b.shape_str());
  }
  check_not_operand(a, b, out, "matmul_into");
  out.assign(a.rows_, b.cols_, 0.0);
  gemm_blocked(a.rows_, b.cols_, a.cols_, a.data_.data(), a.cols_, 1, b.data_.data(),
               b.cols_, /*b_trans=*/false, out.data_.data(), out.cols_);
}

void Matrix::matmul_tn_into(const Matrix& a, const Matrix& b, Matrix& out) {
  if (a.rows_ != b.rows_) {
    throw std::invalid_argument("Matrix::matmul_tn: dim mismatch " + a.shape_str() +
                                "ᵀ * " + b.shape_str());
  }
  check_not_operand(a, b, out, "matmul_tn_into");
  out.assign(a.cols_, b.cols_, 0.0);
  gemm_blocked(a.cols_, b.cols_, a.rows_, a.data_.data(), 1, a.cols_, b.data_.data(),
               b.cols_, /*b_trans=*/false, out.data_.data(), out.cols_);
}

void Matrix::matmul_nt_into(const Matrix& a, const Matrix& b, Matrix& out) {
  if (a.cols_ != b.cols_) {
    throw std::invalid_argument("Matrix::matmul_nt: dim mismatch " + a.shape_str() + " * " +
                                b.shape_str() + "ᵀ");
  }
  check_not_operand(a, b, out, "matmul_nt_into");
  out.assign(a.rows_, b.rows_, 0.0);
  gemm_blocked(a.rows_, b.rows_, a.cols_, a.data_.data(), a.cols_, 1, b.data_.data(),
               b.cols_, /*b_trans=*/true, out.data_.data(), out.cols_);
}

Matrix Matrix::matmul(const Matrix& a, const Matrix& b) {
  Matrix out;
  matmul_into(a, b, out);
  return out;
}

void Matrix::add_row_inplace(const Matrix& row_vec) {
  if (row_vec.rows_ != 1 || row_vec.cols_ != cols_) {
    throw std::invalid_argument("Matrix::add_row_inplace: " + row_vec.shape_str() +
                                " onto " + shape_str());
  }
  for (std::size_t r = 0; r < rows_; ++r) {
    double* orow = data_.data() + r * cols_;
    for (std::size_t c = 0; c < cols_; ++c) orow[c] += row_vec.data_[c];
  }
}

void Matrix::colwise_sum_into(Matrix& out) const {
  out.assign(1, cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* irow = data_.data() + r * cols_;
    for (std::size_t c = 0; c < cols_; ++c) out.data_[c] += irow[c];
  }
}

std::string Matrix::shape_str() const {
  return "(" + std::to_string(rows_) + "x" + std::to_string(cols_) + ")";
}

}  // namespace bellamy::nn
