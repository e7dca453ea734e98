#include "nn/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <sstream>
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
Matrix Matrix::ones(std::size_t rows, std::size_t cols) { return Matrix(rows, cols, 1.0); }

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

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

double& Matrix::at(std::size_t r, std::size_t c) {
  if (r >= rows_ || c >= cols_) {
    throw std::out_of_range("Matrix::at(" + std::to_string(r) + "," + std::to_string(c) +
                            ") on " + shape_str());
  }
  return (*this)(r, c);
}

double Matrix::at(std::size_t r, std::size_t c) const {
  return const_cast<Matrix*>(this)->at(r, c);
}

std::span<double> Matrix::row(std::size_t r) {
  if (r >= rows_) throw std::out_of_range("Matrix::row " + std::to_string(r));
  return {data_.data() + r * cols_, cols_};
}

std::span<const double> Matrix::row(std::size_t r) const {
  if (r >= rows_) throw std::out_of_range("Matrix::row " + std::to_string(r));
  return {data_.data() + r * cols_, cols_};
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  }
  return t;
}

Matrix Matrix::reshaped(std::size_t rows, std::size_t cols) const {
  if (rows * cols != data_.size()) {
    throw std::invalid_argument("Matrix::reshaped: size mismatch " + shape_str() + " -> " +
                                std::to_string(rows) + "x" + std::to_string(cols));
  }
  return Matrix(rows, cols, data_);
}

Matrix Matrix::slice_rows(std::size_t begin, std::size_t end) const {
  if (begin > end || end > rows_) throw std::out_of_range("Matrix::slice_rows");
  Matrix out(end - begin, cols_);
  std::copy(data_.begin() + static_cast<std::ptrdiff_t>(begin * cols_),
            data_.begin() + static_cast<std::ptrdiff_t>(end * cols_), out.data_.begin());
  return out;
}

Matrix Matrix::slice_cols(std::size_t begin, std::size_t end) const {
  Matrix out;
  slice_cols_into(begin, end, out);
  return out;
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

Matrix Matrix::hcat(const Matrix& a, const Matrix& b) {
  if (a.rows_ != b.rows_) {
    throw std::invalid_argument("Matrix::hcat: row mismatch " + a.shape_str() + " vs " +
                                b.shape_str());
  }
  Matrix out(a.rows_, a.cols_ + b.cols_);
  for (std::size_t r = 0; r < a.rows_; ++r) {
    std::copy_n(a.data_.data() + r * a.cols_, a.cols_, out.data_.data() + r * out.cols_);
    std::copy_n(b.data_.data() + r * b.cols_, b.cols_,
                out.data_.data() + r * out.cols_ + a.cols_);
  }
  return out;
}

Matrix Matrix::vcat(const Matrix& a, const Matrix& b) {
  if (a.cols_ != b.cols_ && !a.empty() && !b.empty()) {
    throw std::invalid_argument("Matrix::vcat: col mismatch " + a.shape_str() + " vs " +
                                b.shape_str());
  }
  if (a.empty()) return b;
  if (b.empty()) return a;
  Matrix out(a.rows_ + b.rows_, a.cols_);
  std::copy(a.data_.begin(), a.data_.end(), out.data_.begin());
  std::copy(b.data_.begin(), b.data_.end(),
            out.data_.begin() + static_cast<std::ptrdiff_t>(a.data_.size()));
  return out;
}

void Matrix::set_cols(std::size_t col_begin, const Matrix& src) {
  if (src.rows_ != rows_ || col_begin + src.cols_ > cols_) {
    throw std::invalid_argument("Matrix::set_cols: " + src.shape_str() + " into " +
                                shape_str() + " at col " + std::to_string(col_begin));
  }
  for (std::size_t r = 0; r < rows_; ++r) {
    std::copy_n(src.data_.data() + r * src.cols_, src.cols_,
                data_.data() + r * cols_ + col_begin);
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

Matrix& Matrix::operator-=(const Matrix& rhs) {
  check_same_shape(rhs, "operator-=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  for (double& v : data_) v *= s;
  return *this;
}

Matrix Matrix::hadamard(const Matrix& rhs) const {
  check_same_shape(rhs, "hadamard");
  Matrix out = *this;
  for (std::size_t i = 0; i < out.data_.size(); ++i) out.data_[i] *= rhs.data_[i];
  return out;
}

void Matrix::fill(double value) { std::fill(data_.begin(), data_.end(), value); }

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

Matrix Matrix::matmul_tn(const Matrix& a, const Matrix& b) {
  Matrix out;
  matmul_tn_into(a, b, out);
  return out;
}

Matrix Matrix::matmul_nt(const Matrix& a, const Matrix& b) {
  Matrix out;
  matmul_nt_into(a, b, out);
  return out;
}

Matrix Matrix::matmul_ref(const Matrix& a, const Matrix& b) {
  if (a.cols_ != b.rows_) {
    throw std::invalid_argument("Matrix::matmul_ref: inner dim mismatch " + a.shape_str() +
                                " * " + b.shape_str());
  }
  Matrix out(a.rows_, b.cols_, 0.0);
  // ikj loop order: streams through b and out rows contiguously.
  for (std::size_t i = 0; i < a.rows_; ++i) {
    const double* arow = a.data_.data() + i * a.cols_;
    double* orow = out.data_.data() + i * out.cols_;
    for (std::size_t k = 0; k < a.cols_; ++k) {
      const double aik = arow[k];
      const double* brow = b.data_.data() + k * b.cols_;
      for (std::size_t j = 0; j < b.cols_; ++j) orow[j] += aik * brow[j];
    }
  }
  return out;
}

Matrix Matrix::matmul_tn_ref(const Matrix& a, const Matrix& b) {
  if (a.rows_ != b.rows_) {
    throw std::invalid_argument("Matrix::matmul_tn_ref: dim mismatch " + a.shape_str() +
                                "ᵀ * " + b.shape_str());
  }
  Matrix out(a.cols_, b.cols_, 0.0);
  for (std::size_t k = 0; k < a.rows_; ++k) {
    const double* arow = a.data_.data() + k * a.cols_;
    const double* brow = b.data_.data() + k * b.cols_;
    for (std::size_t i = 0; i < a.cols_; ++i) {
      const double aki = arow[i];
      double* orow = out.data_.data() + i * out.cols_;
      for (std::size_t j = 0; j < b.cols_; ++j) orow[j] += aki * brow[j];
    }
  }
  return out;
}

Matrix Matrix::matmul_nt_ref(const Matrix& a, const Matrix& b) {
  if (a.cols_ != b.cols_) {
    throw std::invalid_argument("Matrix::matmul_nt_ref: dim mismatch " + a.shape_str() +
                                " * " + b.shape_str() + "ᵀ");
  }
  Matrix out(a.rows_, b.rows_, 0.0);
  for (std::size_t i = 0; i < a.rows_; ++i) {
    const double* arow = a.data_.data() + i * a.cols_;
    double* orow = out.data_.data() + i * out.cols_;
    for (std::size_t j = 0; j < b.rows_; ++j) {
      const double* brow = b.data_.data() + j * b.cols_;
      double dot = 0.0;
      for (std::size_t k = 0; k < a.cols_; ++k) dot += arow[k] * brow[k];
      orow[j] = dot;
    }
  }
  return out;
}

Matrix Matrix::add_row_broadcast(const Matrix& row_vec) const {
  Matrix out = *this;
  out.add_row_inplace(row_vec);
  return out;
}

void Matrix::add_row_inplace(const Matrix& row_vec) {
  if (row_vec.rows_ != 1 || row_vec.cols_ != cols_) {
    throw std::invalid_argument("Matrix::add_row_broadcast: " + row_vec.shape_str() +
                                " onto " + shape_str());
  }
  for (std::size_t r = 0; r < rows_; ++r) {
    double* orow = data_.data() + r * cols_;
    for (std::size_t c = 0; c < cols_; ++c) orow[c] += row_vec.data_[c];
  }
}

Matrix Matrix::colwise_sum() const {
  Matrix out;
  colwise_sum_into(out);
  return out;
}

void Matrix::colwise_sum_into(Matrix& out) const {
  out.assign(1, cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* irow = data_.data() + r * cols_;
    for (std::size_t c = 0; c < cols_; ++c) out.data_[c] += irow[c];
  }
}

Matrix Matrix::colwise_mean() const {
  Matrix out = colwise_sum();
  if (rows_ > 0) out *= 1.0 / static_cast<double>(rows_);
  return out;
}

Matrix Matrix::mean_of(std::span<const Matrix> ms) {
  if (ms.empty()) throw std::invalid_argument("Matrix::mean_of: empty span");
  Matrix out = ms[0];
  for (std::size_t i = 1; i < ms.size(); ++i) out += ms[i];
  out *= 1.0 / static_cast<double>(ms.size());
  return out;
}

double Matrix::sum() const {
  double s = 0.0;
  for (double v : data_) s += v;
  return s;
}

double Matrix::mean() const { return data_.empty() ? 0.0 : sum() / static_cast<double>(data_.size()); }

double Matrix::min() const {
  if (data_.empty()) throw std::runtime_error("Matrix::min on empty matrix");
  return *std::min_element(data_.begin(), data_.end());
}

double Matrix::max() const {
  if (data_.empty()) throw std::runtime_error("Matrix::max on empty matrix");
  return *std::max_element(data_.begin(), data_.end());
}

double Matrix::squared_norm() const {
  double s = 0.0;
  for (double v : data_) s += v * v;
  return s;
}

double Matrix::norm() const { return std::sqrt(squared_norm()); }

double Matrix::max_abs_diff(const Matrix& a, const Matrix& b) {
  a.check_same_shape(b, "max_abs_diff");
  double m = 0.0;
  for (std::size_t i = 0; i < a.data_.size(); ++i) {
    m = std::max(m, std::abs(a.data_[i] - b.data_[i]));
  }
  return m;
}

bool Matrix::operator==(const Matrix& other) const {
  return same_shape(other) && data_ == other.data_;
}

std::string Matrix::shape_str() const {
  return "(" + std::to_string(rows_) + "x" + std::to_string(cols_) + ")";
}

std::string Matrix::to_string(int max_rows, int max_cols) const {
  std::ostringstream os;
  os << "[";
  const auto rlim = std::min<std::size_t>(rows_, static_cast<std::size_t>(max_rows));
  const auto clim = std::min<std::size_t>(cols_, static_cast<std::size_t>(max_cols));
  for (std::size_t r = 0; r < rlim; ++r) {
    os << (r ? ", [" : "[");
    for (std::size_t c = 0; c < clim; ++c) {
      if (c) os << ", ";
      os << (*this)(r, c);
    }
    if (clim < cols_) os << ", ...";
    os << "]";
  }
  if (rlim < rows_) os << ", ...";
  os << "]";
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const Matrix& m) { return os << m.to_string(); }

}  // namespace bellamy::nn
