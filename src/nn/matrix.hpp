#pragma once
// Dense row-major matrix of doubles — the tensor substrate for the NN stack.
//
// Convention used throughout the library: a batch of B samples with D
// features is a (B x D) matrix, one sample per row.  All shapes are checked;
// shape errors throw std::invalid_argument with both operand shapes in the
// message.

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <initializer_list>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace bellamy::util {
class Rng;
}

namespace bellamy::nn {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);
  Matrix(std::size_t rows, std::size_t cols, std::vector<double> data);
  /// Nested-list construction: Matrix{{1,2},{3,4}}.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  static Matrix zeros(std::size_t rows, std::size_t cols);
  /// i.i.d. N(mean, stddev) entries.
  static Matrix randn(std::size_t rows, std::size_t cols, util::Rng& rng,
                      double mean = 0.0, double stddev = 1.0);
  /// i.i.d. U[lo, hi) entries.
  static Matrix rand_uniform(std::size_t rows, std::size_t cols, util::Rng& rng,
                             double lo = 0.0, double hi = 1.0);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }
  /// Give the matrix a new shape, keeping its storage: no allocation while
  /// rows * cols fits the capacity it has had.  Element values are
  /// unspecified afterwards; callers overwrite them.
  void resize(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }
  /// resize, then set every element to `value` (one pass).
  void assign(std::size_t rows, std::size_t cols, double value) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, value);
  }

  /// Unchecked element access, inline so per-element loops stay call-free;
  /// builds without NDEBUG assert the bounds (the sanitizer CI job does).
  double& operator()(std::size_t r, std::size_t c) {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }
  std::span<const double> flat() const { return data_; }

  // ---- shape ops -----------------------------------------------------------
  /// Copy of the rows at the given indices, in order.
  Matrix gather_rows(std::span<const std::size_t> indices) const;
  /// Columns [begin, end) written into `out` (resized, storage reused).
  void slice_cols_into(std::size_t begin, std::size_t end, Matrix& out) const;
  /// gather_rows written into `out` (resized, storage reused).
  void gather_rows_into(std::span<const std::size_t> indices, Matrix& out) const;

  // ---- arithmetic ----------------------------------------------------------
  Matrix& operator+=(const Matrix& rhs);
  Matrix& operator*=(double s);

  /// Element-wise transform.  Templated so callables are statically dispatched
  /// (inlined) in hot loops — no std::function indirection per element.
  template <typename Fn>
  void apply_inplace(Fn&& fn) {
    for (double& v : data_) v = fn(v);
  }
  void setZero() { std::fill(data_.begin(), data_.end(), 0.0); }

  /// Matrix product: (m x k) * (k x n) -> (m x n).  Register-blocked,
  /// cache-tiled kernel (packed B panel, i/k/j loop order, 64x64 tiles);
  /// every output row is accumulated in ascending-k order, so results are
  /// independent of how rows are batched or chunked.
  static Matrix matmul(const Matrix& a, const Matrix& b);
  /// a * b, aᵀ * b and a * bᵀ written into `out` (resized; its storage is
  /// reused, so a caller that keeps `out` across calls allocates nothing).
  /// `out` must not be an operand.  Neither transpose is materialized: aᵀ is
  /// read in place through a k-stride (bit for bit the product with aᵀ
  /// stored) and the packed B panel absorbs bᵀ.
  static void matmul_into(const Matrix& a, const Matrix& b, Matrix& out);
  static void matmul_tn_into(const Matrix& a, const Matrix& b, Matrix& out);
  static void matmul_nt_into(const Matrix& a, const Matrix& b, Matrix& out);

  /// Broadcast-add a row vector (1 x cols) to every row, in place.
  void add_row_inplace(const Matrix& row_vec);
  /// Column-wise sum -> (1 x cols), written into `out` (resized, storage
  /// reused).
  void colwise_sum_into(Matrix& out) const;

  bool same_shape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  std::string shape_str() const;

 private:
  void check_same_shape(const Matrix& other, const char* op) const;

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace bellamy::nn
