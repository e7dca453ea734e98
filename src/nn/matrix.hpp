#pragma once
// Dense row-major matrix of doubles — the tensor substrate for the NN stack.
//
// Convention used throughout the library: a batch of B samples with D
// features is a (B x D) matrix, one sample per row.  All shapes are checked;
// shape errors throw std::invalid_argument with both operand shapes in the
// message.

#include <cassert>
#include <cstddef>
#include <initializer_list>
#include <iosfwd>
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
  /// Nested-list construction for tests: Matrix{{1,2},{3,4}}.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  static Matrix zeros(std::size_t rows, std::size_t cols);
  static Matrix ones(std::size_t rows, std::size_t cols);
  static Matrix identity(std::size_t n);
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
  double& at(std::size_t r, std::size_t c);             ///< bounds-checked
  double at(std::size_t r, std::size_t c) const;        ///< bounds-checked

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }
  std::span<double> row(std::size_t r);
  std::span<const double> row(std::size_t r) const;
  std::span<const double> flat() const { return data_; }

  // ---- shape ops -----------------------------------------------------------
  Matrix transposed() const;
  /// Reinterpret with new shape; total size must match.
  Matrix reshaped(std::size_t rows, std::size_t cols) const;
  /// Rows [begin, end) as a copy.
  Matrix slice_rows(std::size_t begin, std::size_t end) const;
  /// Columns [begin, end) as a copy.
  Matrix slice_cols(std::size_t begin, std::size_t end) const;
  /// slice_cols written into `out` (resized, storage reused).
  void slice_cols_into(std::size_t begin, std::size_t end, Matrix& out) const;
  /// Copy of the rows at the given indices, in order.
  Matrix gather_rows(std::span<const std::size_t> indices) const;
  /// gather_rows written into `out` (resized, storage reused).
  void gather_rows_into(std::span<const std::size_t> indices, Matrix& out) const;
  /// Horizontal concatenation (same row counts).
  static Matrix hcat(const Matrix& a, const Matrix& b);
  /// Vertical concatenation (same col counts).
  static Matrix vcat(const Matrix& a, const Matrix& b);
  /// Write `src` into columns [col_begin, col_begin + src.cols()).
  void set_cols(std::size_t col_begin, const Matrix& src);

  // ---- arithmetic ----------------------------------------------------------
  Matrix& operator+=(const Matrix& rhs);
  Matrix& operator-=(const Matrix& rhs);
  Matrix& operator*=(double s);
  friend Matrix operator+(Matrix lhs, const Matrix& rhs) { return lhs += rhs; }
  friend Matrix operator-(Matrix lhs, const Matrix& rhs) { return lhs -= rhs; }
  friend Matrix operator*(Matrix lhs, double s) { return lhs *= s; }
  friend Matrix operator*(double s, Matrix rhs) { return rhs *= s; }

  /// Element-wise (Hadamard) product.
  Matrix hadamard(const Matrix& rhs) const;
  /// Element-wise transform.  Templated so callables are statically dispatched
  /// (inlined) in hot loops — no std::function indirection per element.
  template <typename Fn>
  Matrix apply(Fn&& fn) const {
    Matrix out = *this;
    out.apply_inplace(std::forward<Fn>(fn));
    return out;
  }
  template <typename Fn>
  void apply_inplace(Fn&& fn) {
    for (double& v : data_) v = fn(v);
  }
  void fill(double value);
  void setZero() { fill(0.0); }

  /// Matrix product: (m x k) * (k x n) -> (m x n).  Register-blocked,
  /// cache-tiled kernel (packed B panel, i/k/j loop order, 64x64 tiles);
  /// every output row is accumulated in ascending-k order, so results are
  /// independent of how rows are batched or chunked.
  static Matrix matmul(const Matrix& a, const Matrix& b);
  /// aᵀ * b: (k x m)ᵀ (k x n) -> (m x n) without materializing aᵀ: the
  /// kernel reads aᵀ in place through a k-stride, so the result is bit for
  /// bit matmul(a.transposed(), b).
  static Matrix matmul_tn(const Matrix& a, const Matrix& b);
  /// a * bᵀ without materializing the transpose: (m x k)(n x k)ᵀ -> (m x n)
  /// (the packed B panel absorbs the transpose).
  static Matrix matmul_nt(const Matrix& a, const Matrix& b);
  /// The three products written into `out` (resized; its storage is reused,
  /// so a caller that keeps `out` across calls allocates nothing).  `out`
  /// must not be an operand.  The value-returning forms above wrap these.
  static void matmul_into(const Matrix& a, const Matrix& b, Matrix& out);
  static void matmul_tn_into(const Matrix& a, const Matrix& b, Matrix& out);
  static void matmul_nt_into(const Matrix& a, const Matrix& b, Matrix& out);

  /// Naive triple-loop reference kernels (the pre-blocking implementations),
  /// kept as the ground truth for the blocked kernels' property tests.
  static Matrix matmul_ref(const Matrix& a, const Matrix& b);
  static Matrix matmul_tn_ref(const Matrix& a, const Matrix& b);
  static Matrix matmul_nt_ref(const Matrix& a, const Matrix& b);

  /// Broadcast-add a row vector (1 x cols) to every row.
  Matrix add_row_broadcast(const Matrix& row_vec) const;
  /// add_row_broadcast in place.
  void add_row_inplace(const Matrix& row_vec);
  /// Column-wise sum -> (1 x cols).
  Matrix colwise_sum() const;
  /// colwise_sum written into `out` (resized, storage reused).
  void colwise_sum_into(Matrix& out) const;
  /// Column-wise mean -> (1 x cols).
  Matrix colwise_mean() const;
  /// Row-wise mean over a set of matrices with identical shape.
  static Matrix mean_of(std::span<const Matrix> ms);

  // ---- reductions ----------------------------------------------------------
  double sum() const;
  double mean() const;
  double min() const;
  double max() const;
  double squared_norm() const;
  double norm() const;
  /// max |a - b| over all entries; shapes must match.
  static double max_abs_diff(const Matrix& a, const Matrix& b);

  bool same_shape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }
  bool operator==(const Matrix& other) const;

  std::string shape_str() const;
  /// Debug printing ("[[1, 2], [3, 4]]", truncated for large matrices).
  std::string to_string(int max_rows = 8, int max_cols = 8) const;

 private:
  void check_same_shape(const Matrix& other, const char* op) const;

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

std::ostream& operator<<(std::ostream& os, const Matrix& m);

}  // namespace bellamy::nn
