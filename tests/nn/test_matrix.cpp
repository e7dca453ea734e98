#include "nn/matrix.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <utility>

#include "core/bellamy_config.hpp"
#include "support/matrix_testing.hpp"
#include "util/rng.hpp"

namespace bellamy::nn {
namespace {

// The production products write into a caller's buffer; the tests read
// them by value.
Matrix matmul_tn(const Matrix& a, const Matrix& b) {
  Matrix out;
  Matrix::matmul_tn_into(a, b, out);
  return out;
}

Matrix matmul_nt(const Matrix& a, const Matrix& b) {
  Matrix out;
  Matrix::matmul_nt_into(a, b, out);
  return out;
}

// The explicit transpose the in-place transposed products are checked
// against.
Matrix transposed(const Matrix& m) {
  Matrix t(m.cols(), m.rows());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) t(c, r) = m(r, c);
  }
  return t;
}

Matrix identity(std::size_t n) {
  Matrix m(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix slice_rows(const Matrix& m, std::size_t begin, std::size_t end) {
  std::vector<std::size_t> rows(end - begin);
  std::iota(rows.begin(), rows.end(), begin);
  return m.gather_rows(rows);
}

TEST(Matrix, ConstructionAndAccess) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
}

#ifndef NDEBUG
// Element access is unchecked in release builds; with asserts on (the
// sanitizer CI job) an index past a row is caught even where it still lands
// inside the matrix's allocation and ASan would see nothing.
TEST(MatrixDeathTest, ElementAccessAssertsItsBounds) {
  Matrix m(2, 3);
  const Matrix& cm = m;
  EXPECT_DEATH(m(2, 0) = 1.0, "rows_");
  EXPECT_DEATH(m(0, 3) = 1.0, "cols_");  // flat index 3 is row 1, in bounds
  EXPECT_DEATH(static_cast<void>(cm(1, 3)), "cols_");
}
#endif

TEST(Matrix, InitializerList) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(Matrix, DataSizeMismatchThrows) {
  EXPECT_THROW(Matrix(2, 2, std::vector<double>{1.0, 2.0, 3.0}), std::invalid_argument);
}

TEST(Matrix, SliceCols) {
  Matrix m{{1.0, 2.0, 3.0}};
  Matrix s;
  m.slice_cols_into(1, 3, s);
  EXPECT_EQ(s.cols(), 2u);
  EXPECT_DOUBLE_EQ(s(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(s(0, 1), 3.0);
}

TEST(Matrix, GatherRows) {
  Matrix m{{1.0}, {2.0}, {3.0}};
  const std::vector<std::size_t> idx{2, 0};
  const Matrix g = m.gather_rows(idx);
  EXPECT_DOUBLE_EQ(g(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(g(1, 0), 1.0);
}

TEST(Matrix, ArithmeticShapeMismatchThrows) {
  Matrix a(1, 2);
  Matrix b(2, 1);
  EXPECT_THROW(a += b, std::invalid_argument);
}

TEST(Matrix, Apply) {
  Matrix sq{{1.0, -2.0}};
  sq.apply_inplace([](double v) { return v * v; });
  EXPECT_DOUBLE_EQ(sq(0, 1), 4.0);
}

TEST(Matrix, MatmulKnownResult) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  Matrix b{{5.0, 6.0}, {7.0, 8.0}};
  const Matrix c = Matrix::matmul(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Matrix, MatmulShapeMismatchThrows) {
  Matrix a(2, 3);
  Matrix b(2, 3);
  EXPECT_THROW(Matrix::matmul(a, b), std::invalid_argument);
}

TEST(Matrix, MatmulIdentity) {
  util::Rng rng(2);
  const Matrix m = Matrix::randn(4, 4, rng);
  EXPECT_LT(max_abs_diff(Matrix::matmul(m, identity(4)), m), 1e-15);
}

TEST(Matrix, MatmulTnMatchesExplicitTranspose) {
  util::Rng rng(3);
  const Matrix a = Matrix::randn(6, 4, rng);
  const Matrix b = Matrix::randn(6, 5, rng);
  const Matrix expect = Matrix::matmul(transposed(a), b);
  EXPECT_LT(max_abs_diff(matmul_tn(a, b), expect), 1e-12);
}

// matmul_tn reads aᵀ in place through a k-stride; it must give exactly the
// bits of the product with an explicit transpose.  Covers the weight-gradient
// product of every Linear layer of the default model, at batch sizes where
// the batch (the inner dimension) is ragged, a full 64-deep k tile, and
// crosses into a second and third k tile.
TEST(Matrix, MatmulTnBitIdenticalToTransposedMatmul) {
  const core::BellamyConfig c;
  const std::pair<std::size_t, std::size_t> linears[] = {
      {c.scaleout_input, c.scaleout_hidden},   {c.scaleout_hidden, c.scaleout_out},
      {c.property_dim, c.encoder_hidden},      {c.encoder_hidden, c.code_dim},
      {c.code_dim, c.encoder_hidden},          {c.encoder_hidden, c.property_dim},
      {c.combined_dim(), c.predictor_hidden},  {c.predictor_hidden, 1}};
  util::Rng rng(5);
  for (const auto& [in, out] : linears) {
    for (const std::size_t batch : {1, 3, 5, 25, 64, 65, 130}) {
      const Matrix grad = Matrix::randn(batch, out, rng);
      const Matrix input = Matrix::randn(batch, in, rng);
      // dL/dW = gradᵀ input, and the reverse orientation for good measure.
      for (const auto& [a, b] : {std::pair{&grad, &input}, std::pair{&input, &grad}}) {
        const Matrix got = matmul_tn(*a, *b);
        const Matrix want = Matrix::matmul(transposed(*a), *b);
        ASSERT_TRUE(got.same_shape(want));
        for (std::size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(got.data()[i]),
                    std::bit_cast<std::uint64_t>(want.data()[i]))
              << a->shape_str() << "ᵀ * " << b->shape_str() << " flat index " << i;
        }
      }
    }
  }
}

TEST(Matrix, MatmulNtMatchesExplicitTranspose) {
  util::Rng rng(4);
  const Matrix a = Matrix::randn(3, 7, rng);
  const Matrix b = Matrix::randn(5, 7, rng);
  const Matrix expect = Matrix::matmul(a, transposed(b));
  EXPECT_LT(max_abs_diff(matmul_nt(a, b), expect), 1e-12);
}

// ---- blocked-GEMM property tests -------------------------------------------
//
// The blocked kernels must agree with the naive matmul*_ref triple loops on
// every shape, in particular around the 64x64 tile and 4x8 register-block
// boundaries.  Tolerances scale with the inner dimension: the blocked path
// may use fused multiply-adds, so results are equal only up to rounding.

double gemm_tol(std::size_t inner) {
  return 1e-13 * static_cast<double>(std::max<std::size_t>(inner, 1));
}

struct GemmShape {
  std::size_t m, k, n;
};

class BlockedGemmSweep : public ::testing::TestWithParam<GemmShape> {};

TEST_P(BlockedGemmSweep, MatchesNaiveReference) {
  const auto [m, k, n] = GetParam();
  util::Rng rng(m * 131 + k * 17 + n);
  const Matrix a = Matrix::randn(m, k, rng);
  const Matrix b = Matrix::randn(k, n, rng);
  const Matrix bt = transposed(b);  // (n x k) for the nt variant
  const Matrix at = transposed(a);  // (k x m) for the tn variant
  const double tol = gemm_tol(k);
  EXPECT_LE(max_abs_diff(Matrix::matmul(a, b), matmul_ref(a, b)), tol);
  EXPECT_LE(max_abs_diff(matmul_tn(at, b), matmul_tn_ref(at, b)),
            tol);
  EXPECT_LE(max_abs_diff(matmul_nt(a, bt), matmul_nt_ref(a, bt)),
            tol);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BlockedGemmSweep,
    ::testing::Values(GemmShape{1, 1, 1},       // degenerate scalar
                      GemmShape{1, 40, 8},      // one Bellamy encoder row
                      GemmShape{4, 8, 4},       // exact register block
                      GemmShape{5, 9, 7},       // every remainder path at once
                      GemmShape{63, 65, 66},    // straddles the 64-tile on all dims
                      GemmShape{64, 64, 64},    // exactly one tile
                      GemmShape{64, 128, 72},   // multiple k tiles + ragged j
                      GemmShape{130, 40, 8},    // encoder-shaped, ragged i tile
                      GemmShape{256, 3, 16},    // tiny inner dimension
                      GemmShape{4096, 40, 8}),  // the B=4096 bench forward shape
    [](const auto& info) {
      return "m" + std::to_string(info.param.m) + "_k" + std::to_string(info.param.k) +
             "_n" + std::to_string(info.param.n);
    });

TEST(Matrix, BlockedGemmRandomizedShapes) {
  // Randomized shape fuzz around the tile/register boundaries.
  util::Rng rng(1234);
  const std::size_t interesting[] = {1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17,
                                     31, 32, 33, 63, 64, 65, 96, 127, 128, 130};
  const std::size_t count = sizeof(interesting) / sizeof(interesting[0]);
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t m = interesting[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(count) - 1))];
    const std::size_t k = interesting[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(count) - 1))];
    const std::size_t n = interesting[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(count) - 1))];
    const Matrix a = Matrix::randn(m, k, rng);
    const Matrix b = Matrix::randn(k, n, rng);
    const double tol = gemm_tol(k);
    EXPECT_LE(max_abs_diff(Matrix::matmul(a, b), matmul_ref(a, b)), tol)
        << "m=" << m << " k=" << k << " n=" << n;
    const Matrix bt = transposed(b);
    EXPECT_LE(max_abs_diff(matmul_nt(a, bt), matmul_nt_ref(a, bt)),
              tol)
        << "m=" << m << " k=" << k << " n=" << n;
    const Matrix at = transposed(a);
    EXPECT_LE(max_abs_diff(matmul_tn(at, b), matmul_tn_ref(at, b)),
              tol)
        << "m=" << m << " k=" << k << " n=" << n;
  }
}

TEST(Matrix, BlockedGemmZeroDimensionEdges) {
  // 0-row / 0-col operands produce empty (but correctly shaped) outputs.
  const Matrix a0(0, 5);
  const Matrix b(5, 3);
  const Matrix c0 = Matrix::matmul(a0, b);
  EXPECT_EQ(c0.rows(), 0u);
  EXPECT_EQ(c0.cols(), 3u);

  const Matrix a(4, 5);
  const Matrix bn(5, 0);
  const Matrix cn = Matrix::matmul(a, bn);
  EXPECT_EQ(cn.rows(), 4u);
  EXPECT_EQ(cn.cols(), 0u);

  // k = 0: the product over an empty inner dimension is all zeros.
  const Matrix ak(3, 0);
  const Matrix bk(0, 2);
  const Matrix ck = Matrix::matmul(ak, bk);
  EXPECT_EQ(ck.rows(), 3u);
  EXPECT_EQ(ck.cols(), 2u);
  EXPECT_DOUBLE_EQ(squared_norm(ck), 0.0);

  EXPECT_EQ(matmul_tn(Matrix(0, 3), Matrix(0, 2)).rows(), 3u);
  EXPECT_EQ(matmul_nt(Matrix(2, 0), Matrix(3, 0)).cols(), 3u);
}

TEST(Matrix, BlockedGemmRowResultsIndependentOfBatchRows) {
  // A row of the output must be bit-identical no matter which batch it is
  // computed in — the invariant that makes chunked prediction exact.
  util::Rng rng(9);
  const Matrix a = Matrix::randn(100, 40, rng);
  const Matrix w = Matrix::randn(8, 40, rng);
  const Matrix full = matmul_nt(a, w);
  for (const auto& [begin, end] : {std::pair<std::size_t, std::size_t>{0, 1},
                                  std::pair<std::size_t, std::size_t>{37, 59},
                                  std::pair<std::size_t, std::size_t>{95, 100}}) {
    const Matrix part = matmul_nt(slice_rows(a, begin, end), w);
    EXPECT_EQ(part, slice_rows(full, begin, end)) << begin << ".." << end;
  }
}

TEST(Matrix, AddRowBroadcast) {
  Matrix out{{1.0, 2.0}, {3.0, 4.0}};
  Matrix row{{10.0, 20.0}};
  out.add_row_inplace(row);
  EXPECT_DOUBLE_EQ(out(0, 0), 11.0);
  EXPECT_DOUBLE_EQ(out(1, 1), 24.0);
  EXPECT_THROW(out.add_row_inplace(Matrix(1, 3)), std::invalid_argument);
}

TEST(Matrix, ColwiseSum) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  Matrix s;
  m.colwise_sum_into(s);
  EXPECT_DOUBLE_EQ(s(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(s(0, 1), 6.0);
}

TEST(Matrix, RandnStatistics) {
  util::Rng rng(5);
  const Matrix m = Matrix::randn(200, 200, rng, 1.0, 2.0);
  EXPECT_NEAR(mean(m), 1.0, 0.05);
}

TEST(Matrix, ShapeStr) {
  EXPECT_EQ(Matrix(2, 3).shape_str(), "(2x3)");
}

}  // namespace
}  // namespace bellamy::nn
