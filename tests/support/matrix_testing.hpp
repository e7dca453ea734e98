#pragma once
// Matrix oracles for the test suites: the naive triple-loop products the
// blocked GEMM kernels are checked against, the reductions and comparisons
// the assertions are written in, and the printer gtest uses for a Matrix in
// a failed assertion.  The library itself needs none of them.

#include <iosfwd>

#include "nn/matrix.hpp"

namespace bellamy::nn {

/// Naive triple-loop reference kernels (the pre-blocking implementations):
/// a * b, aᵀ * b and a * bᵀ.
Matrix matmul_ref(const Matrix& a, const Matrix& b);
Matrix matmul_tn_ref(const Matrix& a, const Matrix& b);
Matrix matmul_nt_ref(const Matrix& a, const Matrix& b);

/// Same shape and equal elements (EXPECT_EQ on matrices).
bool operator==(const Matrix& a, const Matrix& b);
/// max |a - b| over all entries; shapes must match.
double max_abs_diff(const Matrix& a, const Matrix& b);
/// Sum of squared entries, and the mean entry (0 for an empty matrix).
double squared_norm(const Matrix& m);
double mean(const Matrix& m);

/// gtest's printer: "[[1, 2], [3, 4]]", truncated past 8 rows or columns.
void PrintTo(const Matrix& m, std::ostream* os);

}  // namespace bellamy::nn
