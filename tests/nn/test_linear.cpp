#include "nn/linear.hpp"

#include <gtest/gtest.h>

#include "support/gradcheck.hpp"
#include "support/matrix_testing.hpp"
#include "util/rng.hpp"

namespace bellamy::nn {
namespace {

TEST(Linear, ForwardShape) {
  util::Rng rng(1);
  Linear layer(3, 5, true, Init::kHeNormal, rng);
  const Matrix x(7, 3, 0.5);
  const Matrix y = layer.forward(x);
  EXPECT_EQ(y.rows(), 7u);
  EXPECT_EQ(y.cols(), 5u);
}

TEST(Linear, ForwardComputesAffineMap) {
  util::Rng rng(2);
  Linear layer(2, 1, true, Init::kZeros, rng);
  layer.weight().value = Matrix{{2.0, 3.0}};
  layer.bias().value = Matrix{{0.5}};
  const Matrix x{{1.0, 1.0}, {2.0, -1.0}};
  const Matrix y = layer.forward(x);
  EXPECT_DOUBLE_EQ(y(0, 0), 5.5);   // 2 + 3 + 0.5
  EXPECT_DOUBLE_EQ(y(1, 0), 1.5);   // 4 - 3 + 0.5
}

TEST(Linear, NoBiasOmitsOffset) {
  util::Rng rng(3);
  Linear layer(2, 1, false, Init::kZeros, rng);
  layer.weight().value = Matrix{{1.0, 1.0}};
  const Matrix y = layer.forward(Matrix{{2.0, 3.0}});
  EXPECT_DOUBLE_EQ(y(0, 0), 5.0);
  EXPECT_THROW(layer.bias(), std::logic_error);
}

TEST(Linear, WrongInputWidthThrows) {
  util::Rng rng(4);
  Linear layer(3, 2, true, Init::kHeNormal, rng);
  EXPECT_THROW(layer.forward(Matrix(1, 4)), std::invalid_argument);
}

TEST(Linear, ParametersExposed) {
  util::Rng rng(5);
  Linear biased(3, 2, true, Init::kHeNormal, rng, "lin");
  EXPECT_EQ(biased.parameters().size(), 2u);
  EXPECT_EQ(biased.parameters()[0]->name, "lin.weight");
  EXPECT_EQ(biased.parameters()[1]->name, "lin.bias");
  Linear unbiased(3, 2, false, Init::kHeNormal, rng);
  EXPECT_EQ(unbiased.parameters().size(), 1u);
}

TEST(Linear, NumParameters) {
  util::Rng rng(6);
  Linear layer(3, 2, true, Init::kHeNormal, rng);
  EXPECT_EQ(layer.num_parameters(), 3u * 2u + 2u);
}

TEST(Linear, GradCheckWithBias) {
  util::Rng rng(7);
  Linear layer(4, 3, true, Init::kHeNormal, rng);
  const Matrix x = Matrix::randn(5, 4, rng);
  const auto result = grad_check(layer, x);
  EXPECT_LT(result.max_input_grad_error, 1e-6);
  EXPECT_LT(result.max_param_grad_error, 1e-6);
}

TEST(Linear, GradCheckNoBias) {
  util::Rng rng(8);
  Linear layer(3, 6, false, Init::kLeCunNormal, rng);
  const Matrix x = Matrix::randn(2, 3, rng);
  const auto result = grad_check(layer, x);
  EXPECT_TRUE(result.ok(1e-6)) << "input err " << result.max_input_grad_error << " param err "
                               << result.max_param_grad_error;
}

TEST(Linear, BackwardAccumulatesGradients) {
  util::Rng rng(9);
  Linear layer(2, 2, true, Init::kHeNormal, rng);
  const Matrix x = Matrix::randn(3, 2, rng);
  const Matrix y = layer.forward(x);
  layer.backward(Matrix(3, 2, 1.0));
  const Matrix first = layer.weight().grad;
  layer.forward(x);
  layer.backward(Matrix(3, 2, 1.0));
  Matrix twice = first;
  twice *= 2.0;
  EXPECT_LT(max_abs_diff(layer.weight().grad, twice), 1e-12);
  (void)y;
}

TEST(Linear, ZeroGradClears) {
  util::Rng rng(10);
  Linear layer(2, 2, true, Init::kHeNormal, rng);
  layer.forward(Matrix::randn(1, 2, rng));
  layer.backward(Matrix(1, 2, 1.0));
  layer.zero_grad();
  EXPECT_DOUBLE_EQ(squared_norm(layer.weight().grad), 0.0);
}

TEST(Linear, BackwardShapeMismatchThrows) {
  util::Rng rng(11);
  Linear layer(2, 3, true, Init::kHeNormal, rng);
  layer.forward(Matrix(4, 2));
  EXPECT_THROW(layer.backward(Matrix(4, 2)), std::invalid_argument);
  EXPECT_THROW(layer.backward(Matrix(3, 3)), std::invalid_argument);
}

TEST(Linear, ReinitializeChangesWeightsZeroesBias) {
  util::Rng rng(12);
  Linear layer(4, 4, true, Init::kHeNormal, rng);
  layer.bias().value.apply_inplace([](double) { return 7.0; });
  const Matrix before = layer.weight().value;
  layer.reinitialize(Init::kHeNormal, rng);
  EXPECT_GT(max_abs_diff(before, layer.weight().value), 1e-9);
  EXPECT_DOUBLE_EQ(squared_norm(layer.bias().value), 0.0);
}

TEST(Linear, TrainableFlagToggles) {
  util::Rng rng(13);
  Linear layer(2, 2, true, Init::kHeNormal, rng);
  layer.set_trainable(false);
  for (auto* p : layer.parameters()) EXPECT_FALSE(p->trainable);
  layer.set_trainable(true);
  for (auto* p : layer.parameters()) EXPECT_TRUE(p->trainable);
}

TEST(Linear, Describe) {
  util::Rng rng(14);
  EXPECT_EQ(Linear(3, 2, true, Init::kHeNormal, rng).describe(), "Linear(3 -> 2, bias)");
  EXPECT_EQ(Linear(3, 2, false, Init::kHeNormal, rng).describe(), "Linear(3 -> 2, no bias)");
}

}  // namespace
}  // namespace bellamy::nn
