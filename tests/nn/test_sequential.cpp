#include "nn/sequential.hpp"

#include <gtest/gtest.h>

#include "nn/activations.hpp"
#include "nn/dropout.hpp"
#include "nn/linear.hpp"
#include "support/gradcheck.hpp"
#include "support/matrix_testing.hpp"
#include "util/rng.hpp"

namespace bellamy::nn {
namespace {

Sequential make_mlp(util::Rng& rng, bool with_dropout = false) {
  Sequential seq;
  seq.emplace<Linear>(3, 8, true, Init::kHeNormal, rng, "l1");
  seq.emplace<Selu>();
  if (with_dropout) seq.add(std::make_unique<AlphaDropout>(0.2, rng.fork()));
  seq.emplace<Linear>(8, 2, true, Init::kHeNormal, rng, "l2");
  seq.emplace<Selu>();
  return seq;
}

TEST(Sequential, ForwardShape) {
  util::Rng rng(1);
  Sequential seq = make_mlp(rng);
  const Matrix y = seq.forward(Matrix::randn(5, 3, rng));
  EXPECT_EQ(y.rows(), 5u);
  EXPECT_EQ(y.cols(), 2u);
}

TEST(Sequential, EmptySequentialIsIdentity) {
  Sequential seq;
  const Matrix x{{1.0, 2.0}};
  EXPECT_EQ(seq.forward(x), x);
  EXPECT_EQ(seq.backward(x), x);
}

TEST(Sequential, ParametersAggregated) {
  util::Rng rng(2);
  Sequential seq = make_mlp(rng);
  EXPECT_EQ(seq.parameters().size(), 4u);  // 2 layers x (weight + bias)
  EXPECT_EQ(seq.num_parameters(), 3u * 8u + 8u + 8u * 2u + 2u);
}

TEST(Sequential, GradCheckTwoLayerMlp) {
  util::Rng rng(3);
  Sequential seq = make_mlp(rng);
  seq.set_training(false);
  const auto result = grad_check(seq, Matrix::randn(4, 3, rng));
  EXPECT_TRUE(result.ok(1e-5)) << "input err " << result.max_input_grad_error << " param err "
                               << result.max_param_grad_error;
}

TEST(Sequential, SetTrainingPropagatesToDropout) {
  util::Rng rng(4);
  Sequential seq = make_mlp(rng, /*with_dropout=*/true);
  seq.set_training(false);
  const Matrix x = Matrix::randn(3, 3, rng);
  // Deterministic in eval mode.
  EXPECT_EQ(seq.forward(x), seq.forward(x));
}

// infer() is eval-mode forward without the caches: the same bits as forward
// with training off, whatever mode the module is in, on a const module.
TEST(Sequential, InferEqualsEvalForwardInAnyMode) {
  util::Rng rng(6);
  Sequential seq = make_mlp(rng, /*with_dropout=*/true);
  const Matrix x = Matrix::randn(6, 3, rng);
  seq.set_training(false);
  const Matrix eval = seq.forward(x);
  const Sequential& frozen = seq;
  EXPECT_EQ(frozen.infer(x), eval);
  seq.set_training(true);
  EXPECT_EQ(frozen.infer(x), eval);
}

TEST(Sequential, TrainingModeIsStochasticWithDropout) {
  util::Rng rng(5);
  Sequential seq = make_mlp(rng, /*with_dropout=*/true);
  seq.set_training(true);
  const Matrix x = Matrix::randn(8, 3, rng);
  const Matrix y1 = seq.forward(x);
  const Matrix y2 = seq.forward(x);
  EXPECT_GT(max_abs_diff(y1, y2), 0.0);
}

TEST(Sequential, ModuleAccess) {
  util::Rng rng(6);
  Sequential seq = make_mlp(rng);
  EXPECT_EQ(seq.num_modules(), 4u);
  EXPECT_EQ(seq.module(0).describe(), "Linear(3 -> 8, bias)");
  EXPECT_THROW(seq.module(9), std::out_of_range);
}

TEST(Sequential, DescribeListsModules) {
  util::Rng rng(7);
  Sequential seq = make_mlp(rng);
  const std::string d = seq.describe();
  EXPECT_NE(d.find("Linear(3 -> 8, bias)"), std::string::npos);
  EXPECT_NE(d.find("SELU"), std::string::npos);
}

TEST(Sequential, SetTrainableAffectsAllParameters) {
  util::Rng rng(8);
  Sequential seq = make_mlp(rng);
  seq.set_trainable(false);
  for (auto* p : seq.parameters()) EXPECT_FALSE(p->trainable);
}

// backward_params() stops at the lowest module with a trainable parameter
// and never forms the input gradient; the parameter gradients it accumulates
// are bit-identical to backward()'s, and frozen parameters get none — a
// frozen first layer, or only its weight (the layer still runs for its bias).
TEST(Sequential, BackwardParamsMatchesBackwardBitForBit) {
  enum class Freeze { kNothing, kFirstLayer, kFirstWeight };
  for (const Freeze freeze : {Freeze::kNothing, Freeze::kFirstLayer, Freeze::kFirstWeight}) {
    util::Rng rng_a(10);
    util::Rng rng_b(10);
    Sequential full = make_mlp(rng_a, /*with_dropout=*/true);
    Sequential params_only = make_mlp(rng_b, /*with_dropout=*/true);
    auto& first = static_cast<Linear&>(params_only.module(0));
    if (freeze == Freeze::kFirstLayer) first.set_trainable(false);
    if (freeze == Freeze::kFirstWeight) first.weight().trainable = false;
    util::Rng data(11);
    const Matrix x = Matrix::randn(5, 3, data);
    const Matrix grad_out = Matrix::randn(5, 2, data);
    // Two steps, so gradients accumulate as they do across a mini-batch.
    for (int step = 0; step < 2; ++step) {
      ASSERT_EQ(full.forward(x), params_only.forward(x));  // same dropout mask
      full.backward(grad_out);
      params_only.backward_params(grad_out);
    }
    const auto want = full.parameters();
    const auto got = params_only.parameters();
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (got[i]->trainable) {
        EXPECT_EQ(got[i]->grad, want[i]->grad) << got[i]->name;
      } else {
        EXPECT_EQ(squared_norm(got[i]->grad), 0.0) << got[i]->name;
      }
    }
  }
}

TEST(Sequential, BackwardMatchesChainRule) {
  // y = W2 * selu(W1 x); compare against a manually composed pipeline.
  util::Rng rng(9);
  Linear l1(2, 3, false, Init::kHeNormal, rng);
  Selu a1;
  Linear l2(3, 1, false, Init::kHeNormal, rng);

  Sequential seq;
  seq.emplace<Linear>(2, 3, false, Init::kZeros, rng);
  // Copy weights so the two pipelines are identical.
  static_cast<Linear&>(seq.module(0)).weight().value = l1.weight().value;
  seq.add(std::make_unique<Selu>());
  seq.emplace<Linear>(3, 1, false, Init::kZeros, rng);
  static_cast<Linear&>(seq.module(2)).weight().value = l2.weight().value;

  const Matrix x = Matrix::randn(4, 2, rng);
  const Matrix manual = l2.forward(a1.forward(l1.forward(x)));
  const Matrix packed = seq.forward(x);
  EXPECT_LT(max_abs_diff(manual, packed), 1e-12);

  const Matrix grad_out = Matrix(4, 1, 1.0);
  const Matrix manual_grad = l1.backward(a1.backward(l2.backward(grad_out)));
  const Matrix packed_grad = seq.backward(grad_out);
  EXPECT_LT(max_abs_diff(manual_grad, packed_grad), 1e-12);
}

}  // namespace
}  // namespace bellamy::nn
