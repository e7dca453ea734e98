// The module buffer contract (nn/module.hpp): forward() and backward() return
// references into buffers the module owns and reuses.  For Linear, SELU,
// tanh, alpha-dropout and a Sequential of them:
//
//  * forward()'s result equals infer() bit for bit at ragged sizes
//    (element counts not a multiple of the 4-wide SIMD lanes);
//  * the reference forward() returned is unchanged by backward() and
//    infer(), until the module's next forward();
//  * backward() gives the same gradients when the caller's input matrix was
//    overwritten and destroyed after forward() (the module kept its own
//    copy, never a reference);
//  * a batch-size sequence 64 -> 2 -> 64 (a pretrain's ragged last batch
//    followed by a full one) leaves nothing behind: the last step matches a
//    fresh module's bit for bit, although the buffers shrank and regrew;
//    so does a step after release_buffers().

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "nn/activations.hpp"
#include "nn/dropout.hpp"
#include "nn/linear.hpp"
#include "nn/sequential.hpp"
#include "util/rng.hpp"

namespace bellamy::nn {
namespace {

enum class Kind { kLinear, kSelu, kTanh, kDropout, kSequential };
const Kind kKinds[] = {Kind::kLinear, Kind::kSelu, Kind::kTanh, Kind::kDropout,
                       Kind::kSequential};
constexpr std::size_t kIn = 7;  // ragged: 7 * rows is rarely a multiple of 4
constexpr double kRate = 0.2;

std::string name(Kind k) {
  switch (k) {
    case Kind::kLinear: return "Linear";
    case Kind::kSelu: return "Selu";
    case Kind::kTanh: return "Tanh";
    case Kind::kDropout: return "AlphaDropout";
    case Kind::kSequential: return "Sequential";
  }
  return "?";
}

/// An alpha-dropout whose mask stream starts `skip` draws in, so a fresh
/// module can line up with one that already drew `skip` mask entries.
ModulePtr make_dropout(std::uint64_t seed, std::size_t skip) {
  util::Rng rng(seed);
  for (std::size_t i = 0; i < skip; ++i) rng.bernoulli(kRate);
  return std::make_unique<AlphaDropout>(kRate, rng);
}

/// Deterministic modules: the same kind and skip give the same module.
/// `rows_drawn` is how many input rows the dropout of a fresh twin should
/// treat as already masked.
ModulePtr make(Kind kind, std::size_t rows_drawn = 0) {
  util::Rng rng(41);
  switch (kind) {
    case Kind::kLinear:
      return std::make_unique<Linear>(kIn, 5, true, Init::kHeNormal, rng, "l");
    case Kind::kSelu: return std::make_unique<Selu>();
    case Kind::kTanh: return std::make_unique<Tanh>();
    case Kind::kDropout: return make_dropout(43, rows_drawn * kIn);
    case Kind::kSequential: {
      auto seq = std::make_unique<Sequential>();
      seq->emplace<Linear>(kIn, 6, true, Init::kHeNormal, rng, "a");
      seq->add(std::make_unique<Selu>());
      seq->add(make_dropout(47, rows_drawn * 6));
      seq->emplace<Linear>(6, 5, false, Init::kHeNormal, rng, "b");
      seq->add(std::make_unique<Tanh>());
      return seq;
    }
  }
  return nullptr;
}

std::size_t out_cols(Kind kind) {
  return kind == Kind::kLinear || kind == Kind::kSequential ? 5 : kIn;
}

Matrix input(std::size_t rows, std::uint64_t seed) {
  util::Rng rng(seed);
  return Matrix::randn(rows, kIn, rng, 0.0, 2.0);
}

Matrix grad(Kind kind, std::size_t rows, std::uint64_t seed) {
  util::Rng rng(seed);
  return Matrix::randn(rows, out_cols(kind), rng);
}

std::vector<Matrix> param_grads(Module& m) {
  std::vector<Matrix> out;
  for (const Parameter* p : m.parameters()) out.push_back(p->grad);
  return out;
}

TEST(ModuleBuffers, ForwardEqualsInferBitForBitAtRaggedSizes) {
  for (const Kind kind : kKinds) {
    for (const std::size_t rows : {1, 3, 13, 66}) {
      ModulePtr m = make(kind);
      // Training-mode dropout draws a mask that infer() never applies.
      const bool has_dropout = kind == Kind::kDropout || kind == Kind::kSequential;
      m->set_training(!has_dropout);
      const Matrix x = input(rows, rows);
      const Matrix want = m->infer(x);
      EXPECT_EQ(m->forward(x), want) << name(kind) << " rows " << rows;
    }
  }
}

TEST(ModuleBuffers, ForwardResultIsStableUntilTheNextForward) {
  for (const Kind kind : kKinds) {
    ModulePtr m = make(kind);
    const Matrix& y = m->forward(input(13, 1));  // the caller's input is a temporary
    const Matrix kept = y;
    m->backward(grad(kind, 13, 2));
    m->infer(input(9, 3));
    m->backward(grad(kind, 13, 4));
    EXPECT_EQ(y, kept) << name(kind);
  }
}

TEST(ModuleBuffers, BackwardDoesNotDependOnTheCallersInput) {
  for (const Kind kind : kKinds) {
    const Matrix x = input(13, 5);
    const Matrix g = grad(kind, 13, 6);

    ModulePtr reference = make(kind);
    reference->forward(x);
    const Matrix want = reference->backward(g);

    ModulePtr m = make(kind);
    auto owned = std::make_unique<Matrix>(x);
    m->forward(*owned);
    owned->fill(std::numeric_limits<double>::quiet_NaN());
    owned.reset();
    EXPECT_EQ(m->backward(g), want) << name(kind);
    const auto got_params = param_grads(*m);
    const auto want_params = param_grads(*reference);
    ASSERT_EQ(got_params.size(), want_params.size());
    for (std::size_t i = 0; i < got_params.size(); ++i) {
      EXPECT_EQ(got_params[i], want_params[i]) << name(kind) << " parameter " << i;
    }
  }
}

/// Runs forward/backward at each batch size in `rows` (then releases the
/// buffers when asked), and checks that one more 64-row step matches a
/// fresh module's bit for bit.
void expect_next_step_matches_fresh(Kind kind, const std::vector<std::size_t>& rows,
                                    bool release) {
  ModulePtr m = make(kind);
  std::size_t drawn = 0;
  for (const std::size_t r : rows) {
    m->forward(input(r, 10 + r));
    m->backward(grad(kind, r, 20 + r));
    drawn += r;
  }
  if (release) m->release_buffers();
  m->zero_grad();
  const Matrix x = input(64, 30);
  const Matrix g = grad(kind, 64, 31);
  const Matrix y = m->forward(x);
  const Matrix dx = m->backward(g);

  ModulePtr fresh = make(kind, drawn);
  EXPECT_EQ(y, fresh->forward(x)) << name(kind);
  EXPECT_EQ(dx, fresh->backward(g)) << name(kind);
  const auto got_params = param_grads(*m);
  const auto want_params = param_grads(*fresh);
  ASSERT_EQ(got_params.size(), want_params.size());
  for (std::size_t i = 0; i < got_params.size(); ++i) {
    EXPECT_EQ(got_params[i], want_params[i]) << name(kind) << " parameter " << i;
  }
}

TEST(ModuleBuffers, RaggedBatchSequenceMatchesAFreshModule) {
  for (const Kind kind : kKinds) expect_next_step_matches_fresh(kind, {64, 2}, false);
}

TEST(ModuleBuffers, StepAfterReleaseMatchesAFreshModule) {
  for (const Kind kind : kKinds) expect_next_step_matches_fresh(kind, {64}, true);
}

}  // namespace
}  // namespace bellamy::nn
