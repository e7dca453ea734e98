// Parity of the five dispatched kernel pairs in nn/simd.hpp with their
// portable twins (simd::ref).  Element-wise kernels are swept over odd
// lengths (1, 7, 31, 4096+3) so full blocks, short arrays, and ragged tails
// are all exercised; the GEMM tile over ragged mi % 4 / w % 8 shapes.
//
//  * adam_update and tanh_backward must match the portable twin EXACTLY
//    (both spell out their fused multiply-adds, so rounding is identical).
//  * selu_forward and selu_forward_deriv use a vectorized exp on the AVX2
//    path and agree with std::exp to ~1 ulp — compared with a tight
//    absolute+relative tolerance.  Within a twin, selu_forward_deriv's
//    output equals selu_forward's bit for bit (the training forward and
//    infer() must agree), and the portable derivative is exactly the factor
//    the SELU backward used to recompute, scale or scale * alpha * exp(x).
//  * tanh_forward is a vectorized Cephes tanh: within 2 ulp of std::tanh,
//    counted in ulps, over a dense sweep and the edge inputs.
//  * gemm_tile fuses on the AVX2 path only, so the twins agree within 1e-12
//    of the product's magnitude; each twin on its own gives an element the
//    same bits whether its row is computed alone or inside a taller tile,
//    and whether its column lands in a full 8-wide block or the masked edge.
//    Every shape runs with A row-major and with A read transposed in place.
//  * Split-processing tests certify position independence: processing an
//    array in two pieces equals processing it whole, the property chunked
//    prediction relies on.
//
// On hardware without AVX2 the dispatch falls back to the portable twin and
// the parity checks degenerate to self-checks, which is the intended
// behaviour.

#include "nn/simd.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "nn/activations.hpp"
#include "util/rng.hpp"

namespace bellamy::nn::simd {
namespace {

const std::size_t kLengths[] = {1, 7, 31, 4096 + 3};

std::vector<double> random_values(std::size_t n, std::uint64_t seed, double scale = 3.0) {
  util::Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.normal(0.0, scale);
  // Sprinkle exact zeros and larger magnitudes so branchy kernels see every
  // path (selu kink and saturation).
  if (n > 2) v[n / 2] = 0.0;
  if (n > 4) v[n / 4] = 50.0;
  if (n > 8) v[3 * n / 4] = -50.0;
  return v;
}

void expect_exact(const std::vector<double>& got, const std::vector<double>& want,
                  const char* what, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(got[i], want[i]) << what << " length " << n << " index " << i;
  }
}

void expect_close(const std::vector<double>& got, const std::vector<double>& want,
                  const char* what, std::size_t n, double tol) {
  for (std::size_t i = 0; i < n; ++i) {
    const double bound = tol * (1.0 + std::abs(want[i]));
    EXPECT_NEAR(got[i], want[i], bound) << what << " length " << n << " index " << i;
  }
}

TEST(SimdKernels, SeluForwardAndDerivParityClose) {
  for (const std::size_t n : kLengths) {
    auto x1 = random_values(n, 27);
    auto x2 = x1;
    selu_forward(x1.data(), n);
    ref::selu_forward(x2.data(), n);
    expect_close(x1, x2, "selu_forward", n, 1e-13);

    auto y1 = random_values(n, 28);
    auto y2 = y1;
    std::vector<double> d1(n), d2(n);
    selu_forward_deriv(y1.data(), d1.data(), n);
    ref::selu_forward_deriv(y2.data(), d2.data(), n);
    expect_close(y1, y2, "selu_forward_deriv output", n, 1e-13);
    expect_close(d1, d2, "selu_forward_deriv derivative", n, 1e-13);
  }
}

TEST(SimdKernels, SeluForwardDerivOutputIsSeluForwardBitForBit) {
  using Forward = void (*)(double*, std::size_t);
  using ForwardDeriv = void (*)(double*, double*, std::size_t);
  const std::pair<Forward, ForwardDeriv> twins[] = {{selu_forward, selu_forward_deriv},
                                                    {ref::selu_forward, ref::selu_forward_deriv}};
  for (const auto& [forward, forward_deriv] : twins) {
    for (const std::size_t n : kLengths) {
      auto want = random_values(n, 30);
      auto got = want;
      std::vector<double> d(n);
      forward(want.data(), n);
      forward_deriv(got.data(), d.data(), n);
      expect_exact(got, want, "selu_forward_deriv vs selu_forward", n);
    }
  }
}

TEST(SimdKernels, SeluForwardDerivIsTheBackwardFactor) {
  // The portable SELU backward multiplied the gradient by exactly this
  // factor; storing it in forward must not change a bit of training.
  const double sa = kSeluScale * kSeluAlpha;
  for (const std::size_t n : kLengths) {
    const auto x = random_values(n, 31);
    std::vector<double> factor(n);
    for (std::size_t i = 0; i < n; ++i) {
      factor[i] = x[i] > 0.0 ? kSeluScale : sa * std::exp(x[i]);
    }
    auto y = x;
    std::vector<double> d(n);
    ref::selu_forward_deriv(y.data(), d.data(), n);
    expect_exact(d, factor, "ref::selu_forward_deriv derivative", n);
  }
}

// Distance in representable doubles between two finite values of the same
// sign (or zeros): the ulp count the tanh contract is stated in.
std::uint64_t ulp_distance(double a, double b) {
  const auto ia = std::bit_cast<std::int64_t>(a);
  const auto ib = std::bit_cast<std::int64_t>(b);
  return ia > ib ? static_cast<std::uint64_t>(ia - ib) : static_cast<std::uint64_t>(ib - ia);
}

void expect_tanh_within_2ulp(const std::vector<double>& x) {
  auto got = x;
  auto want = x;
  tanh_forward(got.data(), got.size());
  ref::tanh_forward(want.data(), want.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (std::isnan(x[i])) {
      EXPECT_TRUE(std::isnan(got[i])) << "tanh(NaN) = " << got[i];
      continue;
    }
    EXPECT_EQ(std::signbit(got[i]), std::signbit(want[i])) << "x=" << x[i];
    EXPECT_LE(ulp_distance(got[i], want[i]), 2u)
        << "x=" << x[i] << " got " << got[i] << " want " << want[i];
  }
}

TEST(SimdKernels, TanhForwardWithin2UlpOnDenseSweep) {
  std::vector<double> x;
  for (double v = -20.0; v <= 20.0; v += 1.0 / 4096.0) x.push_back(v);
  // Off-grid points too: the grid alone hits only dyadic rationals.
  util::Rng rng(81);
  for (int i = 0; i < 100000; ++i) x.push_back(rng.uniform(-20.0, 20.0));
  expect_tanh_within_2ulp(x);
}

TEST(SimdKernels, TanhForwardEdgeInputs) {
  const double inf = std::numeric_limits<double>::infinity();
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double sw = 0.625;  // where the kernel switches from rational to exp form
  std::vector<double> x = {0.0, -0.0, tiny, -tiny, 1e-310, -1e-310,
                           std::numeric_limits<double>::min(), 1e-8, -1e-8,
                           std::nextafter(sw, 0.0), sw, std::nextafter(sw, 1.0),
                           -std::nextafter(sw, 0.0), -sw, -std::nextafter(sw, 1.0),
                           354.0, 356.0, 800.0, -800.0, inf, -inf,
                           std::numeric_limits<double>::quiet_NaN(), 0.5, -3.0};
  expect_tanh_within_2ulp(x);

  double v = -0.0;
  tanh_forward(&v, 1);
  EXPECT_TRUE(std::signbit(v) && v == 0.0) << "tanh(-0) must be -0";
  std::vector<double> sat = {800.0, -800.0, inf, -inf};
  tanh_forward(sat.data(), sat.size());
  EXPECT_EQ(sat, (std::vector<double>{1.0, -1.0, 1.0, -1.0}));
}

// Lengths 1..9 route 1..3 elements through the masked tail after 0..2 full
// blocks; each element must still get its own tanh.
TEST(SimdKernels, TanhForwardMaskedTailLengths) {
  for (std::size_t n = 1; n <= 9; ++n) expect_tanh_within_2ulp(random_values(n, 90 + n));
}

TEST(SimdKernels, TanhBackwardParityExact) {
  for (const std::size_t n : kLengths) {
    auto y = random_values(n, 35, 0.5);
    for (auto& v : y) v = std::tanh(v);  // a cached tanh output lies in [-1, 1]
    auto g1 = random_values(n, 36);
    auto g2 = g1;
    tanh_backward(g1.data(), y.data(), n);
    ref::tanh_backward(g2.data(), y.data(), n);
    expect_exact(g1, g2, "tanh_backward", n);
  }
}

TEST(SimdKernels, AdamUpdateParityExact) {
  AdamStep s;
  s.beta1 = 0.9;
  s.beta2 = 0.999;
  s.bias1 = 1.0 - 0.9 * 0.9;
  s.bias2 = 1.0 - 0.999 * 0.999;
  s.lr = 1e-2;
  s.eps = 1e-8;
  s.weight_decay = 1e-3;
  for (const std::size_t n : kLengths) {
    auto w1 = random_values(n, 31);
    auto m1 = random_values(n, 32, 0.1);
    std::vector<double> v1 = random_values(n, 33, 0.1);
    for (auto& v : v1) v = std::abs(v);  // second moments are non-negative
    const auto g = random_values(n, 34);
    auto w2 = w1;
    auto m2 = m1;
    auto v2 = v1;
    adam_update(w1.data(), g.data(), m1.data(), v1.data(), n, s);
    ref::adam_update(w2.data(), g.data(), m2.data(), v2.data(), n, s);
    expect_exact(w1, w2, "adam_update w", n);
    expect_exact(m1, m2, "adam_update m", n);
    expect_exact(v1, v2, "adam_update v", n);
  }
}

// One gemm_tile call's operands, with strides wider than the tile so the
// kernels must honour lda/ka/ldc rather than assume packed rows.  With
// a_trans, A is stored transposed (kk x mi, padded) and read in place
// through lda = 1 and a k-stride, the way matmul_tn calls the kernel.
struct TileCase {
  std::size_t mi, w, kk;
  bool a_trans = false;
  std::size_t lda() const { return a_trans ? 1 : kk + 3; }
  std::size_t ka() const { return a_trans ? mi + 3 : 1; }
  std::size_t a_size() const { return a_trans ? kk * ka() : mi * lda(); }
  std::size_t ldc() const { return w + 2; }
  double a_at(const std::vector<double>& a, std::size_t i, std::size_t k) const {
    return a[i * lda() + k * ka()];
  }
};

using TileFn = void (*)(const double*, std::size_t, std::size_t, const double*, std::size_t,
                        std::size_t, std::size_t, double*, std::size_t);

const std::pair<const char*, TileFn> kTileTwins[] = {{"dispatched", gemm_tile},
                                                     {"ref", ref::gemm_tile}};

// Ragged in every dimension: mi % 4 and w % 8 take every residue, and kk
// covers a single step up to a full 64-deep k tile; every shape with A
// row-major and with A read transposed in place.
std::vector<TileCase> tile_cases() {
  std::vector<TileCase> cases;
  for (const bool a_trans : {false, true}) {
    for (const std::size_t mi : {1, 2, 3, 4, 5, 6, 7, 8, 13, 64}) {
      for (const std::size_t w : {1, 3, 7, 8, 9, 12, 15, 16, 17, 40, 64}) {
        for (const std::size_t kk : {1, 5, 40, 64}) cases.push_back({mi, w, kk, a_trans});
      }
    }
  }
  return cases;
}

std::string tile_name(const char* twin, const TileCase& t) {
  return std::string(twin) + " mi=" + std::to_string(t.mi) + " w=" + std::to_string(t.w) +
         " kk=" + std::to_string(t.kk) + (t.a_trans ? " a_trans" : "");
}

TEST(SimdKernels, GemmTileParityWithinRelativeTolerance) {
  std::uint64_t seed = 61;
  for (const TileCase& t : tile_cases()) {
    const auto a = random_values(t.a_size(), seed++, 1.0);
    const auto panel = random_values(t.kk * t.w, seed++, 1.0);
    const auto c0 = random_values(t.mi * t.ldc(), seed++, 1.0);
    auto got = c0;
    auto want = c0;
    gemm_tile(a.data(), t.lda(), t.ka(), panel.data(), t.w, t.mi, t.kk, got.data(), t.ldc());
    ref::gemm_tile(a.data(), t.lda(), t.ka(), panel.data(), t.w, t.mi, t.kk, want.data(),
                   t.ldc());
    for (std::size_t i = 0; i < t.mi; ++i) {
      for (std::size_t j = 0; j < t.ldc(); ++j) {
        const std::size_t idx = i * t.ldc() + j;
        if (j >= t.w) {
          // Padding columns beyond the tile are never written.
          EXPECT_EQ(got[idx], c0[idx]) << "wrote past w=" << t.w;
          continue;
        }
        // Relative to the magnitude of the sum being formed, so cancellation
        // cannot turn a last-ulp difference into a large relative error.
        double magnitude = std::abs(c0[idx]);
        for (std::size_t k = 0; k < t.kk; ++k) {
          magnitude += std::abs(t.a_at(a, i, k) * panel[k * t.w + j]);
        }
        EXPECT_NEAR(got[idx], want[idx], 1e-12 * magnitude)
            << tile_name("dispatched", t) << " at (" << i << "," << j << ")";
      }
    }
  }
}

// A row's bits do not depend on how many rows share its tile call: computing
// each row alone (mi = 1) equals computing it inside the full tile (4-row
// blocks for all but the mi % 4 tail).  Certified for the dispatched AND the
// portable twin — the half of chunked-predict bit-identity that lives in the
// GEMM.
TEST(SimdKernels, GemmTileRowsIndependentOfTileHeight) {
  for (const auto& [name, tile] : kTileTwins) {
    std::uint64_t seed = 71;
    for (const TileCase& t : tile_cases()) {
      const auto a = random_values(t.a_size(), seed++, 1.0);
      const auto panel = random_values(t.kk * t.w, seed++, 1.0);
      const auto c0 = random_values(t.mi * t.ldc(), seed++, 1.0);
      auto whole = c0;
      tile(a.data(), t.lda(), t.ka(), panel.data(), t.w, t.mi, t.kk, whole.data(), t.ldc());
      auto rows = c0;
      for (std::size_t i = 0; i < t.mi; ++i) {
        tile(a.data() + i * t.lda(), t.lda(), t.ka(), panel.data(), t.w, 1, t.kk,
             rows.data() + i * t.ldc(), t.ldc());
      }
      for (std::size_t idx = 0; idx < whole.size(); ++idx) {
        ASSERT_EQ(rows[idx], whole[idx]) << tile_name(name, t) << " flat index " << idx;
      }
    }
  }
}

// Columns [j0, j1) of a packed (kk x w) panel, packed again as (kk x (j1 - j0)).
std::vector<double> panel_columns(const std::vector<double>& panel, std::size_t w,
                                  std::size_t kk, std::size_t j0, std::size_t j1) {
  std::vector<double> out;
  for (std::size_t k = 0; k < kk; ++k) {
    out.insert(out.end(), panel.begin() + static_cast<std::ptrdiff_t>(k * w + j0),
               panel.begin() + static_cast<std::ptrdiff_t>(k * w + j1));
  }
  return out;
}

// The column half of the contract: an element's bits do not depend on
// whether its column lands in a full 8-wide block or in the masked ragged
// block, nor on its lane.  Each column computed alone (a 1-wide panel, lane 0
// of the masked block), and the panel split at a column offset that shifts
// every later column to another lane, both equal the whole-panel call bit
// for bit — on the dispatched AND the portable twin.
TEST(SimdKernels, GemmTileColumnsIndependentOfPanelWidth) {
  for (const auto& [name, tile] : kTileTwins) {
    std::uint64_t seed = 91;
    for (const TileCase& t : tile_cases()) {
      const auto a = random_values(t.a_size(), seed++, 1.0);
      const auto panel = random_values(t.kk * t.w, seed++, 1.0);
      const auto c0 = random_values(t.mi * t.ldc(), seed++, 1.0);
      auto whole = c0;
      tile(a.data(), t.lda(), t.ka(), panel.data(), t.w, t.mi, t.kk, whole.data(), t.ldc());

      auto columns = c0;
      for (std::size_t j = 0; j < t.w; ++j) {
        const auto col = panel_columns(panel, t.w, t.kk, j, j + 1);
        tile(a.data(), t.lda(), t.ka(), col.data(), 1, t.mi, t.kk, columns.data() + j,
             t.ldc());
      }
      for (std::size_t idx = 0; idx < whole.size(); ++idx) {
        ASSERT_EQ(columns[idx], whole[idx])
            << tile_name(name, t) << " one column per call, flat index " << idx;
      }

      for (const std::size_t split : {std::size_t{1}, std::size_t{3}, std::size_t{9}}) {
        if (split >= t.w) continue;
        auto parts = c0;
        for (const auto& [j0, j1] : {std::pair{std::size_t{0}, split}, std::pair{split, t.w}}) {
          const auto sub = panel_columns(panel, t.w, t.kk, j0, j1);
          tile(a.data(), t.lda(), t.ka(), sub.data(), j1 - j0, t.mi, t.kk, parts.data() + j0,
               t.ldc());
        }
        for (std::size_t idx = 0; idx < whole.size(); ++idx) {
          ASSERT_EQ(parts[idx], whole[idx])
              << tile_name(name, t) << " split at column " << split << ", flat index " << idx;
        }
      }
    }
  }
}

// Position independence: processing an array in two arbitrary pieces must
// give bit-identical results to processing it whole (masked tails route the
// ragged end through the same lane arithmetic).  This is the element-wise
// half of the chunked-prediction bit-identity guarantee.
TEST(SimdKernels, SplitProcessingIsBitIdentical) {
  const std::size_t n = 1003;
  for (const std::size_t split : {std::size_t{1}, std::size_t{5}, std::size_t{512}}) {
    auto whole = random_values(n, 51);
    auto parts = whole;
    selu_forward(whole.data(), n);
    selu_forward(parts.data(), split);
    selu_forward(parts.data() + split, n - split);
    expect_exact(parts, whole, "selu_forward split", n);

    auto yw = random_values(n, 52);
    auto yp = yw;
    std::vector<double> dw(n), dp(n);
    selu_forward_deriv(yw.data(), dw.data(), n);
    selu_forward_deriv(yp.data(), dp.data(), split);
    selu_forward_deriv(yp.data() + split, dp.data() + split, n - split);
    expect_exact(yp, yw, "selu_forward_deriv split output", n);
    expect_exact(dp, dw, "selu_forward_deriv split derivative", n);

    auto tw = random_values(n, 54);
    auto tp = tw;
    tanh_forward(tw.data(), n);
    tanh_forward(tp.data(), split);
    tanh_forward(tp.data() + split, n - split);
    expect_exact(tp, tw, "tanh_forward split", n);

    auto bw = random_values(n, 55);
    auto bp = bw;
    tanh_backward(bw.data(), tw.data(), n);
    tanh_backward(bp.data(), tw.data(), split);
    tanh_backward(bp.data() + split, tw.data() + split, n - split);
    expect_exact(bp, bw, "tanh_backward split", n);
  }
}

TEST(SimdKernels, ZeroLengthIsSafe) {
  double dummy = 1.0;
  selu_forward(&dummy, 0);
  selu_forward_deriv(&dummy, &dummy, 0);
  tanh_forward(&dummy, 0);
  tanh_backward(&dummy, &dummy, 0);
  adam_update(&dummy, &dummy, &dummy, &dummy, 0, AdamStep{});
  for (const auto& [name, tile] : kTileTwins) {
    tile(&dummy, 1, 1, &dummy, 1, 0, 1, &dummy, 1);  // no rows
    tile(&dummy, 1, 1, &dummy, 0, 1, 1, &dummy, 1);  // no columns
    tile(&dummy, 1, 5, &dummy, 1, 0, 1, &dummy, 1);  // no rows, A read transposed
    tile(&dummy, 1, 5, &dummy, 0, 3, 1, &dummy, 1);  // no columns, A read transposed
  }
  EXPECT_EQ(dummy, 1.0);
}

}  // namespace
}  // namespace bellamy::nn::simd
