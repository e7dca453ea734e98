#include "nn/simd.hpp"

#include <algorithm>
#include <cmath>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define BELLAMY_X86_DISPATCH 1
#endif

#include "nn/activations.hpp"

namespace bellamy::nn::simd {

// ---- portable twins ---------------------------------------------------------

namespace ref {

namespace {

// 4x8 register micro-kernel: acc[] covers a 4-row x 8-column patch of C and
// accumulates the whole k-tile in registers before C is touched once.  Each
// C element still receives its k contributions in ascending order (grouped
// per k-tile), so a row's result is independent of how many rows the call
// processes — chunked and unchunked batches match bit for bit.
void micro_4x8(const double* a, std::size_t lda, std::size_t ka, const double* panel,
               std::size_t w, std::size_t kk, double* c, std::size_t ldc) {
  double acc[4][8] = {};
  for (std::size_t k = 0; k < kk; ++k) {
    const double* br = panel + k * w;
    const double* ak = a + k * ka;
    const double v0 = ak[0 * lda];
    const double v1 = ak[1 * lda];
    const double v2 = ak[2 * lda];
    const double v3 = ak[3 * lda];
    for (std::size_t j = 0; j < 8; ++j) {
      const double bj = br[j];
      acc[0][j] += v0 * bj;
      acc[1][j] += v1 * bj;
      acc[2][j] += v2 * bj;
      acc[3][j] += v3 * bj;
    }
  }
  for (std::size_t r = 0; r < 4; ++r) {
    double* cr = c + r * ldc;
    for (std::size_t j = 0; j < 8; ++j) cr[j] += acc[r][j];
  }
}

// Scalar edge kernel for the ragged i/j remainders of a tile.
void micro_edge(const double* a, std::size_t lda, std::size_t ka, const double* panel,
                std::size_t w, std::size_t mi, std::size_t j0, std::size_t wj, std::size_t kk,
                double* c, std::size_t ldc) {
  for (std::size_t i = 0; i < mi; ++i) {
    const double* ai = a + i * lda;
    double* ci = c + i * ldc;
    double acc[8] = {};
    for (std::size_t k = 0; k < kk; ++k) {
      const double v = ai[k * ka];
      const double* br = panel + k * w + j0;
      for (std::size_t j = 0; j < wj; ++j) acc[j] += v * br[j];
    }
    for (std::size_t j = 0; j < wj; ++j) ci[j0 + j] += acc[j];
  }
}

}  // namespace

// 4x8 micro-kernel over the full blocks, i/k/j order; scalar edges.
void gemm_tile(const double* a, std::size_t lda, std::size_t ka, const double* panel,
               std::size_t w, std::size_t mi, std::size_t kk, double* c, std::size_t ldc) {
  const std::size_t mi4 = mi - mi % 4;
  const std::size_t w8 = w - w % 8;
  for (std::size_t i = 0; i < mi4; i += 4) {
    for (std::size_t j = 0; j < w8; j += 8) {
      micro_4x8(a + i * lda, lda, ka, panel + j, w, kk, c + i * ldc + j, ldc);
    }
    if (w8 < w) {
      micro_edge(a + i * lda, lda, ka, panel, w, 4, w8, w - w8, kk, c + i * ldc, ldc);
    }
  }
  if (mi4 < mi) {
    for (std::size_t j = 0; j < w; j += 8) {
      micro_edge(a + mi4 * lda, lda, ka, panel, w, mi - mi4, j,
                 std::min<std::size_t>(8, w - j), kk, c + mi4 * ldc, ldc);
    }
  }
}

void selu_forward(double* x, std::size_t n) {
  const double sa = kSeluScale * kSeluAlpha;
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = x[i] > 0.0 ? kSeluScale * x[i] : sa * (std::exp(x[i]) - 1.0);
  }
}

void selu_forward_deriv(double* x, double* d, std::size_t n) {
  const double sa = kSeluScale * kSeluAlpha;
  for (std::size_t i = 0; i < n; ++i) {
    if (x[i] > 0.0) {
      d[i] = kSeluScale;
      x[i] = kSeluScale * x[i];
    } else {
      const double e = std::exp(x[i]);
      d[i] = sa * e;
      x[i] = sa * (e - 1.0);
    }
  }
}

void tanh_forward(double* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) x[i] = std::tanh(x[i]);
}

void tanh_backward(double* g, const double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) g[i] *= __builtin_fma(-y[i], y[i], 1.0);
}

// Fused multiply-adds are written explicitly (__builtin_fma) wherever the
// AVX2 twin fuses, so both round identically per element.
void adam_update(double* w, const double* grad, double* m, double* v, std::size_t n,
                 const AdamStep& s) {
  const double c1 = 1.0 - s.beta1;
  const double c2 = 1.0 - s.beta2;
  for (std::size_t i = 0; i < n; ++i) {
    const double geff = __builtin_fma(s.weight_decay, w[i], grad[i]);
    m[i] = __builtin_fma(s.beta1, m[i], c1 * geff);
    v[i] = __builtin_fma(s.beta2, v[i], (c2 * geff) * geff);
    const double mh = m[i] / s.bias1;
    const double vh = v[i] / s.bias2;
    w[i] = w[i] - (s.lr * mh) / (std::sqrt(vh) + s.eps);
  }
}

}  // namespace ref

// ---- AVX2 + FMA twins -------------------------------------------------------

#ifdef BELLAMY_X86_DISPATCH

namespace avx2 {
namespace {

// Lane-enable mask for the four lanes starting at element `first` of a run
// with `live` elements: lane l is on iff first + l < live.  Ragged tails are
// maskloaded into the SAME vector arithmetic as full blocks, so a value's
// result never depends on its position in the array.
__attribute__((target("avx2"))) inline __m256i lane_mask(std::size_t live, std::size_t first) {
  const __m256i lanes = _mm256_add_epi64(_mm256_set1_epi64x(static_cast<long long>(first)),
                                         _mm256_setr_epi64x(0, 1, 2, 3));
  return _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<long long>(live)), lanes);
}

// R x 8 micro-kernel (R = 1..4 rows): two ymm accumulators per row, updated
// with vfmadd over ascending k starting from zero, then added into C once.
// Masked blocks (the ragged last column block, m0/m1 enabling its live
// lanes) read the panel and C through maskload and write C through
// maskstore; off lanes load as zero and are never stored.  Every C element
// therefore gets the same arithmetic whatever its row count or column block,
// so its bits never depend on where it lands in the tile.
template <std::size_t R, bool Masked>
__attribute__((target("avx2,fma"))) inline void micro_kernel(
    const double* a, std::size_t lda, std::size_t ka, const double* panel, std::size_t w,
    std::size_t kk, double* c, std::size_t ldc, __m256i m0, __m256i m1) {
  __m256d acc[R][2];
  for (std::size_t r = 0; r < R; ++r) acc[r][0] = acc[r][1] = _mm256_setzero_pd();
  for (std::size_t k = 0; k < kk; ++k) {
    const double* br = panel + k * w;
    const double* ak = a + k * ka;
    const __m256d b0 = Masked ? _mm256_maskload_pd(br, m0) : _mm256_loadu_pd(br);
    const __m256d b1 = Masked ? _mm256_maskload_pd(br + 4, m1) : _mm256_loadu_pd(br + 4);
    for (std::size_t r = 0; r < R; ++r) {
      const __m256d v = _mm256_broadcast_sd(ak + r * lda);
      acc[r][0] = _mm256_fmadd_pd(v, b0, acc[r][0]);
      acc[r][1] = _mm256_fmadd_pd(v, b1, acc[r][1]);
    }
  }
  for (std::size_t r = 0; r < R; ++r) {
    double* cr = c + r * ldc;
    if (Masked) {
      _mm256_maskstore_pd(cr, m0, _mm256_add_pd(_mm256_maskload_pd(cr, m0), acc[r][0]));
      _mm256_maskstore_pd(cr + 4, m1,
                          _mm256_add_pd(_mm256_maskload_pd(cr + 4, m1), acc[r][1]));
    } else {
      _mm256_storeu_pd(cr, _mm256_add_pd(_mm256_loadu_pd(cr), acc[r][0]));
      _mm256_storeu_pd(cr + 4, _mm256_add_pd(_mm256_loadu_pd(cr + 4), acc[r][1]));
    }
  }
}

// R rows of the tile across the panel: full 8-wide blocks, then one masked
// block for the w % 8 ragged columns.
template <std::size_t R>
__attribute__((target("avx2,fma"))) inline void micro_rows(
    const double* a, std::size_t lda, std::size_t ka, const double* panel, std::size_t w,
    std::size_t kk, double* c, std::size_t ldc) {
  const __m256i all = _mm256_set1_epi64x(-1);
  const std::size_t w8 = w - w % 8;
  for (std::size_t j = 0; j < w8; j += 8) {
    micro_kernel<R, false>(a, lda, ka, panel + j, w, kk, c + j, ldc, all, all);
  }
  if (const std::size_t wj = w - w8) {
    micro_kernel<R, true>(a, lda, ka, panel + w8, w, kk, c + w8, ldc, lane_mask(wj, 0),
                          lane_mask(wj, 4));
  }
}

// Cephes-style vectorized exp: |error| ~1 ulp over the clamped domain
// [-708, 709].  Inputs outside the domain are clamped (selu only consumes
// exp(x) for x <= 0, where the clamp is far past saturation); NaN inputs are
// not part of the kernel contract.
__attribute__((target("avx2,fma"))) inline __m256d exp_pd(__m256d x) {
  const __m256d one = _mm256_set1_pd(1.0);
  x = _mm256_min_pd(x, _mm256_set1_pd(709.0));
  x = _mm256_max_pd(x, _mm256_set1_pd(-708.0));

  // n = floor(x * log2(e) + 0.5); r = x - n*ln2 with ln2 split hi/lo.
  const __m256d px = _mm256_floor_pd(
      _mm256_fmadd_pd(x, _mm256_set1_pd(1.4426950408889634073599), _mm256_set1_pd(0.5)));
  __m256d r = _mm256_fnmadd_pd(px, _mm256_set1_pd(6.93145751953125e-1), x);
  r = _mm256_fnmadd_pd(px, _mm256_set1_pd(1.42860682030941723212e-6), r);
  const __m256d r2 = _mm256_mul_pd(r, r);

  // exp(r) = 1 + 2r*P(r^2) / (Q(r^2) - r*P(r^2))   (Cephes expml rational)
  __m256d p = _mm256_set1_pd(1.26177193074810590878e-4);
  p = _mm256_fmadd_pd(p, r2, _mm256_set1_pd(3.02994407707441961300e-2));
  p = _mm256_fmadd_pd(p, r2, _mm256_set1_pd(9.99999999999999999910e-1));
  p = _mm256_mul_pd(p, r);
  __m256d q = _mm256_set1_pd(3.00198505138664455042e-6);
  q = _mm256_fmadd_pd(q, r2, _mm256_set1_pd(2.52448340349684104192e-3));
  q = _mm256_fmadd_pd(q, r2, _mm256_set1_pd(2.27265548208155028766e-1));
  q = _mm256_fmadd_pd(q, r2, _mm256_set1_pd(2.00000000000000000005e0));
  __m256d e = _mm256_div_pd(p, _mm256_sub_pd(q, p));
  e = _mm256_fmadd_pd(_mm256_set1_pd(2.0), e, one);

  // e *= 2^n via direct exponent construction (|n| <= 1021 after clamping).
  const __m256i n64 = _mm256_cvtepi32_epi64(_mm256_cvtpd_epi32(px));
  const __m256i pow2 =
      _mm256_slli_epi64(_mm256_add_epi64(n64, _mm256_set1_epi64x(1023)), 52);
  return _mm256_mul_pd(e, _mm256_castsi256_pd(pow2));
}

__attribute__((target("avx2,fma"))) inline __m256d selu_fwd_lane(__m256d v) {
  const __m256d scale = _mm256_set1_pd(kSeluScale);
  const __m256d sa = _mm256_set1_pd(kSeluScale * kSeluAlpha);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d pos = _mm256_mul_pd(scale, v);
  const __m256d neg = _mm256_mul_pd(sa, _mm256_sub_pd(exp_pd(v), one));
  const __m256d gt = _mm256_cmp_pd(v, _mm256_setzero_pd(), _CMP_GT_OQ);
  return _mm256_blendv_pd(neg, pos, gt);
}

// selu_fwd_lane plus selu'(v) = v > 0 ? scale : sa * exp(v), from the same
// exp lane: the output bits are selu_fwd_lane's.
__attribute__((target("avx2,fma"))) inline __m256d selu_deriv_lane(__m256d v, __m256d* d) {
  const __m256d scale = _mm256_set1_pd(kSeluScale);
  const __m256d sa = _mm256_set1_pd(kSeluScale * kSeluAlpha);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d e = exp_pd(v);
  const __m256d gt = _mm256_cmp_pd(v, _mm256_setzero_pd(), _CMP_GT_OQ);
  *d = _mm256_blendv_pd(_mm256_mul_pd(sa, e), scale, gt);
  const __m256d neg = _mm256_mul_pd(sa, _mm256_sub_pd(e, one));
  return _mm256_blendv_pd(neg, _mm256_mul_pd(scale, v), gt);
}

// Cephes tanh on |x|, sign restored by OR-ing x's sign bit back in (so
// tanh(-0) = -0): for |x| < 0.625 the odd rational |x| + |x|^3 P(x^2)/Q(x^2),
// else 1 - 2/(exp(2|x|) + 1).  exp_pd's clamp saturates the second branch to
// exactly 1 for |x| >= ~355 and for inf; NaN fails the ordered >= compare,
// takes the rational branch and stays NaN.
__attribute__((target("avx2,fma"))) inline __m256d tanh_lane(__m256d x) {
  const __m256d sign = _mm256_set1_pd(-0.0);
  const __m256d z = _mm256_andnot_pd(sign, x);
  const __m256d one = _mm256_set1_pd(1.0);

  const __m256d s = _mm256_mul_pd(z, z);
  __m256d p = _mm256_set1_pd(-9.64399179425052238628e-1);
  p = _mm256_fmadd_pd(p, s, _mm256_set1_pd(-9.92877231001918586564e1));
  p = _mm256_fmadd_pd(p, s, _mm256_set1_pd(-1.61468768441708447952e3));
  __m256d q = _mm256_add_pd(s, _mm256_set1_pd(1.12811678491632931402e2));
  q = _mm256_fmadd_pd(q, s, _mm256_set1_pd(2.23548839060100448583e3));
  q = _mm256_fmadd_pd(q, s, _mm256_set1_pd(4.84406305325125486048e3));
  const __m256d small = _mm256_fmadd_pd(_mm256_mul_pd(z, s), _mm256_div_pd(p, q), z);

  const __m256d e = exp_pd(_mm256_add_pd(z, z));
  const __m256d large =
      _mm256_sub_pd(one, _mm256_div_pd(_mm256_set1_pd(2.0), _mm256_add_pd(e, one)));

  const __m256d use_large = _mm256_cmp_pd(z, _mm256_set1_pd(0.625), _CMP_GE_OQ);
  return _mm256_or_pd(_mm256_blendv_pd(small, large, use_large), _mm256_and_pd(sign, x));
}

// Per-lane Adam step: pre-broadcast constants arrive via this POD so the
// helper stays a plain (target-attributed) function — lambdas inside a
// target("avx2") function do not inherit the target and fail to inline.
struct AdamLanes {
  __m256d b1, b2, c1, c2, bias1, bias2, lr, eps, wd;
};

__attribute__((target("avx2,fma"))) inline __m256d adam_lane(const AdamLanes& s, __m256d vw,
                                                             __m256d vg, __m256d vm,
                                                             __m256d vv, __m256d* om,
                                                             __m256d* ov) {
  const __m256d geff = _mm256_fmadd_pd(s.wd, vw, vg);
  vm = _mm256_fmadd_pd(s.b1, vm, _mm256_mul_pd(s.c1, geff));
  vv = _mm256_fmadd_pd(s.b2, vv, _mm256_mul_pd(_mm256_mul_pd(s.c2, geff), geff));
  *om = vm;
  *ov = vv;
  const __m256d mh = _mm256_div_pd(vm, s.bias1);
  const __m256d vh = _mm256_div_pd(vv, s.bias2);
  const __m256d den = _mm256_add_pd(_mm256_sqrt_pd(vh), s.eps);
  return _mm256_sub_pd(vw, _mm256_div_pd(_mm256_mul_pd(s.lr, mh), den));
}

}  // namespace

__attribute__((target("avx2,fma"))) void gemm_tile(const double* a, std::size_t lda,
                                                   std::size_t ka, const double* panel,
                                                   std::size_t w, std::size_t mi,
                                                   std::size_t kk, double* c,
                                                   std::size_t ldc) {
  std::size_t i = 0;
  for (; i + 4 <= mi; i += 4) micro_rows<4>(a + i * lda, lda, ka, panel, w, kk, c + i * ldc, ldc);
  a += i * lda;
  c += i * ldc;
  switch (mi - i) {
    case 3: return micro_rows<3>(a, lda, ka, panel, w, kk, c, ldc);
    case 2: return micro_rows<2>(a, lda, ka, panel, w, kk, c, ldc);
    case 1: return micro_rows<1>(a, lda, ka, panel, w, kk, c, ldc);
    default: return;
  }
}

__attribute__((target("avx2,fma"))) void selu_forward(double* x, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(x + i, selu_fwd_lane(_mm256_loadu_pd(x + i)));
  }
  if (const std::size_t r = n - i) {
    const __m256i m = lane_mask(r, 0);
    _mm256_maskstore_pd(x + i, m, selu_fwd_lane(_mm256_maskload_pd(x + i, m)));
  }
}

__attribute__((target("avx2,fma"))) void selu_forward_deriv(double* x, double* d,
                                                            std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d vd;
    _mm256_storeu_pd(x + i, selu_deriv_lane(_mm256_loadu_pd(x + i), &vd));
    _mm256_storeu_pd(d + i, vd);
  }
  if (const std::size_t r = n - i) {
    const __m256i m = lane_mask(r, 0);
    __m256d vd;
    _mm256_maskstore_pd(x + i, m, selu_deriv_lane(_mm256_maskload_pd(x + i, m), &vd));
    _mm256_maskstore_pd(d + i, m, vd);
  }
}

__attribute__((target("avx2,fma"))) void tanh_forward(double* x, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) _mm256_storeu_pd(x + i, tanh_lane(_mm256_loadu_pd(x + i)));
  if (const std::size_t r = n - i) {
    const __m256i m = lane_mask(r, 0);
    _mm256_maskstore_pd(x + i, m, tanh_lane(_mm256_maskload_pd(x + i, m)));
  }
}

// g *= fma(-y, y, 1): vfnmadd rounds exactly like the portable twin's fma.
__attribute__((target("avx2,fma"))) void tanh_backward(double* g, const double* y,
                                                       std::size_t n) {
  const __m256d one = _mm256_set1_pd(1.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d vy = _mm256_loadu_pd(y + i);
    const __m256d d = _mm256_fnmadd_pd(vy, vy, one);
    _mm256_storeu_pd(g + i, _mm256_mul_pd(_mm256_loadu_pd(g + i), d));
  }
  if (const std::size_t r = n - i) {
    const __m256i m = lane_mask(r, 0);
    const __m256d vy = _mm256_maskload_pd(y + i, m);
    const __m256d d = _mm256_fnmadd_pd(vy, vy, one);
    _mm256_maskstore_pd(g + i, m, _mm256_mul_pd(_mm256_maskload_pd(g + i, m), d));
  }
}

__attribute__((target("avx2,fma"))) void adam_update(double* w, const double* grad,
                                                     double* m, double* v, std::size_t n,
                                                     const AdamStep& s) {
  const AdamLanes lanes{_mm256_set1_pd(s.beta1),       _mm256_set1_pd(s.beta2),
                        _mm256_set1_pd(1.0 - s.beta1), _mm256_set1_pd(1.0 - s.beta2),
                        _mm256_set1_pd(s.bias1),       _mm256_set1_pd(s.bias2),
                        _mm256_set1_pd(s.lr),          _mm256_set1_pd(s.eps),
                        _mm256_set1_pd(s.weight_decay)};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d om, ov;
    const __m256d nw =
        adam_lane(lanes, _mm256_loadu_pd(w + i), _mm256_loadu_pd(grad + i),
                  _mm256_loadu_pd(m + i), _mm256_loadu_pd(v + i), &om, &ov);
    _mm256_storeu_pd(m + i, om);
    _mm256_storeu_pd(v + i, ov);
    _mm256_storeu_pd(w + i, nw);
  }
  if (const std::size_t r = n - i) {
    const __m256i msk = lane_mask(r, 0);
    __m256d om, ov;
    const __m256d nw =
        adam_lane(lanes, _mm256_maskload_pd(w + i, msk), _mm256_maskload_pd(grad + i, msk),
                  _mm256_maskload_pd(m + i, msk), _mm256_maskload_pd(v + i, msk), &om, &ov);
    _mm256_maskstore_pd(m + i, msk, om);
    _mm256_maskstore_pd(v + i, msk, ov);
    _mm256_maskstore_pd(w + i, msk, nw);
  }
}

}  // namespace avx2

#endif  // BELLAMY_X86_DISPATCH

// ---- dispatch ---------------------------------------------------------------

#ifndef BELLAMY_X86_DISPATCH
namespace avx2 = ref;  // never taken: use_avx2() is false off x86
#endif

namespace {

// The one CPU-feature check in the tree, made once per process.
bool use_avx2() {
#ifdef BELLAMY_X86_DISPATCH
  static const bool on = __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return on;
#else
  return false;
#endif
}

}  // namespace

void gemm_tile(const double* a, std::size_t lda, std::size_t ka, const double* panel,
               std::size_t w, std::size_t mi, std::size_t kk, double* c, std::size_t ldc) {
  if (use_avx2()) return avx2::gemm_tile(a, lda, ka, panel, w, mi, kk, c, ldc);
  ref::gemm_tile(a, lda, ka, panel, w, mi, kk, c, ldc);
}

void selu_forward(double* x, std::size_t n) {
  if (use_avx2()) return avx2::selu_forward(x, n);
  ref::selu_forward(x, n);
}

void selu_forward_deriv(double* x, double* d, std::size_t n) {
  if (use_avx2()) return avx2::selu_forward_deriv(x, d, n);
  ref::selu_forward_deriv(x, d, n);
}

void tanh_forward(double* x, std::size_t n) {
  if (use_avx2()) return avx2::tanh_forward(x, n);
  ref::tanh_forward(x, n);
}

void tanh_backward(double* g, const double* y, std::size_t n) {
  if (use_avx2()) return avx2::tanh_backward(g, y, n);
  ref::tanh_backward(g, y, n);
}

void adam_update(double* w, const double* grad, double* m, double* v, std::size_t n,
                 const AdamStep& s) {
  if (use_avx2()) return avx2::adam_update(w, grad, m, v, n, s);
  ref::adam_update(w, grad, m, v, n, s);
}

}  // namespace bellamy::nn::simd
