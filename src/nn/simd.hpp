#pragma once
// The only hand-written SIMD in the tree: five runtime-dispatched kernel
// pairs, each an AVX2+FMA implementation with a portable twin under
// simd::ref.  One CPU-feature check per process (in simd.cpp) picks the AVX2
// path; the portable twins are the fallback (the production path off x86)
// and the ground truth of the parity suite (tests/nn/test_simd_kernels.cpp).
//
// These five stay because the end-to-end benchmark (`fit`, `sweep`) shows
// they pay; README § Performance has the numbers.  Tanh joined once train_step
// stopped doing work no loss needs: the decoder's scalar std::tanh and the
// libm fma call per element of its backward (a plain loop compiled outside
// the FMA target calls libm) were then ~17% of a pretrain.  SELU's pair is
// the inference forward and the training forward, which also stores the
// derivative from the same exp lane, so the SELU backward is a plain
// multiply and computes no exp.  Every other element-wise loop (Matrix
// arithmetic, relu/sigmoid, the loss gradients) is a plain loop at its only
// caller.
//
// Determinism contract:
//  * gemm_tile: both twins give every C element its k contributions in
//    ascending order, so an element's result never depends on how many rows
//    one call covers or which column block it lands in — chunked and
//    unchunked batches match bit for bit.  The AVX2 twin has one R x 8
//    micro-kernel (R = 1..4 rows) that fuses every multiply-add with vfmadd;
//    the ragged w % 8 columns go through maskload/maskstore lanes of the same
//    kernel.  The portable twin does not fuse, so the two agree to rounding,
//    not to the bit.
//  * adam_update and tanh_backward use only IEEE-exact operations with
//    their fused multiply-adds spelled out in both twins, so the twins are
//    bit-identical.
//  * selu_forward and selu_forward_deriv use a vectorized Cephes-style exp
//    on the AVX2 path and std::exp on the portable one; the twins agree to
//    ~1 ulp.  Within one twin, selu_forward_deriv's output is bit-identical
//    to selu_forward's (both take the same exp of each element), so the
//    training forward and infer() agree bit for bit.
//    tanh_forward is a vectorized Cephes tanh against std::tanh, within
//    2 ulp; it keeps the sign of zero, maps +-inf to +-1 and NaN to NaN.
//  * The ragged tail of every element-wise kernel goes through masked loads
//    into the same lane arithmetic, so an element's result never depends on
//    its position in the array.
//  * The dispatch decision is per process, so all results within a run are
//    self-consistent.

#include <cstddef>

namespace bellamy::nn::simd {

/// Adam update constants for one parameter tensor (bias corrections are
/// passed pre-computed so the kernel is pure element-wise work).
struct AdamStep {
  double beta1 = 0.9;
  double beta2 = 0.999;
  double bias1 = 1.0;  ///< 1 - beta1^t
  double bias2 = 1.0;  ///< 1 - beta2^t
  double lr = 1e-3;
  double eps = 1e-8;
  double weight_decay = 0.0;
};

// ---- dispatched entry points (AVX2+FMA when available) ----------------------

/// C[0, mi) x [0, w) += A (mi x kk) * panel (kk x w, row-major packed, stride
/// w); C has stride ldc.  A(i, k) is a[i * lda + k * ka]: ka = 1 for a
/// row-major A, lda = 1 to read a stored Aᵀ in place.  The blocked GEMM in
/// matrix.cpp packs and tiles, then calls this once per (row tile, k tile)
/// of each panel.
void gemm_tile(const double* a, std::size_t lda, std::size_t ka, const double* panel,
               std::size_t w, std::size_t mi, std::size_t kk, double* c, std::size_t ldc);

void selu_forward(double* x, std::size_t n);
/// selu_forward(x) that also writes d = selu'(x) (of the input x) from the
/// same exp: the training forward, whose backward is then g * d.
void selu_forward_deriv(double* x, double* d, std::size_t n);

void tanh_forward(double* x, std::size_t n);
/// g *= tanh'(x), given y = tanh(x): g *= fma(-y, y, 1).
void tanh_backward(double* g, const double* y, std::size_t n);

/// In-place Adam moment/parameter update over one tensor:
///   geff = grad + weight_decay * w
///   m = beta1*m + (1-beta1)*geff ; v = beta2*v + (1-beta2)*geff^2
///   w -= lr * (m/bias1) / (sqrt(v/bias2) + eps)
void adam_update(double* w, const double* grad, double* m, double* v, std::size_t n,
                 const AdamStep& s);

// ---- portable twins ---------------------------------------------------------
//
// Always compiled; the dispatch fallback and the parity-test ground truth.
namespace ref {
void gemm_tile(const double* a, std::size_t lda, std::size_t ka, const double* panel,
               std::size_t w, std::size_t mi, std::size_t kk, double* c, std::size_t ldc);
void selu_forward(double* x, std::size_t n);
void selu_forward_deriv(double* x, double* d, std::size_t n);
void tanh_forward(double* x, std::size_t n);
void tanh_backward(double* g, const double* y, std::size_t n);
void adam_update(double* w, const double* grad, double* m, double* v, std::size_t n,
                 const AdamStep& s);
}  // namespace ref

}  // namespace bellamy::nn::simd
