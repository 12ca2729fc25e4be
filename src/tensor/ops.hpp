// Free-function tensor operations. All value-returning functions validate
// shapes and return fresh tensors; the `_into` / `_acc` variants write into a
// caller-provided output tensor (resized in place, capacity reused) so hot
// loops run allocation-free after warm-up.
//
// The matmul family shares one register-tiled kernel (see ops.cpp). Per
// C-element summation order is identical to the naive reference, so the fast
// kernels are bit-exact against matmul_reference — tests rely on this.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "tensor/tensor.hpp"

namespace semcache::tensor {

/// c = a + b (same shape).
Tensor add(const Tensor& a, const Tensor& b);
/// c = a * s.
Tensor scale(const Tensor& a, float s);
/// a += b * s (same shape); fused scale-accumulate for optimizers. Each
/// element is one std::fma, so every build rounds it once.
Tensor& axpy_inplace(Tensor& a, const Tensor& b, float s);

/// Hyperparameters of one Adam step (Kingma & Ba 2015) plus its bias
/// corrections bc1 = 1 - beta1^t and bc2 = 1 - beta2^t at step t.
struct AdamCoefficients {
  double lr;
  double beta1;
  double beta2;
  double eps;
  double bc1;
  double bc2;
};

/// One Adam update of `value` from `grad`, moments m and v updated in
/// place (all four the same shape). Per element, in double precision with
/// float storage:
///   m = beta1*m + (1-beta1)*g,   v = beta2*v + (1-beta2)*g*g,
///   value -= lr * (m/bc1) / (sqrt(v/bc2) + eps).
/// The AVX2 tier runs four elements per instruction and is bit-identical to
/// the scalar loop on every build type (see README "SIMD kernels").
void adam_update(Tensor& value, const Tensor& grad, Tensor& m, Tensor& v,
                 const AdamCoefficients& c);

/// Matrix product of rank-2 tensors: (m x k) * (k x n) -> (m x n).
Tensor matmul(const Tensor& a, const Tensor& b);
/// Naive triple-loop matmul kept as the bit-exact oracle for kernel tests.
Tensor matmul_reference(const Tensor& a, const Tensor& b);
/// Transpose of a rank-2 tensor.
Tensor transpose(const Tensor& a);
/// y = x * W + broadcast(bias): x (m x k), w (k x n), bias rank-1 (n).
Tensor affine(const Tensor& x, const Tensor& w, const Tensor& bias);

// --- out-parameter kernels (blocked/register-tiled; see ops.cpp) ---------
// The output must not alias either input. `_into` overwrites the output
// (resizing it, reusing capacity); `_acc` accumulates into it and requires
// the exact result shape.

/// c = a * b.
void matmul_into(Tensor& c, const Tensor& a, const Tensor& b);
/// c += a * b.
void matmul_acc(Tensor& c, const Tensor& a, const Tensor& b);
/// c = aᵀ * b for a (k x m), b (k x n): the dW = xᵀ·dy shape.
void matmul_tn_into(Tensor& c, const Tensor& a, const Tensor& b);
/// c += aᵀ * b (gradient accumulation without materializing xᵀ).
void matmul_tn_acc(Tensor& c, const Tensor& a, const Tensor& b);
/// c = a * bᵀ for a (m x k), b (n x k): the dx = dy·Wᵀ shape.
void matmul_nt_into(Tensor& c, const Tensor& a, const Tensor& b);
/// c += a * bᵀ.
void matmul_nt_acc(Tensor& c, const Tensor& a, const Tensor& b);
/// y = x * W + broadcast(bias), bias added in the kernel epilogue.
void affine_into(Tensor& y, const Tensor& x, const Tensor& w,
                 const Tensor& bias);
/// y = relu(x * W + broadcast(bias)) with the clamp fused into the bias
/// epilogue — bit-identical to affine_into followed by an elementwise
/// `v < 0 ? 0 : v` pass, one less sweep over y.
void affine_relu_into(Tensor& y, const Tensor& x, const Tensor& w,
                      const Tensor& bias);
/// t = aᵀ.
void transpose_into(Tensor& t, const Tensor& a);

/// exp(x) with the bits glibc 2.36's expf returns on x86-64 FMA hardware,
/// for every float input and under any MXCSR mode, spelled in-repo
/// (std::fma where that library fuses) so results do not depend on the
/// host's libm. errno and the floating-point flags are not set.
float expf(float x);

/// Row-wise softmax of a rank-2 tensor (numerically stabilized): per row,
/// e_j = expf(x_j - max), summed in ascending column order, then each
/// e_j * (1 / sum). Throws on zero rows or columns.
Tensor row_softmax(const Tensor& logits);
/// row_softmax into `out` (resized, reusing capacity; must not alias
/// `logits`).
void row_softmax_into(Tensor& out, const Tensor& logits);
/// Row-wise argmax of a rank-2 tensor: the first index of each row's
/// maximum (NaN as the `>` chain treats it). Throws on zero rows or columns.
std::vector<std::int32_t> row_argmax(const Tensor& t);
/// The mean over i < n of -log(max(p_i, 1e-12)), p_i = prob(i) widened to
/// double, the logs summed in double in ascending i. mean_target_nll and
/// semantic::ServingTable::mismatch both sum through it, so a probability
/// read from a table gives the bits the same probability read from a
/// softmax output gives.
template <class ProbAt>
double mean_nll(std::size_t n, ProbAt prob) {
  double loss = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    // Clamp to avoid -inf on (numerically) zero probabilities.
    loss -= std::log(std::max(static_cast<double>(prob(i)), 1e-12));
  }
  return loss / static_cast<double>(n);
}
/// Mean over rows of -log(max(p, 1e-12)), p being row r's entry at column
/// targets[r] of row-major probabilities (targets.size() rows of `cols`),
/// the logs summed in double in row order (mean_nll): the cross-entropy of
/// softmax output. Throws on an empty batch, on probs not one row per
/// target, and on a target outside [0, cols).
double mean_target_nll(std::span<const float> probs, std::size_t cols,
                       std::span<const std::int32_t> targets);
/// Mean softmax cross-entropy of row-major logits (targets.size() rows of
/// `cols`), read in place: row_softmax's probabilities, kept in a
/// thread-local scratch instead of a tensor, through mean_target_nll —
/// exactly nn::SoftmaxCrossEntropy::forward's value. Throws on zero rows
/// or columns.
double mean_cross_entropy(std::span<const float> logits, std::size_t cols,
                          std::span<const std::int32_t> targets);

/// Sum of all elements.
float sum(const Tensor& a);
/// Mean of all elements.
float mean(const Tensor& a);
/// Dot product of two same-shape tensors viewed flat, summed in ascending
/// order; every build rounds each step the same way (see ops.cpp).
float dot(const Tensor& a, const Tensor& b);
/// L2 norm over all elements.
float l2_norm(const Tensor& a);

/// out += column sums of a (out must be rank-1 of length a.dim(1)).
void column_sums_acc(Tensor& out, const Tensor& a);

/// The kernel path the NEXT matmul-family call will take: "avx2-fma" when
/// the AVX2 kernels are built and the active SIMD tier
/// (common::active_simd_tier, which admits AVX2 only on a CPU with AVX2
/// and FMA) engages them; "scalar" otherwise. Tests and benches use this
/// to assert/record what actually engaged.
const char* active_matmul_path();

}  // namespace semcache::tensor
