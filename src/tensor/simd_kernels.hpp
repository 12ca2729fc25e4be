// Internal seam between the dispatching tensor ops (ops.cpp) and the
// AVX2 translation unit (ops_avx2.cpp), which is the only TU compiled with
// -mavx2 -mfma; channel/simd.hpp is the channel plane's seam of the same
// shape.
//
// Each kernel here is bit-identical to its scalar twin in ops.cpp on every
// input, in every build type, by one rule: both tiers spell every
// multiply-add as a fused one (std::fma in ops.cpp; _mm256_fmadd_* and
// __builtin_fmaf here) in the same order, and every other operation (add,
// multiply, divide, sqrt, conversion) rounds once in both. The source, not
// the build's contraction setting, fixes the rounding, so each kernel has
// one form for every build type. See "SIMD kernels" in the README.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/cpu.hpp"
#include "common/log.hpp"
#include "tensor/ops.hpp"  // AdamCoefficients

namespace semcache::tensor::detail {

// glibc 2.36's expf (sysdeps/ieee754/flt-32/e_expf.c): exp(x) =
// 2^(k/32) * 2^(r/32) with k = round(x * 32/ln2) and |r| <= 1/2, where
// 2^(k/32) comes from a 32-entry table and 2^(r/32) from a degree-3
// polynomial, all in double. The constants are the ones the library
// carries; tensor::expf spells the arithmetic (see ops.cpp).
inline constexpr double kExpfInvLn2N = 0x1.71547652b82fep+5;  // 32 / ln 2
inline constexpr double kExpfShift = 0x1.8p+52;  // rounds to an integer
/// 2^(r/32) ~= C0 r^3 + C1 r^2 + C2 r + 1.
inline constexpr double kExpfC0 = 0x1.c6af84b912394p-20;
inline constexpr double kExpfC1 = 0x1.ebfce50fac4f3p-13;
inline constexpr double kExpfC2 = 0x1.62e42ff0c52d6p-6;
/// Above this expf overflows to +inf; below the other it returns +0.
inline constexpr float kExpfOverflow = 0x1.62e42ep6f;     // ~88.72
inline constexpr float kExpfUnderflow = -0x1.9fe368p6f;   // ~-103.97
/// Entry i is bits(2^(i/32)) - (i << 47): adding k << 47 for any integer k
/// with k % 32 == i lands on the bits of 2^(k/32).
inline constexpr std::uint64_t kExpfTable[32] = {
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f,
    0x3fef9301d0125b51, 0x3fef72b83c7d517b, 0x3fef54873168b9aa,
    0x3fef387a6e756238, 0x3fef1e9df51fdee1, 0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429,
    0x3feea47eb03a5585, 0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74,
    0x3feea11473eb0187, 0x3feea589994cce13, 0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c,
    0x3fef3720dcef9069, 0x3fef5818dcfba487, 0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
};

// Scalar row kernels (ops.cpp, built without the ISA flags). The AVX2
// kernels leave them every row that holds a NaN or an infinity: the
// scalar max chain keeps a NaN only when it is the row's first element,
// a rule the vector max does not follow, and which NaN an operation on
// two of them returns depends on operand order the compiler picks.

/// One row of row_softmax: out[j] = expf(in[j] - max) * (1 / sum).
void softmax_row(const float* in, float* out, std::size_t cols);
/// First index of the row maximum, by the `>` chain of row_argmax.
std::int32_t argmax_row(const float* row, std::size_t cols);

/// c (m x n) += a * b, identical contract to the scalar gemm_nn/gemm_tn in
/// ops.cpp: per C element the products accumulate in ascending-k order, one
/// fused multiply-add per step (SIMD lanes run across output columns, never
/// across k), so the result is bit-identical to the scalar kernel on any
/// shape. For the nn layout a is row-major (m x k); for the tn layout a is
/// stored (k x m) and read down columns.
using GemmFn = void (*)(std::size_t m, std::size_t k, std::size_t n,
                        const float* a, const float* b, float* c);

/// Row-broadcast epilogues over c (m x n): bias adds, bias_relu adds then
/// clamps at zero. Pure adds and max, no multiply.
using EpilogueFn = void (*)(std::size_t m, std::size_t n, const float* bias,
                            float* c);

/// tensor::adam_update over n flat elements. The two moment updates are
/// the only multiply-adds, fma(beta1, m, (1-beta1)*g) and
/// fma(beta2, v, ((1-beta2)*g)*g), fused as the scalar reference spells
/// them.
using AdamFn = void (*)(std::size_t n, const AdamCoefficients& c,
                        const float* grad, float* m, float* v, float* value);

/// y[i] = tensor::expf(x[i]) for eight lanes, as two halves of four
/// doubles with a table gather. Every step is the scalar one, fused where
/// the scalar spells std::fma, so each lane equals the scalar call.
using Expf8Fn = void (*)(const float* x, float* y);

/// row_softmax over a row-major (rows x cols) block, out not aliasing in.
/// Rows go in groups of eight, one lane per row: each row's denominator is
/// the scalar ascending-column float chain, read through 8x8 transposes.
using SoftmaxFn = void (*)(std::size_t rows, std::size_t cols,
                           const float* in, float* out);

/// out[r] = argmax_row(row r) over a row-major (rows x cols) block.
using ArgmaxFn = void (*)(std::size_t rows, std::size_t cols, const float* t,
                          std::int32_t* out);

struct Avx2TensorKernels {
  GemmFn gemm_nn;
  GemmFn gemm_tn;
  EpilogueFn bias;
  EpilogueFn bias_relu;
  AdamFn adam;
  Expf8Fn expf8;
  SoftmaxFn softmax;
  ArgmaxFn argmax;
};

/// The AVX2 kernel table, or nullptr when this build carries no AVX2 code
/// (non-x86 target, or the compiler refused the ISA flags).
const Avx2TensorKernels* avx2_tensor_kernels();

/// The table when the AVX2 kernels are built AND the active SIMD tier
/// admits them; nullptr means run the scalar twin. Logs once on first
/// engagement.
inline const Avx2TensorKernels* engaged_tensor_kernels() {
  const Avx2TensorKernels* k = avx2_tensor_kernels();
  if (k == nullptr ||
      common::active_simd_tier() != common::SimdTier::kAvx2) {
    return nullptr;
  }
  static const bool logged =
      common::log_once("simd.tensor", "tensor kernels: avx2-fma",
                       common::LogLevel::kInfo);
  (void)logged;
  return k;
}

}  // namespace semcache::tensor::detail
