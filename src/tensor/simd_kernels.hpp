// Internal seam between the dispatching tensor ops (ops.cpp) and the
// AVX2 translation unit (ops_avx2.cpp), which is the only TU compiled with
// -mavx2 -mfma (and -ffp-contract=off, so the two kernel flavors below have
// deterministic codegen: the *_fma kernels fuse because they spell
// _mm256_fmadd_ps explicitly, the *_muladd kernels round after every
// multiply because the compiler is forbidden from re-fusing them).
//
// Two flavors exist because "bit-identical to the scalar kernels" depends
// on how the scalar kernels were COMPILED: Release (-O3 -march=native with
// GCC's default -ffp-contract=fast) contracts the scalar c += a*b into
// hardware FMA, while the sanitizer configs (-O1) do not. ops.cpp settles
// the question empirically at first use: it runs both flavors against the
// as-built scalar kernel on an adversarial probe (a value pattern where
// fused and unfused accumulation MUST differ in the last bit) and installs
// whichever flavor matches bit-for-bit — or neither, leaving the scalar
// kernels in sole charge. See "SIMD kernels" in the README.
#pragma once

#include <cstddef>

#include "tensor/ops.hpp"  // AdamCoefficients

namespace semcache::tensor::detail {

/// c (m x n) += a * b, identical contract to the scalar gemm_nn/gemm_tn in
/// ops.cpp: per C element the products accumulate in ascending-k order (SIMD
/// lanes run across output columns, never across k), so for the matching
/// contraction flavor the result is bit-identical to the scalar kernel on
/// any shape. For the nn layout a is row-major (m x k); for the tn layout a
/// is stored (k x m) and read down columns.
using GemmFn = void (*)(std::size_t m, std::size_t k, std::size_t n,
                        const float* a, const float* b, float* c);

/// Row-broadcast epilogues over c (m x n): bias adds, bias_relu adds then
/// clamps at zero. Pure adds/max — no contraction ambiguity, one flavor.
using EpilogueFn = void (*)(std::size_t m, std::size_t n, const float* bias,
                            float* c);

/// tensor::adam_update over n flat elements. The two moment updates are
/// the only multiply-adds: the fma flavor computes fma(beta1, m, (1-beta1)*g)
/// and fma(beta2, v, ((1-beta2)*g)*g), the fused form a contracting scalar
/// build produces; the muladd flavor rounds every product. Unlike the gemm
/// flavors this choice is made at compile time (__FMA__ in ops.cpp), because
/// the scalar reference spells its fusion out with std::fma.
using AdamFn = void (*)(std::size_t n, const AdamCoefficients& c,
                        const float* grad, float* m, float* v, float* value);

struct Avx2TensorKernels {
  GemmFn gemm_nn_fma;
  GemmFn gemm_nn_muladd;
  GemmFn gemm_tn_fma;
  GemmFn gemm_tn_muladd;
  EpilogueFn bias;
  EpilogueFn bias_relu;
  AdamFn adam_fma;
  AdamFn adam_muladd;
};

/// The AVX2 kernel table, or nullptr when this build carries no AVX2 code
/// (non-x86 target, or the compiler refused the ISA flags).
const Avx2TensorKernels* avx2_tensor_kernels();

}  // namespace semcache::tensor::detail
