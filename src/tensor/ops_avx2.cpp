// AVX2/FMA micro-kernels for the matmul family and the Adam update. This
// TU is compiled with -mavx2 -mfma -ffp-contract=off (see CMakeLists.txt)
// and is the only one carrying AVX2 code; everything here is reached
// through the kernel table in simd_kernels.hpp after ops.cpp picks a
// flavor (by its equivalence probe for the gemms, by __FMA__ for Adam).
//
// Shape of the kernel: C accumulators live in ymm registers across the whole
// k panel (6 rows x 16 columns = 12 independent FMA chains, enough to hide
// FMA latency), where the scalar kernel re-streams its 4 C rows through
// memory on every k step — that store/reload traffic is what capped it near
// ~26 GFLOP/s. Lanes run across output COLUMNS; k advances scalar, one step
// at a time, so per C element the summation order is exactly the scalar
// kernel's ascending-k chain and bit-identity is a matter of matching the
// contraction flavor, which the probe in ops.cpp settles empirically.
#include "tensor/simd_kernels.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>
#include <cstring>

namespace semcache::tensor::detail {
namespace {

// The two accumulation flavors (see simd_kernels.hpp). With contraction
// disabled for this TU, the muladd flavor's separate round after the
// multiply survives into the generated code; the fma flavor fuses because
// it says so explicitly, not because the compiler felt like it.
template <bool kFma>
inline __m256 madd(__m256 a, __m256 b, __m256 c) {
  if constexpr (kFma) {
    return _mm256_fmadd_ps(a, b, c);
  } else {
    return _mm256_add_ps(c, _mm256_mul_ps(a, b));
  }
}

template <bool kFma>
inline float maddf(float a, float b, float c) {
  if constexpr (kFma) {
    return __builtin_fmaf(a, b, c);  // hardware vfmadd*ss under -mfma
  } else {
    return c + a * b;
  }
}

// A-element address for relative output row r at absolute depth kk: the nn
// layout walks a row (stride 1 in kk), the tn layout walks a column of the
// (k x m)-stored matrix (stride astride in kk).
template <bool kTrans>
inline const float* a_at(const float* a, std::size_t astride, std::size_t r,
                         std::size_t kk) {
  return kTrans ? a + kk * astride + r : a + r * astride + kk;
}

// R x 16 register tile: load C once, run the whole k panel out of ymm
// accumulators, store C once. The hot 6-row case uses twelve NAMED
// accumulators instead of __m256 arrays: GCC declines to fully scalarize
// 192-byte register arrays, leaving a dead stack store after every FMA
// that saturates the store port and halves throughput. Named locals
// register-allocate cleanly (12 accumulators + 2 B vectors + 1 broadcast
// = 15 of 16 ymm).
template <bool kFma, bool kTrans>
void micro16x6(std::size_t kc, std::size_t n, std::size_t astride,
               const float* a, const float* b, float* c) {
  float* c0 = c;
  float* c1 = c + n;
  float* c2 = c + 2 * n;
  float* c3 = c + 3 * n;
  float* c4 = c + 4 * n;
  float* c5 = c + 5 * n;
  __m256 a0 = _mm256_loadu_ps(c0), a1 = _mm256_loadu_ps(c0 + 8);
  __m256 b0v = _mm256_loadu_ps(c1), b1v = _mm256_loadu_ps(c1 + 8);
  __m256 d0 = _mm256_loadu_ps(c2), d1 = _mm256_loadu_ps(c2 + 8);
  __m256 e0 = _mm256_loadu_ps(c3), e1 = _mm256_loadu_ps(c3 + 8);
  __m256 f0 = _mm256_loadu_ps(c4), f1 = _mm256_loadu_ps(c4 + 8);
  __m256 g0 = _mm256_loadu_ps(c5), g1 = _mm256_loadu_ps(c5 + 8);
  for (std::size_t kk = 0; kk < kc; ++kk) {
    const float* brow = b + kk * n;
    const __m256 p0 = _mm256_loadu_ps(brow);
    const __m256 p1 = _mm256_loadu_ps(brow + 8);
    __m256 av;
    av = _mm256_broadcast_ss(a_at<kTrans>(a, astride, 0, kk));
    a0 = madd<kFma>(av, p0, a0);
    a1 = madd<kFma>(av, p1, a1);
    av = _mm256_broadcast_ss(a_at<kTrans>(a, astride, 1, kk));
    b0v = madd<kFma>(av, p0, b0v);
    b1v = madd<kFma>(av, p1, b1v);
    av = _mm256_broadcast_ss(a_at<kTrans>(a, astride, 2, kk));
    d0 = madd<kFma>(av, p0, d0);
    d1 = madd<kFma>(av, p1, d1);
    av = _mm256_broadcast_ss(a_at<kTrans>(a, astride, 3, kk));
    e0 = madd<kFma>(av, p0, e0);
    e1 = madd<kFma>(av, p1, e1);
    av = _mm256_broadcast_ss(a_at<kTrans>(a, astride, 4, kk));
    f0 = madd<kFma>(av, p0, f0);
    f1 = madd<kFma>(av, p1, f1);
    av = _mm256_broadcast_ss(a_at<kTrans>(a, astride, 5, kk));
    g0 = madd<kFma>(av, p0, g0);
    g1 = madd<kFma>(av, p1, g1);
  }
  _mm256_storeu_ps(c0, a0);
  _mm256_storeu_ps(c0 + 8, a1);
  _mm256_storeu_ps(c1, b0v);
  _mm256_storeu_ps(c1 + 8, b1v);
  _mm256_storeu_ps(c2, d0);
  _mm256_storeu_ps(c2 + 8, d1);
  _mm256_storeu_ps(c3, e0);
  _mm256_storeu_ps(c3 + 8, e1);
  _mm256_storeu_ps(c4, f0);
  _mm256_storeu_ps(c4 + 8, f1);
  _mm256_storeu_ps(c5, g0);
  _mm256_storeu_ps(c5 + 8, g1);
}

template <int R, bool kFma, bool kTrans>
void micro16(std::size_t kc, std::size_t n, std::size_t astride,
             const float* a, const float* b, float* c) {
  if constexpr (R == 6) {
    micro16x6<kFma, kTrans>(kc, n, astride, a, b, c);
  } else {
    __m256 lo[R], hi[R];
    for (int r = 0; r < R; ++r) {
      lo[r] = _mm256_loadu_ps(c + static_cast<std::size_t>(r) * n);
      hi[r] = _mm256_loadu_ps(c + static_cast<std::size_t>(r) * n + 8);
    }
    for (std::size_t kk = 0; kk < kc; ++kk) {
      const float* brow = b + kk * n;
      const __m256 b0 = _mm256_loadu_ps(brow);
      const __m256 b1 = _mm256_loadu_ps(brow + 8);
      for (int r = 0; r < R; ++r) {
        const __m256 av = _mm256_broadcast_ss(
            a_at<kTrans>(a, astride, static_cast<std::size_t>(r), kk));
        lo[r] = madd<kFma>(av, b0, lo[r]);
        hi[r] = madd<kFma>(av, b1, hi[r]);
      }
    }
    for (int r = 0; r < R; ++r) {
      _mm256_storeu_ps(c + static_cast<std::size_t>(r) * n, lo[r]);
      _mm256_storeu_ps(c + static_cast<std::size_t>(r) * n + 8, hi[r]);
    }
  }
}

// R x 8 tile for the single-vector column remainder.
template <int R, bool kFma, bool kTrans>
void micro8(std::size_t kc, std::size_t n, std::size_t astride, const float* a,
            const float* b, float* c) {
  __m256 acc[R];
  for (int r = 0; r < R; ++r) {
    acc[r] = _mm256_loadu_ps(c + static_cast<std::size_t>(r) * n);
  }
  for (std::size_t kk = 0; kk < kc; ++kk) {
    const __m256 bv = _mm256_loadu_ps(b + kk * n);
    for (int r = 0; r < R; ++r) {
      const __m256 av = _mm256_broadcast_ss(
          a_at<kTrans>(a, astride, static_cast<std::size_t>(r), kk));
      acc[r] = madd<kFma>(av, bv, acc[r]);
    }
  }
  for (int r = 0; r < R; ++r) {
    _mm256_storeu_ps(c + static_cast<std::size_t>(r) * n, acc[r]);
  }
}

// Scalar column tail (n % 8 trailing columns), same ascending-k chain.
template <int R, bool kFma, bool kTrans>
void micro_cols(std::size_t kc, std::size_t n, std::size_t astride,
                const float* a, const float* b, float* c, std::size_t cols) {
  for (std::size_t j = 0; j < cols; ++j) {
    for (int r = 0; r < R; ++r) {
      const std::size_t rs = static_cast<std::size_t>(r);
      float acc = c[rs * n + j];
      for (std::size_t kk = 0; kk < kc; ++kk) {
        acc = maddf<kFma>(*a_at<kTrans>(a, astride, rs, kk), b[kk * n + j],
                          acc);
      }
      c[rs * n + j] = acc;
    }
  }
}

template <int R, bool kFma, bool kTrans>
void row_block(std::size_t kc, std::size_t n, std::size_t astride,
               const float* a, const float* b, float* c) {
  std::size_t j = 0;
  for (; j + 16 <= n; j += 16) {
    micro16<R, kFma, kTrans>(kc, n, astride, a, b + j, c + j);
  }
  if (j + 8 <= n) {
    micro8<R, kFma, kTrans>(kc, n, astride, a, b + j, c + j);
    j += 8;
  }
  if (j < n) {
    micro_cols<R, kFma, kTrans>(kc, n, astride, a, b + j, c + j, n - j);
  }
}

template <bool kFma, bool kTrans>
void gemm(std::size_t m, std::size_t k, std::size_t n, const float* a,
          const float* b, float* c) {
  // k-panel blocking: 256 depth steps per pass keep the streamed B panel
  // (256 rows x 16 active columns = 16 KiB) L1-resident for the 256+
  // shapes. Panels accumulate into C in ascending-k order — the chain per
  // element is identical to one unblocked pass.
  constexpr std::size_t kKc = 256;
  const std::size_t astride = kTrans ? m : k;
  for (std::size_t k0 = 0; k0 < k; k0 += kKc) {
    const std::size_t kc = std::min(kKc, k - k0);
    const float* bp = b + k0 * n;
    auto ap = [&](std::size_t i) {
      return kTrans ? a + k0 * m + i : a + i * k + k0;
    };
    std::size_t i = 0;
    for (; i + 6 <= m; i += 6) {
      row_block<6, kFma, kTrans>(kc, n, astride, ap(i), bp, c + i * n);
    }
    switch (m - i) {
      case 5: row_block<5, kFma, kTrans>(kc, n, astride, ap(i), bp, c + i * n); break;
      case 4: row_block<4, kFma, kTrans>(kc, n, astride, ap(i), bp, c + i * n); break;
      case 3: row_block<3, kFma, kTrans>(kc, n, astride, ap(i), bp, c + i * n); break;
      case 2: row_block<2, kFma, kTrans>(kc, n, astride, ap(i), bp, c + i * n); break;
      case 1: row_block<1, kFma, kTrans>(kc, n, astride, ap(i), bp, c + i * n); break;
      default: break;
    }
  }
}

// Epilogues: one add (or add + clamp) per element — no accumulation chain,
// so vector and scalar agree bitwise regardless of contraction flavor.
// _mm256_max_ps(zero, v) returns v when v is NaN and keeps -0.0f, exactly
// like the scalar `v < 0 ? 0 : v`.
void bias_avx2(std::size_t m, std::size_t n, const float* bias, float* c) {
  for (std::size_t i = 0; i < m; ++i) {
    float* crow = c + i * n;
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8) {
      _mm256_storeu_ps(crow + j, _mm256_add_ps(_mm256_loadu_ps(crow + j),
                                               _mm256_loadu_ps(bias + j)));
    }
    for (; j < n; ++j) crow[j] += bias[j];
  }
}

void bias_relu_avx2(std::size_t m, std::size_t n, const float* bias,
                    float* c) {
  const __m256 zero = _mm256_setzero_ps();
  for (std::size_t i = 0; i < m; ++i) {
    float* crow = c + i * n;
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8) {
      const __m256 v = _mm256_add_ps(_mm256_loadu_ps(crow + j),
                                     _mm256_loadu_ps(bias + j));
      _mm256_storeu_ps(crow + j, _mm256_max_ps(zero, v));
    }
    for (; j < n; ++j) {
      const float v = crow[j] + bias[j];
      crow[j] = v < 0.0f ? 0.0f : v;
    }
  }
}

// Adam: the scalar loop's double-precision arithmetic, four elements per
// instruction (floats widened to a __m256d, narrowed back with the same
// round-to-nearest conversion the scalar static_cast uses). IEEE division
// and square root are correctly rounded per lane, so keeping the scalar
// operation order — m/bc1 and v/bc2 as divisions, (lr*mhat)/(sqrt(vhat)+eps)
// — makes every lane bit-identical to the scalar element.
template <bool kFma>
inline __m256d madd(__m256d a, __m256d b, __m256d c) {
  if constexpr (kFma) {
    return _mm256_fmadd_pd(a, b, c);
  } else {
    return _mm256_add_pd(_mm256_mul_pd(a, b), c);
  }
}

struct AdamLanes {
  __m256d lr, beta1, beta2, one_minus_beta1, one_minus_beta2, eps, bc1, bc2;
};

// One group of four elements. A group whose gradient and both moments are
// all +0.0 bits is skipped: its update is exactly value -= +0.0f, a no-op
// for every value, -0.0f included (the zero test is on bits because a -0.0
// moment becomes +0.0 once updated). These are the embedding rows a
// fine-tune's samples never touch.
template <bool kFma>
inline void adam4(const AdamLanes& k, const float* grad, float* m, float* v,
                  float* value) {
  const __m128 gf = _mm_loadu_ps(grad);
  const __m128 mf = _mm_loadu_ps(m);
  const __m128 vf = _mm_loadu_ps(v);
  const __m128i bits = _mm_or_si128(
      _mm_or_si128(_mm_castps_si128(gf), _mm_castps_si128(mf)),
      _mm_castps_si128(vf));
  if (_mm_testz_si128(bits, bits)) return;
  const __m256d g = _mm256_cvtps_pd(gf);
  const __m128 m1 = _mm256_cvtpd_ps(madd<kFma>(
      k.beta1, _mm256_cvtps_pd(mf), _mm256_mul_pd(k.one_minus_beta1, g)));
  const __m128 v1 = _mm256_cvtpd_ps(
      madd<kFma>(k.beta2, _mm256_cvtps_pd(vf),
                 _mm256_mul_pd(_mm256_mul_pd(k.one_minus_beta2, g), g)));
  _mm_storeu_ps(m, m1);
  _mm_storeu_ps(v, v1);
  const __m256d mhat = _mm256_div_pd(_mm256_cvtps_pd(m1), k.bc1);
  const __m256d vhat = _mm256_div_pd(_mm256_cvtps_pd(v1), k.bc2);
  const __m256d step =
      _mm256_div_pd(_mm256_mul_pd(k.lr, mhat),
                    _mm256_add_pd(_mm256_sqrt_pd(vhat), k.eps));
  _mm_storeu_ps(value,
                _mm_sub_ps(_mm_loadu_ps(value), _mm256_cvtpd_ps(step)));
}

template <bool kFma>
void adam_avx2(std::size_t n, const AdamCoefficients& c, const float* grad,
               float* m, float* v, float* value) {
  const AdamLanes k = {
      _mm256_set1_pd(c.lr),           _mm256_set1_pd(c.beta1),
      _mm256_set1_pd(c.beta2),        _mm256_set1_pd(1.0 - c.beta1),
      _mm256_set1_pd(1.0 - c.beta2),  _mm256_set1_pd(c.eps),
      _mm256_set1_pd(c.bc1),          _mm256_set1_pd(c.bc2),
  };
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    adam4<kFma>(k, grad + j, m + j, v + j, value + j);
  }
  if (j < n) {
    // Tail: the same group arithmetic on zero-padded copies. Padding lanes
    // hold +0.0 everywhere, so they compute 0 - 0 and are never stored.
    const std::size_t bytes = (n - j) * sizeof(float);
    float g4[4] = {}, m4[4] = {}, v4[4] = {}, val4[4] = {};
    std::memcpy(g4, grad + j, bytes);
    std::memcpy(m4, m + j, bytes);
    std::memcpy(v4, v + j, bytes);
    std::memcpy(val4, value + j, bytes);
    adam4<kFma>(k, g4, m4, v4, val4);
    std::memcpy(m + j, m4, bytes);
    std::memcpy(v + j, v4, bytes);
    std::memcpy(value + j, val4, bytes);
  }
}

constexpr Avx2TensorKernels kKernels = {
    /*gemm_nn_fma=*/gemm<true, false>,
    /*gemm_nn_muladd=*/gemm<false, false>,
    /*gemm_tn_fma=*/gemm<true, true>,
    /*gemm_tn_muladd=*/gemm<false, true>,
    /*bias=*/bias_avx2,
    /*bias_relu=*/bias_relu_avx2,
    /*adam_fma=*/adam_avx2<true>,
    /*adam_muladd=*/adam_avx2<false>,
};

}  // namespace

const Avx2TensorKernels* avx2_tensor_kernels() { return &kKernels; }

}  // namespace semcache::tensor::detail

#else  // no AVX2/FMA in this build: the dispatch layer sees an empty table

namespace semcache::tensor::detail {
const Avx2TensorKernels* avx2_tensor_kernels() { return nullptr; }
}  // namespace semcache::tensor::detail

#endif
