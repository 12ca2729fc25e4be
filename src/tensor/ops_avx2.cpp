// AVX2/FMA micro-kernels for the matmul family, the Adam update, and expf
// with the softmax family built on it (row_softmax, which
// mean_cross_entropy runs, and row_argmax). This TU is compiled with -mavx2
// -mfma -ffp-contract=off (see CMakeLists.txt) and is the only one carrying
// AVX2 code; everything here is reached through the kernel table in
// simd_kernels.hpp. Every multiply-add is spelled fused (_mm256_fmadd_*,
// __builtin_fmaf), as the scalar twins in ops.cpp spell std::fma.
//
// Shape of the kernel: C accumulators live in ymm registers across the whole
// k panel (6 rows x 16 columns = 12 independent FMA chains, enough to hide
// FMA latency), where the scalar kernel re-streams its 4 C rows through
// memory on every k step — that store/reload traffic is what capped it near
// ~26 GFLOP/s. Lanes run across output COLUMNS; k advances scalar, one step
// at a time, so per C element the summation order is exactly the scalar
// kernel's ascending-k chain of fused multiply-adds, and the result is the
// scalar kernel's bit for bit.
#include "tensor/simd_kernels.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>
#include <cstring>

namespace semcache::tensor::detail {
namespace {

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
template <bool kTrans>
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
    a0 = _mm256_fmadd_ps(av, p0, a0);
    a1 = _mm256_fmadd_ps(av, p1, a1);
    av = _mm256_broadcast_ss(a_at<kTrans>(a, astride, 1, kk));
    b0v = _mm256_fmadd_ps(av, p0, b0v);
    b1v = _mm256_fmadd_ps(av, p1, b1v);
    av = _mm256_broadcast_ss(a_at<kTrans>(a, astride, 2, kk));
    d0 = _mm256_fmadd_ps(av, p0, d0);
    d1 = _mm256_fmadd_ps(av, p1, d1);
    av = _mm256_broadcast_ss(a_at<kTrans>(a, astride, 3, kk));
    e0 = _mm256_fmadd_ps(av, p0, e0);
    e1 = _mm256_fmadd_ps(av, p1, e1);
    av = _mm256_broadcast_ss(a_at<kTrans>(a, astride, 4, kk));
    f0 = _mm256_fmadd_ps(av, p0, f0);
    f1 = _mm256_fmadd_ps(av, p1, f1);
    av = _mm256_broadcast_ss(a_at<kTrans>(a, astride, 5, kk));
    g0 = _mm256_fmadd_ps(av, p0, g0);
    g1 = _mm256_fmadd_ps(av, p1, g1);
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

template <int R, bool kTrans>
void micro16(std::size_t kc, std::size_t n, std::size_t astride,
             const float* a, const float* b, float* c) {
  if constexpr (R == 6) {
    micro16x6<kTrans>(kc, n, astride, a, b, c);
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
        lo[r] = _mm256_fmadd_ps(av, b0, lo[r]);
        hi[r] = _mm256_fmadd_ps(av, b1, hi[r]);
      }
    }
    for (int r = 0; r < R; ++r) {
      _mm256_storeu_ps(c + static_cast<std::size_t>(r) * n, lo[r]);
      _mm256_storeu_ps(c + static_cast<std::size_t>(r) * n + 8, hi[r]);
    }
  }
}

// R x 8 tile for the single-vector column remainder.
template <int R, bool kTrans>
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
      acc[r] = _mm256_fmadd_ps(av, bv, acc[r]);
    }
  }
  for (int r = 0; r < R; ++r) {
    _mm256_storeu_ps(c + static_cast<std::size_t>(r) * n, acc[r]);
  }
}

// Scalar column tail (n % 8 trailing columns), same ascending-k chain.
template <int R, bool kTrans>
void micro_cols(std::size_t kc, std::size_t n, std::size_t astride,
                const float* a, const float* b, float* c, std::size_t cols) {
  for (std::size_t j = 0; j < cols; ++j) {
    for (int r = 0; r < R; ++r) {
      const std::size_t rs = static_cast<std::size_t>(r);
      float acc = c[rs * n + j];
      for (std::size_t kk = 0; kk < kc; ++kk) {
        acc = __builtin_fmaf(*a_at<kTrans>(a, astride, rs, kk),
                             b[kk * n + j], acc);
      }
      c[rs * n + j] = acc;
    }
  }
}

template <int R, bool kTrans>
void row_block(std::size_t kc, std::size_t n, std::size_t astride,
               const float* a, const float* b, float* c) {
  std::size_t j = 0;
  for (; j + 16 <= n; j += 16) {
    micro16<R, kTrans>(kc, n, astride, a, b + j, c + j);
  }
  if (j + 8 <= n) {
    micro8<R, kTrans>(kc, n, astride, a, b + j, c + j);
    j += 8;
  }
  if (j < n) {
    micro_cols<R, kTrans>(kc, n, astride, a, b + j, c + j, n - j);
  }
}

template <bool kTrans>
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
      row_block<6, kTrans>(kc, n, astride, ap(i), bp, c + i * n);
    }
    switch (m - i) {
      case 5: row_block<5, kTrans>(kc, n, astride, ap(i), bp, c + i * n); break;
      case 4: row_block<4, kTrans>(kc, n, astride, ap(i), bp, c + i * n); break;
      case 3: row_block<3, kTrans>(kc, n, astride, ap(i), bp, c + i * n); break;
      case 2: row_block<2, kTrans>(kc, n, astride, ap(i), bp, c + i * n); break;
      case 1: row_block<1, kTrans>(kc, n, astride, ap(i), bp, c + i * n); break;
      default: break;
    }
  }
}

// Epilogues: one add (or add + clamp) per element and no multiply, so
// vector and scalar agree bitwise.
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
// round-to-nearest conversion the scalar static_cast uses). The two moment
// updates are fused multiply-adds, as the scalar spells them. IEEE division
// and square root are correctly rounded per lane, so keeping the scalar
// operation order — m/bc1 and v/bc2 as divisions, (lr*mhat)/(sqrt(vhat)+eps)
// — makes every lane bit-identical to the scalar element.
struct AdamLanes {
  __m256d lr, beta1, beta2, one_minus_beta1, one_minus_beta2, eps, bc1, bc2;
};

// One group of four elements. A group whose gradient and both moments are
// all +0.0 bits is skipped: its update is exactly value -= +0.0f, a no-op
// for every value, -0.0f included (the zero test is on bits because a -0.0
// moment becomes +0.0 once updated). These are the embedding rows a
// fine-tune's samples never touch.
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
  const __m128 m1 = _mm256_cvtpd_ps(_mm256_fmadd_pd(
      k.beta1, _mm256_cvtps_pd(mf), _mm256_mul_pd(k.one_minus_beta1, g)));
  const __m128 v1 = _mm256_cvtpd_ps(
      _mm256_fmadd_pd(k.beta2, _mm256_cvtps_pd(vf),
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
    adam4(k, grad + j, m + j, v + j, value + j);
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
    adam4(k, g4, m4, v4, val4);
    std::memcpy(m + j, m4, bytes);
    std::memcpy(v + j, v4, bytes);
    std::memcpy(value + j, val4, bytes);
  }
}

// ---- expf and the softmax family ------------------------------------------

// tensor::expf over four lanes in double, step for step: the same fused
// steps, the same roundings, and a gather where the scalar indexes the
// table.
inline __m128 expf4(__m128 x) {
  const __m256d invln2n = _mm256_set1_pd(kExpfInvLn2N);
  const __m256d shift = _mm256_set1_pd(kExpfShift);
  const __m256d xd = _mm256_cvtps_pd(x);
  const __m256d kd = _mm256_fmadd_pd(invln2n, xd, shift);
  const __m256i ki = _mm256_castpd_si256(kd);
  const __m256d r = _mm256_fmsub_pd(invln2n, xd, _mm256_sub_pd(kd, shift));
  const __m256i t = _mm256_i64gather_epi64(
      reinterpret_cast<const long long*>(kExpfTable),
      _mm256_and_si256(ki, _mm256_set1_epi64x(31)), 8);
  const __m256d s =
      _mm256_castsi256_pd(_mm256_add_epi64(t, _mm256_slli_epi64(ki, 47)));
  const __m256d z = _mm256_fmadd_pd(_mm256_set1_pd(kExpfC0), r,
                                    _mm256_set1_pd(kExpfC1));
  const __m256d y = _mm256_fmadd_pd(
      z, _mm256_mul_pd(r, r),
      _mm256_fmadd_pd(_mm256_set1_pd(kExpfC2), r, _mm256_set1_pd(1.0)));
  return _mm256_cvtpd_ps(_mm256_mul_pd(y, s));
}

// Eight lanes. A lane with |x| >= 88 or NaN runs the same arithmetic and is
// then replaced by glibc's special case, as the scalar branches to it.
inline __m256 expf8(__m256 x) {
  __m256 y = _mm256_set_m128(expf4(_mm256_extractf128_ps(x, 1)),
                             expf4(_mm256_castps256_ps128(x)));
  const __m256i abs_bits = _mm256_and_si256(_mm256_castps_si256(x),
                                            _mm256_set1_epi32(0x7fffffff));
  const __m256i special =
      _mm256_cmpgt_epi32(abs_bits, _mm256_set1_epi32(0x42afffff));
  if (_mm256_movemask_ps(_mm256_castsi256_ps(special)) != 0) {
    const __m256 over =
        _mm256_cmp_ps(x, _mm256_set1_ps(kExpfOverflow), _CMP_GT_OQ);
    const __m256 under =
        _mm256_cmp_ps(x, _mm256_set1_ps(kExpfUnderflow), _CMP_LT_OQ);
    const __m256 nan = _mm256_cmp_ps(x, x, _CMP_UNORD_Q);
    const __m256 inf = _mm256_castsi256_ps(_mm256_set1_epi32(0x7f800000));
    y = _mm256_blendv_ps(y, inf, over);
    y = _mm256_blendv_ps(y, _mm256_setzero_ps(), under);
    y = _mm256_blendv_ps(y, _mm256_add_ps(x, x), nan);
  }
  return y;
}

void expf8_avx2(const float* x, float* y) {
  _mm256_storeu_ps(y, expf8(_mm256_loadu_ps(x)));
}

// Lanes [0, n) set, for a tail of n < 8 columns.
inline __m256i tail_mask(std::size_t n) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(n)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

inline float hmax(__m256 v) {
  __m128 m = _mm_max_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps(v, 1));
  m = _mm_max_ps(m, _mm_movehl_ps(m, m));
  m = _mm_max_ss(m, _mm_shuffle_ps(m, m, 1));
  return _mm_cvtss_f32(m);
}

// The row maximum, and whether every element is finite. For a finite row
// the vector max is the scalar chain's value up to the sign of a zero,
// which no caller can see: x - (+0) and x - (-0) are equal for x != 0,
// and expf(+0) = expf(-0).
inline float row_max(const float* row, std::size_t cols, bool& finite) {
  const __m256i abs_mask = _mm256_set1_epi32(0x7fffffff);
  __m256 mx = _mm256_set1_ps(row[0]);
  __m256i top = _mm256_setzero_si256();  // largest |bits|
  std::size_t j = 0;
  for (; j + 8 <= cols; j += 8) {
    const __m256 v = _mm256_loadu_ps(row + j);
    mx = _mm256_max_ps(mx, v);
    top = _mm256_max_epi32(
        top, _mm256_and_si256(_mm256_castps_si256(v), abs_mask));
  }
  if (j < cols) {
    const __m256i mask = tail_mask(cols - j);
    const __m256 v = _mm256_maskload_ps(row + j, mask);  // 0 past the row
    mx = _mm256_max_ps(mx, _mm256_blendv_ps(mx, v, _mm256_castsi256_ps(mask)));
    top = _mm256_max_epi32(
        top, _mm256_and_si256(_mm256_castps_si256(v), abs_mask));
  }
  const __m256i inf_or_nan =
      _mm256_cmpgt_epi32(top, _mm256_set1_epi32(0x7f7fffff));
  finite = _mm256_movemask_ps(_mm256_castsi256_ps(inf_or_nan)) == 0;
  return hmax(mx);
}

// In-register 8x8 transpose: row vectors in, column vectors out.
inline void transpose8(__m256& r0, __m256& r1, __m256& r2, __m256& r3,
                       __m256& r4, __m256& r5, __m256& r6, __m256& r7) {
  const __m256 t0 = _mm256_unpacklo_ps(r0, r1);
  const __m256 t1 = _mm256_unpackhi_ps(r0, r1);
  const __m256 t2 = _mm256_unpacklo_ps(r2, r3);
  const __m256 t3 = _mm256_unpackhi_ps(r2, r3);
  const __m256 t4 = _mm256_unpacklo_ps(r4, r5);
  const __m256 t5 = _mm256_unpackhi_ps(r4, r5);
  const __m256 t6 = _mm256_unpacklo_ps(r6, r7);
  const __m256 t7 = _mm256_unpackhi_ps(r6, r7);
  const __m256 s0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
  r0 = _mm256_permute2f128_ps(s0, s4, 0x20);
  r1 = _mm256_permute2f128_ps(s1, s5, 0x20);
  r2 = _mm256_permute2f128_ps(s2, s6, 0x20);
  r3 = _mm256_permute2f128_ps(s3, s7, 0x20);
  r4 = _mm256_permute2f128_ps(s0, s4, 0x31);
  r5 = _mm256_permute2f128_ps(s1, s5, 0x31);
  r6 = _mm256_permute2f128_ps(s2, s6, 0x31);
  r7 = _mm256_permute2f128_ps(s3, s7, 0x31);
}

// Eight rows at a time, one lane per row. Past the block's last row the
// group repeats that row, so a short group runs the same code and
// softmax_avx2 drops the repeats' lanes.
struct RowGroup {
  const float* src[8];
  float mx[8];
  bool finite[8];
  std::size_t rows;  // real rows, 1..8
};

inline RowGroup row_group(const float* block, std::size_t rows,
                          std::size_t cols) {
  RowGroup g;
  g.rows = rows;
  for (std::size_t r = 0; r < 8; ++r) {
    g.src[r] = block + std::min(r, rows - 1) * cols;
    g.mx[r] = row_max(g.src[r], cols, g.finite[r]);
  }
  return g;
}

// The exp pass of a group: e = expf(x - max) per element, written to the
// dst rows (a repeated row writes its row's own values again), and per
// row the denominator sum in ascending column order — the scalar chain,
// with lane r of the result for row r. Each 8x8 block is computed as row
// vectors and transposed into column vectors, so a row's additions stay
// in its lane and in column order.
__m256 exp_pass(const RowGroup& g, float* const* dst, std::size_t cols) {
  const auto e_of = [&](std::size_t r, std::size_t j, __m256 x) {
    const __m256 e = expf8(_mm256_sub_ps(x, _mm256_broadcast_ss(&g.mx[r])));
    _mm256_storeu_ps(dst[r] + j, e);
    return e;
  };
  __m256 denom = _mm256_setzero_ps();
  std::size_t j = 0;
  for (; j + 8 <= cols; j += 8) {
    __m256 e0 = e_of(0, j, _mm256_loadu_ps(g.src[0] + j));
    __m256 e1 = e_of(1, j, _mm256_loadu_ps(g.src[1] + j));
    __m256 e2 = e_of(2, j, _mm256_loadu_ps(g.src[2] + j));
    __m256 e3 = e_of(3, j, _mm256_loadu_ps(g.src[3] + j));
    __m256 e4 = e_of(4, j, _mm256_loadu_ps(g.src[4] + j));
    __m256 e5 = e_of(5, j, _mm256_loadu_ps(g.src[5] + j));
    __m256 e6 = e_of(6, j, _mm256_loadu_ps(g.src[6] + j));
    __m256 e7 = e_of(7, j, _mm256_loadu_ps(g.src[7] + j));
    transpose8(e0, e1, e2, e3, e4, e5, e6, e7);
    denom = _mm256_add_ps(denom, e0);
    denom = _mm256_add_ps(denom, e1);
    denom = _mm256_add_ps(denom, e2);
    denom = _mm256_add_ps(denom, e3);
    denom = _mm256_add_ps(denom, e4);
    denom = _mm256_add_ps(denom, e5);
    denom = _mm256_add_ps(denom, e6);
    denom = _mm256_add_ps(denom, e7);
  }
  if (j < cols) {
    // Tail: masked loads (0 past the row, whose exps are computed and
    // dropped), masked stores, and only the tail's columns added.
    const std::size_t n = cols - j;
    const __m256i mask = tail_mask(n);
    const auto tail_e = [&](std::size_t r) {
      const __m256 x = _mm256_maskload_ps(g.src[r] + j, mask);
      const __m256 e =
          expf8(_mm256_sub_ps(x, _mm256_broadcast_ss(&g.mx[r])));
      _mm256_maskstore_ps(dst[r] + j, mask, e);
      return e;
    };
    __m256 e0 = tail_e(0), e1 = tail_e(1), e2 = tail_e(2), e3 = tail_e(3);
    __m256 e4 = tail_e(4), e5 = tail_e(5), e6 = tail_e(6), e7 = tail_e(7);
    transpose8(e0, e1, e2, e3, e4, e5, e6, e7);
    const __m256 col[7] = {e0, e1, e2, e3, e4, e5, e6};
    for (std::size_t c = 0; c < n; ++c) denom = _mm256_add_ps(denom, col[c]);
  }
  return denom;
}

void softmax_avx2(std::size_t rows, std::size_t cols, const float* in,
                  float* out) {
  for (std::size_t i = 0; i < rows; i += 8) {
    const RowGroup g =
        row_group(in + i * cols, std::min<std::size_t>(8, rows - i), cols);
    float* dst[8];
    for (std::size_t r = 0; r < 8; ++r) {
      dst[r] = out + (i + std::min(r, g.rows - 1)) * cols;
    }
    alignas(32) float inv[8];
    _mm256_store_ps(inv, _mm256_div_ps(_mm256_set1_ps(1.0f),
                                       exp_pass(g, dst, cols)));
    // Scale each real row once: e * (1 / denom), as the scalar does.
    for (std::size_t r = 0; r < g.rows; ++r) {
      if (!g.finite[r]) {
        softmax_row(g.src[r], dst[r], cols);
        continue;
      }
      const __m256 s = _mm256_broadcast_ss(&inv[r]);
      std::size_t j = 0;
      for (; j + 8 <= cols; j += 8) {
        _mm256_storeu_ps(dst[r] + j,
                         _mm256_mul_ps(_mm256_loadu_ps(dst[r] + j), s));
      }
      if (j < cols) {
        const __m256i mask = tail_mask(cols - j);
        _mm256_maskstore_ps(
            dst[r] + j, mask,
            _mm256_mul_ps(_mm256_maskload_ps(dst[r] + j, mask), s));
      }
    }
  }
}

// First index of the row maximum: the max, then the first lane equal to
// it. Equality finds the first of +0 and -0 as the `>` chain does.
void argmax_avx2(std::size_t rows, std::size_t cols, const float* t,
                 std::int32_t* out) {
  for (std::size_t i = 0; i < rows; ++i) {
    const float* row = t + i * cols;
    bool finite = false;
    const float m = row_max(row, cols, finite);
    if (!finite) {
      out[i] = argmax_row(row, cols);
      continue;
    }
    const __m256 mv = _mm256_set1_ps(m);
    std::size_t j = 0;
    int hits = 0;
    for (; j + 8 <= cols; j += 8) {
      hits = _mm256_movemask_ps(
          _mm256_cmp_ps(_mm256_loadu_ps(row + j), mv, _CMP_EQ_OQ));
      if (hits != 0) break;
    }
    if (hits == 0) {  // the maximum is in the tail
      const std::size_t n = cols - j;
      hits = _mm256_movemask_ps(_mm256_cmp_ps(
                 _mm256_maskload_ps(row + j, tail_mask(n)), mv, _CMP_EQ_OQ)) &
             ((1 << n) - 1);
    }
    out[i] = static_cast<std::int32_t>(j) +
             __builtin_ctz(static_cast<unsigned>(hits));
  }
}

constexpr Avx2TensorKernels kKernels = {
    /*gemm_nn=*/gemm<false>,
    /*gemm_tn=*/gemm<true>,
    /*bias=*/bias_avx2,
    /*bias_relu=*/bias_relu_avx2,
    /*adam=*/adam_avx2,
    /*expf8=*/expf8_avx2,
    /*softmax=*/softmax_avx2,
    /*argmax=*/argmax_avx2,
};

}  // namespace

const Avx2TensorKernels* avx2_tensor_kernels() { return &kKernels; }

}  // namespace semcache::tensor::detail

#else  // no AVX2/FMA in this build: the dispatch layer sees an empty table

namespace semcache::tensor::detail {
const Avx2TensorKernels* avx2_tensor_kernels() { return nullptr; }
}  // namespace semcache::tensor::detail

#endif
