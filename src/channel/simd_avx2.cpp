// AVX2/SSE kernels for the channel plane, compiled with -mavx2 -mfma
// -ffp-contract=off (see CMakeLists.txt) and reached through the table in
// channel/simd.hpp. Both are bit-identical to their scalar references by
// construction: the trellis is integer work, and the noise generator
// repeats the scalar reference's operations one for one, its multiply-adds
// fused in both tiers.
#include "channel/simd.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <cstring>

namespace semcache::channel::detail {
namespace {

// Low 64 bits of a * c per lane, c split into 32-bit halves: AVX2 has no
// 64-bit multiply, so it is three 32x32->64 products (the high-high one
// only reaches bits 64 and up).
__m256i mul64(__m256i a, __m256i c_lo, __m256i c_hi) {
  const __m256i lo = _mm256_mul_epu32(a, c_lo);
  const __m256i cross =
      _mm256_add_epi64(_mm256_mul_epu32(_mm256_srli_epi64(a, 32), c_lo),
                       _mm256_mul_epu32(a, c_hi));
  return _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32));
}

// Exact double of each lane's integer, for values below 2^52: put the
// integer in the mantissa of 2^52 and subtract 2^52.
__m256d small_to_double(__m256i v) {
  const __m256i magic = _mm256_set1_epi64x(0x4330000000000000LL);
  return _mm256_sub_pd(_mm256_castsi256_pd(_mm256_or_si256(v, magic)),
                       _mm256_castsi256_pd(magic));
}

template <std::size_t N>
__m256d horner(const double (&coeffs)[N], __m256d t) {
  __m256d p = _mm256_set1_pd(coeffs[0]);
  for (std::size_t k = 1; k < N; ++k) {
    p = _mm256_fmadd_pd(p, t, _mm256_set1_pd(coeffs[k]));
  }
  return p;
}

// Four gaussian pairs of noise, fused-added into d[0..7] = (re, im) of
// four symbols. `z` holds each lane's splitmix64 state key + (i + 1) gamma.
// Operation for operation this is polar() and the add loop in noise.cpp.
void keyed_noise4(__m256i z, __m256d sigma, double* d) {
  const __m256i low32 = _mm256_set1_epi64x(0xFFFFFFFFLL);
  const __m256i one64 = _mm256_set1_epi64x(1);
  const __m256d one = _mm256_set1_pd(1.0);

  // splitmix64 finalizer.
  z = _mm256_xor_si256(z, _mm256_srli_epi64(z, 30));
  z = mul64(z, _mm256_set1_epi64x(0x1CE4E5B9LL),
            _mm256_set1_epi64x(0xBF58476DLL));
  z = _mm256_xor_si256(z, _mm256_srli_epi64(z, 27));
  z = mul64(z, _mm256_set1_epi64x(0x133111EBLL),
            _mm256_set1_epi64x(0x94D049BBLL));
  z = _mm256_xor_si256(z, _mm256_srli_epi64(z, 31));

  // r = sqrt(-2 ln u1), u1 = (low 32 bits + 1) 2^-32.
  const __m256d u1 = _mm256_mul_pd(
      small_to_double(_mm256_add_epi64(_mm256_and_si256(z, low32), one64)),
      _mm256_set1_pd(0x1p-32));
  const __m256i bits = _mm256_castpd_si256(u1);
  const __m256i mant = _mm256_and_si256(
      bits, _mm256_set1_epi64x(static_cast<long long>(kMantissaMask)));
  const __m256i one_bits =
      _mm256_set1_epi64x(static_cast<long long>(kOneBits));
  // fold = 1 where mant | 1.0 lies above sqrt(2).
  const __m256i fold = _mm256_and_si256(
      _mm256_castpd_si256(
          _mm256_cmp_pd(_mm256_castsi256_pd(_mm256_or_si256(mant, one_bits)),
                        _mm256_set1_pd(kSqrt2), _CMP_GT_OQ)),
      one64);
  const __m256d m = _mm256_castsi256_pd(_mm256_or_si256(
      mant, _mm256_sub_epi64(one_bits, _mm256_slli_epi64(fold, 52))));
  const __m256d e = _mm256_sub_pd(
      small_to_double(_mm256_add_epi64(_mm256_srli_epi64(bits, 52), fold)),
      _mm256_set1_pd(1023.0));
  const __m256d s =
      _mm256_div_pd(_mm256_sub_pd(m, one), _mm256_add_pd(m, one));
  const __m256d p = horner(kLogPoly, _mm256_mul_pd(s, s));
  const __m256d ln_u1 = _mm256_fmadd_pd(e, _mm256_set1_pd(kLn2),
                                        _mm256_mul_pd(_mm256_add_pd(s, s), p));
  const __m256d r =
      _mm256_sqrt_pd(_mm256_mul_pd(_mm256_set1_pd(-2.0), ln_u1));

  // Angle q pi/2 + y from the high 32 bits.
  const __m256i hi = _mm256_srli_epi64(z, 32);
  const __m256i q = _mm256_srli_epi64(hi, 30);
  const __m256d y = _mm256_mul_pd(
      _mm256_sub_pd(small_to_double(_mm256_and_si256(
                        hi, _mm256_set1_epi64x(0x3FFFFFFFLL))),
                    _mm256_set1_pd(0x1p29)),
      _mm256_set1_pd(kAngleStep));
  const __m256d y2 = _mm256_mul_pd(y, y);
  const __m256d sn = _mm256_mul_pd(y, horner(kSinPoly, y2));
  const __m256d c = horner(kCosPoly, y2);
  // Odd quadrants swap (cos, sin); x0 changes sign in quadrants 1 and 2,
  // x1 in 2 and 3.
  const __m256d odd =
      _mm256_castsi256_pd(_mm256_cmpeq_epi64(_mm256_and_si256(q, one64), one64));
  const __m256i flip0 = _mm256_slli_epi64(
      _mm256_and_si256(_mm256_srli_epi64(_mm256_add_epi64(q, one64), 1),
                       one64),
      63);
  const __m256i flip1 = _mm256_slli_epi64(_mm256_srli_epi64(q, 1), 63);
  const __m256d x0 =
      _mm256_xor_pd(_mm256_blendv_pd(c, sn, odd), _mm256_castsi256_pd(flip0));
  const __m256d x1 =
      _mm256_xor_pd(_mm256_blendv_pd(sn, c, odd), _mm256_castsi256_pd(flip1));

  // Interleave into (re, im) order and fuse-add rho * x.
  const __m256d rho = _mm256_mul_pd(sigma, r);
  const __m256d lo = _mm256_unpacklo_pd(x0, x1);  // pairs 0, 2
  const __m256d hi2 = _mm256_unpackhi_pd(x0, x1);  // pairs 1, 3
  _mm256_storeu_pd(
      d, _mm256_fmadd_pd(_mm256_permute4x64_pd(rho, 0x50),
                         _mm256_permute2f128_pd(lo, hi2, 0x20),
                         _mm256_loadu_pd(d)));
  _mm256_storeu_pd(
      d + 4, _mm256_fmadd_pd(_mm256_permute4x64_pd(rho, 0xFA),
                             _mm256_permute2f128_pd(lo, hi2, 0x31),
                             _mm256_loadu_pd(d + 4)));
}

void add_keyed_noise_avx2(double* data, std::size_t pairs, std::uint64_t key,
                          std::uint64_t first, double sigma) {
  const __m256d sg = _mm256_set1_pd(sigma);
  // Unsigned wraparound, exactly as noise.cpp's keyed_bits computes each
  // state.
  __m256i z = _mm256_set_epi64x(
      static_cast<long long>(key + (first + 4) * kKeyGamma),
      static_cast<long long>(key + (first + 3) * kKeyGamma),
      static_cast<long long>(key + (first + 2) * kKeyGamma),
      static_cast<long long>(key + (first + 1) * kKeyGamma));
  const __m256i step = _mm256_set1_epi64x(static_cast<long long>(4 * kKeyGamma));
  std::size_t j = 0;
  for (; j + 4 <= pairs; j += 4) {
    keyed_noise4(z, sg, data + 2 * j);
    z = _mm256_add_epi64(z, step);
  }
  if (j < pairs) {
    // The last one to three pairs run on a zero-padded copy.
    double tail[8] = {};
    const std::size_t n = 2 * (pairs - j);
    std::memcpy(tail, data + 2 * j, n * sizeof(double));
    keyed_noise4(z, sg, tail);
    std::memcpy(data + 2 * j, tail, n * sizeof(double));
  }
}

// The four survivor bytes of one trellis step, one per 32-bit lane.
__m128i survivor_lanes(const std::uint8_t (&surv)[4]) {
  return _mm_setr_epi32(surv[0], surv[1], surv[2], surv[3]);
}

// Survivor bytes without a data-dependent branch: blend the B byte into
// the lanes where B won, pack the four low bytes, store them at once.
void store_survivors(__m128i sa, __m128i sb, __m128i bwins,
                     std::uint8_t* sv) {
  const __m128i pick = _mm_setr_epi8(0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1,
                                     -1, -1, -1, -1, -1);
  const __m128i packed =
      _mm_shuffle_epi8(_mm_blendv_epi8(sa, sb, bwins), pick);
  const std::uint32_t four =
      static_cast<std::uint32_t>(_mm_cvtsi128_si32(packed));
  std::memcpy(sv, &four, 4);
}

// Weighted add-compare-select over all four trellis states at once: lane
// ns holds the metric of next-state ns. Branch metrics are rebuilt per
// step from the expected-output tables — cost = w0 where the G1 bit
// mismatches plus w1 where the G2 bit mismatches, via cmpeq/andnot
// masking (pure integer, bit-identical to the scalar form). Capped
// metrics stay <= kViterbiInf < 2^31, so the signed 32-bit compare is
// exact; B wins only on strictly smaller metric, matching the reference
// decoder's ascending-s first-writer rule.
void viterbi_acs_weighted_avx2(const ViterbiTables& tb,
                               const std::uint8_t* rx,
                               const std::uint8_t* weights,
                               std::size_t info_steps, std::uint32_t* metric,
                               std::uint8_t* survivor) {
  const __m128i inf = _mm_set1_epi32(static_cast<int>(kViterbiInf));
  const __m128i e0a =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(tb.exp0_a));
  const __m128i e1a =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(tb.exp1_a));
  const __m128i e0b =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(tb.exp0_b));
  const __m128i e1b =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(tb.exp1_b));
  const __m128i sa = survivor_lanes(tb.surv_a);
  const __m128i sb = survivor_lanes(tb.surv_b);
  __m128i m = _mm_loadu_si128(reinterpret_cast<const __m128i*>(metric));
  for (std::size_t t = 0; t < info_steps; ++t) {
    const __m128i r0 = _mm_set1_epi32(rx[t] & 1);
    const __m128i r1 = _mm_set1_epi32((rx[t] >> 1) & 1);
    const __m128i w0 = _mm_set1_epi32(weights[2 * t]);
    const __m128i w1 = _mm_set1_epi32(weights[2 * t + 1]);
    // andnot(cmpeq(exp, r), w) = w where the bits differ, 0 where equal.
    const __m128i bma =
        _mm_add_epi32(_mm_andnot_si128(_mm_cmpeq_epi32(e0a, r0), w0),
                      _mm_andnot_si128(_mm_cmpeq_epi32(e1a, r1), w1));
    const __m128i bmb =
        _mm_add_epi32(_mm_andnot_si128(_mm_cmpeq_epi32(e0b, r0), w0),
                      _mm_andnot_si128(_mm_cmpeq_epi32(e1b, r1), w1));
    const __m128i ma = _mm_shuffle_epi32(m, _MM_SHUFFLE(2, 0, 2, 0));
    const __m128i mb = _mm_shuffle_epi32(m, _MM_SHUFFLE(3, 1, 3, 1));
    const __m128i ca = _mm_min_epu32(_mm_add_epi32(ma, bma), inf);
    const __m128i cb = _mm_min_epu32(_mm_add_epi32(mb, bmb), inf);
    const __m128i bwins = _mm_cmpgt_epi32(ca, cb);
    m = _mm_blendv_epi8(ca, cb, bwins);
    store_survivors(sa, sb, bwins, survivor + 4 * t);
  }
  _mm_storeu_si128(reinterpret_cast<__m128i*>(metric), m);
}

constexpr Avx2ChannelKernels kKernels = {
    /*add_keyed_noise=*/add_keyed_noise_avx2,
    /*viterbi_acs_weighted=*/viterbi_acs_weighted_avx2,
};

}  // namespace

const Avx2ChannelKernels* avx2_channel_kernels() { return &kKernels; }

}  // namespace semcache::channel::detail

#else  // no AVX2 in this build: the dispatch sites see an empty table

namespace semcache::channel::detail {
const Avx2ChannelKernels* avx2_channel_kernels() { return nullptr; }
}  // namespace semcache::channel::detail

#endif
