// Internal seam between the channel plane's dispatching call sites
// (noise.cpp, convolutional.cpp) and the AVX2 translation unit
// (simd_avx2.cpp), mirroring tensor/simd_kernels.hpp.
//
// Each kernel is one vector implementation, bit-identical to the scalar
// reference on every input (twin tests pin this). The Viterbi ACS is
// integer arithmetic. The noise generator has multiply-add chains, and
// both of its tiers spell every multiply-add as a fused one
// (std::fma / _mm256_fmadd_pd) in the same order over the constants
// below; each other operation (add, multiply, divide, sqrt) rounds once
// in both, so contraction settings cannot split them.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/cpu.hpp"
#include "common/log.hpp"

namespace semcache::channel::detail {

/// Precomputed add-compare-select tables for the K=3 Viterbi trellis.
/// Next-state ns has two predecessors: A = kPredA[ns] (the lower state,
/// which the reference decoder's ascending-s loop visits first and which
/// therefore wins metric ties) and B = kPredB[ns], both consuming input
/// bit ns >> 1.
struct ViterbiTables {
  std::uint8_t surv_a[4];    ///< [ns] packed (input << 4) | predecessor A
  std::uint8_t surv_b[4];    ///< [ns] packed (input << 4) | predecessor B
  /// Expected encoder outputs per next-state (0/1, stored wide for the SSE
  /// kernel): exp0/exp1 are the G1/G2 bits of the branch into ns via
  /// predecessor A and B. The ACS builds each step's branch metrics from
  /// these and the step's two weights.
  std::uint32_t exp0_a[4];
  std::uint32_t exp1_a[4];
  std::uint32_t exp0_b[4];
  std::uint32_t exp1_b[4];
};

inline constexpr std::uint8_t kViterbiPredA[4] = {0, 2, 0, 2};
inline constexpr std::uint8_t kViterbiPredB[4] = {1, 3, 1, 3};

/// Saturation ceiling for path metrics. Well below INT32_MAX so the SSE
/// signed compares are exact (a capped metric plus a branch of at most
/// 2 * 255 stays below 2^31), far above any metric a frame reaches:
/// metrics cap here instead of wrapping on pathologically long frames.
inline constexpr std::uint32_t kViterbiInf = 1u << 30;

/// Run the weighted add-compare-select recursion for the information
/// steps [0, info_steps): step t pays weights[2t] (G1 bit) and
/// weights[2t+1] (G2 bit) for a mismatch against the hard decisions in
/// rx[t] = G1 | G2 << 1. Weight 1 is the Hamming metric of a hard
/// decision; weight 0 is an erasure (a punctured position). metric[4] is
/// updated in place and survivor bytes are written to survivor[t * 4 + ns];
/// predecessor A keeps ties. Tail steps stay with the caller (they admit
/// only input 0 and are at most K-1 = 2 steps).
using ViterbiAcsWeightedFn = void (*)(const ViterbiTables& tables,
                                      const std::uint8_t* rx,
                                      const std::uint8_t* weights,
                                      std::size_t info_steps,
                                      std::uint32_t* metric,
                                      std::uint8_t* survivor);

/// splitmix64's increment: noise index i of `key` mixes key + (i + 1) * gamma.
inline constexpr std::uint64_t kKeyGamma = 0x9E3779B97F4A7C15ULL;

/// Generator constants (channel/noise.cpp). ln m for m in [sqrt(1/2),
/// sqrt(2)) is 2s P(s^2) with s = (m-1)/(m+1) and P the atanh series
/// 1 + t/3 + t^2/5 + ... (truncation below 1e-15 relative); sin y = y S(y^2)
/// and cos y = C(y^2) are the Taylor series for |y| <= pi/4 (below 1e-16).
/// Coefficients run from the highest degree down, in Horner order.
inline constexpr double kLogPoly[] = {
    1.0 / 17.0, 1.0 / 15.0, 1.0 / 13.0, 1.0 / 11.0, 1.0 / 9.0,
    1.0 / 7.0,  1.0 / 5.0,  1.0 / 3.0,  1.0};
inline constexpr double kSinPoly[] = {
    -1.0 / 1307674368000.0, 1.0 / 6227020800.0, -1.0 / 39916800.0,
    1.0 / 362880.0,         -1.0 / 5040.0,      1.0 / 120.0,
    -1.0 / 6.0,             1.0};
inline constexpr double kCosPoly[] = {
    1.0 / 20922789888000.0, -1.0 / 87178291200.0, 1.0 / 479001600.0,
    -1.0 / 3628800.0,       1.0 / 40320.0,        -1.0 / 720.0,
    1.0 / 24.0,             -1.0 / 2.0,           1.0};
inline constexpr double kLn2 = 0.6931471805599453;
inline constexpr double kSqrt2 = 1.4142135623730951;
/// pi/2 per unit of u2's low 30 bits: y = (bits - 2^29) * kAngleStep.
inline constexpr double kAngleStep = 1.5707963267948966 * 0x1p-30;
inline constexpr std::uint64_t kMantissaMask = 0x000FFFFFFFFFFFFFULL;
inline constexpr std::uint64_t kOneBits = 0x3FF0000000000000ULL;   // 1.0

/// The kernels served traffic runs: keyed noise and the weighted ACS. The
/// demaps and the repetition vote run their scalar loops on every tier; a
/// kernel stays only while a benchmark workload runs it and it beats the
/// scalar loop there by at least 1.1x.
struct Avx2ChannelKernels {
  /// channel::add_keyed_noise (noise.hpp): gaussian pairs first ..
  /// first + pairs - 1 of `key`, times sigma, fused-added into (re, im).
  void (*add_keyed_noise)(double* data, std::size_t pairs, std::uint64_t key,
                          std::uint64_t first, double sigma);
  ViterbiAcsWeightedFn viterbi_acs_weighted;
};

/// The AVX2 kernel table, or nullptr when this build carries no AVX2 code.
const Avx2ChannelKernels* avx2_channel_kernels();

/// The table when the AVX2 kernels are built AND the active SIMD tier
/// admits them; nullptr means run the scalar path. Logs once on first
/// engagement.
inline const Avx2ChannelKernels* engaged_channel_kernels() {
  const Avx2ChannelKernels* k = avx2_channel_kernels();
  if (k == nullptr ||
      common::active_simd_tier() != common::SimdTier::kAvx2) {
    return nullptr;
  }
  static const bool logged =
      common::log_once("simd.channel", "channel kernels: avx2",
                       common::LogLevel::kInfo);
  (void)logged;
  return k;
}

}  // namespace semcache::channel::detail
