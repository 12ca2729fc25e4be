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

/// Saturation ceiling for path metrics. Well below INT32_MAX so the SSE
/// signed compares are exact (a capped metric plus a branch of at most
/// 2 * 255 stays below 2^31), far above any metric a frame reaches:
/// metrics cap here instead of wrapping on pathologically long frames.
inline constexpr std::uint32_t kViterbiInf = 1u << 30;

/// Run the weighted add-compare-select recursion of the K=3 trellis for
/// the information steps [0, info_steps). costs[4t..4t+3] are step t's
/// costs of expecting 0 and 1 for its G1 bit, then its G2 bit (weight 1
/// on the mismatching side is the Hamming metric of a hard decision; 0
/// both ways is an erasure, a punctured position). metric[4] is updated in
/// place and step t's decision byte is written to decisions[t]: bit ns is
/// set when predecessor B = (ns & 1) << 1 | 1 beat A = (ns & 1) << 1 into
/// next-state ns, so A keeps ties. Tail steps stay with the caller (they
/// admit only input 0 and are at most K-1 = 2 steps).
using ViterbiAcsFn = void (*)(const std::uint8_t* costs,
                              std::size_t info_steps, std::uint32_t* metric,
                              std::uint8_t* decisions);

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
  ViterbiAcsFn viterbi_acs;
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
