// Runtime CPU-feature detection and the process-wide SIMD dispatch tier.
//
// The tensor and channel planes carry hand-written AVX2/FMA kernels next to
// the always-built scalar reference kernels (see README "SIMD kernels").
// Which family runs is a RUNTIME choice resolved here, once, from the
// SEMCACHE_SIMD environment variable ("auto" | "avx2" | "scalar", default
// auto) gated on what the executing CPU actually supports — the same binary
// runs vectorized on an AVX2 host and scalar on anything older, and CI
// flips the env to pin the fallback path without a rebuild.
//
// The tier is intent, not engagement: a dispatch site still runs the scalar
// path when its kernels are compiled out (a non-x86 build, or a compiler
// that refused the ISA flags). Each plane reports what actually engaged via
// log_once.
#pragma once

namespace semcache::common {

/// What the executing CPU supports, detected once via cpuid.
struct CpuFeatures {
  bool avx2 = false;
  bool fma = false;
};

/// Detected features of the executing CPU (cached after the first call).
const CpuFeatures& cpu_features();

/// The dispatch families a build can carry. kAvx2 requires FMA hardware
/// too: the AVX2 kernels spell every multiply-add as a fused one.
enum class SimdTier {
  kScalar = 0,  ///< reference kernels only (always available)
  kAvx2 = 1,    ///< AVX2(+FMA) kernels where an implementation exists
};

const char* simd_tier_name(SimdTier tier);

/// The process SIMD tier: resolved from SEMCACHE_SIMD on first use (see
/// resolve_simd_tier), overridable in-process via set_simd_tier. Cheap
/// enough for per-kernel-call reads (one relaxed atomic load).
SimdTier active_simd_tier();

/// Override the active tier (tests flip tiers in-process to twin the
/// vectorized and scalar kernels in one binary). Returns the previous
/// tier. A request for kAvx2 on a CPU without AVX2+FMA is clamped to
/// kScalar, mirroring the env path.
SimdTier set_simd_tier(SimdTier tier);

/// Pure resolution policy, exposed for unit tests: maps an environment
/// string (nullptr = unset) plus the detected features to a tier.
///   - "scalar"        -> kScalar
///   - "avx2"          -> kAvx2 if the CPU has AVX2+FMA, else kScalar
///                        (with a log_once warning: an explicit request
///                        the hardware cannot honor must not be silent)
///   - "auto" / unset  -> kAvx2 when supported, else kScalar
///   - anything else   -> treated as "auto", with a log_once warning
SimdTier resolve_simd_tier(const char* env, const CpuFeatures& features);

}  // namespace semcache::common
