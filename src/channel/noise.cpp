#include "channel/noise.hpp"

#include <bit>
#include <cmath>
#include <utility>

#include "channel/simd.hpp"
#include "common/hashing.hpp"

namespace semcache::channel {

namespace {

// Output `index` of the splitmix64 stream keyed by `key`.
std::uint64_t keyed_bits(std::uint64_t key, std::uint64_t index) {
  std::uint64_t state = key + index * detail::kKeyGamma;
  return common::splitmix64_step(state);
}

double exact_double(std::uint64_t v) { return static_cast<double>(v); }

// Horner over a coefficient table, highest degree first, unrolled at
// compile time: a loop here costs more than the fmas it runs.
template <std::size_t N, std::size_t... K>
double horner_steps(const double (&coeffs)[N], double t,
                    std::index_sequence<K...>) {
  double p = coeffs[0];
  ((p = std::fma(p, t, coeffs[K + 1])), ...);
  return p;
}

template <std::size_t N>
double horner(const double (&coeffs)[N], double t) {
  return horner_steps(coeffs, t, std::make_index_sequence<N - 1>{});
}

// The scalar reference of the generator. Every multiply-add is spelled
// std::fma and no product feeds an add anywhere else, so no build's
// contraction can fuse a step the AVX2 kernel keeps separate (or the
// reverse); each remaining operation rounds once in both tiers. The
// data-dependent choices are integer selects, not branches: the loop
// over pairs then has nothing to mispredict.
//
// Out: the Box–Muller radius r = sqrt(-2 ln u1) and the unit vector
// (x0, x1) = (cos, sin) of the angle 2 pi u2.
void polar(std::uint64_t key, std::uint64_t index, double& r, double& x0,
           double& x1) {
  const std::uint64_t h = keyed_bits(key, index);

  // ln u1 with u1 = m 2^e, m folded into [sqrt(1/2), sqrt(2)) by moving
  // one power of two into e, and ln m = 2 atanh(s) =
  // 2s (1 + s^2/3 + s^4/5 + ...) with s = (m-1)/(m+1).
  const auto bits = std::bit_cast<std::uint64_t>(
      exact_double((h & 0xFFFFFFFFULL) + 1) * 0x1p-32);
  const std::uint64_t mant = bits & detail::kMantissaMask;
  const std::uint64_t fold =
      std::bit_cast<double>(mant | detail::kOneBits) > detail::kSqrt2 ? 1 : 0;
  const auto m =
      std::bit_cast<double>(mant | (detail::kOneBits - (fold << 52)));
  const double e = exact_double((bits >> 52) + fold) - 1023.0;
  const double s = (m - 1.0) / (m + 1.0);
  const double p = horner(detail::kLogPoly, s * s);
  const double ln_u1 = std::fma(e, detail::kLn2, (s + s) * p);
  r = std::sqrt(-2.0 * ln_u1);

  // The angle 2 pi u2 = q pi/2 + y: the quadrant q is u2's top two bits
  // and y in [-pi/4, pi/4) comes from the other 30, both exactly.
  const std::uint64_t hi = h >> 32;
  const std::uint64_t q = hi >> 30;
  const double y =
      (exact_double(hi & 0x3FFFFFFFULL) - 0x1p29) * detail::kAngleStep;
  const double y2 = y * y;
  const std::uint64_t cos_sin[2] = {
      std::bit_cast<std::uint64_t>(horner(detail::kCosPoly, y2)),
      std::bit_cast<std::uint64_t>(y * horner(detail::kSinPoly, y2))};
  // Rotate (cos y, sin y) by q quarter turns: odd quadrants swap the
  // pair, x0 changes sign in quadrants 1 and 2, x1 in 2 and 3.
  x0 = std::bit_cast<double>(cos_sin[q & 1] ^ ((((q + 1) >> 1) & 1) << 63));
  x1 = std::bit_cast<double>(cos_sin[(q & 1) ^ 1] ^ ((q >> 1) << 63));
}

}  // namespace

void keyed_gaussian_pair(std::uint64_t key, std::uint64_t index, double& z0,
                         double& z1) {
  double r = 0.0, x0 = 0.0, x1 = 0.0;
  polar(key, index, r, x0, x1);
  z0 = r * x0;
  z1 = r * x1;
}

void add_keyed_noise(double* data, std::size_t pairs, std::uint64_t key,
                     std::uint64_t first, double sigma) {
  const detail::Avx2ChannelKernels* k = detail::engaged_channel_kernels();
  if (k != nullptr) {
    k->add_keyed_noise(data, pairs, key, first, sigma);
    return;
  }
  for (std::size_t j = 0; j < pairs; ++j) {
    double r = 0.0, x0 = 0.0, x1 = 0.0;
    polar(key, first + j, r, x0, x1);
    const double rho = sigma * r;
    data[2 * j] = std::fma(rho, x0, data[2 * j]);
    data[2 * j + 1] = std::fma(rho, x1, data[2 * j + 1]);
  }
}

}  // namespace semcache::channel
