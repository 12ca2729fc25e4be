// Keyed channel noise. Every random number a channel spends on a message
// is a pure function of the message's key (Rng::next_key) and an index
// (the symbol index, or a fade block's index past the symbols), never of
// how many draws came before. That is the identity-hash discipline the
// fault plane and the Gilbert–Elliott weather already follow, applied to
// the noise itself, and it is what lets the AVX2 kernel make four
// gaussian pairs at once.
//
// One generator serves every channel: a splitmix64 hash of (key, index)
// gives 64 bits; a gaussian pair takes u1 in (0, 1] from the low 32 bits
// and u2 from the high 32, and Box–Muller turns them into two independent
// N(0, 1) values with an in-repo polynomial log and sincos. noise.cpp
// holds the scalar reference; the AVX2 kernel repeats its operations one
// for one.
#pragma once

#include <cstddef>
#include <cstdint>

namespace semcache::channel {

/// Gaussian pair `index` of `key`: two independent N(0, 1) values.
void keyed_gaussian_pair(std::uint64_t key, std::uint64_t index, double& z0,
                         double& z1);

/// data[2j] += sigma * z0 and data[2j + 1] += sigma * z1 of gaussian pair
/// `first + j`, for j < pairs: both values of a pair land in one complex
/// symbol's (re, im). Runs the AVX2 kernel when the tier admits it; the
/// tiers are bit-identical.
void add_keyed_noise(double* data, std::size_t pairs, std::uint64_t key,
                     std::uint64_t first, double sigma);

}  // namespace semcache::channel
