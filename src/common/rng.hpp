// Deterministic random number generation.
//
// All randomness in the library flows through Rng so that every experiment,
// test, and benchmark is reproducible from a single 64-bit seed. Substreams
// are derived with splitmix64 so that independent components (corpus
// generation, channel noise, weight init, ...) do not share state.
#pragma once

#include <cstdint>
#include <memory>
#include <random>
#include <vector>

namespace semcache {

/// splitmix64 step; used both as a seeding mixer and for cheap hashing.
std::uint64_t splitmix64(std::uint64_t& state);

/// Deterministic RNG wrapping mt19937_64 with convenience draws.
///
/// The engine is seeded lazily, by the first draw: a fork that only hands
/// out keys (the channel's per-message fork) never pays the engine's
/// 312-word state initialization.
class Rng {
 public:
  explicit Rng(std::uint64_t seed);
  Rng(const Rng& other);
  Rng& operator=(const Rng& other);
  Rng(Rng&&) noexcept = default;
  Rng& operator=(Rng&&) noexcept = default;

  /// Derive an independent child stream; deterministic in (seed, tag).
  /// Reads only the seed, so concurrent forks of one Rng are race-free.
  Rng fork(std::uint64_t tag) const;

  /// The n-th call returns the n-th output of a splitmix64 stream keyed by
  /// the seed. Keys never touch the engine: engine draws between two calls
  /// do not change the second key. Channels key their noise on it, so
  /// every transmit on one Rng (an ARQ retry, say) gets fresh noise.
  std::uint64_t next_key();

  /// Uniform double in [0, 1).
  double uniform();
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  /// Standard normal draw.
  double gaussian();
  /// Normal draw with given mean/stddev.
  double gaussian(double mean, double stddev);
  /// Bernoulli draw with success probability p.
  bool bernoulli(double p);
  /// Index draw from unnormalized non-negative weights.
  std::size_t categorical(const std::vector<double>& weights);
  /// In-place Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const auto j =
          static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i) - 1));
      std::swap(v[i - 1], v[j]);
    }
  }

  std::uint64_t seed() const { return seed_; }
  /// The engine, seeded on first access.
  std::mt19937_64& engine();
  /// Copy of the engine state (state capture/fingerprinting; mt19937_64
  /// round-trips exactly through iostream insertion/extraction). An
  /// engine no draw has seeded yet reads as freshly seeded.
  std::mt19937_64 engine_snapshot() const;

 private:
  std::uint64_t seed_;
  std::uint64_t key_count_ = 0;
  std::unique_ptr<std::mt19937_64> engine_;  // null until the first draw
};

}  // namespace semcache
