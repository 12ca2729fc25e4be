#include "common/rng.hpp"

#include "common/check.hpp"

namespace semcache {

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

namespace {
// Run the seed through splitmix64 so that adjacent seeds (0, 1, 2, ...)
// produce uncorrelated mt19937_64 states.
std::uint64_t mix_seed(std::uint64_t seed) { return splitmix64(seed); }
}  // namespace

Rng::Rng(std::uint64_t seed) : seed_(seed) {}

Rng::Rng(const Rng& other)
    : seed_(other.seed_),
      key_count_(other.key_count_),
      engine_(other.engine_ != nullptr
                  ? std::make_unique<std::mt19937_64>(*other.engine_)
                  : nullptr) {}

Rng& Rng::operator=(const Rng& other) {
  if (this != &other) *this = Rng(other);
  return *this;
}

Rng Rng::fork(std::uint64_t tag) const {
  std::uint64_t s = seed_ ^ (tag * 0x9E3779B97F4A7C15ULL + 0xD1B54A32D192ED03ULL);
  return Rng(splitmix64(s));
}

std::uint64_t Rng::next_key() {
  // The tag ("keys") keeps the key stream apart from the engine's seed
  // mix, which is splitmix64 output 0 of the bare seed.
  std::uint64_t state =
      (seed_ ^ 0x6B657973ULL) + key_count_ * 0x9E3779B97F4A7C15ULL;
  ++key_count_;
  return splitmix64(state);
}

// The engine is constructed from the mixed seed: default-constructing it
// and then re-seeding would run its 312-word state initialization twice.
std::mt19937_64& Rng::engine() {
  if (engine_ == nullptr) {
    engine_ = std::make_unique<std::mt19937_64>(mix_seed(seed_));
  }
  return *engine_;
}

std::mt19937_64 Rng::engine_snapshot() const {
  return engine_ != nullptr ? *engine_ : std::mt19937_64(mix_seed(seed_));
}

double Rng::uniform() {
  return std::uniform_real_distribution<double>(0.0, 1.0)(engine());
}

double Rng::uniform(double lo, double hi) {
  SEMCACHE_CHECK(lo <= hi, "uniform: lo must not exceed hi");
  return std::uniform_real_distribution<double>(lo, hi)(engine());
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  SEMCACHE_CHECK(lo <= hi, "uniform_int: lo must not exceed hi");
  return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine());
}

double Rng::gaussian() {
  return std::normal_distribution<double>(0.0, 1.0)(engine());
}

double Rng::gaussian(double mean, double stddev) {
  SEMCACHE_CHECK(stddev >= 0.0, "gaussian: stddev must be non-negative");
  return std::normal_distribution<double>(mean, stddev)(engine());
}

bool Rng::bernoulli(double p) {
  SEMCACHE_CHECK(p >= 0.0 && p <= 1.0, "bernoulli: p must be in [0, 1]");
  return std::bernoulli_distribution(p)(engine());
}

std::size_t Rng::categorical(const std::vector<double>& weights) {
  SEMCACHE_CHECK(!weights.empty(), "categorical: weights must be non-empty");
  double total = 0.0;
  for (const double w : weights) {
    SEMCACHE_CHECK(w >= 0.0, "categorical: weights must be non-negative");
    total += w;
  }
  SEMCACHE_CHECK(total > 0.0, "categorical: weights must not all be zero");
  double draw = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    draw -= weights[i];
    if (draw <= 0.0) return i;
  }
  return weights.size() - 1;  // Floating-point slack lands on the last bin.
}

}  // namespace semcache
