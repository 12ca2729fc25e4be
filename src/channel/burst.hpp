// Gilbert–Elliott burst channel: a two-state Markov noise process (good /
// bad SNR) layered over AWGN. Two timescales of memory, both keyed by the
// fault-plane identity-hash discipline so every wave of outcomes is a pure
// function of (seed, slot) — byte-identical across thread counts and shard
// layouts, never a function of RNG draw order:
//  * slow "weather": each dwell of `dwell_messages` consecutive slots keys
//    an epoch coin that picks the state the chain starts in;
//  * fast intra-message chain: per-symbol state transitions are keyed by
//    (slot, symbol index), so the burst structure inside a message is
//    deterministic too.
// The gaussian noise is keyed like AwgnChannel's (channel/noise.hpp):
// symbol s takes pair s of the message's rng.next_key() whatever path the
// chain takes; the chain only picks the sigma that scales it.
#pragma once

#include <cstdint>

#include "channel/physical.hpp"

namespace semcache::channel {

struct GilbertElliottConfig {
  double snr_good_db = 12.0;  ///< Es/N0 in the good state
  double snr_bad_db = 0.0;    ///< Es/N0 inside a burst
  double p_good_to_bad = 0.02;  ///< per-symbol transition probability
  double p_bad_to_good = 0.10;
  /// Probability that a weather epoch starts in the bad state.
  double bad_weather_prob = 0.3;
  /// Number of consecutive slots sharing one weather epoch.
  std::uint64_t dwell_messages = 16;
  std::uint64_t seed = 0;
};

class GilbertElliottChannel final : public SymbolChannel {
 public:
  explicit GilbertElliottChannel(const GilbertElliottConfig& cfg);

  void apply(std::vector<Symbol>& symbols, Rng& rng,
             std::uint64_t slot) override;
  std::string name() const override;

  const GilbertElliottConfig& config() const { return cfg_; }
  /// State the chain starts in at `slot` (the epoch weather coin). Exposed
  /// for tests and the adaptive bench to label scenarios.
  bool starts_bad(std::uint64_t slot) const;

 private:
  GilbertElliottConfig cfg_;
  double sigma_good_;
  double sigma_bad_;
};

}  // namespace semcache::channel
