// Per-link adaptive code-rate selection: an EWMA of the receiver's
// decision-directed SNR estimates drives a three-rung rate ladder
// (conv 1/2 -> punctured 2/3 -> punctured 3/4) with hysteresis, trading
// coding gain for airtime when the Gilbert–Elliott weather allows it.
// Everything here is deterministic: the controller state is a pure
// function of the observation sequence, and the observations are a pure
// function of (seed, slot), so an adaptive link's rates and bits are
// byte-identical across thread counts and shard layouts.
#pragma once

#include <array>
#include <memory>

#include "channel/convolutional.hpp"
#include "channel/pipeline.hpp"

namespace semcache::channel {

struct AdaptiveRateConfig {
  double up_r23_db = 6.0;   ///< EWMA threshold separating r12 and r23
  double up_r34_db = 10.0;  ///< EWMA threshold separating r23 and r34
  /// Dead band around each threshold: step up only above threshold +
  /// hysteresis, step down only below threshold - hysteresis, one rung
  /// per observation. Kills rate flapping at a boundary SNR.
  double hysteresis_db = 1.0;
  double ewma_alpha = 0.25;  ///< weight of the newest SNR estimate
  CodeRate initial = CodeRate::kR12;
};

class AdaptiveRateController {
 public:
  explicit AdaptiveRateController(const AdaptiveRateConfig& cfg);

  /// Fold one SNR estimate into the EWMA and move at most one rung.
  /// Returns the rate the NEXT message should use.
  CodeRate observe(double snr_est_db);

  CodeRate current() const { return rate_; }
  double ewma_snr_db() const { return ewma_; }

 private:
  AdaptiveRateConfig cfg_;
  CodeRate rate_;
  double ewma_ = 0.0;
  bool seeded_ = false;
};

/// The rungs of an adaptive link, built by the caller: one pipeline per
/// code rate, indexed by CodeRate.
using RateLadder =
    std::array<std::unique_ptr<const ChannelPipeline>, kCodeRateCount>;

/// Send `payload` on `ladder[controller.current()]` and return the
/// receiver's reconstruction. When that rung decodes soft, the message's
/// decision-directed SNR estimate goes to `controller`, which then picks
/// the rung for the next message: the rate for message N is decided from
/// messages < N only (the transmitter cannot see the channel it is about
/// to hit). A rung that decodes hard (`set_soft_decision(false)`) yields
/// no estimate, so the controller holds its rate. Sequential by design:
/// the controller is a serial dependency, so there is no batched form.
BitVec adaptive_transmit(const RateLadder& ladder,
                         AdaptiveRateController& controller,
                         const BitVec& payload, Rng& rng, std::uint64_t slot);

}  // namespace semcache::channel
