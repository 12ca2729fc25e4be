// Per-link adaptive code-rate selection: an EWMA of the receiver's
// decision-directed SNR estimates drives a three-rung rate ladder
// (conv 1/2 -> punctured 2/3 -> punctured 3/4) with hysteresis, trading
// coding gain for airtime when the Gilbert–Elliott weather allows it.
// Everything here is deterministic: the controller state is a pure
// function of the observation sequence, the observations are a pure
// function of (seed, slot), so the recorded ChannelStats are byte-identical
// across thread counts and shard layouts.
#pragma once

#include <array>
#include <cstdint>
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

/// Deterministic per-link accounting, byte-comparable across runs.
struct ChannelStats {
  std::uint64_t messages = 0;
  std::uint64_t switches = 0;  ///< rate transitions taken
  std::array<std::uint64_t, kCodeRateCount> rate_messages{};
  std::uint64_t payload_bits = 0;
  std::uint64_t airtime_bits = 0;
  double ewma_snr_db = 0.0;  ///< controller EWMA after the last message

  bool operator==(const ChannelStats&) const = default;
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

/// A link that re-selects its code rate per message: three soft-decision
/// pipelines over one shared Gilbert–Elliott configuration, steered by an
/// AdaptiveRateController. The rate for message N is decided from
/// observations of messages < N (causal — the transmitter cannot see the
/// channel it is about to hit). Sequential by design: the controller is a
/// genuine serial dependency, so there is no batched entry point.
class AdaptiveRatePipeline {
 public:
  AdaptiveRatePipeline(Modulation mod, const GilbertElliottConfig& burst,
                       const AdaptiveRateConfig& cfg,
                       std::size_t interleave_depth = 1, bool soft = true);

  BitVec transmit(const BitVec& payload, Rng& rng, std::uint64_t slot);

  const ChannelStats& stats() const { return stats_; }
  std::string description() const;

 private:
  AdaptiveRateController controller_;
  std::array<std::unique_ptr<ChannelPipeline>, kCodeRateCount> pipelines_;
  ChannelStats stats_;
};

}  // namespace semcache::channel
