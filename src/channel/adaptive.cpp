#include "channel/adaptive.hpp"

#include <cmath>
#include <limits>

#include "common/check.hpp"

namespace semcache::channel {

AdaptiveRateController::AdaptiveRateController(const AdaptiveRateConfig& cfg)
    : cfg_(cfg), rate_(cfg.initial) {
  SEMCACHE_CHECK(cfg_.ewma_alpha > 0.0 && cfg_.ewma_alpha <= 1.0,
                 "adaptive: ewma_alpha must be in (0, 1]");
  SEMCACHE_CHECK(cfg_.hysteresis_db >= 0.0,
                 "adaptive: hysteresis must be non-negative");
  SEMCACHE_CHECK(cfg_.up_r23_db <= cfg_.up_r34_db,
                 "adaptive: thresholds must be ordered r23 <= r34");
}

CodeRate AdaptiveRateController::observe(double snr_est_db) {
  ewma_ = seeded_
              ? cfg_.ewma_alpha * snr_est_db + (1.0 - cfg_.ewma_alpha) * ewma_
              : snr_est_db;
  seeded_ = true;
  switch (rate_) {
    case CodeRate::kR12:
      if (ewma_ > cfg_.up_r23_db + cfg_.hysteresis_db) rate_ = CodeRate::kR23;
      break;
    case CodeRate::kR23:
      if (ewma_ > cfg_.up_r34_db + cfg_.hysteresis_db) {
        rate_ = CodeRate::kR34;
      } else if (ewma_ < cfg_.up_r23_db - cfg_.hysteresis_db) {
        rate_ = CodeRate::kR12;
      }
      break;
    case CodeRate::kR34:
      if (ewma_ < cfg_.up_r34_db - cfg_.hysteresis_db) rate_ = CodeRate::kR23;
      break;
  }
  return rate_;
}

BitVec adaptive_transmit(const RateLadder& ladder,
                         AdaptiveRateController& controller,
                         const BitVec& payload, Rng& rng, std::uint64_t slot) {
  const ChannelPipeline* pipe =
      ladder[static_cast<std::size_t>(controller.current())].get();
  SEMCACHE_CHECK(pipe != nullptr, "adaptive: ladder rung missing");
  // The estimate stays NaN unless the rung decodes soft: a hard rung, or a
  // soft one over a channel without a soft output (BSC), writes none.
  ChannelObservation obs;
  obs.snr_est_db = std::numeric_limits<double>::quiet_NaN();
  BitVec decoded = pipe->transmit(payload, rng, slot, &obs);
  if (!std::isnan(obs.snr_est_db)) controller.observe(obs.snr_est_db);
  return decoded;
}

}  // namespace semcache::channel
