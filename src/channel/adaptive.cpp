#include "channel/adaptive.hpp"

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

AdaptiveRatePipeline::AdaptiveRatePipeline(Modulation mod,
                                           const GilbertElliottConfig& burst,
                                           const AdaptiveRateConfig& cfg,
                                           std::size_t interleave_depth,
                                           bool soft)
    : controller_(cfg) {
  // SEMCACHE_SOFT=off degrades the whole link to hard decisions (the CI
  // floor leg); the controller then never observes and holds its rate.
  const bool effective_soft = resolve_soft_decision(soft);
  for (std::size_t r = 0; r < kCodeRateCount; ++r) {
    pipelines_[r] = make_burst_pipeline(
        std::make_unique<ConvolutionalCode>(static_cast<CodeRate>(r)), mod,
        burst, interleave_depth);
    pipelines_[r]->set_soft_decision(effective_soft);
  }
}

BitVec AdaptiveRatePipeline::transmit(const BitVec& payload, Rng& rng,
                                      std::uint64_t slot) {
  const CodeRate rate = controller_.current();
  const ChannelPipeline& pipe = *pipelines_[static_cast<std::size_t>(rate)];
  ChannelObservation obs;
  BitVec decoded = pipe.transmit(payload, rng, slot, &obs);
  stats_.messages += 1;
  stats_.rate_messages[static_cast<std::size_t>(rate)] += 1;
  stats_.payload_bits += payload.size();
  stats_.airtime_bits += pipe.airtime_bits(payload.size());
  // Hard-decision fallback (SEMCACHE_SOFT=off or a slicer-only channel)
  // yields no observation; the controller then simply holds its rate.
  if (pipe.soft_decision()) {
    const CodeRate next = controller_.observe(obs.snr_est_db);
    if (next != rate) stats_.switches += 1;
  }
  stats_.ewma_snr_db = controller_.ewma_snr_db();
  return decoded;
}

std::string AdaptiveRatePipeline::description() const {
  return "adaptive(" + pipelines_[0]->description() + " .. " +
         pipelines_[kCodeRateCount - 1]->description() + ")";
}

}  // namespace semcache::channel
