#include "channel/arq.hpp"

#include "common/check.hpp"

namespace semcache::channel {

ArqPipeline::ArqPipeline(std::unique_ptr<ChannelPipeline> pipeline,
                         std::size_t max_attempts)
    : pipeline_(std::move(pipeline)), max_attempts_(max_attempts) {
  SEMCACHE_CHECK(pipeline_ != nullptr, "arq: null pipeline");
  SEMCACHE_CHECK(max_attempts >= 1, "arq: need at least one attempt");
}

ArqResult ArqPipeline::transmit(const BitVec& payload, Rng& rng) {
  const BitVec framed = crc_append(payload);
  ArqResult result;
  for (std::size_t attempt = 0; attempt < max_attempts_; ++attempt) {
    ++result.attempts;
    const BitVec received = pipeline_->transmit(framed, rng);
    result.airtime_bits += pipeline_->airtime_bits(framed.size());
    CrcCheckResult check = crc_verify(received);
    if (check.ok) {
      result.payload = std::move(check.payload);
      result.delivered = true;
      return result;
    }
    result.payload = std::move(check.payload);  // keep the last corrupt view
  }
  return result;
}

}  // namespace semcache::channel
