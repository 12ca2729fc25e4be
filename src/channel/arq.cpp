#include "channel/arq.hpp"

#include "common/check.hpp"

namespace semcache::channel {

ArqResult arq_transmit(const ChannelPipeline& pipeline, const BitVec& payload,
                       Rng& rng, std::size_t max_attempts) {
  SEMCACHE_CHECK(max_attempts >= 1, "arq: need at least one attempt");
  const BitVec framed = crc_append(payload);
  ArqResult result;
  for (std::size_t attempt = 0; attempt < max_attempts; ++attempt) {
    ++result.attempts;
    const BitVec received = pipeline.transmit(framed, rng);
    result.airtime_bits += pipeline.airtime_bits(framed.size());
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
