// Stop-and-wait ARQ on top of the channel pipeline (§III-C: "other
// communication problems such as ... reliability can also be studied").
//
// Each attempt carries the payload plus a CRC-32 trailer; the receiver
// NACKs on checksum failure and the sender retransmits, up to a retry
// budget. This is the classic reliability mechanism TRADITIONAL systems
// need at low SNR — and an ablation axis for semantic features, which can
// often tolerate residual errors instead of paying retransmission airtime.
#pragma once

#include "channel/crc.hpp"
#include "channel/pipeline.hpp"

namespace semcache::channel {

struct ArqResult {
  BitVec payload;             ///< receiver's view after the final attempt
  bool delivered = false;     ///< CRC clean within the retry budget
  std::size_t attempts = 0;   ///< total transmissions (1 = no retry)
  std::size_t airtime_bits = 0;  ///< on-air bits across all attempts
};

/// Send `payload` over `pipeline` until the CRC verifies or
/// `max_attempts` (>= 1; 1 disables retransmission) transmissions have
/// gone out. On failure the last (corrupt) payload is returned with
/// delivered=false, matching a receiver that must surface *something*
/// after giving up.
ArqResult arq_transmit(const ChannelPipeline& pipeline, const BitVec& payload,
                       Rng& rng, std::size_t max_attempts);

}  // namespace semcache::channel
