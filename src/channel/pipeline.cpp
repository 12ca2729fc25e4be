#include "channel/pipeline.hpp"

#include <cstdlib>

#include "channel/convolutional.hpp"
#include "channel/hamming.hpp"
#include "channel/repetition.hpp"
#include "common/check.hpp"

namespace semcache::channel {

ChannelPipeline::ChannelPipeline(std::unique_ptr<ChannelCode> code,
                                 std::unique_ptr<BitChannel> channel,
                                 std::size_t interleave_depth)
    : code_(std::move(code)),
      channel_(std::move(channel)),
      interleaver_(interleave_depth) {
  SEMCACHE_CHECK(code_ != nullptr, "pipeline: null code");
  SEMCACHE_CHECK(channel_ != nullptr, "pipeline: null channel");
}

BitVec ChannelPipeline::transmit(const BitVec& payload, Rng& rng,
                                 std::uint64_t slot,
                                 ChannelObservation* obs) const {
  const BitVec coded = code_->encode(payload);
  const BitVec sent = interleaver_.interleave(coded);
  BitVec decoded;
  std::vector<float> llrs;
  if (soft_ && channel_->transmit_soft(sent, rng, slot, llrs, obs)) {
    // LLRs ride the same deinterleave permutation the hard bits would, so
    // the trellis sees confidences in coded order. Channels without a soft
    // output decline and drop through to the hard path.
    std::vector<float> deinterleaved = interleaver_.deinterleave(llrs);
    deinterleaved.resize(coded.size());  // drop interleaver padding
    decoded = code_->decode_soft(deinterleaved);
  } else {
    BitVec deinterleaved =
        interleaver_.deinterleave(channel_->transmit(sent, rng, slot));
    deinterleaved.resize(coded.size());  // drop interleaver padding
    decoded = code_->decode(deinterleaved);
  }
  SEMCACHE_CHECK(decoded.size() >= payload.size(),
                 "pipeline: decoder returned too few bits");
  decoded.resize(payload.size());
  return decoded;
}

std::vector<BitVec> ChannelPipeline::transmit_batch(
    const std::vector<BitVec>& payloads, std::span<Rng> rngs,
    std::span<const std::uint64_t> slots) const {
  SEMCACHE_CHECK(slots.empty() || slots.size() == payloads.size(),
                 "pipeline: transmit_batch slots span must be empty or match "
                 "the payload count");
  SEMCACHE_CHECK(payloads.size() == rngs.size(),
                 "pipeline: transmit_batch needs one rng per payload (" +
                     std::to_string(payloads.size()) + " payloads, " +
                     std::to_string(rngs.size()) + " rngs)");
  // Per-message noise streams stay independent: message i consumes only
  // rngs[i], so bits match N sequential transmit() calls exactly.
  std::vector<BitVec> received;
  received.reserve(payloads.size());
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    received.push_back(
        transmit(payloads[i], rngs[i], slots.empty() ? 0 : slots[i]));
  }
  return received;
}

std::size_t ChannelPipeline::airtime_bits(std::size_t payload_bits) const {
  const std::size_t depth = interleaver_.depth();
  return (code_->encoded_length(payload_bits) + depth - 1) / depth * depth;
}

std::string ChannelPipeline::description() const {
  return code_->name() + "+" + channel_->name();
}

std::unique_ptr<ChannelCode> make_code(const std::string& name) {
  if (name == "uncoded") return std::make_unique<IdentityCode>();
  if (name == "rep3") return std::make_unique<RepetitionCode>(3);
  if (name == "rep5") return std::make_unique<RepetitionCode>(5);
  if (name == "hamming74") return std::make_unique<HammingCode>();
  for (std::size_t r = 0; r < kCodeRateCount; ++r) {
    const auto rate = static_cast<CodeRate>(r);
    if (name == code_rate_name(rate)) {
      return std::make_unique<ConvolutionalCode>(rate);
    }
  }
  SEMCACHE_CHECK(false, "unknown channel code: " + name);
  return nullptr;
}

std::unique_ptr<ChannelPipeline> make_awgn_pipeline(
    std::unique_ptr<ChannelCode> code, Modulation mod, double snr_db,
    std::size_t interleave_depth) {
  auto channel = std::make_unique<ModulatedChannel>(
      mod, std::make_unique<AwgnChannel>(snr_db));
  return std::make_unique<ChannelPipeline>(std::move(code), std::move(channel),
                                           interleave_depth);
}

std::unique_ptr<ChannelPipeline> make_bsc_pipeline(
    std::unique_ptr<ChannelCode> code, double flip_probability) {
  return std::make_unique<ChannelPipeline>(
      std::move(code), std::make_unique<BscChannel>(flip_probability), 1);
}

std::unique_ptr<ChannelPipeline> make_rayleigh_pipeline(
    std::unique_ptr<ChannelCode> code, Modulation mod, double snr_db,
    std::size_t fade_block_len, std::size_t interleave_depth) {
  auto channel = std::make_unique<ModulatedChannel>(
      mod, std::make_unique<RayleighChannel>(snr_db, fade_block_len));
  return std::make_unique<ChannelPipeline>(std::move(code), std::move(channel),
                                           interleave_depth);
}

std::unique_ptr<ChannelPipeline> make_burst_pipeline(
    std::unique_ptr<ChannelCode> code, Modulation mod,
    const GilbertElliottConfig& burst, std::size_t interleave_depth) {
  auto channel = std::make_unique<ModulatedChannel>(
      mod, std::make_unique<GilbertElliottChannel>(burst));
  return std::make_unique<ChannelPipeline>(std::move(code), std::move(channel),
                                           interleave_depth);
}

bool resolve_soft_decision(bool configured) {
  return configured && !soft_forced_off();
}

bool soft_forced_off() {
  const char* env = std::getenv("SEMCACHE_SOFT");
  if (env == nullptr) return false;
  const std::string v(env);
  return v == "off" || v == "0";
}

}  // namespace semcache::channel
