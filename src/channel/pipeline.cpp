#include "channel/pipeline.hpp"

#include <cstdlib>

#include "channel/convolutional.hpp"
#include "channel/hamming.hpp"
#include "channel/puncture.hpp"
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

BitVec ChannelPipeline::transmit(const BitVec& payload, Rng& rng) {
  return transmit_at(payload, rng, 0, nullptr);
}

BitVec ChannelPipeline::transmit_at(const BitVec& payload, Rng& rng,
                                    std::uint64_t slot,
                                    ChannelObservation* obs) {
  std::size_t airtime_bits = 0;
  BitVec decoded = transmit_one(payload, rng, airtime_bits, slot, obs);
  stats_.payload_bits += payload.size();
  stats_.airtime_bits += airtime_bits;
  stats_.messages += 1;
  return decoded;
}

std::vector<BitVec> ChannelPipeline::transmit_batch(
    const std::vector<BitVec>& payloads, std::span<Rng> rngs,
    std::span<const std::uint64_t> slots) {
  return transmit_batch_collect(payloads, rngs, slots, stats_);
}

std::vector<BitVec> ChannelPipeline::transmit_batch_collect(
    const std::vector<BitVec>& payloads, std::span<Rng> rngs,
    std::span<const std::uint64_t> slots, PipelineStats& sink) const {
  SEMCACHE_CHECK(slots.empty() || slots.size() == payloads.size(),
                 "pipeline: transmit_batch slots span must be empty or match "
                 "the payload count");
  SEMCACHE_CHECK(payloads.size() == rngs.size(),
                 "pipeline: transmit_batch needs one rng per payload (" +
                     std::to_string(payloads.size()) + " payloads, " +
                     std::to_string(rngs.size()) + " rngs)");
  // Per-message noise streams stay independent: message i consumes only
  // rngs[i], so bits match N sequential transmit() calls exactly. Each
  // message is accounted as it completes, so a throw leaves `sink` holding
  // exactly the messages before it.
  std::vector<BitVec> received(payloads.size());
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    std::size_t airtime_bits = 0;
    const std::uint64_t slot = slots.empty() ? 0 : slots[i];
    received[i] =
        transmit_one(payloads[i], rngs[i], airtime_bits, slot, nullptr);
    sink.payload_bits += payloads[i].size();
    sink.airtime_bits += airtime_bits;
    sink.messages += 1;
  }
  return received;
}

BitVec ChannelPipeline::transmit_one(const BitVec& payload, Rng& rng,
                                     std::size_t& airtime_bits,
                                     std::uint64_t slot,
                                     ChannelObservation* obs) const {
  const BitVec coded = code_->encode(payload);
  const BitVec sent = interleaver_.interleave(coded);
  if (soft_) {
    // LLRs ride the same deinterleave permutation the hard bits would, so
    // the trellis sees confidences in coded order. Channels without a soft
    // output decline and drop through to the hard path.
    std::vector<float> llrs;
    if (channel_->transmit_soft(sent, rng, slot, llrs, obs)) {
      std::vector<float> deinterleaved = interleaver_.deinterleave(llrs);
      deinterleaved.resize(coded.size());  // drop interleaver padding
      BitVec decoded = code_->decode_soft(deinterleaved);
      SEMCACHE_CHECK(decoded.size() >= payload.size(),
                     "pipeline: decoder returned too few bits");
      decoded.resize(payload.size());
      airtime_bits = sent.size();
      return decoded;
    }
  }
  const BitVec received = channel_->transmit_slot(sent, rng, slot);
  BitVec deinterleaved = interleaver_.deinterleave(received);
  deinterleaved.resize(coded.size());  // drop interleaver padding
  BitVec decoded = code_->decode(deinterleaved);
  SEMCACHE_CHECK(decoded.size() >= payload.size(),
                 "pipeline: decoder returned too few bits");
  decoded.resize(payload.size());
  airtime_bits = sent.size();
  return decoded;
}

std::string ChannelPipeline::description() const {
  return code_->name() + "+" + channel_->name();
}

std::unique_ptr<ChannelCode> make_code(const std::string& name) {
  if (name == "uncoded") return std::make_unique<IdentityCode>();
  if (name == "rep3") return std::make_unique<RepetitionCode>(3);
  if (name == "rep5") return std::make_unique<RepetitionCode>(5);
  if (name == "hamming74") return std::make_unique<HammingCode>();
  if (name == "conv_k3_r12") return std::make_unique<ConvolutionalCode>();
  if (name == "conv_k3_r23") {
    return std::make_unique<PuncturedConvolutionalCode>(PunctureRate::kR23);
  }
  if (name == "conv_k3_r34") {
    return std::make_unique<PuncturedConvolutionalCode>(PunctureRate::kR34);
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
  if (soft_forced_off()) return false;
  const char* env = std::getenv("SEMCACHE_SOFT");
  if (env != nullptr) {
    const std::string v(env);
    if (v == "on" || v == "1") return true;
  }
  return configured;
}

bool soft_forced_off() {
  const char* env = std::getenv("SEMCACHE_SOFT");
  if (env == nullptr) return false;
  const std::string v(env);
  return v == "off" || v == "0";
}

}  // namespace semcache::channel
