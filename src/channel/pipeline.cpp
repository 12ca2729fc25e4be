#include "channel/pipeline.hpp"

#include "channel/convolutional.hpp"
#include "channel/hamming.hpp"
#include "channel/repetition.hpp"
#include "common/check.hpp"

namespace semcache::channel {

ChannelPipeline::ChannelPipeline(std::unique_ptr<ChannelCode> code,
                                 Modulation mod,
                                 std::unique_ptr<SymbolChannel> channel,
                                 std::size_t interleave_depth)
    : code_(std::move(code)),
      mod_(mod),
      channel_(std::move(channel)),
      interleaver_(interleave_depth) {
  SEMCACHE_CHECK(code_ != nullptr, "pipeline: null code");
  SEMCACHE_CHECK(channel_ != nullptr, "pipeline: null channel");
}

namespace {
// One thread's stage buffers, reused by every transmit it runs (the idiom
// of ServingTable::decode's miss buffers): the pipeline stays const and
// shared by every lane, and a warmed transmit allocates only the code's
// output and the returned bits.
struct StageScratch {
  BitVec sent;                  // interleaved on-air bits
  std::vector<Symbol> symbols;  // modulated, then received
  BitVec hard;                  // hard path: demapped, then coded order
  BitVec hard_coded;
  std::vector<float> llrs;      // soft path: demapped, then coded order
  std::vector<float> llrs_coded;
};
}  // namespace

BitVec ChannelPipeline::transmit(const BitVec& payload, Rng& rng,
                                 std::uint64_t slot,
                                 ChannelObservation* obs) const {
  static thread_local StageScratch s;
  const BitVec coded = code_->encode(payload);
  interleaver_.interleave_into(coded, s.sent);
  modulate_into(s.symbols, s.sent, mod_);
  channel_->apply(s.symbols, rng, slot);
  BitVec decoded;
  if (soft_) {
    // LLRs ride the same deinterleave permutation the hard bits would, so
    // the trellis sees confidences in coded order.
    demap_soft_into(s.llrs, s.symbols.data(), s.symbols.size(), mod_);
    s.llrs.resize(s.sent.size());  // drop LLRs of modulation pad bits
    if (obs != nullptr) *obs = observe_symbols(s.symbols, mod_);
    interleaver_.deinterleave_into(s.llrs, coded.size(), s.llrs_coded);
    decoded = code_->decode_soft(s.llrs_coded);
  } else {
    demap_into(s.hard, s.symbols.data(), s.symbols.size(), mod_);
    s.hard.resize(s.sent.size());  // drop modulation pad bits
    interleaver_.deinterleave_into(s.hard, coded.size(), s.hard_coded);
    decoded = code_->decode(s.hard_coded);
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
  return code_->name() + "+" + modulation_name(mod_) + "/" + channel_->name();
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
  return std::make_unique<ChannelPipeline>(
      std::move(code), mod, std::make_unique<AwgnChannel>(snr_db),
      interleave_depth);
}

std::unique_ptr<ChannelPipeline> make_rayleigh_pipeline(
    std::unique_ptr<ChannelCode> code, Modulation mod, double snr_db,
    std::size_t fade_block_len, std::size_t interleave_depth) {
  return std::make_unique<ChannelPipeline>(
      std::move(code), mod,
      std::make_unique<RayleighChannel>(snr_db, fade_block_len),
      interleave_depth);
}

std::unique_ptr<ChannelPipeline> make_burst_pipeline(
    std::unique_ptr<ChannelCode> code, Modulation mod,
    const GilbertElliottConfig& burst, std::size_t interleave_depth) {
  return std::make_unique<ChannelPipeline>(
      std::move(code), mod, std::make_unique<GilbertElliottChannel>(burst),
      interleave_depth);
}

bool resolve_soft_decision(bool configured) { return configured; }

}  // namespace semcache::channel
