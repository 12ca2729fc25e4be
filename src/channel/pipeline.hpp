// End-to-end bit transport: channel code, interleaver, modulation and a
// physical symbol channel. This is the "Channel encoding -> Physical
// channel -> Channel decoding" segment of the paper's workflow; both
// semantic payloads (quantized features) and traditional payloads
// (compressed text bits) ride on it. One function runs every stage:
// encode -> interleave -> modulate -> SymbolChannel::apply -> hard demap
// or soft LLR demap -> deinterleave -> decode.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "channel/burst.hpp"
#include "channel/code.hpp"
#include "channel/interleaver.hpp"
#include "channel/physical.hpp"

namespace semcache::channel {

/// A const function of (payload, rng, slot): the pipeline holds only its
/// configuration, so one pipeline serves any number of concurrent
/// transmits with distinct rngs (the SymbolChannel contract).
class ChannelPipeline {
 public:
  ChannelPipeline(std::unique_ptr<ChannelCode> code, Modulation mod,
                  std::unique_ptr<SymbolChannel> channel,
                  std::size_t interleave_depth = 1);

  /// Transmit payload bits; returns the receiver's reconstruction, trimmed
  /// to the payload length. `slot` is the global message ordinal (the same
  /// index that keys the caller's RNG fork), forwarded to channels with
  /// memory (Gilbert–Elliott). When `obs` is non-null and the pipeline is
  /// in soft-decision mode, it receives the decision-directed channel
  /// observation of this message.
  BitVec transmit(const BitVec& payload, Rng& rng, std::uint64_t slot = 0,
                  ChannelObservation* obs = nullptr) const;

  /// Batched transmit: payload i rides the channel with its own RNG stream
  /// `rngs[i]` at slot `slots[i]` (an empty span means slot 0 for all), so
  /// result i is bit-identical to `transmit(payloads[i], rngs[i],
  /// slots[i])` and the caller's per-message fork discipline is preserved.
  std::vector<BitVec> transmit_batch(
      const std::vector<BitVec>& payloads, std::span<Rng> rngs,
      std::span<const std::uint64_t> slots = {}) const;

  /// Bits on the air for a `payload_bits`-bit payload: the coded length
  /// padded to a multiple of the interleaver depth, which is what
  /// transmit hands the channel.
  std::size_t airtime_bits(std::size_t payload_bits) const;

  /// Switch the receive side between hard-decision slicing (default; the
  /// pre-existing bit-exact path) and soft-decision LLR decoding. Every
  /// channel has a soft output, so this is the only switch on the receive
  /// path. Not thread-safe against in-flight transmits.
  void set_soft_decision(bool on) { soft_ = on; }
  bool soft_decision() const { return soft_; }

  const ChannelCode& code() const { return *code_; }
  std::string description() const;

 private:
  std::unique_ptr<ChannelCode> code_;
  Modulation mod_;
  std::unique_ptr<SymbolChannel> channel_;
  BlockInterleaver interleaver_;
  bool soft_ = false;
};

/// Channel-code factory: "uncoded" | "rep3" | "rep5" | "hamming74" |
/// "conv_k3_r12" | "conv_k3_r23" | "conv_k3_r34".
std::unique_ptr<ChannelCode> make_code(const std::string& name);

/// Convenience factories for the standard experiment configurations.
std::unique_ptr<ChannelPipeline> make_awgn_pipeline(
    std::unique_ptr<ChannelCode> code, Modulation mod, double snr_db,
    std::size_t interleave_depth = 1);
std::unique_ptr<ChannelPipeline> make_rayleigh_pipeline(
    std::unique_ptr<ChannelCode> code, Modulation mod, double snr_db,
    std::size_t fade_block_len, std::size_t interleave_depth);
std::unique_ptr<ChannelPipeline> make_burst_pipeline(
    std::unique_ptr<ChannelCode> code, Modulation mod,
    const GilbertElliottConfig& burst, std::size_t interleave_depth = 1);

/// The engaged soft-decision flag for a configured one. Nothing overrides
/// the configuration, so it returns `configured`; perfbench reports the
/// engaged decision through it.
bool resolve_soft_decision(bool configured);

}  // namespace semcache::channel
