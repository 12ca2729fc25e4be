// End-to-end bit transport: channel code + interleaver + physical channel.
// This is the "Channel encoding -> Physical channel -> Channel decoding"
// segment of the paper's workflow; both semantic payloads (quantized
// features) and traditional payloads (compressed text bits) ride on it.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "channel/burst.hpp"
#include "channel/code.hpp"
#include "channel/interleaver.hpp"
#include "channel/physical.hpp"

namespace semcache::channel {

struct PipelineStats {
  std::size_t payload_bits = 0;   ///< information bits handed in
  std::size_t airtime_bits = 0;   ///< coded bits actually on the channel
  std::size_t messages = 0;

  PipelineStats& operator+=(const PipelineStats& o) {
    payload_bits += o.payload_bits;
    airtime_bits += o.airtime_bits;
    messages += o.messages;
    return *this;
  }
};

class ChannelPipeline {
 public:
  ChannelPipeline(std::unique_ptr<ChannelCode> code,
                  std::unique_ptr<BitChannel> channel,
                  std::size_t interleave_depth = 1);

  /// Transmit payload bits; returns the receiver's reconstruction, trimmed
  /// to the payload length.
  BitVec transmit(const BitVec& payload, Rng& rng);

  /// Slot-aware transmit: `slot` is the global message ordinal (the same
  /// index that keys the caller's RNG fork), forwarded to channels with
  /// memory (Gilbert–Elliott). When `obs` is non-null and the pipeline is
  /// in soft-decision mode, it receives the decision-directed channel
  /// observation of this message.
  BitVec transmit_at(const BitVec& payload, Rng& rng, std::uint64_t slot,
                     ChannelObservation* obs = nullptr);

  /// Batched transmit: payload i rides the channel with its own RNG stream
  /// `rngs[i]`, so result i is bit-identical to `transmit(payloads[i],
  /// rngs[i])` and the caller's per-message fork discipline is preserved.
  /// Stats account per message: `messages` grows by payloads.size() and the
  /// payload/airtime bit sums equal N sequential transmits. `slots` as in
  /// transmit_batch_collect.
  std::vector<BitVec> transmit_batch(
      const std::vector<BitVec>& payloads, std::span<Rng> rngs,
      std::span<const std::uint64_t> slots = {});

  /// transmit_batch with the accounting redirected into `sink` instead of
  /// the pipeline's own stats, leaving the pipeline const — the form the
  /// cross-pair serving tasks use: several pairs share one pipeline, each
  /// collects into a pair-local sink on its worker, and the caller folds
  /// the sinks back in pair order after the join (fold_stats). `slots[i]`
  /// is forwarded as message i's slot (empty span = all slot 0, the
  /// legacy behavior). Bits and accounting are identical to N sequential
  /// transmit_at calls; on an error, `sink` holds the pre-throw prefix
  /// exactly as member stats would.
  std::vector<BitVec> transmit_batch_collect(
      const std::vector<BitVec>& payloads, std::span<Rng> rngs,
      std::span<const std::uint64_t> slots, PipelineStats& sink) const;

  /// Switch the receive side between hard-decision slicing (default; the
  /// pre-existing bit-exact path) and soft-decision LLR decoding. Soft
  /// mode silently falls back to hard for channels without a soft output
  /// (BSC). Not thread-safe against in-flight batches.
  void set_soft_decision(bool on) { soft_ = on; }
  bool soft_decision() const { return soft_; }

  const PipelineStats& stats() const { return stats_; }
  /// Merge a collected sink into the pipeline's own stats (the commit
  /// half of transmit_batch_collect).
  void fold_stats(const PipelineStats& delta) { stats_ += delta; }
  const ChannelCode& code() const { return *code_; }
  std::string description() const;

 private:
  /// One payload through code/interleave/channel/deinterleave/decode; the
  /// shared body of transmit() and transmit_batch(). Pure with respect to
  /// pipeline state (safe to run concurrently for distinct messages):
  /// the coded on-air bit count is reported through `airtime_bits` and
  /// folded into stats_ by the caller.
  BitVec transmit_one(const BitVec& payload, Rng& rng,
                      std::size_t& airtime_bits, std::uint64_t slot,
                      ChannelObservation* obs) const;

  std::unique_ptr<ChannelCode> code_;
  std::unique_ptr<BitChannel> channel_;
  BlockInterleaver interleaver_;
  PipelineStats stats_;
  bool soft_ = false;
};

/// Channel-code factory: "uncoded" | "rep3" | "rep5" | "hamming74" |
/// "conv_k3_r12" | "conv_k3_r23" | "conv_k3_r34".
std::unique_ptr<ChannelCode> make_code(const std::string& name);

/// Convenience factories for the standard experiment configurations.
std::unique_ptr<ChannelPipeline> make_awgn_pipeline(
    std::unique_ptr<ChannelCode> code, Modulation mod, double snr_db,
    std::size_t interleave_depth = 1);
std::unique_ptr<ChannelPipeline> make_bsc_pipeline(
    std::unique_ptr<ChannelCode> code, double flip_probability);
std::unique_ptr<ChannelPipeline> make_rayleigh_pipeline(
    std::unique_ptr<ChannelCode> code, Modulation mod, double snr_db,
    std::size_t fade_block_len, std::size_t interleave_depth);
std::unique_ptr<ChannelPipeline> make_burst_pipeline(
    std::unique_ptr<ChannelCode> code, Modulation mod,
    const GilbertElliottConfig& burst, std::size_t interleave_depth = 1);

/// Resolve the effective soft-decision flag against SEMCACHE_SOFT:
/// "off"/"0" forces hard decisions even over an explicit configuration
/// (the CI floor leg, mirroring SEMCACHE_SIMD=scalar), "on"/"1" forces
/// soft, anything else (including unset) keeps `configured`.
bool resolve_soft_decision(bool configured);
/// True when SEMCACHE_SOFT force-disables soft decisions — soft-asserting
/// tests skip themselves under the floor leg.
bool soft_forced_off();

}  // namespace semcache::channel
