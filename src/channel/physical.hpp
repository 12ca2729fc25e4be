// Physical channel models. Two abstraction levels:
//  * SymbolChannel distorts complex symbols (AWGN, Rayleigh block fading);
//  * BitChannel maps bits to bits — either directly (BSC) or by wrapping a
//    modulation + SymbolChannel pair (ModulatedChannel).
// The channel pipeline (pipeline.hpp) only talks to BitChannel.
#pragma once

#include <memory>

#include "channel/modulation.hpp"
#include "common/rng.hpp"

namespace semcache::channel {

class SymbolChannel {
 public:
  virtual ~SymbolChannel() = default;
  SymbolChannel() = default;
  SymbolChannel(const SymbolChannel&) = delete;
  SymbolChannel& operator=(const SymbolChannel&) = delete;

  /// Distort symbols in place. The noise is keyed (channel/noise.hpp):
  /// each call takes one rng.next_key() and never draws from the engine.
  /// `slot` is the caller's global message index (the same ordinal that
  /// keys the per-message RNG forks), which lets a channel with memory —
  /// the Gilbert–Elliott burst model — evolve its state across messages
  /// deterministically under any thread or shard count. Memoryless
  /// channels ignore it.
  virtual void apply(std::vector<Symbol>& symbols, Rng& rng,
                     std::uint64_t slot) = 0;
  virtual std::string name() const = 0;
};

/// Receiver-side channel-quality measurement, filled by the soft transmit
/// path: `noise_power` is the decision-directed error power (mean squared
/// distance from each received symbol to the nearest constellation point),
/// an honest estimate that needs no genie knowledge of the true SNR.
struct ChannelObservation {
  double noise_power = 0.0;
  double snr_est_db = 0.0;  ///< 10 log10(Es / noise_power), Es = 1
};

/// Decision-directed observation over received symbols.
ChannelObservation observe_symbols(const std::vector<Symbol>& received,
                                   Modulation m);

/// Complex additive white Gaussian noise at a given Es/N0.
class AwgnChannel final : public SymbolChannel {
 public:
  explicit AwgnChannel(double snr_db);
  void apply(std::vector<Symbol>& symbols, Rng& rng,
             std::uint64_t slot) override;
  std::string name() const override;
  double snr_db() const { return snr_db_; }

 private:
  double snr_db_;
  double sigma_;  // per-dimension noise stddev
};

/// Block Rayleigh fading with perfect channel state information at the
/// receiver: per block of `block_len` symbols, y = h x + n, equalized by
/// 1/h (noise enhancement during deep fades is what the interleaver + code
/// must fight — E8).
class RayleighChannel final : public SymbolChannel {
 public:
  RayleighChannel(double snr_db, std::size_t block_len = 32);
  void apply(std::vector<Symbol>& symbols, Rng& rng,
             std::uint64_t slot) override;
  std::string name() const override;

 private:
  double snr_db_;
  double sigma_;
  std::size_t block_len_;
};

class BitChannel {
 public:
  virtual ~BitChannel() = default;
  BitChannel() = default;
  BitChannel(const BitChannel&) = delete;
  BitChannel& operator=(const BitChannel&) = delete;

  /// Implementations must be safe for concurrent transmit() calls with
  /// DISTINCT rngs (read-only channel parameters, all working state local
  /// or in the rng): a pair wave's lanes share one pipeline and transmit
  /// from several pool threads at once. All in-tree channels qualify.
  /// `slot` is the message index of SymbolChannel::apply.
  virtual BitVec transmit(const BitVec& bits, Rng& rng,
                          std::uint64_t slot) = 0;
  /// Soft-output transmit: on success fills `llrs` with one LLR per input
  /// bit (sign convention: llr >= 0 decodes to 1, matching the hard
  /// slicers) and, when `obs` is non-null, a decision-directed channel
  /// observation. Returns false when the channel has no soft output (BSC),
  /// in which case the caller falls back to the hard path.
  virtual bool transmit_soft(const BitVec& bits, Rng& rng, std::uint64_t slot,
                             std::vector<float>& llrs,
                             ChannelObservation* obs) {
    (void)bits;
    (void)rng;
    (void)slot;
    (void)llrs;
    (void)obs;
    return false;
  }
  virtual std::string name() const = 0;
};

/// Binary symmetric channel: each bit flips independently with probability
/// p; bit i flips when keyed uniform i of the call's rng.next_key() is
/// below p.
class BscChannel final : public BitChannel {
 public:
  explicit BscChannel(double flip_probability);
  BitVec transmit(const BitVec& bits, Rng& rng, std::uint64_t slot) override;
  std::string name() const override;
  double flip_probability() const { return p_; }

 private:
  double p_;
};

/// Modulate -> symbol channel -> demodulate.
class ModulatedChannel final : public BitChannel {
 public:
  ModulatedChannel(Modulation m, std::unique_ptr<SymbolChannel> channel);
  BitVec transmit(const BitVec& bits, Rng& rng, std::uint64_t slot) override;
  bool transmit_soft(const BitVec& bits, Rng& rng, std::uint64_t slot,
                     std::vector<float>& llrs,
                     ChannelObservation* obs) override;
  std::string name() const override;
  Modulation modulation() const { return mod_; }

 private:
  Modulation mod_;
  std::unique_ptr<SymbolChannel> channel_;
};

/// Per-dimension noise stddev for unit-energy symbols at Es/N0 = snr_db.
/// Throws semcache::Error when the stddev is not finite: an snr_db of NaN
/// or -inf (or one whose linear power underflows to 0). +inf is a
/// noiseless channel (stddev 0). The AWGN, Rayleigh and Gilbert–Elliott
/// constructors call it, so they refuse those SNRs.
double noise_sigma(double snr_db);

/// Theoretical BPSK-over-AWGN bit error rate, Q(sqrt(2*Es/N0)). Used by the
/// property tests to validate the noise model.
double bpsk_awgn_ber(double snr_db);

}  // namespace semcache::channel
