// The K=3 convolutional code, generators (7, 5) octal, zero-tail
// terminated, at rate 1/2 or punctured to 2/3 or 3/4. Rates are data: each
// is a row of keep masks in the osmocom style, where a periodic mask
// deletes mother-code bits on the transmit side and the receiver
// re-inserts them as erasures (weight 0) before one weighted Viterbi
// trellis. The trellis reads four branch costs a step and keeps one
// decision byte a step (bit ns set where the upper predecessor won
// next-state ns), both in thread-local scratch, and traces back from the
// decisions.
// Raising the rate costs coding gain but buys airtime — the trade the
// per-link adaptive controller (adaptive.hpp) plays against measured SNR.
#pragma once

#include <cstdint>
#include <vector>

#include "channel/code.hpp"

namespace semcache::channel {

enum class CodeRate : std::uint8_t {
  kR12 = 0,  ///< conv_k3_r12 — most robust, most airtime
  kR23 = 1,  ///< conv_k3_r23: keep masks [11, 01], 3 of every 4 bits
  kR34 = 2,  ///< conv_k3_r34: keep masks [11, 01, 10], 4 of every 6
};

constexpr std::size_t kCodeRateCount = 3;

/// The code's name at `rate` ("conv_k3_r12", ...), as make_code takes it.
const char* code_rate_name(CodeRate rate);

class ConvolutionalCode final : public ChannelCode {
 public:
  static constexpr std::size_t kConstraint = 3;       // K
  static constexpr std::size_t kStates = 1u << (kConstraint - 1);

  explicit ConvolutionalCode(CodeRate rate = CodeRate::kR12);

  BitVec encode(const BitVec& info) const override;
  /// Hard-decision decode on the weighted trellis: kept bits weigh 1 (the
  /// Hamming metric), deleted ones are weight-0 erasures. Traceback runs
  /// from the zero state; returns exactly the original info bits.
  BitVec decode(const BitVec& coded) const override;
  /// LLR-metric decode: each LLR quantizes to (hard bit, confidence
  /// weight clamp(|llr| * 32, 0, 255), NaN -> 0), so in noise strong bits
  /// outvote weak ones; uniform weights give the hard decoder exactly.
  BitVec decode_soft(const std::vector<float>& llrs) const override;
  std::size_t encoded_length(std::size_t info_bits) const override;
  double rate() const override;
  std::string name() const override { return code_rate_name(rate_); }

  /// Puncture period: trellis step t keeps the outputs in keep mask
  /// t % period() (bit 0 the G1 output, bit 1 the G2 output).
  std::size_t period() const;

 private:
  CodeRate rate_;
};

}  // namespace semcache::channel
