#include "channel/convolutional.hpp"

#include <array>
#include <cmath>
#include <vector>

#include "channel/simd.hpp"
#include "common/check.hpp"

namespace semcache::channel {

namespace {
// One row per CodeRate: the keep masks of one puncture period (bit 0 keeps
// the G1 output, bit 1 the G2 output), cycling through the zero tail as
// well — the classic continuous puncturing discipline (osmocom's punctured
// GSM tables work the same way).
struct RateRow {
  const char* name;
  double rate;
  std::size_t period;
  std::uint8_t keep[3];
};

constexpr RateRow kRates[kCodeRateCount] = {
    {"conv_k3_r12", 1.0 / 2.0, 1, {0b11}},
    {"conv_k3_r23", 2.0 / 3.0, 2, {0b11, 0b01}},
    {"conv_k3_r34", 3.0 / 4.0, 3, {0b11, 0b01, 0b10}},
};

const RateRow& rate_row(CodeRate rate) {
  return kRates[static_cast<std::size_t>(rate)];
}

std::size_t kept_in(std::uint8_t keep) { return (keep & 1u) + (keep >> 1); }

// Metric + branch with the sentinel as a saturation ceiling: a metric can
// never exceed kViterbiInf, so the old size_t arithmetic's latent wrap on
// pathologically long frames (sentinel + branch overflowing and beating a
// real path) is structurally impossible. A step adds at most 2 * 255, so
// any frame under two million steps stays below the ceiling and results
// are unchanged.
std::uint32_t sat_add(std::uint32_t metric, std::uint32_t branch) {
  const std::uint32_t cand = metric + branch;
  return cand < detail::kViterbiInf ? cand : detail::kViterbiInf;
}

// One add-compare-select step over next-states [0, states). Next-state
// ns = u[t] << 1 | u[t-1] has predecessors A = (ns & 1) << 1 and B = A | 1
// (u[t-2] = 0 or 1). G1 = 7 emits u[t] ^ u[t-1] ^ u[t-2] and G2 = 5 emits
// u[t] ^ u[t-2], so the branch from A expects (G1, G2) = (0, 0), (1, 0),
// (1, 1), (0, 1) for ns = 0..3, and the branch from B expects both bits
// flipped, which is A's branch into ns ^ 2. `cost` holds the step's
// costs of expecting 0 and 1 for G1, then for G2. Predecessor A is the
// lower source state — the one the reference decoder's ascending-s scan
// visited first — so ties keep A and B wins only strictly. Returns the
// step's decision byte: bit ns is set when B won next-state ns.
std::uint8_t acs_step(const std::uint8_t* cost, std::size_t states,
                      std::uint32_t* metric) {
  const std::uint32_t bma[4] = {
      std::uint32_t{cost[0]} + cost[2], std::uint32_t{cost[1]} + cost[2],
      std::uint32_t{cost[1]} + cost[3], std::uint32_t{cost[0]} + cost[3]};
  std::uint32_t next[4];
  std::uint8_t decision = 0;
  for (std::size_t ns = 0; ns < states; ++ns) {
    const std::size_t a = (ns & 1) << 1;
    const std::uint32_t ca = sat_add(metric[a], bma[ns]);
    const std::uint32_t cb = sat_add(metric[a | 1], bma[ns ^ 2]);
    next[ns] = cb < ca ? cb : ca;
    decision |= static_cast<std::uint8_t>((cb < ca) << ns);
  }
  for (std::size_t ns = 0; ns < states; ++ns) metric[ns] = next[ns];
  return decision;
}

// The one Viterbi engine, over `steps` trellis steps. costs[4t..4t+3] are
// step t's costs of expecting 0 and 1 for its G1 bit, then its G2 bit: a
// received bit's weight where the expectation mismatches it, 0 where it
// matches, 0 both ways for an erasure. decisions holds one byte a step.
// Returns the information bits (zero tail dropped).
BitVec viterbi(const std::uint8_t* costs, std::uint8_t* decisions,
               std::size_t steps) {
  const std::size_t info_len = steps - (ConvolutionalCode::kConstraint - 1);

  std::array<std::uint32_t, ConvolutionalCode::kStates> metric;
  metric.fill(detail::kViterbiInf);
  metric[0] = 0;  // encoder starts in the zero state

  // Dead next-states keep a saturated metric; the zero-tail traceback
  // never visits them.
  const detail::Avx2ChannelKernels* k = detail::engaged_channel_kernels();
  if (k != nullptr) {
    k->viterbi_acs(costs, info_len, metric.data(), decisions);
  } else {
    for (std::size_t t = 0; t < info_len; ++t) {
      decisions[t] = acs_step(costs + 4 * t, 4, metric.data());
    }
  }

  // Tail steps admit only input 0 (next-states 0 and 1); states 2 and 3
  // become unreachable.
  for (std::size_t t = info_len; t < steps; ++t) {
    decisions[t] = acs_step(costs + 4 * t, 2, metric.data());
    metric[2] = detail::kViterbiInf;
    metric[3] = detail::kViterbiInf;
  }

  // Traceback from state 0 (guaranteed by the zero tail). Next-state ns
  // came from A = (ns & 1) << 1, or from B = A | 1 where its decision bit
  // is set, on input ns >> 1.
  std::uint8_t state = 0;
  const auto back = [&](std::size_t t) {
    state = static_cast<std::uint8_t>((state & 1) << 1 |
                                      ((decisions[t] >> state) & 1));
  };
  for (std::size_t t = steps; t-- > info_len;) back(t);
  BitVec decoded(info_len);
  for (std::size_t t = info_len; t-- > 0;) {
    decoded[t] = state >> 1;
    back(t);
  }
  return decoded;
}

// LLR magnitude -> branch weight: clamp(|llr| * 32, 0, 255); a NaN LLR
// quantizes to 0 (erasure). Scale is arbitrary (only relative weights
// matter inside one frame); 32 keeps sub-dB confidence differences
// distinguishable after integer truncation.
std::uint8_t llr_weight(float llr) {
  const float v = std::fabs(llr) * 32.0f;
  if (!(v >= 0.0f)) return 0;  // NaN: no information, treat as erasure
  return v >= 255.0f ? 255 : static_cast<std::uint8_t>(v);
}

// Kept bits over the first `steps` trellis steps of rate `r`.
std::size_t kept_bits(const RateRow& r, std::size_t steps) {
  std::size_t per_period = 0;
  for (std::size_t p = 0; p < r.period; ++p) per_period += kept_in(r.keep[p]);
  std::size_t kept = steps / r.period * per_period;
  for (std::size_t p = 0; p < steps % r.period; ++p) {
    kept += kept_in(r.keep[p]);
  }
  return kept;
}

// Depuncture `received` values of rate `r` into the trellis and decode
// them. `fill(cost)` writes each received value's two costs in stream
// order: cost[2i] of expecting 0 and cost[2i + 1] of expecting 1, its
// branch weight on the side its bit rules out and 0 on the other. Deleted
// positions cost 0 both ways. The fills are flat loops over raw pointers
// with hoisted lengths: a byte store may alias anything, so a loop that
// wrote through a byte reference or re-read a vector's size stayed scalar.
template <typename Fill>
BitVec decode_received(const RateRow& r, std::size_t received, Fill fill) {
  std::size_t steps = received / kept_bits(r, r.period) * r.period;
  while (kept_bits(r, steps) < received) ++steps;
  SEMCACHE_CHECK(kept_bits(r, steps) == received,
                 "conv: coded length does not align with the puncture "
                 "pattern");
  SEMCACHE_CHECK(steps >= ConvolutionalCode::kConstraint - 1,
                 "conv: coded stream shorter than the termination tail");
  // Per-thread trellis input: four costs and a decision byte a step, then
  // (punctured) the received costs in stream order.
  static thread_local std::vector<std::uint8_t> scratch;
  scratch.resize(5 * steps + (r.period == 1 ? 0 : 2 * received));
  std::uint8_t* costs = scratch.data();
  std::uint8_t* decisions = costs + 4 * steps;
  if (r.period == 1) {
    fill(costs);  // keep-all: stream order is trellis order
    return viterbi(costs, decisions, steps);
  }
  std::uint8_t* stream = decisions + steps;
  fill(stream);
  for (std::size_t t = 0, p = 0; t < steps; ++t) {
    for (std::size_t g = 0; g < 2; ++g) {  // G1, then G2
      const bool kept = ((r.keep[p] >> g) & 1u) != 0;
      costs[4 * t + 2 * g] = kept ? stream[0] : 0;
      costs[4 * t + 2 * g + 1] = kept ? stream[1] : 0;
      stream += kept ? 2 : 0;
    }
    p = p + 1 == r.period ? 0 : p + 1;
  }
  return viterbi(costs, decisions, steps);
}
}  // namespace

const char* code_rate_name(CodeRate rate) { return rate_row(rate).name; }

ConvolutionalCode::ConvolutionalCode(CodeRate rate) : rate_(rate) {}

double ConvolutionalCode::rate() const { return rate_row(rate_).rate; }

std::size_t ConvolutionalCode::period() const {
  return rate_row(rate_).period;
}

std::size_t ConvolutionalCode::encoded_length(std::size_t info_bits) const {
  return kept_bits(rate_row(rate_), info_bits + kConstraint - 1);
}

BitVec ConvolutionalCode::encode(const BitVec& info) const {
  const RateRow& r = rate_row(rate_);
  BitVec out(encoded_length(info.size()));
  std::uint8_t* o = out.data();
  // u1 and u2 hold the two previous inputs: G1 = 7 emits u ^ u1 ^ u2 and
  // G2 = 5 emits u ^ u2. Keep-all writes both; a punctured rate walks its
  // keep masks.
  std::uint8_t u1 = 0, u2 = 0;
  std::size_t p = 0;
  const auto step = [&](std::uint8_t u) {
    if (r.period == 1) {
      o[0] = u ^ u1 ^ u2;
      o[1] = u ^ u2;
      o += 2;
    } else {
      if ((r.keep[p] & 1u) != 0) *o++ = u ^ u1 ^ u2;
      if ((r.keep[p] & 2u) != 0) *o++ = u ^ u2;
      p = p + 1 == r.period ? 0 : p + 1;
    }
    u2 = u1;
    u1 = u;
  };
  for (const std::uint8_t b : info) step(b & 1);
  for (std::size_t i = 0; i < kConstraint - 1; ++i) step(0);  // zero tail
  return out;
}

BitVec ConvolutionalCode::decode(const BitVec& coded) const {
  return decode_received(rate_row(rate_), coded.size(),
                         [&](std::uint8_t* cost) {
                           const std::uint8_t* c = coded.data();
                           const std::size_t n = coded.size();
                           for (std::size_t i = 0; i < n; ++i) {
                             cost[2 * i] = c[i] & 1;
                             cost[2 * i + 1] = (c[i] & 1) ^ 1;
                           }
                         });
}

BitVec ConvolutionalCode::decode_soft(const std::vector<float>& llrs) const {
  return decode_received(rate_row(rate_), llrs.size(),
                         [&](std::uint8_t* cost) {
                           const float* l = llrs.data();
                           const std::size_t n = llrs.size();
                           for (std::size_t i = 0; i < n; ++i) {
                             const std::uint8_t w = llr_weight(l[i]);
                             const bool one = l[i] >= 0.0f;
                             cost[2 * i] = one ? w : 0;
                             cost[2 * i + 1] = one ? 0 : w;
                           }
                         });
}

}  // namespace semcache::channel
