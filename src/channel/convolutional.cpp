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

// Output pair for (state, input bit). State holds the last K-1 input bits,
// most-recent bit in the LSB.
struct Transition {
  std::uint8_t out0;  // from generator G1
  std::uint8_t out1;  // from generator G2
  std::uint8_t next_state;
};

Transition transition(std::uint8_t state, std::uint8_t input) {
  // Shift register contents: [input, state bits] = K bits total.
  const std::uint8_t reg =
      static_cast<std::uint8_t>((input << (ConvolutionalCode::kConstraint - 1)) | state);
  auto parity = [](std::uint8_t v) -> std::uint8_t {
    v ^= static_cast<std::uint8_t>(v >> 4);
    v ^= static_cast<std::uint8_t>(v >> 2);
    v ^= static_cast<std::uint8_t>(v >> 1);
    return v & 1;
  };
  Transition t;
  t.out0 = parity(reg & ConvolutionalCode::kG1);
  t.out1 = parity(reg & ConvolutionalCode::kG2);
  t.next_state = static_cast<std::uint8_t>(reg >> 1);
  return t;
}

// Build the add-compare-select tables once: for every next-state, its two
// predecessors' expected outputs plus the packed survivor bytes. Indexing
// by NEXT state (not by source state) is what lets one pass update all
// four metrics with no transition scan.
detail::ViterbiTables build_viterbi_tables() {
  detail::ViterbiTables tb{};
  for (std::uint8_t ns = 0; ns < 4; ++ns) {
    const std::uint8_t in = ns >> 1;  // input bit that reaches ns
    const std::uint8_t pa = detail::kViterbiPredA[ns];
    const std::uint8_t pb = detail::kViterbiPredB[ns];
    const Transition ta = transition(pa, in);
    const Transition tb_ = transition(pb, in);
    SEMCACHE_CHECK(ta.next_state == ns && tb_.next_state == ns,
                   "conv: predecessor table inconsistent");
    tb.surv_a[ns] = static_cast<std::uint8_t>((in << 4) | pa);
    tb.surv_b[ns] = static_cast<std::uint8_t>((in << 4) | pb);
    tb.exp0_a[ns] = ta.out0;
    tb.exp1_a[ns] = ta.out1;
    tb.exp0_b[ns] = tb_.out0;
    tb.exp1_b[ns] = tb_.out1;
  }
  return tb;
}

const detail::ViterbiTables& viterbi_tables() {
  static const detail::ViterbiTables kTables = build_viterbi_tables();
  return kTables;
}

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

// One add-compare-select step over next-states [0, states): each branch
// pays the step's weight for every expected output bit that mismatches
// rx. Predecessor A is the lower source state — the one the reference
// decoder's ascending-s scan visited first — so ties keep A and B wins
// only strictly.
void acs_step(const detail::ViterbiTables& tb, std::uint8_t rx,
              const std::uint8_t* weights, std::size_t states,
              std::uint32_t* metric, std::uint8_t* sv) {
  // Mismatch cost of each expected output pair e = G1 | G2 << 1: the
  // pair equal to rx costs nothing, each differing bit costs its weight.
  std::uint32_t cost[4];
  cost[rx] = 0;
  cost[rx ^ 1u] = weights[0];
  cost[rx ^ 2u] = weights[1];
  cost[rx ^ 3u] = weights[0] + weights[1];
  std::uint32_t next[4];
  for (std::size_t ns = 0; ns < states; ++ns) {
    const std::uint32_t bma = cost[tb.exp0_a[ns] | tb.exp1_a[ns] << 1];
    const std::uint32_t bmb = cost[tb.exp0_b[ns] | tb.exp1_b[ns] << 1];
    const std::uint32_t ca = sat_add(metric[detail::kViterbiPredA[ns]], bma);
    const std::uint32_t cb = sat_add(metric[detail::kViterbiPredB[ns]], bmb);
    if (cb < ca) {
      next[ns] = cb;
      sv[ns] = tb.surv_b[ns];
    } else {
      next[ns] = ca;
      sv[ns] = tb.surv_a[ns];
    }
  }
  for (std::size_t ns = 0; ns < states; ++ns) metric[ns] = next[ns];
}

// The one Viterbi engine, over `steps` trellis steps. rx[t] packs step
// t's hard bits (G1 | G2 << 1); weights[2t] and weights[2t+1] are their
// mismatch costs, 0 for an erasure. Returns the information bits (zero
// tail dropped).
BitVec viterbi(const std::uint8_t* rx, const std::uint8_t* weights,
               std::size_t steps) {
  const std::size_t info_len = steps - (ConvolutionalCode::kConstraint - 1);
  const detail::ViterbiTables& tables = viterbi_tables();

  std::array<std::uint32_t, ConvolutionalCode::kStates> metric;
  metric.fill(detail::kViterbiInf);
  metric[0] = 0;  // encoder starts in the zero state

  // survivor[4 * t + s] = (input << 4) | previous state. Dead next-states
  // keep a saturated metric; the zero-tail traceback never visits them.
  std::vector<std::uint8_t> survivor(4 * steps, 0);

  const detail::Avx2ChannelKernels* k = detail::engaged_channel_kernels();
  if (k != nullptr) {
    k->viterbi_acs_weighted(tables, rx, weights, info_len, metric.data(),
                            survivor.data());
  } else {
    for (std::size_t t = 0; t < info_len; ++t) {
      acs_step(tables, rx[t], weights + 2 * t, 4, metric.data(),
               survivor.data() + 4 * t);
    }
  }

  // Tail steps admit only input 0 (next-states 0 and 1); states 2 and 3
  // become unreachable and keep survivor byte 0.
  for (std::size_t t = info_len; t < steps; ++t) {
    acs_step(tables, rx[t], weights + 2 * t, 2, metric.data(),
             survivor.data() + 4 * t);
    metric[2] = detail::kViterbiInf;
    metric[3] = detail::kViterbiInf;
  }

  // Traceback from state 0 (guaranteed by the zero tail).
  BitVec decoded(steps, 0);
  std::uint8_t state = 0;
  for (std::size_t t = steps; t-- > 0;) {
    const std::uint8_t packed = survivor[4 * t + state];
    decoded[t] = static_cast<std::uint8_t>((packed >> 4) & 1);
    state = packed & 0x0F;
  }
  decoded.resize(info_len);  // drop the tail bits
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
// them: `slice(i, weight)` returns received value i's hard bit and sets
// its branch weight; deleted positions stay bit 0 at weight 0.
template <typename Slice>
BitVec decode_received(const RateRow& r, std::size_t received, Slice slice) {
  std::size_t steps = received / kept_bits(r, r.period) * r.period;
  while (kept_bits(r, steps) < received) ++steps;
  SEMCACHE_CHECK(kept_bits(r, steps) == received,
                 "conv: coded length does not align with the puncture "
                 "pattern");
  SEMCACHE_CHECK(steps >= ConvolutionalCode::kConstraint - 1,
                 "conv: coded stream shorter than the termination tail");
  // One allocation holds the trellis input: rx, then two weights a step.
  std::vector<std::uint8_t> input(3 * steps, 0);
  std::uint8_t* rx = input.data();
  std::uint8_t* weights = rx + steps;
  if (r.period == 1) {
    // Keep-all: the stream is already in mother layout. A straight loop;
    // cycling the masks here made the soft decode 1.5x slower.
    for (std::size_t t = 0; t < steps; ++t) {
      rx[t] = static_cast<std::uint8_t>(
          slice(2 * t, weights[2 * t]) |
          (slice(2 * t + 1, weights[2 * t + 1]) << 1));
    }
    return viterbi(rx, weights, steps);
  }
  std::size_t pos = 0;
  std::size_t p = 0;
  for (std::size_t t = 0; t < steps; ++t) {
    const std::uint8_t keep = r.keep[p];
    p = p + 1 == r.period ? 0 : p + 1;
    std::uint8_t bits = 0;
    if ((keep & 1u) != 0) bits = slice(pos++, weights[2 * t]);
    if ((keep & 2u) != 0) {
      bits |= static_cast<std::uint8_t>(slice(pos++, weights[2 * t + 1]) << 1);
    }
    rx[t] = bits;
  }
  return viterbi(rx, weights, steps);
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
  const std::size_t steps = info.size() + kConstraint - 1;
  BitVec mother;
  mother.reserve(2 * steps);
  std::uint8_t state = 0;
  auto push = [&](std::uint8_t bit) {
    const Transition t = transition(state, bit);
    mother.push_back(t.out0);
    mother.push_back(t.out1);
    state = t.next_state;
  };
  for (const std::uint8_t b : info) push(b & 1);
  for (std::size_t i = 0; i < kConstraint - 1; ++i) push(0);  // zero tail
  // Keep-all: the mother stream is the codeword. Checking a mask per
  // step while encoding made the rate-1/2 encode about 2x slower.
  const RateRow& r = rate_row(rate_);
  if (r.period == 1) return mother;
  BitVec out;
  out.reserve(kept_bits(r, steps));
  for (std::size_t t = 0, p = 0; t < steps; ++t) {
    if ((r.keep[p] & 1u) != 0) out.push_back(mother[2 * t]);
    if ((r.keep[p] & 2u) != 0) out.push_back(mother[2 * t + 1]);
    p = p + 1 == r.period ? 0 : p + 1;
  }
  return out;
}

BitVec ConvolutionalCode::decode(const BitVec& coded) const {
  return decode_received(rate_row(rate_), coded.size(),
                         [&](std::size_t i, std::uint8_t& weight) {
                           weight = 1;
                           return static_cast<std::uint8_t>(coded[i] & 1);
                         });
}

BitVec ConvolutionalCode::decode_soft(const std::vector<float>& llrs) const {
  return decode_received(rate_row(rate_), llrs.size(),
                         [&](std::size_t i, std::uint8_t& weight) {
                           weight = llr_weight(llrs[i]);
                           return static_cast<std::uint8_t>(llrs[i] >= 0.0f);
                         });
}

}  // namespace semcache::channel
