#include "channel/modulation.hpp"

#include <array>
#include <cmath>

#include "common/check.hpp"

namespace semcache::channel {

namespace {
// Gray-coded 4-PAM levels for 16-QAM, normalized below. Index = 2 bits.
constexpr std::array<double, 4> kPam4 = {-3.0, -1.0, 1.0, 3.0};

// Map 2 bits (Gray) -> PAM index: 00->-3, 01->-1, 11->+1, 10->+3.
std::size_t gray_to_index(std::uint8_t b0, std::uint8_t b1) {
  const std::uint8_t g = static_cast<std::uint8_t>((b0 << 1) | b1);
  switch (g) {
    case 0b00: return 0;
    case 0b01: return 1;
    case 0b11: return 2;
    default: return 3;  // 0b10
  }
}

void index_to_gray(std::size_t idx, std::uint8_t& b0, std::uint8_t& b1) {
  static constexpr std::array<std::uint8_t, 4> kGray = {0b00, 0b01, 0b11,
                                                        0b10};
  b0 = static_cast<std::uint8_t>((kGray[idx] >> 1) & 1);
  b1 = static_cast<std::uint8_t>(kGray[idx] & 1);
}

// 16-QAM normalization: E[|s|^2] for +-1,+-3 square grid is 10.
const double kQam16Scale = 1.0 / std::sqrt(10.0);
const double kQpskScale = 1.0 / std::sqrt(2.0);

// Bit-group -> symbol tables, built once from the same expressions the old
// per-symbol switch evaluated (so the symbols are bit-identical): the map
// becomes one table load per symbol, no branching in the loop.
const std::array<Symbol, 4>& qpsk_table() {
  static const std::array<Symbol, 4> table = [] {
    std::array<Symbol, 4> t;
    for (std::size_t b0 = 0; b0 < 2; ++b0) {
      for (std::size_t b1 = 0; b1 < 2; ++b1) {
        t[(b0 << 1) | b1] = Symbol((b0 ? 1.0 : -1.0) * kQpskScale,
                                   (b1 ? 1.0 : -1.0) * kQpskScale);
      }
    }
    return t;
  }();
  return table;
}

const std::array<Symbol, 16>& qam16_table() {
  static const std::array<Symbol, 16> table = [] {
    std::array<Symbol, 16> t;
    for (std::size_t g = 0; g < 16; ++g) {
      const std::size_t ii = gray_to_index((g >> 3) & 1, (g >> 2) & 1);
      const std::size_t qi = gray_to_index((g >> 1) & 1, g & 1);
      t[g] = Symbol(kPam4[ii] * kQam16Scale, kPam4[qi] * kQam16Scale);
    }
    return t;
  }();
  return table;
}

std::uint8_t bit_or_pad(const BitVec& bits, std::size_t i) {
  return i < bits.size() ? static_cast<std::uint8_t>(bits[i] & 1) : 0;
}
}  // namespace

std::size_t bits_per_symbol(Modulation m) {
  switch (m) {
    case Modulation::kBpsk: return 1;
    case Modulation::kQpsk: return 2;
    case Modulation::kQam16: return 4;
  }
  SEMCACHE_CHECK(false, "unknown modulation");
  return 0;
}

std::string modulation_name(Modulation m) {
  switch (m) {
    case Modulation::kBpsk: return "bpsk";
    case Modulation::kQpsk: return "qpsk";
    case Modulation::kQam16: return "16qam";
  }
  return "?";
}

std::vector<Symbol> modulate(const BitVec& bits, Modulation m) {
  const std::size_t bps = bits_per_symbol(m);
  const std::size_t nsym = (bits.size() + bps - 1) / bps;
  std::vector<Symbol> out(nsym);
  // Full symbols index `bits` directly; only the final symbol (if partial)
  // zero-pads — the old code copied the whole BitVec to pad it.
  const std::size_t full = bits.size() / bps;
  switch (m) {
    case Modulation::kBpsk:
      for (std::size_t i = 0; i < full; ++i) {
        out[i] = Symbol(bits[i] ? 1.0 : -1.0, 0.0);
      }
      break;
    case Modulation::kQpsk: {
      const auto& table = qpsk_table();
      for (std::size_t i = 0; i < full; ++i) {
        const std::size_t b = 2 * i;
        out[i] = table[((bits[b] & 1u) << 1) | (bits[b + 1] & 1u)];
      }
      break;
    }
    case Modulation::kQam16: {
      const auto& table = qam16_table();
      for (std::size_t i = 0; i < full; ++i) {
        const std::size_t b = 4 * i;
        out[i] = table[((bits[b] & 1u) << 3) | ((bits[b + 1] & 1u) << 2) |
                       ((bits[b + 2] & 1u) << 1) | (bits[b + 3] & 1u)];
      }
      break;
    }
  }
  if (full < nsym) {
    const std::size_t b = full * bps;
    switch (m) {
      case Modulation::kBpsk:
        out[full] = Symbol(bit_or_pad(bits, b) ? 1.0 : -1.0, 0.0);
        break;
      case Modulation::kQpsk:
        out[full] = qpsk_table()[(bit_or_pad(bits, b) << 1) |
                                 bit_or_pad(bits, b + 1)];
        break;
      case Modulation::kQam16:
        out[full] = qam16_table()[(bit_or_pad(bits, b) << 3) |
                                  (bit_or_pad(bits, b + 1) << 2) |
                                  (bit_or_pad(bits, b + 2) << 1) |
                                  bit_or_pad(bits, b + 3)];
        break;
    }
  }
  return out;
}

namespace {
// Nearest 4-PAM index by branchless threshold slicing at the decision
// boundaries -2/0/2. Semantics relative to the old linear distance scan:
// a value exactly ON a boundary keeps the lower index (the scan's strict
// `<` tie rule, reproduced by `>` not `>=`), and NaN fails every compare
// and lands on index 0, as it did when every distance compare was false.
// Within half an ulp ABOVE a boundary the scan's ROUNDED distances also
// tied (fl(1+v) == fl(1-v) for 0 < v < ~2^-53) and it kept the lower
// level; the threshold form resolves those by true magnitude and picks
// the upper one. That band is ~1e-16 relative — no physical symbol or
// golden vector lands there.
std::size_t nearest_pam(double v) {
  return static_cast<std::size_t>(v > -2.0) + static_cast<std::size_t>(v > 0.0) +
         static_cast<std::size_t>(v > 2.0);
}
}  // namespace

void demap_into(BitVec& out, const Symbol* symbols, std::size_t count,
                Modulation m) {
  out.resize(count * bits_per_symbol(m));
  // std::complex<double> is layout-compatible with double[2]; the slicers
  // run over the flat (re, im) array.
  const double* sym = reinterpret_cast<const double*>(symbols);
  switch (m) {
    case Modulation::kBpsk:
      for (std::size_t i = 0; i < count; ++i) {
        out[i] = sym[2 * i] >= 0.0 ? 1 : 0;
      }
      break;
    case Modulation::kQpsk:
      for (std::size_t i = 0; i < count; ++i) {
        out[2 * i] = sym[2 * i] >= 0.0 ? 1 : 0;
        out[2 * i + 1] = sym[2 * i + 1] >= 0.0 ? 1 : 0;
      }
      break;
    case Modulation::kQam16:
      for (std::size_t i = 0; i < count; ++i) {
        std::uint8_t b0, b1;
        index_to_gray(nearest_pam(sym[2 * i] / kQam16Scale), b0, b1);
        out[4 * i] = b0;
        out[4 * i + 1] = b1;
        index_to_gray(nearest_pam(sym[2 * i + 1] / kQam16Scale), b0, b1);
        out[4 * i + 2] = b0;
        out[4 * i + 3] = b1;
      }
      break;
  }
}

namespace {
// 16-QAM per-coordinate max-log LLR pair.
void qam16_soft_pair(double v, float& l0, float& l1) {
  double a = v;
  if (v > 2.0) a = 2.0 * (v - 1.0);
  if (v < -2.0) a = 2.0 * (v + 1.0);
  l0 = static_cast<float>(a);
  l1 = static_cast<float>(2.0 - std::fabs(v));
}
}  // namespace

void demap_soft_into(std::vector<float>& out, const Symbol* symbols,
                     std::size_t count, Modulation m) {
  out.resize(count * bits_per_symbol(m));
  const double* sym = reinterpret_cast<const double*>(symbols);
  switch (m) {
    case Modulation::kBpsk:
      for (std::size_t i = 0; i < count; ++i) {
        out[i] = static_cast<float>(sym[2 * i]);
      }
      break;
    case Modulation::kQpsk:
      for (std::size_t i = 0; i < 2 * count; ++i) {
        out[i] = static_cast<float>(sym[i]);
      }
      break;
    case Modulation::kQam16:
      for (std::size_t i = 0; i < count; ++i) {
        for (int c = 0; c < 2; ++c) {
          const double v = sym[2 * i + c] / kQam16Scale;
          qam16_soft_pair(v, out[4 * i + 2 * c], out[4 * i + 2 * c + 1]);
        }
      }
      break;
  }
}

BitVec demodulate(const std::vector<Symbol>& symbols, Modulation m,
                  std::size_t bit_count) {
  BitVec out;
  demap_into(out, symbols.data(), symbols.size(), m);
  SEMCACHE_CHECK(out.size() >= bit_count,
                 "demodulate: fewer symbols than expected bits");
  out.resize(bit_count);
  return out;
}

}  // namespace semcache::channel
