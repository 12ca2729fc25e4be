// Digital modulation: bits -> unit-average-energy complex symbols and hard-
// decision demodulation. BPSK and QPSK use antipodal/Gray mapping; 16-QAM
// uses a Gray-coded square constellation.
#pragma once

#include <complex>
#include <string>
#include <vector>

#include "common/bits.hpp"

namespace semcache::channel {

using Symbol = std::complex<double>;

enum class Modulation { kBpsk, kQpsk, kQam16 };

/// Bits carried per symbol (1, 2, 4).
std::size_t bits_per_symbol(Modulation m);
std::string modulation_name(Modulation m);

/// Map bits to symbols; pads with zero bits to a full symbol.
std::vector<Symbol> modulate(const BitVec& bits, Modulation m);

/// Array-at-a-time hard-decision demap: overwrites `out` with
/// count * bits_per_symbol(m) bits. Shared entry point for every
/// demodulation consumer; one scalar slicer per modulation serves every
/// SIMD tier.
void demap_into(BitVec& out, const Symbol* symbols, std::size_t count,
                Modulation m);

/// Soft demap: per-bit max-log LLRs, one float per output bit, overwriting
/// `out` with count * bits_per_symbol(m) values. Sign convention: llr >= 0
/// means bit 1, so slicing the LLRs reproduces demap_into away from the
/// measure-zero decision boundaries. BPSK/QPSK LLRs are the raw received
/// coordinates; 16-QAM uses the standard piecewise max-log per-PAM forms
/// (LLR(b0) = v inside |v| <= 2, 2(v -+ 1) outside; LLR(b1) = 2 - |v|).
void demap_soft_into(std::vector<float>& out, const Symbol* symbols,
                     std::size_t count, Modulation m);

/// Hard-decision demap; returns exactly `bit_count` bits.
BitVec demodulate(const std::vector<Symbol>& symbols, Modulation m,
                  std::size_t bit_count);

}  // namespace semcache::channel
