#include "channel/hamming.hpp"

#include "common/check.hpp"

namespace semcache::channel {

// Codeword layout (1-indexed positions): p1 p2 d1 p3 d2 d3 d4, with parity
// bits at power-of-two positions covering the standard index sets.

std::uint8_t HammingCode::encode_nibble(std::uint8_t nibble) {
  const std::uint8_t d1 = (nibble >> 0) & 1;
  const std::uint8_t d2 = (nibble >> 1) & 1;
  const std::uint8_t d3 = (nibble >> 2) & 1;
  const std::uint8_t d4 = (nibble >> 3) & 1;
  const std::uint8_t p1 = d1 ^ d2 ^ d4;
  const std::uint8_t p2 = d1 ^ d3 ^ d4;
  const std::uint8_t p3 = d2 ^ d3 ^ d4;
  // Bit i of the return value holds position i+1 of the codeword.
  return static_cast<std::uint8_t>(p1 | (p2 << 1) | (d1 << 2) | (p3 << 3) |
                                   (d2 << 4) | (d3 << 5) | (d4 << 6));
}

std::uint8_t HammingCode::decode_block(std::uint8_t block) {
  auto bit = [&](int pos) -> std::uint8_t {  // 1-indexed position
    return (block >> (pos - 1)) & 1;
  };
  const std::uint8_t s1 = bit(1) ^ bit(3) ^ bit(5) ^ bit(7);
  const std::uint8_t s2 = bit(2) ^ bit(3) ^ bit(6) ^ bit(7);
  const std::uint8_t s3 = bit(4) ^ bit(5) ^ bit(6) ^ bit(7);
  const int syndrome = s1 | (s2 << 1) | (s3 << 2);
  if (syndrome != 0) {
    block ^= static_cast<std::uint8_t>(1u << (syndrome - 1));
  }
  const std::uint8_t d1 = (block >> 2) & 1;
  const std::uint8_t d2 = (block >> 4) & 1;
  const std::uint8_t d3 = (block >> 5) & 1;
  const std::uint8_t d4 = (block >> 6) & 1;
  return static_cast<std::uint8_t>(d1 | (d2 << 1) | (d3 << 2) | (d4 << 3));
}

BitVec HammingCode::encode(const BitVec& info) const {
  BitVec out(encoded_length(info.size()));
  // Nibble i takes info bits 4i.. (zero past the end) and writes codeword
  // bits 7i.., LSB first.
  for (std::size_t i = 0, o = 0; o < out.size(); i += 4, o += 7) {
    std::uint8_t nibble = 0;
    for (std::size_t b = 0; b < 4 && i + b < info.size(); ++b) {
      nibble |= static_cast<std::uint8_t>((info[i + b] & 1) << b);
    }
    const std::uint8_t block = encode_nibble(nibble);
    for (std::size_t b = 0; b < 7; ++b) out[o + b] = (block >> b) & 1;
  }
  return out;
}

BitVec HammingCode::decode(const BitVec& coded) const {
  SEMCACHE_CHECK(coded.size() % 7 == 0,
                 "hamming74: coded length must be a multiple of 7");
  BitVec out(coded.size() / 7 * 4);
  for (std::size_t i = 0, o = 0; o < out.size(); i += 7, o += 4) {
    std::uint8_t block = 0;
    for (std::size_t b = 0; b < 7; ++b) {
      block |= static_cast<std::uint8_t>((coded[i + b] & 1) << b);
    }
    const std::uint8_t nibble = decode_block(block);
    for (std::size_t b = 0; b < 4; ++b) out[o + b] = (nibble >> b) & 1;
  }
  return out;
}

std::size_t HammingCode::encoded_length(std::size_t info_bits) const {
  return (info_bits + 3) / 4 * 7;
}

}  // namespace semcache::channel
