// Unit tests for semcache::compress — Huffman optimality, round-trips and
// corruption tolerance.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "compress/huffman.hpp"

namespace semcache::compress {
namespace {

std::vector<std::uint8_t> random_bytes(std::size_t n, Rng& rng,
                                       int alphabet = 256) {
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) {
    b = static_cast<std::uint8_t>(rng.uniform_int(0, alphabet - 1));
  }
  return out;
}

TEST(Histogram, Counts) {
  const std::vector<std::uint8_t> data = {1, 1, 2, 255};
  const auto h = histogram(data);
  EXPECT_EQ(h[1], 2u);
  EXPECT_EQ(h[2], 1u);
  EXPECT_EQ(h[255], 1u);
  EXPECT_EQ(h[0], 0u);
}

TEST(Huffman, RoundTripSkewedData) {
  Rng rng(1);
  // Zipf-ish skew over a few symbols.
  std::vector<std::uint8_t> data;
  for (int i = 0; i < 4000; ++i) {
    const double u = rng.uniform();
    data.push_back(u < 0.5 ? 'a' : u < 0.75 ? 'b' : u < 0.9 ? 'c' : 'd');
  }
  const auto code = HuffmanCode::build(histogram(data));
  const BitVec bits = code.encode(data);
  EXPECT_EQ(code.decode(bits, data.size()), data);
  // Compression: < 8 bits/symbol on skewed data.
  EXPECT_LT(bits.size(), data.size() * 8);
}

TEST(Huffman, NearEntropyOnSkewedSource) {
  Rng rng(2);
  std::vector<std::uint8_t> data;
  for (int i = 0; i < 20000; ++i) {
    data.push_back(rng.bernoulli(0.9) ? 0 : random_bytes(1, rng, 16)[0]);
  }
  const auto h = histogram(data);
  const auto code = HuffmanCode::build(h);
  const double expected = code.expected_length(h);
  const double entropy = entropy_bits(h);
  EXPECT_GE(expected, entropy - 1e-9);   // Shannon bound
  EXPECT_LE(expected, entropy + 1.0);    // Huffman within 1 bit of entropy
}

TEST(Huffman, HandlesUnseenSymbols) {
  // Build from a histogram that never saw byte 7; encoding it still works.
  ByteHistogram h{};
  h['x'] = 100;
  const auto code = HuffmanCode::build(h);
  const std::vector<std::uint8_t> data = {7, 'x', 7};
  EXPECT_EQ(code.decode(code.encode(data), 3), data);
}

TEST(Huffman, EmptyInput) {
  const auto code = HuffmanCode::build(ByteHistogram{});
  const std::vector<std::uint8_t> empty;
  EXPECT_TRUE(code.encode(empty).empty());
  EXPECT_TRUE(code.decode({}, 0).empty());
}

TEST(Huffman, FrequentSymbolsGetShorterCodes) {
  ByteHistogram h{};
  h['a'] = 10000;
  h['z'] = 1;
  const auto code = HuffmanCode::build(h);
  EXPECT_LT(code.code_length('a'), code.code_length('z'));
}

TEST(Huffman, CorruptedStreamPadsOutput) {
  Rng rng(3);
  const auto data = random_bytes(50, rng);
  const auto code = HuffmanCode::build(histogram(data));
  BitVec bits = code.encode(data);
  bits.resize(bits.size() / 2);  // truncate mid-stream
  const auto out = code.decode(bits, data.size());
  EXPECT_EQ(out.size(), data.size());  // always full length
}

TEST(Huffman, UniformDataStaysNearEightBits) {
  Rng rng(4);
  const auto data = random_bytes(8000, rng);
  const auto h = histogram(data);
  const auto code = HuffmanCode::build(h);
  EXPECT_NEAR(code.expected_length(h), 8.0, 0.3);
}

TEST(Entropy, KnownValues) {
  ByteHistogram h{};
  h[0] = 50;
  h[1] = 50;
  EXPECT_NEAR(entropy_bits(h), 1.0, 1e-9);
  ByteHistogram single{};
  single[9] = 10;
  EXPECT_NEAR(entropy_bits(single), 0.0, 1e-9);
  EXPECT_DOUBLE_EQ(entropy_bits(ByteHistogram{}), 0.0);
}

}  // namespace
}  // namespace semcache::compress
