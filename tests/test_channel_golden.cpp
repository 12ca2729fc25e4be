// Golden-vector tests for the channel codecs. Unlike test_channel.cpp,
// which exercises the stack statistically, every expectation here is a
// known value computed independently of the implementation: the CRC-32
// standard check value, the textbook Hamming(7,4) codeword table, and the
// classic impulse response of the K=3 (7,5) convolutional code. These
// pin the wire format — a refactor that changes any emitted bit fails
// loudly even if round-trips still succeed.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "channel/convolutional.hpp"
#include "channel/crc.hpp"
#include "channel/hamming.hpp"
#include "channel/repetition.hpp"
#include "common/bits.hpp"
#include "common/rng.hpp"
#include "test_util.hpp"

namespace semcache::channel {
namespace {

// --- CRC-32 ------------------------------------------------------------

TEST(CrcGolden, StandardCheckValue) {
  // The universal CRC-32/ISO-HDLC check value: crc32("123456789").
  const std::uint8_t msg[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32(msg), 0xCBF43926u);
}

TEST(CrcGolden, KnownSingleByteAndEmpty) {
  EXPECT_EQ(crc32(std::span<const std::uint8_t>{}), 0x00000000u);
  const std::uint8_t a[] = {'a'};
  EXPECT_EQ(crc32(a), 0xE8B7BE43u);  // zlib crc32("a")
}

TEST(CrcGolden, AppendVerifyRoundTripAndTamperDetection) {
  BitVec payload = bytes_to_bits(std::vector<std::uint8_t>{0xDE, 0xAD, 0xBE});
  const BitVec framed = crc_append(payload);
  ASSERT_EQ(framed.size(), payload.size() + 32);

  const CrcCheckResult ok = crc_verify(framed);
  EXPECT_TRUE(ok.ok);
  EXPECT_EQ(ok.payload, payload);

  // Any single flipped bit — payload or CRC field — must be detected.
  for (std::size_t i = 0; i < framed.size(); ++i) {
    BitVec tampered = framed;
    tampered[i] ^= 1;
    EXPECT_FALSE(crc_verify(tampered).ok) << "flip at bit " << i;
  }
}

TEST(CrcGolden, ShortInputRejected) {
  EXPECT_FALSE(crc_verify(BitVec(31, 0)).ok);
}

// --- Hamming(7,4) ------------------------------------------------------

// Textbook codeword table for the p1 p2 d1 p3 d2 d3 d4 layout (bit i of
// the byte = position i+1), indexed by the data nibble d4 d3 d2 d1.
constexpr std::uint8_t kHammingCodewords[16] = {
    0x00, 0x07, 0x19, 0x1E, 0x2A, 0x2D, 0x33, 0x34,
    0x4B, 0x4C, 0x52, 0x55, 0x61, 0x66, 0x78, 0x7F};

TEST(HammingGolden, EncodeMatchesTextbookTable) {
  for (std::uint8_t nibble = 0; nibble < 16; ++nibble) {
    EXPECT_EQ(HammingCode::encode_nibble(nibble), kHammingCodewords[nibble])
        << "nibble " << int(nibble);
  }
}

TEST(HammingGolden, MinimumDistanceIsThree) {
  std::size_t min_distance = 7;
  for (int i = 0; i < 16; ++i) {
    for (int j = i + 1; j < 16; ++j) {
      const auto diff = static_cast<std::uint8_t>(kHammingCodewords[i] ^
                                                  kHammingCodewords[j]);
      min_distance = std::min<std::size_t>(
          min_distance,
          static_cast<std::size_t>(std::popcount(diff)));
    }
  }
  EXPECT_EQ(min_distance, 3u);
}

TEST(HammingGolden, CorrectsEverySingleBitErrorInEveryNibble) {
  for (std::uint8_t nibble = 0; nibble < 16; ++nibble) {
    const std::uint8_t codeword = HammingCode::encode_nibble(nibble);
    EXPECT_EQ(HammingCode::decode_block(codeword), nibble);
    for (int flip = 0; flip < 7; ++flip) {
      const auto corrupted =
          static_cast<std::uint8_t>(codeword ^ (1u << flip));
      EXPECT_EQ(HammingCode::decode_block(corrupted), nibble)
          << "nibble " << int(nibble) << " flip position " << flip;
    }
  }
}

// Stream-level and Viterbi error-correction tests share the seeded-RNG
// fixture; each test gets a fresh deterministic stream.
class ChannelGoldenRng : public test::SeededRngTest {
 protected:
  ChannelGoldenRng() : SeededRngTest(7) {}
};

TEST_F(ChannelGoldenRng, HammingStreamLevelSingleErrorPerBlock) {
  HammingCode code;
  BitVec info = test::random_bits(24, rng_);
  BitVec coded = code.encode(info);
  ASSERT_EQ(coded.size(), code.encoded_length(info.size()));
  // One flipped bit in each 7-bit block is always repaired.
  for (std::size_t block = 0; block < coded.size() / 7; ++block) {
    coded[block * 7 + block % 7] ^= 1;
  }
  EXPECT_EQ(code.decode(coded), info);
}

// --- Convolutional K=3 (7,5) with Viterbi ------------------------------

TEST(ConvolutionalGolden, ImpulseResponseMatchesGenerators) {
  // The classic result for generators (7, 5): input [1] with a zero tail
  // encodes to 11 10 11.
  ConvolutionalCode code;
  const BitVec encoded = code.encode(BitVec{1});
  EXPECT_EQ(encoded, (BitVec{1, 1, 1, 0, 1, 1}));
}

TEST(ConvolutionalGolden, AllZeroInputStaysOnZeroPath) {
  ConvolutionalCode code;
  const BitVec encoded = code.encode(BitVec(5, 0));
  EXPECT_EQ(encoded, BitVec(code.encoded_length(5), 0));
}

TEST(ConvolutionalGolden, ViterbiRoundTripAtSeveralLengths) {
  ConvolutionalCode code;
  for (const std::size_t len : {1u, 4u, 9u, 32u, 100u}) {
    Rng rng(40 + len);
    const BitVec info = test::random_bits(len, rng);
    EXPECT_EQ(code.decode(code.encode(info)), info) << "length " << len;
  }
}

TEST_F(ChannelGoldenRng, ViterbiCorrectsIsolatedBitErrors) {
  // A K=3 code has free distance 5: any single coded-bit error (and well
  // separated pairs) must be corrected exactly.
  ConvolutionalCode code;
  const BitVec info = test::random_bits(20, rng_);
  const BitVec coded = code.encode(info);
  for (std::size_t i = 0; i < coded.size(); ++i) {
    BitVec corrupted = coded;
    corrupted[i] ^= 1;
    EXPECT_EQ(code.decode(corrupted), info) << "flip at coded bit " << i;
  }
}

// --- Channel-fork RNG discipline ---------------------------------------

// The transmit data plane forks the system RNG once per message with tag
// 0xC4A2 ^ (message_index * 2654435761), where message_index is the
// system-wide message counter — whether the message rides a one-message
// wave or a larger one. These goldens pin (a) the tag formula, (b) the
// derived fork seeds, and (c) the first raw mt19937_64 outputs of each
// fork (fully specified by the standard, so the expectations are
// implementation-independent). A refactor that reorders or re-keys the
// per-message forks inside the batch loop shifts every downstream
// experiment; it must fail here loudly instead of silently.

constexpr std::uint64_t channel_fork_tag(std::uint64_t index) {
  return 0xC4A2 ^ (index * 2654435761ULL);
}

TEST(ChannelForkGolden, TagFormulaPinned) {
  EXPECT_EQ(channel_fork_tag(0), 0xC4A2ULL);
  EXPECT_EQ(channel_fork_tag(1), 0x9E37BD13ULL);
  EXPECT_EQ(channel_fork_tag(2), 0x13C6E37C0ULL);
  EXPECT_EQ(channel_fork_tag(3), 0x1DAA6A9B1ULL);
}

TEST(ChannelForkGolden, ForkStreamsPinnedForDefaultSystemSeed) {
  // seed 42 = SystemConfig's default seed.
  const Rng parent(42);
  constexpr std::uint64_t expect_seed[4] = {
      0x9FEEE877C530868CULL, 0x4456973479A19DBBULL, 0x737CADD5285C2974ULL,
      0xC8F90DAFAF5DC54AULL};
  constexpr std::uint64_t expect_out[4][2] = {
      {0x57EFE68E9B6B96C2ULL, 0x4F53630619108FA7ULL},
      {0xCFC075C00A5BCD15ULL, 0x20E086FEAC881CA3ULL},
      {0x085C2487AFF6747EULL, 0xAC38D883D5509D9AULL},
      {0x4B2551853097D90AULL, 0x336590C1D527F846ULL}};
  for (std::uint64_t i = 0; i < 4; ++i) {
    Rng fork = parent.fork(channel_fork_tag(i));
    EXPECT_EQ(fork.seed(), expect_seed[i]) << "message index " << i;
    EXPECT_EQ(fork.engine()(), expect_out[i][0]) << "message index " << i;
    EXPECT_EQ(fork.engine()(), expect_out[i][1]) << "message index " << i;
  }
}

TEST(ChannelForkGolden, ForkStreamsPinnedForGoldenSuiteSeed) {
  const Rng parent(7);
  constexpr std::uint64_t expect_seed[4] = {
      0x215EF22BC66D3D54ULL, 0x0EA15DDA3B24A004ULL, 0x2E6791162CF02BF8ULL,
      0xA976593491421AD3ULL};
  constexpr std::uint64_t expect_out0[4] = {
      0x617283F428EC03E3ULL, 0x4C48055CCFC313A4ULL, 0xD60711E95216B657ULL,
      0x0FE739223B1FF703ULL};
  for (std::uint64_t i = 0; i < 4; ++i) {
    Rng fork = parent.fork(channel_fork_tag(i));
    EXPECT_EQ(fork.seed(), expect_seed[i]) << "message index " << i;
    EXPECT_EQ(fork.engine()(), expect_out0[i]) << "message index " << i;
  }
}

TEST(ChannelForkGolden, ForkIsConstAndOrderIndependent) {
  // fork() derives the child purely from (parent seed, tag): it must not
  // advance the parent stream, and fork order must not matter — the batch
  // loop relies on both to reproduce the sequential per-message streams.
  Rng a(42), b(42);
  (void)a.fork(channel_fork_tag(3));
  (void)a.fork(channel_fork_tag(1));
  const std::uint64_t after_forks = a.engine()();
  const std::uint64_t untouched = b.engine()();
  EXPECT_EQ(after_forks, untouched);
  EXPECT_EQ(a.fork(channel_fork_tag(2)).seed(),
            b.fork(channel_fork_tag(2)).seed());
}

// --- Repetition at several rates ---------------------------------------

TEST(RepetitionGolden, MajorityVoteAcrossRates) {
  for (const std::size_t repeats : {3u, 5u, 7u}) {
    RepetitionCode code(repeats);
    EXPECT_DOUBLE_EQ(code.rate(), 1.0 / static_cast<double>(repeats));
    BitVec info{1, 0, 1, 1, 0};
    BitVec coded = code.encode(info);
    ASSERT_EQ(coded.size(), info.size() * repeats);
    // Flip floor(repeats/2) copies of every bit: majority still wins.
    for (std::size_t bit = 0; bit < info.size(); ++bit) {
      for (std::size_t r = 0; r < repeats / 2; ++r) {
        coded[bit * repeats + r] ^= 1;
      }
    }
    EXPECT_EQ(code.decode(coded), info) << "repeats " << repeats;
  }
}

}  // namespace
}  // namespace semcache::channel
