// Golden-vector tests for the channel codecs. Unlike test_channel.cpp,
// which exercises the stack statistically, every expectation here is a
// known value computed independently of the implementation: the CRC-32
// standard check value, the textbook Hamming(7,4) codeword table, and the
// classic impulse response of the K=3 (7,5) convolutional code. These
// pin the wire format — a refactor that changes any emitted bit fails
// loudly even if round-trips still succeed. The last section pins what a
// whole pipeline returns under noise.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "channel/convolutional.hpp"
#include "channel/crc.hpp"
#include "channel/hamming.hpp"
#include "channel/pipeline.hpp"
#include "channel/repetition.hpp"
#include "common/bits.hpp"
#include "common/hashing.hpp"
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


// --- Noisy pipeline output ---------------------------------------------

// What ChannelPipeline::transmit returns under noise. Every case sends the
// same 24 payloads (40 to 48 bits, so the code blocks, the interleaver and
// the last symbol all pad) at slot = message index, message i on the
// noise fork noise.fork(i), and feeds the decoded bits, one byte per bit,
// to an FNV-1a hash: one hash per channel, modulation and decision, over
// the five codes at depths 1 and 8 in the order listed. Only keyed noise,
// exact table lookups and comparisons feed the AWGN and Gilbert–Elliott
// bits, so those hashes hold in every build type and SIMD tier. Rayleigh
// adds a complex multiply and divide per symbol, which a compiler may
// contract; its hashes agreed in Release and Sanitize builds on x86-64.
// Each SNR is low enough that every case delivers some payloads corrupted.

enum class NoisyChannel { kAwgn, kBurst, kRayleigh };

struct NoisyModulation {
  Modulation mod;
  double snr_db;
};
constexpr NoisyModulation kNoisyModulations[] = {
    {Modulation::kBpsk, -1.0}, {Modulation::kQpsk, 2.0},
    {Modulation::kQam16, 7.0}};
constexpr const char* kNoisyCodes[] = {"uncoded", "rep3", "hamming74",
                                       "conv_k3_r12", "conv_k3_r34"};

std::unique_ptr<ChannelPipeline> noisy_pipeline(NoisyChannel channel,
                                                const NoisyModulation& m,
                                                const char* code,
                                                std::size_t depth) {
  switch (channel) {
    case NoisyChannel::kAwgn:
      return make_awgn_pipeline(make_code(code), m.mod, m.snr_db, depth);
    case NoisyChannel::kBurst: {
      GilbertElliottConfig ge;
      ge.snr_good_db = m.snr_db + 3.0;
      ge.snr_bad_db = m.snr_db - 6.0;
      ge.p_good_to_bad = 0.05;
      ge.p_bad_to_good = 0.2;
      ge.bad_weather_prob = 0.5;
      ge.dwell_messages = 4;
      ge.seed = 5;
      return make_burst_pipeline(make_code(code), m.mod, ge, depth);
    }
    case NoisyChannel::kRayleigh:
      return make_rayleigh_pipeline(make_code(code), m.mod, m.snr_db + 4.0,
                                    /*fade_block_len=*/8, depth);
  }
  return nullptr;
}

// [channel][modulation][hard, soft].
constexpr std::uint64_t kNoisyGolden[3][3][2] = {
    // AWGN
    {{0x9AEFD4EAD412078FULL, 0xA3741DF85FAA2F00ULL},
     {0xE12B3C5591AC5F06ULL, 0xAB9B49BE449578BBULL},
     {0x5E05B495DD4BB5E0ULL, 0xFF061E258E4698A7ULL}},
    // Gilbert–Elliott
    {{0x73AB75B46C69136EULL, 0x48606C7AA42A6AAFULL},
     {0x2EF52A2DBE86AA37ULL, 0xCD77159729D94561ULL},
     {0x67CD876D0880835EULL, 0xE6525B78E7C3E102ULL}},
    // Rayleigh
    {{0xE6B98B8729FBA7C1ULL, 0x0873F8CBE9860837ULL},
     {0x67BCF49A98020884ULL, 0x69CB29B59C8997D7ULL},
     {0x7F127958DAC34BC9ULL, 0x3E8A661C23184E41ULL}}};

TEST(PipelineGolden, NoisyOutputBitsPinned) {
  for (const NoisyChannel channel :
       {NoisyChannel::kAwgn, NoisyChannel::kBurst, NoisyChannel::kRayleigh}) {
    for (std::size_t m = 0; m < 3; ++m) {
      for (const bool soft : {false, true}) {
        std::string bits;
        for (const char* code : kNoisyCodes) {
          for (const std::size_t depth : {1u, 8u}) {
            auto pipe =
                noisy_pipeline(channel, kNoisyModulations[m], code, depth);
            pipe->set_soft_decision(soft);
            Rng payload_rng(11);
            const Rng noise(13);
            std::size_t corrupted = 0;
            for (std::uint64_t slot = 0; slot < 24; ++slot) {
              const BitVec payload =
                  test::random_bits(40 + slot % 9, payload_rng);
              Rng rng = noise.fork(slot);
              const BitVec decoded = pipe->transmit(payload, rng, slot);
              corrupted += decoded != payload;
              bits.append(decoded.begin(), decoded.end());
            }
            EXPECT_GT(corrupted, 0u)
                << pipe->description() << (soft ? " soft" : " hard")
                << " depth " << depth;
          }
        }
        EXPECT_EQ(common::stable_hash(bits),
                  kNoisyGolden[static_cast<int>(channel)][m][soft])
            << "channel " << static_cast<int>(channel) << " modulation "
            << m << (soft ? " soft" : " hard");
      }
    }
  }
}

// The same pin at the shape every workload sends: 128-bit payloads over
// the codes the serving channel and the adaptive ladder run, with the
// punctured rates under noise. Depth 3 pads a 260-bit conv_k3_r12 frame
// by one bit, and conv_k3_r23's 195 bits pad QPSK's last symbol. QPSK
// runs at serve's 3 dB; at both SNRs every case delivers some payloads
// corrupted, while soft conv_k3_r12 delivers most of them clean.
constexpr NoisyModulation kServeModulations[] = {{Modulation::kQpsk, 3.0},
                                                 {Modulation::kQam16, 8.0}};
constexpr const char* kServeCodes[] = {"conv_k3_r12", "conv_k3_r23",
                                       "conv_k3_r34", "hamming74"};

// [AWGN, Gilbert–Elliott][QPSK, 16-QAM][hard, soft].
constexpr std::uint64_t kServeGolden[2][2][2] = {
    // AWGN
    {{0x0A6FBBFF337109A9ULL, 0xEA937369F4CB0010ULL},
     {0x35235735CE050A54ULL, 0x4B5127A3F1E85E16ULL}},
    // Gilbert–Elliott
    {{0xEB3551A8E7A87E5AULL, 0x541FCF730BB6FC19ULL},
     {0x32828784AA202C03ULL, 0x9E1B38DBDF7D1B45ULL}}};

TEST(PipelineGolden, ServeShapeOutputBitsPinned) {
  for (const NoisyChannel channel :
       {NoisyChannel::kAwgn, NoisyChannel::kBurst}) {
    for (std::size_t m = 0; m < 2; ++m) {
      for (const bool soft : {false, true}) {
        std::string bits;
        for (const char* code : kServeCodes) {
          for (const std::size_t depth : {1u, 3u, 8u}) {
            auto pipe =
                noisy_pipeline(channel, kServeModulations[m], code, depth);
            pipe->set_soft_decision(soft);
            Rng payload_rng(17);
            const Rng noise(19);
            std::size_t corrupted = 0;
            for (std::uint64_t slot = 0; slot < 24; ++slot) {
              const BitVec payload = test::random_bits(128, payload_rng);
              Rng rng = noise.fork(slot);
              const BitVec decoded = pipe->transmit(payload, rng, slot);
              corrupted += decoded != payload;
              bits.append(decoded.begin(), decoded.end());
            }
            EXPECT_GT(corrupted, 0u)
                << pipe->description() << (soft ? " soft" : " hard")
                << " depth " << depth;
          }
        }
        EXPECT_EQ(common::stable_hash(bits),
                  kServeGolden[static_cast<int>(channel)][m][soft])
            << "channel " << static_cast<int>(channel) << " modulation "
            << m << (soft ? " soft" : " hard");
      }
    }
  }
}

}  // namespace
}  // namespace semcache::channel
