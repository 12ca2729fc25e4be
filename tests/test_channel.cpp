// Unit tests for semcache::channel — CRC, block/convolutional codes,
// interleaving, modulation, physical channel statistics, and the pipeline.
#include <gtest/gtest.h>

#include <limits>

#include "channel/burst.hpp"
#include "channel/code.hpp"
#include "channel/convolutional.hpp"
#include "channel/crc.hpp"
#include "channel/hamming.hpp"
#include "channel/interleaver.hpp"
#include "channel/modulation.hpp"
#include "channel/physical.hpp"
#include "channel/pipeline.hpp"
#include "channel/repetition.hpp"
#include "common/check.hpp"
#include "test_util.hpp"

namespace semcache::channel {
namespace {

using test::bpsk_snr_db_for_ber;
using test::random_bits;

constexpr double kNoiseless = std::numeric_limits<double>::infinity();

// Modulation and one symbol channel with nothing around them: an
// uncoded depth-1 pipeline, whose interleaver is the identity.
std::unique_ptr<ChannelPipeline> bare_link(
    Modulation m, std::unique_ptr<SymbolChannel> channel) {
  return std::make_unique<ChannelPipeline>(std::make_unique<IdentityCode>(),
                                           m, std::move(channel), 1);
}

TEST(Crc, KnownVector) {
  // CRC-32 of "123456789" is 0xCBF43926.
  const std::string s = "123456789";
  std::vector<std::uint8_t> bytes(s.begin(), s.end());
  EXPECT_EQ(crc32(bytes), 0xCBF43926u);
}

TEST(Crc, AppendVerifyRoundTrip) {
  Rng rng(1);
  const BitVec payload = random_bits(50, rng);
  const BitVec with = crc_append(payload);
  EXPECT_EQ(with.size(), payload.size() + 32);
  const auto check = crc_verify(with);
  EXPECT_TRUE(check.ok);
  EXPECT_EQ(check.payload, payload);
}

TEST(Crc, DetectsSingleBitFlip) {
  Rng rng(2);
  const BitVec payload = random_bits(64, rng);
  for (std::size_t i = 0; i < payload.size() + 32; i += 7) {
    BitVec corrupted = crc_append(payload);
    corrupted[i] ^= 1;
    EXPECT_FALSE(crc_verify(corrupted).ok) << "flip at " << i;
  }
}

TEST(Crc, ShortInputFailsGracefully) {
  BitVec tiny(8, 1);
  EXPECT_FALSE(crc_verify(tiny).ok);
}

TEST(Hamming, NibbleRoundTripAllValues) {
  for (std::uint8_t n = 0; n < 16; ++n) {
    EXPECT_EQ(HammingCode::decode_block(HammingCode::encode_nibble(n)), n);
  }
}

TEST(Hamming, CorrectsEverySingleBitError) {
  // Exhaustive property: all 16 nibbles x all 7 flip positions.
  for (std::uint8_t n = 0; n < 16; ++n) {
    const std::uint8_t cw = HammingCode::encode_nibble(n);
    for (int bit = 0; bit < 7; ++bit) {
      const auto corrupted = static_cast<std::uint8_t>(cw ^ (1u << bit));
      EXPECT_EQ(HammingCode::decode_block(corrupted), n)
          << "nibble " << int(n) << " flip " << bit;
    }
  }
}

TEST(Hamming, StreamRoundTripWithPadding) {
  Rng rng(3);
  HammingCode code;
  for (const std::size_t len : {1u, 4u, 5u, 13u, 128u}) {
    const BitVec info = random_bits(len, rng);
    BitVec decoded = code.decode(code.encode(info));
    decoded.resize(len);
    EXPECT_EQ(decoded, info) << "len " << len;
  }
}

TEST(Hamming, EncodedLength) {
  HammingCode code;
  EXPECT_EQ(code.encoded_length(4), 7u);
  EXPECT_EQ(code.encoded_length(5), 14u);
  EXPECT_DOUBLE_EQ(code.rate(), 4.0 / 7.0);
}

TEST(Repetition, MajorityVoteCorrects) {
  RepetitionCode code(3);
  BitVec info = {1, 0, 1, 1};
  BitVec coded = code.encode(info);
  EXPECT_EQ(coded.size(), 12u);
  // Flip one vote per bit: still decodes.
  for (std::size_t i = 0; i < coded.size(); i += 3) coded[i] ^= 1;
  EXPECT_EQ(code.decode(coded), info);
}

TEST(Repetition, EvenRepeatsRejected) {
  EXPECT_THROW(RepetitionCode(2), Error);
  EXPECT_NO_THROW(RepetitionCode(1));
}

TEST(Conv, CleanRoundTrip) {
  Rng rng(4);
  ConvolutionalCode code;
  for (const std::size_t len : {1u, 2u, 8u, 33u, 200u}) {
    const BitVec info = random_bits(len, rng);
    EXPECT_EQ(code.decode(code.encode(info)), info) << "len " << len;
  }
}

TEST(Conv, EncodedLengthIncludesTail) {
  ConvolutionalCode code;
  EXPECT_EQ(code.encoded_length(10), 2u * 12u);
  const BitVec info(10, 1);
  EXPECT_EQ(code.encode(info).size(), code.encoded_length(10));
}

TEST(Conv, CorrectsScatteredErrors) {
  // dfree = 5 for (7,5) K=3: any 2 errors far apart are correctable.
  Rng rng(5);
  ConvolutionalCode code;
  const BitVec info = random_bits(60, rng);
  BitVec coded = code.encode(info);
  coded[10] ^= 1;
  coded[60] ^= 1;
  coded[100] ^= 1;
  EXPECT_EQ(code.decode(coded), info);
}

TEST(Conv, BeatsUncodedOnAwgn) {
  // Hard decisions over BPSK at a raw BER of 4%.
  Rng rng(6);
  ConvolutionalCode code;
  const auto link = bare_link(
      Modulation::kBpsk,
      std::make_unique<AwgnChannel>(bpsk_snr_db_for_ber(0.04)));
  std::size_t coded_errors = 0, uncoded_errors = 0, total = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const BitVec info = random_bits(120, rng);
    const BitVec rx_coded =
        code.decode(link->transmit(code.encode(info), rng));
    const BitVec rx_raw = link->transmit(info, rng);
    coded_errors += hamming_distance(info, rx_coded);
    uncoded_errors += hamming_distance(info, rx_raw);
    total += info.size();
  }
  EXPECT_LT(coded_errors * 3, uncoded_errors)
      << "coded BER " << coded_errors / double(total) << " vs uncoded "
      << uncoded_errors / double(total);
}

TEST(Interleaver, RoundTrip) {
  Rng rng(7);
  for (const std::size_t depth : {1u, 2u, 4u, 8u}) {
    BlockInterleaver il(depth);
    BitVec bits = random_bits(64, rng);
    BitVec tx, rx;
    il.interleave_into(bits, tx);
    il.deinterleave_into(tx, bits.size(), rx);
    EXPECT_EQ(rx, bits) << "depth " << depth;
  }
}

TEST(Interleaver, SpreadsBursts) {
  BlockInterleaver il(8);
  BitVec bits(64, 0);
  BitVec tx, rx;
  il.interleave_into(bits, tx);
  // Burst of 8 consecutive flips on the wire.
  for (std::size_t i = 16; i < 24; ++i) tx[i] ^= 1;
  il.deinterleave_into(tx, tx.size(), rx);
  // After deinterleaving no two errors should be adjacent.
  for (std::size_t i = 0; i + 1 < rx.size(); ++i) {
    EXPECT_FALSE(rx[i] == 1 && rx[i + 1] == 1) << "adjacent errors at " << i;
  }
}

TEST(Modulation, NoiselessRoundTripAll) {
  Rng rng(8);
  for (const Modulation m :
       {Modulation::kBpsk, Modulation::kQpsk, Modulation::kQam16}) {
    const BitVec bits = random_bits(37, rng);  // odd length: padding path
    const auto symbols = modulate(bits, m);
    EXPECT_EQ(demodulate(symbols, m, bits.size()), bits)
        << modulation_name(m);
  }
}

TEST(Modulation, UnitAveragePower) {
  Rng rng(9);
  for (const Modulation m :
       {Modulation::kBpsk, Modulation::kQpsk, Modulation::kQam16}) {
    const BitVec bits = random_bits(4000, rng);
    const auto symbols = modulate(bits, m);
    double power = 0.0;
    for (const auto& s : symbols) power += std::norm(s);
    power /= static_cast<double>(symbols.size());
    EXPECT_NEAR(power, 1.0, 0.05) << modulation_name(m);
  }
}

TEST(Modulation, BitsPerSymbol) {
  EXPECT_EQ(bits_per_symbol(Modulation::kBpsk), 1u);
  EXPECT_EQ(bits_per_symbol(Modulation::kQpsk), 2u);
  EXPECT_EQ(bits_per_symbol(Modulation::kQam16), 4u);
}

TEST(Physical, BpskAwgnBerMatchesTheory) {
  // Empirical BER within a factor band of Q(sqrt(2 Es/N0)).
  for (const double snr_db : {0.0, 4.0}) {
    Rng rng(10);
    const auto ch =
        bare_link(Modulation::kBpsk, std::make_unique<AwgnChannel>(snr_db));
    std::size_t errors = 0, total = 0;
    for (int trial = 0; trial < 40; ++trial) {
      const BitVec bits = random_bits(2000, rng);
      errors += hamming_distance(bits, ch->transmit(bits, rng));
      total += bits.size();
    }
    const double ber = errors / static_cast<double>(total);
    const double theory = bpsk_awgn_ber(snr_db);
    EXPECT_GT(ber, theory * 0.75) << "snr " << snr_db;
    EXPECT_LT(ber, theory * 1.25) << "snr " << snr_db;
  }
}

TEST(Physical, AwgnBerDecreasesWithSnr) {
  Rng rng(11);
  double prev = 1.0;
  for (const double snr_db : {-2.0, 2.0, 6.0, 10.0}) {
    const auto ch =
        bare_link(Modulation::kQpsk, std::make_unique<AwgnChannel>(snr_db));
    const BitVec bits = random_bits(20000, rng);
    const double ber =
        hamming_distance(bits, ch->transmit(bits, rng)) / 20000.0;
    EXPECT_LT(ber, prev);
    prev = ber;
  }
}

TEST(Physical, RayleighWorseThanAwgn) {
  Rng rng(12);
  const double snr_db = 8.0;
  const auto awgn =
      bare_link(Modulation::kBpsk, std::make_unique<AwgnChannel>(snr_db));
  const auto ray = bare_link(Modulation::kBpsk,
                             std::make_unique<RayleighChannel>(snr_db, 16));
  const BitVec bits = random_bits(40000, rng);
  const double awgn_ber = hamming_distance(bits, awgn->transmit(bits, rng)) /
                          static_cast<double>(bits.size());
  const double ray_ber = hamming_distance(bits, ray->transmit(bits, rng)) /
                         static_cast<double>(bits.size());
  EXPECT_GT(ray_ber, awgn_ber * 2.0);
}

TEST(Physical, SnrMustLeaveAFiniteNoiseLevel) {
  // A NaN or -inf SNR has no noise level: every symbol would decode from
  // NaN. The channels refuse it at construction; +inf is noiseless.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double snr_db : {nan, -inf}) {
    EXPECT_THROW(AwgnChannel{snr_db}, Error) << snr_db;
    EXPECT_THROW(RayleighChannel{snr_db}, Error) << snr_db;
    GilbertElliottConfig good;
    good.snr_good_db = snr_db;
    EXPECT_THROW(GilbertElliottChannel{good}, Error) << snr_db;
    GilbertElliottConfig bad;
    bad.snr_bad_db = snr_db;
    EXPECT_THROW(GilbertElliottChannel{bad}, Error) << snr_db;
  }
  Rng rng(17);
  auto pipe = make_awgn_pipeline(make_code("uncoded"), Modulation::kQpsk,
                                 inf, 1);
  const BitVec bits = random_bits(256, rng);
  EXPECT_EQ(pipe->transmit(bits, rng), bits);
}

TEST(Pipeline, LosslessOnCleanChannel) {
  Rng rng(15);
  auto pipe = make_awgn_pipeline(std::make_unique<ConvolutionalCode>(),
                                 Modulation::kBpsk, kNoiseless);
  const BitVec payload = random_bits(96, rng);
  EXPECT_EQ(pipe->transmit(payload, rng), payload);
}

TEST(Pipeline, TransmitBatchMatchesSequentialBitsAndStats) {
  // Batch message i must consume exactly rngs[i]'s stream, so its bits are
  // identical to a sequential transmit with the same fork.
  auto batched = make_awgn_pipeline(std::make_unique<HammingCode>(),
                                    Modulation::kQpsk, 6.0, 4);
  auto sequential = make_awgn_pipeline(std::make_unique<HammingCode>(),
                                       Modulation::kQpsk, 6.0, 4);
  Rng payload_rng(19);
  const Rng parent(19);
  std::vector<BitVec> payloads;
  std::vector<Rng> batch_rngs;
  for (std::uint64_t i = 0; i < 5; ++i) {
    payloads.push_back(random_bits(96, payload_rng));
    batch_rngs.push_back(parent.fork(i));
  }
  const std::vector<BitVec> received =
      batched->transmit_batch(payloads, batch_rngs);

  ASSERT_EQ(received.size(), payloads.size());
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    Rng seq_rng = parent.fork(i);
    EXPECT_EQ(received[i], sequential->transmit(payloads[i], seq_rng))
        << "payload " << i;
  }
}

// Leaves symbols unchanged and records how many it was handed; under BPSK
// that is the number of bits on the air.
class RecordingChannel final : public SymbolChannel {
 public:
  void apply(std::vector<Symbol>& symbols, Rng&, std::uint64_t) override {
    lengths.push_back(symbols.size());
  }
  std::string name() const override { return "recording"; }
  std::vector<std::size_t> lengths;
};

TEST(Pipeline, AirtimeBitsIsTheOnAirLength) {
  Rng rng(21);
  for (const char* name : {"uncoded", "rep3", "rep5", "hamming74",
                           "conv_k3_r12", "conv_k3_r23", "conv_k3_r34"}) {
    for (const std::size_t depth : {1u, 8u}) {
      auto channel = std::make_unique<RecordingChannel>();
      const RecordingChannel& recorder = *channel;
      const ChannelPipeline pipe(make_code(name), Modulation::kBpsk,
                                 std::move(channel), depth);
      for (std::size_t n = 0; n <= 40; ++n) {
        const BitVec payload = random_bits(n, rng);
        EXPECT_EQ(pipe.transmit(payload, rng), payload);
        EXPECT_EQ(pipe.airtime_bits(n), recorder.lengths.back())
            << name << " depth " << depth << " n " << n;
      }
    }
  }
}

TEST(Pipeline, TransmitBatchRejectsRngCountMismatch) {
  auto pipe = make_awgn_pipeline(std::make_unique<IdentityCode>(),
                                 Modulation::kBpsk, kNoiseless);
  Rng rng(20);
  std::vector<BitVec> payloads = {random_bits(8, rng)};
  std::vector<Rng> rngs;  // empty: one rng short
  EXPECT_THROW(pipe->transmit_batch(payloads, rngs), Error);
}

TEST(Pipeline, MakeCodeFactory) {
  EXPECT_EQ(make_code("uncoded")->name(), "uncoded");
  EXPECT_EQ(make_code("rep3")->name(), "repetition3");
  EXPECT_EQ(make_code("hamming74")->name(), "hamming74");
  EXPECT_EQ(make_code("conv_k3_r12")->name(), "conv_k3_r12");
  EXPECT_THROW(make_code("turbo"), Error);
}

TEST(Pipeline, CodedBeatsUncodedAtModerateNoise) {
  // Hard decisions over BPSK at a raw BER of 3%.
  Rng rng(16);
  const double snr_db = bpsk_snr_db_for_ber(0.03);
  auto coded = make_awgn_pipeline(std::make_unique<ConvolutionalCode>(),
                                  Modulation::kBpsk, snr_db);
  auto uncoded = make_awgn_pipeline(std::make_unique<IdentityCode>(),
                                    Modulation::kBpsk, snr_db);
  std::size_t coded_err = 0, uncoded_err = 0;
  for (int i = 0; i < 40; ++i) {
    const BitVec payload = random_bits(128, rng);
    coded_err += hamming_distance(payload, coded->transmit(payload, rng));
    uncoded_err += hamming_distance(payload, uncoded->transmit(payload, rng));
  }
  EXPECT_LT(coded_err * 2, uncoded_err);
}

TEST(Pipeline, InterleaverHelpsOnFading) {
  // Deep block fades wipe out consecutive symbols; interleaving spreads
  // them across Hamming blocks.
  Rng rng_a(17), rng_b(17);
  auto plain = make_rayleigh_pipeline(std::make_unique<HammingCode>(),
                                      Modulation::kBpsk, 9.0, 16, 1);
  auto interleaved = make_rayleigh_pipeline(std::make_unique<HammingCode>(),
                                            Modulation::kBpsk, 9.0, 16, 16);
  std::size_t plain_err = 0, il_err = 0;
  for (int i = 0; i < 120; ++i) {
    Rng payload_rng(static_cast<std::uint64_t>(i));
    const BitVec payload = random_bits(256, payload_rng);
    plain_err += hamming_distance(payload, plain->transmit(payload, rng_a));
    il_err += hamming_distance(payload, interleaved->transmit(payload, rng_b));
  }
  EXPECT_LT(il_err, plain_err);
}

class CodeRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(CodeRoundTrip, CleanChannelIdentity) {
  Rng rng(18);
  auto code = make_code(GetParam());
  for (int len : {8, 56, 123}) {
    const BitVec info = random_bits(static_cast<std::size_t>(len), rng);
    BitVec out = code->decode(code->encode(info));
    out.resize(info.size());
    EXPECT_EQ(out, info) << GetParam() << " len " << len;
    EXPECT_EQ(code->encode(info).size(),
              code->encoded_length(info.size()))
        << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CodeRoundTrip,
                         ::testing::Values("uncoded", "rep3", "rep5",
                                           "hamming74", "conv_k3_r12"));

}  // namespace
}  // namespace semcache::channel
