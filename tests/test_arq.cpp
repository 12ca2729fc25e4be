// Tests for the stop-and-wait ARQ extension (§III-C reliability): delivery
// semantics, retry accounting, airtime cost, and the semantic-vs-ARQ
// trade-off the E8 family measures.
#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <string>

#include "channel/arq.hpp"
#include "channel/convolutional.hpp"
#include "common/check.hpp"
#include "test_util.hpp"

namespace semcache::channel {
namespace {

using test::bpsk_snr_db_for_ber;
using test::random_bits;

// A BPSK link over AWGN: +inf dB is noiseless, and at
// bpsk_snr_db_for_ber(p) each bit on the air flips with probability p.
std::unique_ptr<ChannelPipeline> bpsk_link(std::unique_ptr<ChannelCode> code,
                                           double snr_db) {
  return make_awgn_pipeline(std::move(code), Modulation::kBpsk, snr_db);
}

constexpr double kNoiseless = std::numeric_limits<double>::infinity();
// Every bit nearly a coin flip (BER 0.48): no CRC ever passes.
constexpr double kHopeless = -30.0;

TEST(Arq, CleanChannelSingleAttempt) {
  Rng rng(1);
  const auto clean = bpsk_link(std::make_unique<IdentityCode>(), kNoiseless);
  const BitVec payload = random_bits(64, rng);
  const ArqResult r = arq_transmit(*clean, payload, rng, 4);
  EXPECT_TRUE(r.delivered);
  EXPECT_EQ(r.attempts, 1u);
  EXPECT_EQ(r.payload, payload);
  EXPECT_EQ(r.airtime_bits, payload.size() + 32);  // + CRC trailer
}

TEST(Arq, RetriesUntilDelivered) {
  // At BER 0.5% over 112 framed bits, p(clean attempt) ~ 0.57, so eight
  // tries deliver with probability ~0.999 — and retries genuinely happen.
  // Two channels at that BER: uncoded BPSK over AWGN at the SNR
  // bpsk_awgn_ber gives, and uncoded QPSK at 8.2 dB (BER
  // Q(sqrt(10^0.82)) ~ 0.005). Both key their noise on the rng, so a key
  // that failed to advance would repeat a failed attempt's noise on every
  // retry.
  const std::function<std::unique_ptr<ChannelPipeline>()> channels[] = {
      [] {
        return bpsk_link(std::make_unique<IdentityCode>(),
                         bpsk_snr_db_for_ber(0.005));
      },
      [] {
        return make_awgn_pipeline(std::make_unique<IdentityCode>(),
                                  Modulation::kQpsk, 8.2);
      }};
  for (const auto& make_channel : channels) {
    Rng rng(2);
    std::size_t delivered = 0;
    std::size_t attempts_sum = 0;
    const auto channel = make_channel();
    for (int i = 0; i < 50; ++i) {
      const BitVec payload = random_bits(80, rng);
      const ArqResult r = arq_transmit(*channel, payload, rng, 8);
      if (r.delivered) {
        ++delivered;
        EXPECT_EQ(r.payload, payload);  // CRC-verified => exact
      }
      attempts_sum += r.attempts;
    }
    const std::string name = channel->description();
    EXPECT_GE(delivered, 45u) << name;
    EXPECT_GT(attempts_sum, 55u) << name;  // retransmissions actually happened
  }
}

TEST(Arq, GivesUpAfterBudget) {
  Rng rng(3);
  const auto noisy = bpsk_link(std::make_unique<IdentityCode>(), kHopeless);
  const BitVec payload = random_bits(64, rng);
  const ArqResult r = arq_transmit(*noisy, payload, rng, 3);
  EXPECT_FALSE(r.delivered);
  EXPECT_EQ(r.attempts, 3u);
  EXPECT_EQ(r.payload.size(), payload.size());  // still surfaces a payload
}

TEST(Arq, AirtimeAccumulatesAcrossAttempts) {
  Rng rng(4);
  const auto noisy = bpsk_link(std::make_unique<IdentityCode>(), kHopeless);
  const BitVec payload = random_bits(40, rng);
  const ArqResult r = arq_transmit(*noisy, payload, rng, 5);
  EXPECT_EQ(r.attempts, 5u);
  EXPECT_EQ(r.airtime_bits, 5u * (payload.size() + 32));
}

TEST(Arq, AirtimeIsTheOnAirLengthOfEachAttempt) {
  // conv_k3_r12 codes the 132 framed bits (100 + CRC-32) into 268, and a
  // depth-8 interleaver pads those to 272 on the air. At -10 dB every CRC
  // fails, so all three attempts go out.
  Rng rng(7);
  const auto pipeline = make_awgn_pipeline(make_code("conv_k3_r12"),
                                           Modulation::kQpsk, -10.0,
                                           /*interleave_depth=*/8);
  const ArqResult r = arq_transmit(*pipeline, random_bits(100, rng), rng, 3);
  ASSERT_EQ(r.attempts, 3u);
  EXPECT_EQ(r.airtime_bits, 3u * 272u);
}

TEST(Arq, CodedArqNeedsFewerRetries) {
  Rng rng_a(5), rng_b(5);
  std::size_t uncoded_attempts = 0, coded_attempts = 0;
  const double snr_db = bpsk_snr_db_for_ber(0.02);
  const auto uncoded = bpsk_link(std::make_unique<IdentityCode>(), snr_db);
  const auto coded = bpsk_link(std::make_unique<ConvolutionalCode>(), snr_db);
  for (int i = 0; i < 40; ++i) {
    Rng prng(static_cast<std::uint64_t>(i));
    const BitVec payload = random_bits(96, prng);
    uncoded_attempts += arq_transmit(*uncoded, payload, rng_a, 16).attempts;
    coded_attempts += arq_transmit(*coded, payload, rng_b, 16).attempts;
  }
  EXPECT_LT(coded_attempts, uncoded_attempts);
}

TEST(Arq, ValidatesArguments) {
  Rng rng(8);
  const auto clean = bpsk_link(std::make_unique<IdentityCode>(), kNoiseless);
  EXPECT_THROW(arq_transmit(*clean, random_bits(8, rng), rng, 0), Error);
}

// Retry budget sweep: delivery probability is monotone in the budget.
class ArqBudgetSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ArqBudgetSweep, DeliveryRateGrowsWithBudget) {
  Rng rng(6);
  std::size_t delivered = 0;
  const auto noisy = bpsk_link(std::make_unique<IdentityCode>(),
                               bpsk_snr_db_for_ber(0.03));
  for (int i = 0; i < 60; ++i) {
    const BitVec payload = random_bits(64, rng);
    if (arq_transmit(*noisy, payload, rng, GetParam()).delivered) ++delivered;
  }
  // Rough analytic floor: p_clean ≈ 0.97^96 ≈ 0.053 per attempt.
  if (GetParam() >= 16) {
    EXPECT_GE(delivered, 30u);
  }
  // Stash for cross-parameter monotonicity via recorded property.
  RecordProperty("delivered", static_cast<int>(delivered));
}

INSTANTIATE_TEST_SUITE_P(Sweep, ArqBudgetSweep,
                         ::testing::Values(1, 4, 16, 64));

}  // namespace
}  // namespace semcache::channel
