// Channel realism plane: punctured rate matching, soft-decision Viterbi,
// Gilbert–Elliott bursts, and the per-link adaptive code rate.
//
// Contracts pinned here:
//  * PUNCTURE GOLDENS — exact encoded bit patterns for both rates (the
//    osmocom-style periodic keep masks are a wire format, not an
//    implementation detail), plus noiseless round trips at every length.
//  * SOFT = HARD AT UNIT CONFIDENCE — decode_soft over ±1 LLRs is
//    bit-identical to hard decode (uniform weights scale every path
//    metric by the same factor, preserving comparisons AND ties), and a
//    noise-free soft pipeline agrees with the hard one exactly.
//  * SOFT BEATS HARD — at low SNR, with byte-identical noise, the LLR
//    trellis strictly reduces residual bit errors over hard slicing.
//  * BURST DETERMINISM — Gilbert–Elliott weather is keyed by (seed,
//    slot), never by RNG draw order: batches match sequential transmits
//    under a pool, and a full system twin (threads {0,4} x shards {1,2})
//    stays byte-identical.
//  * ADAPTIVE DETERMINISM — the EWMA/hysteresis controller is a pure
//    function of its observation sequence; adaptive_transmit over a ladder
//    of three pipelines repeats its rates and bits across identical runs,
//    actually switches rates when the weather turns, and matches the
//    recorded output of the link it replaced.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "channel/adaptive.hpp"
#include "channel/convolutional.hpp"
#include "channel/pipeline.hpp"
#include "core/dispatcher.hpp"
#include "core/sharded.hpp"
#include "common/hashing.hpp"
#include "core/system.hpp"
#include "test_util.hpp"

namespace semcache {
namespace {

using channel::AdaptiveRateConfig;
using channel::AdaptiveRateController;
using channel::CodeRate;
using channel::ConvolutionalCode;
using channel::GilbertElliottChannel;
using channel::GilbertElliottConfig;
using channel::Modulation;

// ---------------------------------------------------------------- puncture

TEST(Puncture, GoldenVectorR23) {
  // info = 1011, mother pairs (G1,G2) over 6 steps (2 tail zeros):
  // (1,1)(1,0)(0,0)(0,1)(0,1)(1,1); period-2 mask [11, 01] keeps both
  // outputs on even steps and only G1 on odd steps.
  const ConvolutionalCode code(CodeRate::kR23);
  EXPECT_EQ(code.name(), "conv_k3_r23");
  EXPECT_EQ(code.period(), 2u);
  const BitVec info = {1, 0, 1, 1};
  const BitVec expected = {1, 1, 1, 0, 0, 0, 0, 1, 1};
  EXPECT_EQ(code.encode(info), expected);
  EXPECT_EQ(code.encoded_length(info.size()), expected.size());
  EXPECT_EQ(code.decode(expected), info);
}

TEST(Puncture, GoldenVectorR34) {
  // Same mother stream, period-3 mask [11, 01, 10]: both, G1 only, G2 only.
  const ConvolutionalCode code(CodeRate::kR34);
  EXPECT_EQ(code.name(), "conv_k3_r34");
  EXPECT_EQ(code.period(), 3u);
  const BitVec info = {1, 0, 1, 1};
  const BitVec expected = {1, 1, 1, 0, 0, 1, 0, 1};
  EXPECT_EQ(code.encode(info), expected);
  EXPECT_EQ(code.encoded_length(info.size()), expected.size());
  EXPECT_EQ(code.decode(expected), info);
}

TEST(Puncture, RoundTripsAtEveryLength) {
  Rng rng(7);
  for (const CodeRate rate : {CodeRate::kR23, CodeRate::kR34}) {
    const ConvolutionalCode code(rate);
    for (std::size_t n = 1; n <= 48; ++n) {
      const BitVec info = test::random_bits(n, rng);
      const BitVec coded = code.encode(info);
      ASSERT_EQ(coded.size(), code.encoded_length(n));
      ASSERT_EQ(code.decode(coded), info) << code.name() << " n=" << n;
    }
  }
}

TEST(Puncture, R23CorrectsIsolatedFlips) {
  // The punctured 2/3 code keeps a free distance > 2, so a single flipped
  // bit anywhere in a frame must still decode clean.
  const ConvolutionalCode code(CodeRate::kR23);
  Rng rng(11);
  const BitVec info = test::random_bits(32, rng);
  const BitVec coded = code.encode(info);
  for (std::size_t i = 0; i < coded.size(); ++i) {
    BitVec corrupted = coded;
    corrupted[i] ^= 1;
    EXPECT_EQ(code.decode(corrupted), info) << "flip at " << i;
  }
}

TEST(Puncture, FactoryNamesResolve) {
  EXPECT_EQ(channel::make_code("conv_k3_r23")->name(), "conv_k3_r23");
  EXPECT_EQ(channel::make_code("conv_k3_r34")->name(), "conv_k3_r34");
  EXPECT_NEAR(channel::make_code("conv_k3_r23")->rate(), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(channel::make_code("conv_k3_r34")->rate(), 3.0 / 4.0, 1e-12);
}

// ------------------------------------------------------------ soft Viterbi

TEST(SoftViterbi, UnitLlrsMatchHardDecodeExactly) {
  // |llr| = 1 everywhere quantizes to a uniform weight, which scales every
  // path metric by the same constant: argmin, tie-breaks, and traceback
  // are bit-identical to the hard decoder — even on corrupted streams
  // where the decode is wrong for both.
  const channel::ConvolutionalCode conv;
  const ConvolutionalCode r23(CodeRate::kR23);
  const ConvolutionalCode r34(CodeRate::kR34);
  Rng rng(13);
  for (int trial = 0; trial < 50; ++trial) {
    const BitVec info = test::random_bits(40, rng);
    for (const channel::ChannelCode* code :
         {static_cast<const channel::ChannelCode*>(&conv),
          static_cast<const channel::ChannelCode*>(&r23),
          static_cast<const channel::ChannelCode*>(&r34)}) {
      BitVec coded = code->encode(info);
      // Corrupt a few positions so the equivalence is exercised off the
      // zero-error happy path too.
      for (int f = 0; f < 3; ++f) {
        coded[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(coded.size()) - 1))] ^= 1;
      }
      std::vector<float> llrs(coded.size());
      for (std::size_t i = 0; i < coded.size(); ++i) {
        llrs[i] = coded[i] != 0 ? 1.0f : -1.0f;
      }
      EXPECT_EQ(code->decode_soft(llrs), code->decode(coded)) << code->name();
    }
  }
}

TEST(SoftViterbi, NoiseFreePipelineTwinAgrees) {
  // At a noise floor of essentially zero both receive paths must return
  // the payload exactly, for every code x modulation combination.
  Rng rng(17);
  for (const char* code : {"conv_k3_r12", "conv_k3_r23", "conv_k3_r34"}) {
    for (const Modulation mod :
         {Modulation::kBpsk, Modulation::kQpsk, Modulation::kQam16}) {
      auto hard = channel::make_awgn_pipeline(channel::make_code(code), mod,
                                              /*snr_db=*/90.0);
      auto soft = channel::make_awgn_pipeline(channel::make_code(code), mod,
                                              /*snr_db=*/90.0);
      soft->set_soft_decision(true);
      const BitVec payload = test::random_bits(96, rng);
      Rng hard_rng(2300);
      Rng soft_rng(2300);
      EXPECT_EQ(hard->transmit(payload, hard_rng), payload);
      EXPECT_EQ(soft->transmit(payload, soft_rng), payload);
    }
  }
}

TEST(SoftViterbi, BeatsHardSlicingAtLowSnr) {
  // Identical noise (same per-message RNG seeds), identical code and
  // modulation — the only difference is slicing to bits before the
  // trellis vs feeding it LLRs. Soft decisions are worth ~2 dB on AWGN,
  // which at this operating point must show up as strictly fewer residual
  // payload bit errors.
  auto hard = channel::make_awgn_pipeline(channel::make_code("conv_k3_r12"),
                                          Modulation::kQpsk, /*snr_db=*/3.0);
  auto soft = channel::make_awgn_pipeline(channel::make_code("conv_k3_r12"),
                                          Modulation::kQpsk, /*snr_db=*/3.0);
  soft->set_soft_decision(true);
  Rng payload_rng(19);
  std::size_t hard_errors = 0;
  std::size_t soft_errors = 0;
  for (int msg = 0; msg < 200; ++msg) {
    const BitVec payload = test::random_bits(64, payload_rng);
    Rng hard_rng(5000 + msg);
    Rng soft_rng(5000 + msg);
    const BitVec hard_rx = hard->transmit(payload, hard_rng);
    const BitVec soft_rx = soft->transmit(payload, soft_rng);
    for (std::size_t i = 0; i < payload.size(); ++i) {
      hard_errors += hard_rx[i] != payload[i];
      soft_errors += soft_rx[i] != payload[i];
    }
  }
  EXPECT_GT(hard_errors, 0u) << "operating point too benign to discriminate";
  EXPECT_LT(soft_errors, hard_errors);
}

TEST(SoftViterbi, EnvResolution) {
  // resolve_soft_decision: "off" forces hard decisions; anything else
  // keeps the configured value.
  if (channel::soft_forced_off()) {
    EXPECT_FALSE(channel::resolve_soft_decision(true));
    EXPECT_FALSE(channel::resolve_soft_decision(false));
  } else {
    EXPECT_TRUE(channel::resolve_soft_decision(true));
    EXPECT_FALSE(channel::resolve_soft_decision(false));
  }
}

// --------------------------------------------------------- Gilbert–Elliott

GilbertElliottConfig test_burst_config() {
  GilbertElliottConfig burst;
  burst.snr_good_db = 12.0;
  burst.snr_bad_db = 2.0;
  burst.p_good_to_bad = 0.02;
  burst.p_bad_to_good = 0.10;
  burst.bad_weather_prob = 0.4;
  burst.dwell_messages = 4;
  burst.seed = 99;
  return burst;
}

TEST(GilbertElliott, WeatherIsSlotKeyed) {
  const GilbertElliottChannel a(test_burst_config());
  const GilbertElliottChannel b(test_burst_config());
  std::size_t bad = 0;
  for (std::uint64_t slot = 0; slot < 4000; ++slot) {
    ASSERT_EQ(a.starts_bad(slot), b.starts_bad(slot)) << slot;
    // One epoch = dwell_messages consecutive slots sharing the weather.
    ASSERT_EQ(a.starts_bad(slot), a.starts_bad(slot - slot % 4));
    bad += a.starts_bad(slot) ? 1 : 0;
  }
  // 1000 epochs at p(bad) = 0.4: the observed rate must be in the
  // neighborhood (binomial sigma ~ 0.015).
  EXPECT_NEAR(static_cast<double>(bad) / 4000.0, 0.4, 0.08);
}

TEST(GilbertElliott, BatchMatchesSequentialUnderPool) {
  const auto make = [] {
    return channel::make_burst_pipeline(channel::make_code("conv_k3_r12"),
                                        Modulation::kQpsk,
                                        test_burst_config(),
                                        /*interleave_depth=*/8);
  };
  Rng rng(23);
  std::vector<BitVec> payloads;
  std::vector<std::uint64_t> slots;
  for (std::size_t i = 0; i < 24; ++i) {
    payloads.push_back(test::random_bits(64, rng));
    slots.push_back(100 + i);
  }
  const auto fork_rngs = [] {
    std::vector<Rng> rngs;
    Rng base(31);
    for (std::size_t i = 0; i < 24; ++i) rngs.push_back(base.fork(100 + i));
    return rngs;
  };

  auto sequential = make();
  std::vector<BitVec> expected;
  {
    std::vector<Rng> rngs = fork_rngs();
    for (std::size_t i = 0; i < payloads.size(); ++i) {
      expected.push_back(sequential->transmit(payloads[i], rngs[i],
                                              slots[i]));
    }
  }
  for (const bool soft : {false, true}) {
    SCOPED_TRACE("soft=" + std::to_string(soft));
    auto batch = make();
    batch->set_soft_decision(soft);
    std::vector<Rng> rngs = fork_rngs();
    const std::vector<BitVec> got =
        batch->transmit_batch(payloads, rngs, slots);
    if (soft) {
      // Soft vs hard may legitimately differ (that is the point); the
      // soft batch must match soft one-at-a-time transmits.
      auto ref = make();
      ref->set_soft_decision(true);
      std::vector<Rng> ref_rngs = fork_rngs();
      std::vector<BitVec> soft_expected;
      for (std::size_t i = 0; i < payloads.size(); ++i) {
        soft_expected.push_back(
            ref->transmit(payloads[i], ref_rngs[i], slots[i]));
      }
      EXPECT_EQ(got, soft_expected);
    } else {
      EXPECT_EQ(got, expected);
    }
  }
}

// System twin: Gilbert–Elliott medium end to end, threads {0,4} x shards
// {1,2} byte-identical to the sequential single-system reference.
core::SystemConfig burst_system_config(std::uint64_t seed,
                                       std::size_t num_threads) {
  core::SystemConfig config = test::tiny_system_config(seed);
  config.pretrain.steps = 150;
  config.num_edges = 2;
  config.num_threads = num_threads;
  config.channel.medium = "gilbert_elliott";
  config.channel.burst = test_burst_config();
  config.channel.burst.seed = 0;  // defaults to the system seed at build
  return config;
}

TEST(GilbertElliottSystem, TwinAcrossThreadsAndShards) {
  unsetenv("SEMCACHE_THREADS");
  unsetenv("SEMCACHE_SHARDS");
  auto reference = core::SemanticEdgeSystem::build(burst_system_config(303, 0));
  const std::vector<std::pair<std::string, std::size_t>> users = {
      {"a", 0}, {"b", 1}, {"c", 0}, {"d", 1}};
  for (const auto& [name, edge] : users) {
    reference->register_user(name, edge, nullptr);
  }
  // Two waves so burst weather spans several dwell epochs mid-run.
  const std::vector<std::vector<std::pair<std::string, std::string>>> waves = {
      {{"a", "b"}, {"c", "d"}, {"d", "c"}},
      {{"a", "b"}, {"c", "a"}, {"d", "b"}},
  };
  std::vector<std::vector<std::vector<text::Sentence>>> sentences(waves.size());
  Rng domain_rng(5);
  for (std::size_t w = 0; w < waves.size(); ++w) {
    sentences[w].resize(waves[w].size());
    for (std::size_t p = 0; p < waves[w].size(); ++p) {
      for (int m = 0; m < 3; ++m) {
        sentences[w][p].push_back(reference->sample_message(
            waves[w][p].first,
            static_cast<std::size_t>(domain_rng.uniform_int(0, 1))));
      }
    }
  }

  using Served = std::vector<std::vector<std::vector<core::TransmitReport>>>;
  // The sharded front door drains its shards' simulators inside flush; the
  // plain single-system reference needs its simulator run explicitly.
  const auto drive = [&](core::ParallelDispatcher& dispatcher,
                         edge::Simulator* run_after_flush) {
    Served served(waves.size());
    for (std::size_t w = 0; w < waves.size(); ++w) {
      for (std::size_t p = 0; p < waves[w].size(); ++p) {
        dispatcher.enqueue(waves[w][p].first, waves[w][p].second,
                           sentences[w][p]);
      }
      served[w].resize(dispatcher.queued_pairs());
      dispatcher.flush([&served, w](std::size_t pair, std::size_t index,
                                    core::TransmitReport report) {
        auto& list = served[w][pair];
        if (list.size() <= index) list.resize(index + 1);
        list[index] = std::move(report);
      });
      if (run_after_flush != nullptr) run_after_flush->run();
    }
    return served;
  };

  core::ParallelDispatcher ref_dispatcher(*reference);
  const Served ref_served = drive(ref_dispatcher, &reference->simulator());

  const std::vector<std::pair<std::size_t, std::size_t>> variants = {
      {1, 4}, {2, 0}, {2, 4}};  // (shards, threads per shard)
  for (const auto& [num_shards, threads] : variants) {
    SCOPED_TRACE("K=" + std::to_string(num_shards) +
                 " threads=" + std::to_string(threads));
    auto sharded = core::ShardedEdgeServing::build(
        burst_system_config(303, threads), num_shards);
    for (const auto& [name, edge] : users) {
      sharded->register_user(name, edge, nullptr);
    }
    core::ParallelDispatcher dispatcher(*sharded);
    const Served served = drive(dispatcher, nullptr);
    ASSERT_EQ(served.size(), ref_served.size());
    for (std::size_t w = 0; w < served.size(); ++w) {
      ASSERT_EQ(served[w].size(), ref_served[w].size());
      for (std::size_t p = 0; p < served[w].size(); ++p) {
        ASSERT_EQ(served[w][p].size(), ref_served[w][p].size());
        for (std::size_t i = 0; i < served[w][p].size(); ++i) {
          const core::TransmitReport& ref = ref_served[w][p][i];
          const core::TransmitReport& got = served[w][p][i];
          EXPECT_EQ(num_shards == 1 ? ref : test::without_latency(ref),
                    num_shards == 1 ? got : test::without_latency(got))
              << "wave " << w << " pair " << p << " message " << i;
        }
      }
    }
    EXPECT_EQ(test::without_outages(reference->stats()),
              test::without_outages(sharded->stats()));
  }
}

// ----------------------------------------------------------- adaptive rate

TEST(AdaptiveRate, ControllerFollowsSnrWithHysteresis) {
  AdaptiveRateConfig cfg;  // thresholds 6 / 10 dB, hysteresis 1 dB
  cfg.ewma_alpha = 1.0;    // no smoothing: decisions track inputs directly
  AdaptiveRateController ctl(cfg);
  EXPECT_EQ(ctl.current(), CodeRate::kR12);
  // Below the first threshold: stays at 1/2.
  EXPECT_EQ(ctl.observe(5.0), CodeRate::kR12);
  // Inside the dead band above the threshold: still holds.
  EXPECT_EQ(ctl.observe(6.5), CodeRate::kR12);
  // Clearly above: one rung per observation, never two.
  EXPECT_EQ(ctl.observe(15.0), CodeRate::kR23);
  EXPECT_EQ(ctl.observe(15.0), CodeRate::kR34);
  // Dead band below the upper threshold: holds 3/4.
  EXPECT_EQ(ctl.observe(9.5), CodeRate::kR34);
  // Collapse: steps down one rung at a time.
  EXPECT_EQ(ctl.observe(1.0), CodeRate::kR23);
  EXPECT_EQ(ctl.observe(1.0), CodeRate::kR12);
}

TEST(AdaptiveRate, ControllerIsDeterministic) {
  AdaptiveRateConfig cfg;
  AdaptiveRateController a(cfg);
  AdaptiveRateController b(cfg);
  Rng rng(41);
  for (int i = 0; i < 500; ++i) {
    const double snr = 16.0 * rng.uniform();
    ASSERT_EQ(a.observe(snr), b.observe(snr));
    ASSERT_EQ(a.ewma_snr_db(), b.ewma_snr_db());
  }
}

// The 120-slot link both adaptive tests run: a ladder of soft burst
// pipelines (depth-8 interleaving) over weather that swings between 14 dB
// and 1 dB epochs. `rates` holds one digit per slot, the CodeRate index
// the message was sent at.
struct AdaptiveRun {
  std::vector<BitVec> decoded;
  std::string rates;
};

AdaptiveRun run_adaptive_link() {
  GilbertElliottConfig burst = test_burst_config();
  burst.snr_good_db = 14.0;
  burst.snr_bad_db = 1.0;
  burst.dwell_messages = 8;
  burst.bad_weather_prob = 0.5;
  channel::RateLadder ladder;
  for (std::size_t r = 0; r < channel::kCodeRateCount; ++r) {
    auto pipe = channel::make_burst_pipeline(
        std::make_unique<ConvolutionalCode>(static_cast<CodeRate>(r)),
        Modulation::kQpsk, burst, /*interleave_depth=*/8);
    pipe->set_soft_decision(true);
    ladder[r] = std::move(pipe);
  }
  AdaptiveRateController controller(AdaptiveRateConfig{});
  Rng payload_rng(43);
  Rng base(47);
  AdaptiveRun run;
  for (std::uint64_t slot = 0; slot < 120; ++slot) {
    const BitVec payload = test::random_bits(64, payload_rng);
    Rng rng = base.fork(slot);
    const auto rate = static_cast<int>(controller.current());
    run.rates += static_cast<char>('0' + rate);
    run.decoded.push_back(
        channel::adaptive_transmit(ladder, controller, payload, rng, slot));
  }
  return run;
}

TEST(AdaptiveRate, TransmitSwitchesRatesReproducibly) {
  if (channel::soft_forced_off()) {
    GTEST_SKIP() << "SEMCACHE_SOFT=off: adaptive link runs hard decisions "
                    "and never observes";
  }
  const AdaptiveRun a = run_adaptive_link();
  const AdaptiveRun b = run_adaptive_link();
  EXPECT_EQ(a.decoded, b.decoded);
  EXPECT_EQ(a.rates, b.rates);

  ASSERT_EQ(a.rates.size(), 120u);
  std::size_t switches = 0;
  for (std::size_t i = 1; i < a.rates.size(); ++i) {
    if (a.rates[i] != a.rates[i - 1]) ++switches;
  }
  // A controller that never leaves its initial rung is not adapting.
  EXPECT_GT(switches, 0u);
  EXPECT_NE(a.rates.find_first_not_of('0'), std::string::npos);
}

TEST(AdaptiveRate, TransmitMatchesTheRecordedLink) {
  if (channel::soft_forced_off()) {
    GTEST_SKIP() << "SEMCACHE_SOFT=off: adaptive link runs hard decisions "
                    "and never observes";
  }
  // Recorded from the three-pipeline adaptive link class that
  // adaptive_transmit replaced, on the same scenario: the rate of every
  // slot, and FNV-1a over the decoded bits of all 120 messages, one byte
  // per bit.
  const AdaptiveRun run = run_adaptive_link();
  EXPECT_EQ(run.rates,
            "0122222222221111111222222221111111111111111111111111111111111111"
            "11112222222222222222222222222222222211122222222222222222");
  std::string bits;
  for (const BitVec& decoded : run.decoded) {
    bits.append(decoded.begin(), decoded.end());
  }
  EXPECT_EQ(common::stable_hash(bits), 0x3d8505783aed2b45ULL);
}

TEST(AdaptiveRate, RungWithoutSoftOutputHoldsTheRate) {
  // A soft-decision pipeline over a BSC decodes hard and measures no SNR,
  // so the controller must not read a 0 dB estimate and step down.
  channel::RateLadder ladder;
  for (std::size_t r = 0; r < channel::kCodeRateCount; ++r) {
    auto pipe = channel::make_bsc_pipeline(
        std::make_unique<ConvolutionalCode>(static_cast<CodeRate>(r)), 0.01);
    pipe->set_soft_decision(true);
    ladder[r] = std::move(pipe);
  }
  AdaptiveRateConfig cfg;
  cfg.initial = CodeRate::kR34;
  AdaptiveRateController controller(cfg);
  Rng payload_rng(5);
  Rng base(6);
  for (std::uint64_t slot = 0; slot < 8; ++slot) {
    const BitVec payload = test::random_bits(32, payload_rng);
    Rng rng = base.fork(slot);
    channel::adaptive_transmit(ladder, controller, payload, rng, slot);
  }
  EXPECT_EQ(controller.current(), CodeRate::kR34);
}

}  // namespace
}  // namespace semcache
