// Cross-module integration scenarios — each one is a miniature of a paper
// claim, run end-to-end through the public API:
//   * specialized-vs-pooled codecs (II-A) through the channel stack,
//   * user adaptation over a long conversation (II-B + II-D),
//   * semantic payload vs traditional payload on the same channel (E1 core),
//   * open-loop event-driven workload through the simulator (E7 core).
#include <gtest/gtest.h>

#include "core/baselines.hpp"
#include "core/system.hpp"
#include "semantic/fidelity.hpp"
#include "semantic/quantizer.hpp"
#include "semantic/trainer.hpp"
#include "test_util.hpp"

namespace semcache {
namespace {

TEST(Integration, SpecializedBeatsPooledOnPolysemy) {
  Rng rng(91);
  text::WorldConfig wc;
  wc.num_domains = 2;
  wc.concepts_per_domain = 14;
  wc.num_polysemous = 10;       // heavy polysemy
  wc.polysemous_prob = 0.3;     // polysemous words appear often
  wc.sentence_length = 6;
  text::World world = text::World::generate(wc, rng);

  semantic::CodecConfig cc = test::codec_for_world(world);

  semantic::TrainConfig tc;
  tc.steps = 3000;

  // Specialized codec for domain 0 vs one pooled codec for both domains,
  // same capacity, same steps.
  Rng ri1(92), ri2(92);
  semantic::SemanticCodec specialized(cc, ri1);
  semantic::SemanticCodec pooled(cc, ri2);
  Rng rt1(93), rt2(93);
  semantic::CodecTrainer::pretrain_domain(specialized, world, 0, tc, rt1);
  semantic::CodecTrainer::pretrain_pooled(pooled, world, tc, rt2);

  Rng re1(94), re2(94);
  const auto spec = semantic::evaluate_codec(specialized, world, 0, 250, re1);
  const auto pool = semantic::evaluate_codec(pooled, world, 0, 250, re2);
  // The pooled model cannot disambiguate "bus"-style words without domain
  // context: specialized must win clearly.
  EXPECT_GT(spec.token_accuracy, pool.token_accuracy + 0.03);
}

TEST(Integration, UserAdaptationImprovesOverConversation) {
  core::SystemConfig config = test::tiny_system_config(95);
  config.world.concepts_per_domain = 14;
  config.pretrain.steps = 2500;
  config.buffer_trigger = 12;
  config.finetune_epochs = 8;
  config.oracle_selection = true;
  auto system = core::SemanticEdgeSystem::build(config);

  text::IdiolectConfig idio;
  idio.substitution_rate = 0.8;
  idio.slang_prob = 1.0;
  system->register_user("slangy", 0, &idio);
  system->register_user("peer", 1, nullptr);

  // First phase: general model struggles with the idiolect.
  metrics::OnlineStats early, late;
  for (int i = 0; i < 60; ++i) {
    text::Sentence msg = system->sample_message("slangy", 0);
    const auto r = system->transmit("slangy", "peer", msg);
    (i < 12 ? early : late).add(r.token_accuracy);
  }
  // After buffer-triggered updates the accuracy improves.
  EXPECT_GT(late.mean(), early.mean() + 0.05)
      << "early " << early.mean() << " late " << late.mean();
  // And the replicas are still bit-identical.
  EXPECT_TRUE(system->replicas_in_sync("slangy", 0, 0, 1));
}

TEST(Integration, SemanticPayloadSmallerThanTraditional) {
  core::SystemConfig config;
  config.seed = 96;
  config.world.num_domains = 2;
  config.world.concepts_per_domain = 16;
  config.world.sentence_length = 8;
  config.pretrain.steps = 2000;
  config.codec.feature_dim = 8;  // 1 dim per position
  config.feature_bits = 6;
  config.oracle_selection = true;
  auto system = core::SemanticEdgeSystem::build(config);
  system->register_user("a", 0, nullptr);
  system->register_user("b", 1, nullptr);

  Rng trng(97);
  core::TraditionalCodec traditional(system->world(), trng, 800);

  Rng srng(98);
  double semantic_bits = 0.0, traditional_bits = 0.0;
  const int n = 30;
  for (int i = 0; i < n; ++i) {
    const auto msg = system->sample_message("a", 0);
    semantic_bits += static_cast<double>(system->quantizer().total_bits());
    traditional_bits +=
        static_cast<double>(traditional.compressed_bits(msg));
  }
  EXPECT_LT(semantic_bits, traditional_bits)
      << "semantic " << semantic_bits / n << " vs traditional "
      << traditional_bits / n << " bits/msg";
}

TEST(Integration, OpenLoopWorkloadThroughSimulator) {
  core::SystemConfig config = test::tiny_system_config(99);
  config.world.concepts_per_domain = 12;
  config.pretrain.steps = 1200;
  config.oracle_selection = true;
  auto system = core::SemanticEdgeSystem::build(config);
  system->register_user("a", 0, nullptr);
  system->register_user("b", 1, nullptr);

  // Schedule 20 arrivals at 10 ms spacing, run once, collect reports.
  std::vector<core::TransmitReport> reports;
  auto& sim = system->simulator();
  for (int i = 0; i < 20; ++i) {
    sim.schedule_at(0.01 * i, [&, i] {
      text::Sentence msg = system->sample_message("a", i % 2);
      system->transmit_pairs({{"a", "b", {std::move(msg)}}},
                             [&](std::size_t, std::size_t,
                                 core::TransmitReport r) {
                               reports.push_back(std::move(r));
                             });
    });
  }
  sim.run();
  ASSERT_EQ(reports.size(), 20u);
  for (const auto& r : reports) {
    EXPECT_GT(r.latency_s, 0.0);
    EXPECT_LT(r.latency_s, 1.0);
  }
  EXPECT_EQ(system->stats().messages, 20u);
}

TEST(Integration, CongestionRaisesLatency) {
  // Same workload at 100x the arrival rate must see queueing delay.
  auto run_at_rate = [](double spacing_s) {
    core::SystemConfig config = test::tiny_system_config(100);
    config.world.num_domains = 1;
    config.world.num_polysemous = 0;
    config.world.concepts_per_domain = 10;
    config.pretrain.steps = 300;
    config.oracle_selection = true;
    // Slow access link so the uplink is the bottleneck.
    config.topology.access_bandwidth_bps = 1e5;
    auto system = core::SemanticEdgeSystem::build(config);
    system->register_user("a", 0, nullptr);
    system->register_user("b", 1, nullptr);
    metrics::OnlineStats latency;
    auto& sim = system->simulator();
    for (int i = 0; i < 40; ++i) {
      sim.schedule_at(spacing_s * i, [&] {
        system->transmit_pairs({{"a", "b", {system->sample_message("a", 0)}}},
                               [&](std::size_t, std::size_t,
                                   core::TransmitReport r) {
                                 latency.add(r.latency_s);
                               });
      });
    }
    sim.run();
    return latency.mean();
  };
  const double relaxed = run_at_rate(0.5);
  const double slammed = run_at_rate(0.0002);
  EXPECT_GT(slammed, relaxed * 1.5);
}

TEST(Integration, CacheEvictionForcesRefetch) {
  // Tiny cache: only one general model fits; alternating domains thrash.
  core::SystemConfig config = test::tiny_system_config(101);
  config.world.concepts_per_domain = 10;
  config.pretrain.steps = 300;
  config.oracle_selection = true;
  auto probe = core::SemanticEdgeSystem::build(config);
  const std::size_t model_bytes = probe->general_model(0).byte_size();

  config.cache_capacity_bytes = model_bytes + model_bytes / 2;  // fits 1
  auto system = core::SemanticEdgeSystem::build(config);
  system->register_user("a", 0, nullptr);
  system->register_user("b", 1, nullptr);
  for (int i = 0; i < 8; ++i) {
    system->transmit("a", "b", system->sample_message("a", i % 2));
  }
  const auto& stats = system->edge_state(0).general_cache().stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.misses, 0u);
}

}  // namespace
}  // namespace semcache
