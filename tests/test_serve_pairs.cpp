// Cross-pair parallel serving: determinism and sequential equivalence.
//
// transmit_pairs' contract has two halves, and this suite pins both:
//
//  1. THREAD-COUNT INVARIANCE — four systems built from the same seed
//     with num_threads 0 (sequential reference), 1, 2, and 4 are driven
//     through the same waves; every TransmitReport field (mismatch and
//     latency compared as exact doubles), the aggregate SystemStats,
//     sender-side buffer/slot state, and the decoder replica weights
//     must be BYTE-IDENTICAL across all counts.
//  2. SEQUENTIAL EQUIVALENCE — a wave over N pairs equals serving each
//     pair as a one-pair wave in order on a twin system (reports, stats,
//     weights), so cross-pair serving is a wall-clock lever, not a
//     semantic change.
//
// The case matrix: several pairs on one edge, cross-edge + intra-edge
// mixes, mid-run fine-tunes (buffer trigger trips inside a wave),
// shared-sender lanes, general-cache eviction contention, and queued
// waves flushed through ParallelDispatcher.
// The suite runs under the TSan CI job like every tier-1 suite.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/dispatcher.hpp"
#include "core/system.hpp"
#include "test_util.hpp"

namespace semcache::core {
namespace {

constexpr std::size_t kThreadCounts[] = {0, 1, 2, 4};
constexpr std::size_t kVariants = std::size(kThreadCounts);

SystemConfig pairs_config(std::uint64_t seed, std::size_t num_threads) {
  SystemConfig config = test::tiny_system_config(seed);
  // Determinism needs lightly trained codecs, not accurate ones (the
  // tier-1 budget test_transmit_parallel standardized).
  config.pretrain.steps = 150;
  config.buffer_trigger = 4;  // fine-tunes fire mid-wave
  config.buffer_capacity = 32;
  config.finetune_epochs = 2;
  config.num_edges = 2;
  config.num_threads = num_threads;
  return config;
}

struct WaveResult {
  // reports[pair][message], completion counts alongside.
  std::vector<std::vector<TransmitReport>> reports;
  std::vector<std::vector<int>> seen;
};

/// Serve one wave on `system` and run the event loop to idle.
WaveResult serve_wave(SemanticEdgeSystem& system,
                      std::vector<SemanticEdgeSystem::PairBatch> batches) {
  WaveResult result;
  result.reports.resize(batches.size());
  result.seen.resize(batches.size());
  for (std::size_t p = 0; p < batches.size(); ++p) {
    result.reports[p].resize(batches[p].messages.size());
    result.seen[p].assign(batches[p].messages.size(), 0);
  }
  system.transmit_pairs(
      std::move(batches),
      [&result](std::size_t pair, std::size_t i, TransmitReport report) {
        result.reports[pair][i] = std::move(report);
        ++result.seen[pair][i];
      });
  system.simulator().run();
  return result;
}

/// The lockstep fixture: kVariants systems from one seed, one per thread
/// count, driven through identical waves test to test.
class ServePairsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // The threads=0 reference must be genuinely sequential even when the
    // environment (e.g. the TSan CI job) threads default-0 configs.
    unsetenv("SEMCACHE_THREADS");
    for (std::size_t v = 0; v < kVariants; ++v) {
      systems_[v] =
          SemanticEdgeSystem::build(pairs_config(2026, kThreadCounts[v]))
              .release();
      // Two senders-and-receivers per edge: a, c on edge 0; b, d on edge 1.
      systems_[v]->register_user("a", 0, nullptr);
      systems_[v]->register_user("b", 1, nullptr);
      systems_[v]->register_user("c", 0, nullptr);
      systems_[v]->register_user("d", 1, nullptr);
    }
    ASSERT_EQ(systems_[0]->thread_pool(), nullptr);
    ASSERT_NE(systems_[3]->thread_pool(), nullptr);
    ASSERT_EQ(systems_[3]->thread_pool()->worker_count(), 4u);
  }
  static void TearDownTestSuite() {
    for (auto*& system : systems_) {
      delete system;
      system = nullptr;
    }
  }

  /// Draw the same per-pair message batches from every system (rng_
  /// streams advance in lockstep). spec = {sender, receiver, domains}.
  struct PairSpec {
    std::string sender;
    std::string receiver;
    std::vector<std::size_t> domains;
  };
  static std::vector<std::vector<SemanticEdgeSystem::PairBatch>>
  sample_lockstep_waves(const std::vector<PairSpec>& specs) {
    std::vector<std::vector<SemanticEdgeSystem::PairBatch>> waves(kVariants);
    for (std::size_t v = 0; v < kVariants; ++v) waves[v].resize(specs.size());
    for (std::size_t p = 0; p < specs.size(); ++p) {
      for (std::size_t v = 0; v < kVariants; ++v) {
        waves[v][p].sender = specs[p].sender;
        waves[v][p].receiver = specs[p].receiver;
      }
      for (const std::size_t d : specs[p].domains) {
        for (std::size_t v = 0; v < kVariants; ++v) {
          waves[v][p].messages.push_back(
              systems_[v]->sample_message(specs[p].sender, d));
          EXPECT_EQ(waves[v][p].messages.back().surface,
                    waves[0][p].messages.back().surface);
        }
      }
    }
    return waves;
  }

  /// Serve the same wave everywhere; demand byte-identity to threads=0.
  static void run_and_compare(const std::vector<PairSpec>& specs) {
    auto waves = sample_lockstep_waves(specs);
    std::vector<WaveResult> results;
    results.reserve(kVariants);
    for (std::size_t v = 0; v < kVariants; ++v) {
      results.push_back(serve_wave(*systems_[v], std::move(waves[v])));
    }
    for (std::size_t v = 0; v < kVariants; ++v) {
      for (std::size_t p = 0; p < specs.size(); ++p) {
        for (const int count : results[v].seen[p]) EXPECT_EQ(count, 1);
      }
    }
    for (std::size_t v = 1; v < kVariants; ++v) {
      const std::string label = "threads " + std::to_string(kThreadCounts[v]);
      for (std::size_t p = 0; p < specs.size(); ++p) {
        for (std::size_t i = 0; i < results[0].reports[p].size(); ++i) {
          EXPECT_EQ(results[0].reports[p][i], results[v].reports[p][i])
              << label << " pair " << p << " message " << i;
        }
      }
      EXPECT_EQ(systems_[0]->stats(), systems_[v]->stats()) << label;
      for (const PairSpec& spec : specs) {
        const std::size_t se = systems_[0]->user(spec.sender).edge_index;
        const std::size_t re = systems_[0]->user(spec.receiver).edge_index;
        for (const std::size_t d : spec.domains) {
          test::expect_slot_state_equal(*systems_[0], *systems_[v],
                                        spec.sender, d, se, re);
        }
      }
    }
  }

  static SemanticEdgeSystem* systems_[kVariants];
};

SemanticEdgeSystem* ServePairsTest::systems_[kVariants] = {};

TEST_F(ServePairsTest, MultiplePairsOnOneEdge) {
  // Two pairs served by edge 0 alone (a -> c and c -> a): both data
  // planes are intra-edge, slots alias sender-side state, and with
  // trigger 4 both pairs fine-tune inside the wave.
  const auto before = systems_[0]->stats().updates;
  run_and_compare({{"a", "c", {0, 0, 0, 0, 0}}, {"c", "a", {0, 0, 0, 0, 0}}});
  EXPECT_GT(systems_[0]->stats().updates, before);
}

TEST_F(ServePairsTest, CrossAndIntraEdgeMixedDomains) {
  // Three lanes: a (cross-edge to b), c (intra-edge to a), d (intra-edge
  // to b on edge 1), with interleaved domains so every pair splits into
  // groups and at least one trips its trigger mid-wave.
  run_and_compare({{"a", "b", {0, 1, 0, 1, 0}},
                   {"c", "a", {1, 1, 1, 1}},
                   {"d", "b", {0, 0, 1, 0}}});
}

TEST_F(ServePairsTest, SharedSenderPairsSerializeInOneLane) {
  // Pairs (a -> b) and (a -> c) share the sending user, hence the sender
  // slots at edge 0: they must serialize in pair order inside one lane.
  // The first pair's fine-tune (trigger 4) must be visible to the second
  // pair's encodes exactly as it is sequentially.
  run_and_compare({{"a", "b", {0, 0, 0, 0, 0, 0}}, {"a", "c", {0, 0, 0}}});
}

TEST_F(ServePairsTest, MidRunFineTuneAcrossWaves) {
  // Buffer state carries across waves: the previous tests left partial
  // buffers, so this wave's triggers fire at offsets that depend on the
  // shared history — the strongest cross-wave state check.
  run_and_compare({{"a", "b", {1, 1, 1, 1, 1, 1, 1}},
                   {"c", "a", {0, 1, 0, 1}},
                   {"d", "b", {1, 0, 1, 0, 1}}});
}

TEST_F(ServePairsTest, DispatcherQueueMergesAndFlushes) {
  auto waves = sample_lockstep_waves(
      {{"c", "d", {0, 0}}, {"d", "a", {1, 1, 1}}, {"c", "d", {0}}});
  std::vector<WaveResult> results(kVariants);
  for (std::size_t v = 0; v < kVariants; ++v) {
    ParallelDispatcher dispatcher(*systems_[v]);
    // The third enqueue targets the same (c, d) pair: it must merge into
    // pair 0's batch, not open a third pair.
    for (std::size_t p = 0; p < 3; ++p) {
      dispatcher.enqueue(waves[v][p].sender, waves[v][p].receiver,
                         std::move(waves[v][p].messages));
    }
    EXPECT_EQ(dispatcher.queued_pairs(), 2u);
    EXPECT_EQ(dispatcher.queued_messages(), 6u);
    WaveResult& result = results[v];
    result.reports.assign(2, {});
    result.reports[0].resize(3);  // 2 enqueued + 1 merged
    result.reports[1].resize(3);
    result.seen.assign(2, {});
    result.seen[0].assign(3, 0);
    result.seen[1].assign(3, 0);
    const std::size_t pairs =
        dispatcher.flush([&result](std::size_t pair, std::size_t i,
                                   TransmitReport report) {
          result.reports[pair][i] = std::move(report);
          ++result.seen[pair][i];
        });
    EXPECT_EQ(pairs, 2u);
    EXPECT_EQ(dispatcher.queued_pairs(), 0u);
    EXPECT_EQ(dispatcher.waves_served(), 1u);
    EXPECT_EQ(dispatcher.flush([](std::size_t, std::size_t, TransmitReport) {}),
              0u);
    systems_[v]->simulator().run();
  }
  for (std::size_t v = 1; v < kVariants; ++v) {
    for (std::size_t p = 0; p < 2; ++p) {
      for (std::size_t i = 0; i < results[0].reports[p].size(); ++i) {
        EXPECT_EQ(results[v].seen[p][i], 1);
        EXPECT_EQ(results[0].reports[p][i], results[v].reports[p][i])
            << "threads " << kThreadCounts[v] << " flushed pair " << p
            << " message " << i;
      }
    }
    EXPECT_EQ(systems_[0]->stats(), systems_[v]->stats());
  }
}

TEST_F(ServePairsTest, DispatcherRejectsBadBatchesWithoutLosingQueue) {
  // Admission happens at enqueue time, so a rejected batch can
  // never cost already-queued work a flush (flush moves the queue into
  // transmit_pairs, which by then cannot throw for admission reasons).
  SemanticEdgeSystem& system = *systems_[0];
  ParallelDispatcher dispatcher(system);
  dispatcher.enqueue("a", "b", {system.sample_message("a", 0)});
  EXPECT_THROW(dispatcher.enqueue("nobody", "b",
                                  {system.sample_message("a", 0)}),
               Error);
  text::Sentence short_msg = system.sample_message("a", 0);
  short_msg.surface.pop_back();
  EXPECT_THROW(dispatcher.enqueue("a", "b", {short_msg}), Error);
  EXPECT_EQ(dispatcher.queued_pairs(), 1u);  // the good batch survived
  std::size_t delivered = 0;
  EXPECT_EQ(dispatcher.flush([&delivered](std::size_t, std::size_t,
                                          TransmitReport) { ++delivered; }),
            1u);
  system.simulator().run();
  EXPECT_EQ(delivered, 1u);
  // Keep the suite's lockstep mirror intact: replay the same traffic
  // (including the same rng_ draws) on every other variant.
  for (std::size_t v = 1; v < kVariants; ++v) {
    SemanticEdgeSystem& twin = *systems_[v];
    ParallelDispatcher mirror(twin);
    mirror.enqueue("a", "b", {twin.sample_message("a", 0)});
    EXPECT_THROW(mirror.enqueue("nobody", "b", {twin.sample_message("a", 0)}),
                 Error);
    text::Sentence twin_short = twin.sample_message("a", 0);
    twin_short.surface.pop_back();
    EXPECT_THROW(mirror.enqueue("a", "b", {twin_short}), Error);
    mirror.flush([](std::size_t, std::size_t, TransmitReport) {});
    twin.simulator().run();
    EXPECT_EQ(systems_[0]->stats(), twin.stats());
  }
}

// --- standalone cases (fresh systems; lockstep with a sequential twin) ---

/// A wave must equal serving its pairs one at a time as one-pair waves,
/// in pair order — on every thread count.
TEST(ServePairsEquivalence, WaveEqualsSequentialTransmitMany) {
  unsetenv("SEMCACHE_THREADS");
  struct Spec {
    const char* sender;
    const char* receiver;
    std::vector<std::size_t> domains;
  };
  const std::vector<Spec> specs = {{"a", "b", {0, 0, 0, 0, 0, 0}},
                                   {"c", "a", {1, 1, 1, 1}},
                                   {"d", "b", {0, 1, 0}}};
  // Reference: a threads=0 twin served pair by pair, one-pair waves.
  auto reference = SemanticEdgeSystem::build(pairs_config(515, 0));
  std::vector<std::unique_ptr<SemanticEdgeSystem>> waved;
  for (const std::size_t threads : {std::size_t{0}, std::size_t{4}}) {
    waved.push_back(SemanticEdgeSystem::build(pairs_config(515, threads)));
  }
  for (auto* system :
       {reference.get(), waved[0].get(), waved[1].get()}) {
    system->register_user("a", 0, nullptr);
    system->register_user("b", 1, nullptr);
    system->register_user("c", 0, nullptr);
    system->register_user("d", 1, nullptr);
  }

  // Lockstep message draws.
  std::vector<std::vector<text::Sentence>> ref_batches(specs.size());
  std::vector<std::vector<SemanticEdgeSystem::PairBatch>> wave_batches(
      waved.size());
  for (auto& batches : wave_batches) batches.resize(specs.size());
  for (std::size_t p = 0; p < specs.size(); ++p) {
    for (std::size_t w = 0; w < waved.size(); ++w) {
      wave_batches[w][p].sender = specs[p].sender;
      wave_batches[w][p].receiver = specs[p].receiver;
    }
    for (const std::size_t d : specs[p].domains) {
      ref_batches[p].push_back(reference->sample_message(specs[p].sender, d));
      for (std::size_t w = 0; w < waved.size(); ++w) {
        wave_batches[w][p].messages.push_back(
            waved[w]->sample_message(specs[p].sender, d));
        ASSERT_EQ(wave_batches[w][p].messages.back().surface,
                  ref_batches[p].back().surface);
      }
    }
  }

  // Reference run: pair-by-pair one-pair waves, one event-loop drain at
  // the end (matching the wave, which also schedules everything first).
  std::vector<std::vector<TransmitReport>> ref_reports(specs.size());
  for (std::size_t p = 0; p < specs.size(); ++p) {
    ref_reports[p].resize(ref_batches[p].size());
    reference->transmit_pairs(
        {{specs[p].sender, specs[p].receiver, std::move(ref_batches[p])}},
        [&ref_reports, p](std::size_t, std::size_t i, TransmitReport report) {
          ref_reports[p][i] = std::move(report);
        });
  }
  reference->simulator().run();

  for (std::size_t w = 0; w < waved.size(); ++w) {
    const WaveResult result =
        serve_wave(*waved[w], std::move(wave_batches[w]));
    const std::string label =
        w == 0 ? "wave threads=0 vs sequential" : "wave threads=4 vs sequential";
    for (std::size_t p = 0; p < specs.size(); ++p) {
      for (std::size_t i = 0; i < ref_reports[p].size(); ++i) {
        EXPECT_EQ(result.seen[p][i], 1);
        EXPECT_EQ(ref_reports[p][i], result.reports[p][i])
            << label << " pair " << p << " message " << i;
      }
    }
    EXPECT_EQ(reference->stats(), waved[w]->stats()) << label;
    for (const Spec& spec : specs) {
      const std::size_t se = reference->user(spec.sender).edge_index;
      const std::size_t re = reference->user(spec.receiver).edge_index;
      for (const std::size_t d : spec.domains) {
        test::expect_slot_state_equal(*reference, *waved[w], spec.sender, d,
                                      se, re);
      }
    }
  }
}

/// General-cache eviction contention: a cache that fits only one of the
/// two domain models forces every prepare to evict the other pair's
/// model. The prepare phase owns the caches (sequential, pair order), so
/// hit flags, eviction counts, and cloud-fetch accounting must stay
/// byte-identical across worker counts.
TEST(ServePairsEviction, CacheContentionStaysDeterministic) {
  unsetenv("SEMCACHE_THREADS");
  // Probe the model size once, then rebuild with a cache that holds one
  // general model but not two.
  std::size_t model_bytes = 0;
  {
    auto probe = SemanticEdgeSystem::build(pairs_config(77, 0));
    model_bytes = probe->general_model(0).byte_size();
  }
  ASSERT_GT(model_bytes, 0u);

  std::vector<std::unique_ptr<SemanticEdgeSystem>> systems;
  std::vector<std::vector<SemanticEdgeSystem::PairBatch>> waves(kVariants);
  for (std::size_t v = 0; v < kVariants; ++v) {
    SystemConfig config = pairs_config(77, kThreadCounts[v]);
    config.cache_capacity_bytes = model_bytes + model_bytes / 2;
    systems.push_back(SemanticEdgeSystem::build(config));
    systems[v]->register_user("a", 0, nullptr);
    systems[v]->register_user("b", 1, nullptr);
    systems[v]->register_user("c", 0, nullptr);
    systems[v]->register_user("d", 1, nullptr);
  }
  // Pairs alternate domains so edge 0's cache thrashes between the two
  // general models during the prepare phase.
  const std::vector<std::vector<std::size_t>> domains = {
      {0, 1, 0, 1}, {1, 0, 1, 0}, {0, 0, 1, 1}};
  const std::vector<std::pair<std::string, std::string>> users = {
      {"a", "b"}, {"c", "a"}, {"d", "c"}};
  for (std::size_t v = 0; v < kVariants; ++v) {
    waves[v].resize(users.size());
    for (std::size_t p = 0; p < users.size(); ++p) {
      waves[v][p].sender = users[p].first;
      waves[v][p].receiver = users[p].second;
      for (const std::size_t d : domains[p]) {
        waves[v][p].messages.push_back(
            systems[v]->sample_message(users[p].first, d));
      }
    }
  }
  std::vector<WaveResult> results;
  results.reserve(kVariants);
  for (std::size_t v = 0; v < kVariants; ++v) {
    results.push_back(serve_wave(*systems[v], std::move(waves[v])));
  }
  bool saw_miss = false;
  for (const auto& pair_reports : results[0].reports) {
    for (const auto& report : pair_reports) {
      saw_miss = saw_miss || !report.general_cache_hit;
    }
  }
  EXPECT_TRUE(saw_miss);  // the cache really thrashed
  for (std::size_t v = 1; v < kVariants; ++v) {
    for (std::size_t p = 0; p < results[0].reports.size(); ++p) {
      for (std::size_t i = 0; i < results[0].reports[p].size(); ++i) {
        EXPECT_EQ(results[0].reports[p][i], results[v].reports[p][i])
            << "threads " << kThreadCounts[v] << " eviction pair " << p
            << " message " << i;
      }
    }
    EXPECT_EQ(systems[0]->stats(), systems[v]->stats());
    for (std::size_t e = 0; e < 2; ++e) {
      EXPECT_EQ(systems[0]->edge_state(e).general_cache().stats().evictions,
                systems[v]->edge_state(e).general_cache().stats().evictions);
      EXPECT_EQ(systems[0]->edge_state(e).general_cache().stats().misses,
                systems[v]->edge_state(e).general_cache().stats().misses);
    }
  }
}

/// Failure injection active: a transmit_pairs wave STAYS cross-pair
/// parallel (no sequential fallback — the fault coins are keyed by
/// message identity, not a global RNG ordinal) and still matches a
/// threads=0 twin that serves the same pairs one at a time as one-pair
/// waves, report-for-report and stat-for-stat. The wave has three senders
/// on the 4-worker system, so its lanes really fan out, and every pair is
/// cross-edge, so every fine-tune ships its sync over the lossy backbone.
TEST(ServePairsFaults, WavesStayParallelUnderSyncLoss) {
  unsetenv("SEMCACHE_THREADS");
  auto waved = SemanticEdgeSystem::build(pairs_config(99, 4));
  auto reference = SemanticEdgeSystem::build(pairs_config(99, 0));
  for (auto* system : {waved.get(), reference.get()}) {
    system->register_user("a", 0, nullptr);
    system->register_user("b", 1, nullptr);
    system->register_user("c", 0, nullptr);
    system->register_user("d", 1, nullptr);
    system->set_sync_loss_probability(0.5);
  }
  ASSERT_NE(waved->thread_pool(), nullptr);
  const std::vector<std::pair<std::string, std::string>> pairs = {
      {"a", "b"}, {"c", "d"}, {"d", "a"}};
  std::vector<SemanticEdgeSystem::PairBatch> batches;
  std::vector<std::vector<text::Sentence>> ref_messages(pairs.size());
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    batches.push_back({pairs[p].first, pairs[p].second, {}});
    // 8 same-domain messages at trigger 4: two fine-tunes, two syncs.
    for (int i = 0; i < 8; ++i) {
      const std::size_t domain = p % 2;
      batches[p].messages.push_back(
          waved->sample_message(pairs[p].first, domain));
      ref_messages[p].push_back(
          reference->sample_message(pairs[p].first, domain));
      ASSERT_EQ(batches[p].messages.back().surface,
                ref_messages[p].back().surface);
    }
  }
  const WaveResult result = serve_wave(*waved, std::move(batches));
  std::vector<std::vector<TransmitReport>> ref_reports(pairs.size());
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    ref_reports[p].resize(ref_messages[p].size());
    reference->transmit_pairs(
        {{pairs[p].first, pairs[p].second, std::move(ref_messages[p])}},
        [&ref_reports, p](std::size_t, std::size_t i, TransmitReport report) {
          ref_reports[p][i] = std::move(report);
        });
  }
  reference->simulator().run();
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    for (std::size_t i = 0; i < ref_reports[p].size(); ++i) {
      EXPECT_EQ(result.seen[p][i], 1);
      EXPECT_EQ(ref_reports[p][i], result.reports[p][i])
          << "faulted pair " << p << " message " << i;
    }
  }
  EXPECT_EQ(reference->stats(), waved->stats());
  EXPECT_GT(reference->stats().sync_drops, 0u);  // the loss really bit
}

}  // namespace
}  // namespace semcache::core
