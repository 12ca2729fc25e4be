// Threads-vs-sequential determinism for the worker-pool data plane.
//
// Four systems are built from the same seed with num_threads 0 (the
// sequential reference), 1, 2, and 4, and driven in lockstep through the
// same case matrix as test_transmit_batch: cross-edge batches with
// mid-batch fine-tunes, mixed-domain grouping, the intra-edge no-channel
// path, and a hostile uncoded 0 dB channel. Every per-message
// TransmitReport field (mismatch losses and latencies compared as exact
// doubles), the aggregate SystemStats, the sender-side buffer state, and
// the decoder replica weights must be BYTE-IDENTICAL across all thread
// counts — the pool is a wall-clock lever only, never a semantic change,
// and the result must not depend on worker count or scheduling.
//
// Note on SEMCACHE_THREADS: build() lets the env fill in a default-0
// config (that is how the TSan CI job threads every suite), so this suite
// clears the variable up front — its "threads = 0" reference must really
// be the sequential path.
#include <gtest/gtest.h>

#include <cstdlib>
#include <latch>
#include <mutex>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/system.hpp"
#include "test_util.hpp"

namespace semcache::core {
namespace {

constexpr std::size_t kThreadCounts[] = {0, 1, 2, 4};
constexpr std::size_t kVariants = std::size(kThreadCounts);

SystemConfig variant_config(std::uint64_t seed, std::size_t num_threads) {
  SystemConfig config = test::tiny_system_config(seed);
  // Determinism needs lightly trained codecs, not accurate ones (the same
  // tier-1 budget test_transmit_batch uses).
  config.pretrain.steps = 150;
  config.buffer_trigger = 4;  // updates fire mid-batch
  config.buffer_capacity = 32;
  config.finetune_epochs = 2;
  config.num_edges = 2;
  config.num_threads = num_threads;
  return config;
}

// Systems are shared across the suite and driven through the SAME
// operation sequence, so the lockstep invariant (identical state, RNG
// streams, and message draws) holds from test to test.
class TransmitParallelTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // The threads=0 reference must be genuinely sequential even when the
    // environment (e.g. the TSan CI job) threads default-0 configs.
    unsetenv("SEMCACHE_THREADS");
    for (std::size_t v = 0; v < kVariants; ++v) {
      systems_[v] =
          SemanticEdgeSystem::build(variant_config(1443, kThreadCounts[v]))
              .release();
      systems_[v]->register_user("a", 0, nullptr);
      systems_[v]->register_user("b", 1, nullptr);
      systems_[v]->register_user("c", 0, nullptr);  // same edge as "a"
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

  /// Draw the same message stream from every system (their rng_ streams
  /// advance in lockstep); domains[i] picks each message's true domain.
  static std::vector<std::vector<text::Sentence>> sample_lockstep_messages(
      const std::string& user, const std::vector<std::size_t>& domains) {
    std::vector<std::vector<text::Sentence>> drawn(kVariants);
    for (const std::size_t d : domains) {
      for (std::size_t v = 0; v < kVariants; ++v) {
        drawn[v].push_back(systems_[v]->sample_message(user, d));
        EXPECT_EQ(drawn[v].back().surface, drawn[0].back().surface);
        EXPECT_EQ(drawn[v].back().meanings, drawn[0].back().meanings);
      }
    }
    return drawn;
  }

  /// Serve the same batch on every system as a one-pair wave and demand
  /// reports, stats, and (user, domain) slot state identical to the
  /// threads = 0 reference.
  static void run_and_compare(const std::string& sender,
                              const std::string& receiver,
                              std::vector<std::vector<text::Sentence>> drawn,
                              std::size_t domain) {
    const std::size_t n = drawn[0].size();
    std::vector<std::vector<TransmitReport>> reports(
        kVariants, std::vector<TransmitReport>(n));
    for (std::size_t v = 0; v < kVariants; ++v) {
      std::vector<int> seen(n, 0);
      systems_[v]->transmit_pairs(
          {{sender, receiver, std::move(drawn[v])}},
          [&, v](std::size_t, std::size_t i, TransmitReport r) {
            reports[v][i] = std::move(r);
            ++seen[i];
          });
      systems_[v]->simulator().run();
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(seen[i], 1) << "threads " << kThreadCounts[v]
                              << " completion " << i;
      }
    }
    const std::size_t sender_edge = systems_[0]->user(sender).edge_index;
    const std::size_t receiver_edge = systems_[0]->user(receiver).edge_index;
    for (std::size_t v = 1; v < kVariants; ++v) {
      const std::string label = "threads " + std::to_string(kThreadCounts[v]);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(reports[0][i], reports[v][i]) << label << " message " << i;
      }
      EXPECT_EQ(systems_[0]->stats(), systems_[v]->stats()) << label;
      test::expect_slot_state_equal(*systems_[0], *systems_[v], sender,
                                    domain, sender_edge, receiver_edge);
    }
  }

  static SemanticEdgeSystem* systems_[kVariants];
};

SemanticEdgeSystem* TransmitParallelTest::systems_[kVariants] = {};

TEST_F(TransmitParallelTest, CrossEdgeBatchWithMidBatchUpdates) {
  // 9 same-domain messages with trigger 4: at least two fine-tunes fire
  // mid-batch, so the pooled path must reproduce chunk splits, update
  // weights, and post-update encodes exactly.
  const auto before_updates = systems_[0]->stats().updates;
  run_and_compare("a", "b",
                  sample_lockstep_messages("a", {0, 0, 0, 0, 0, 0, 0, 0, 0}),
                  /*domain=*/0);
  EXPECT_GT(systems_[0]->stats().updates, before_updates);
}

TEST_F(TransmitParallelTest, MixedDomainGrouping) {
  run_and_compare("a", "b",
                  sample_lockstep_messages("a", {0, 1, 0, 1, 1, 0, 1, 0}),
                  /*domain=*/1);
  for (std::size_t v = 1; v < kVariants; ++v) {
    EXPECT_EQ(systems_[0]->edge_state(0).slot_count(),
              systems_[v]->edge_state(0).slot_count());
  }
}

TEST_F(TransmitParallelTest, IntraEdgeSkipsChannel) {
  // Sender and receiver share edge 0: the payloads skip the channel, and
  // once the sender has fine-tuned, its slot is also the receiver's
  // replica, which reads the decoder-copy pass's logits.
  run_and_compare("a", "c", sample_lockstep_messages("a", {0, 0, 0, 0, 0, 0}),
                  /*domain=*/0);
}

TEST(TransmitParallelNoisy, CorruptedPayloadsStayBitIdentical) {
  // Uncoded at 0 dB flips ~8% of payload bits: essentially every message
  // arrives corrupted, so the receiver decodes most positions through a
  // network rather than a table lookup, and after the mid-batch fine-tune
  // the sender's decoder-copy pass runs on the clean payloads.
  // The heavy per-message noise draws make this the strongest RNG-stream
  // isolation case: any cross-worker draw would scramble the bits.
  unsetenv("SEMCACHE_THREADS");
  const std::size_t n = 7;  // crosses the trigger: updates fire mid-batch
  std::vector<std::unique_ptr<SemanticEdgeSystem>> systems;
  std::vector<std::vector<text::Sentence>> drawn(kVariants);
  for (std::size_t v = 0; v < kVariants; ++v) {
    SystemConfig config = variant_config(1443, kThreadCounts[v]);
    config.channel.code = "uncoded";
    config.channel.snr_db = 0.0;
    systems.push_back(SemanticEdgeSystem::build(config));
    systems[v]->register_user("a", 0, nullptr);
    systems[v]->register_user("b", 1, nullptr);
    for (std::size_t i = 0; i < n; ++i) {
      drawn[v].push_back(systems[v]->sample_message("a", 0));
      ASSERT_EQ(drawn[v].back().surface, drawn[0][i].surface);
    }
  }
  std::vector<std::vector<TransmitReport>> reports(
      kVariants, std::vector<TransmitReport>(n));
  for (std::size_t v = 0; v < kVariants; ++v) {
    systems[v]->transmit_pairs(
        {{"a", "b", std::move(drawn[v])}},
        [&, v](std::size_t, std::size_t i, TransmitReport r) {
          reports[v][i] = std::move(r);
        });
    systems[v]->simulator().run();
  }
  bool saw_decode_error = false;
  for (std::size_t v = 1; v < kVariants; ++v) {
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(reports[0][i], reports[v][i])
          << "threads " << kThreadCounts[v] << " noisy message " << i;
    }
    EXPECT_EQ(systems[0]->stats(), systems[v]->stats());
  }
  for (std::size_t i = 0; i < n; ++i) {
    saw_decode_error = saw_decode_error || !reports[0][i].exact;
  }
  EXPECT_TRUE(saw_decode_error);               // the channel really bit
  EXPECT_GT(systems[0]->stats().updates, 0u);  // fine-tunes exercised
}

TEST_F(TransmitParallelTest, SingleMessageRunsInlineAndMatches) {
  // N = 1 short-circuits every parallel section (count <= 1 runs on the
  // calling thread) yet must keep the lockstep mirror intact.
  auto drawn = sample_lockstep_messages("a", {1});
  std::vector<TransmitReport> reports(kVariants);
  for (std::size_t v = 0; v < kVariants; ++v) {
    systems_[v]->transmit_pairs(
        {{"a", "b", {drawn[v][0]}}},
        [&, v](std::size_t, std::size_t i, TransmitReport r) {
          EXPECT_EQ(i, 0u);
          reports[v] = std::move(r);
        });
    systems_[v]->simulator().run();
  }
  for (std::size_t v = 1; v < kVariants; ++v) {
    EXPECT_EQ(reports[0], reports[v]) << "threads " << kThreadCounts[v];
    EXPECT_EQ(systems_[0]->stats(), systems_[v]->stats());
  }
}

TEST(TransmitParallelForeignPool, TransmitFromAnotherPoolsWorkersMatches) {
  // A num_threads = 0 system serves its lanes on whichever thread calls
  // it: here every thread of an unrelated pool, its caller included, each
  // with its own thread-local serving scratch. Each body's report must
  // equal the same message served from the main thread on a twin system,
  // in the order the bodies took the system.
  unsetenv("SEMCACHE_THREADS");
  const SystemConfig config = variant_config(1443, 0);
  auto system = SemanticEdgeSystem::build(config);
  auto twin = SemanticEdgeSystem::build(config);
  constexpr std::size_t kBodies = 4;
  std::vector<std::string> users;
  for (std::size_t i = 0; i < kBodies; ++i) {
    users.push_back("u" + std::to_string(i));
    system->register_user(users[i], i % 2, nullptr);
    twin->register_user(users[i], i % 2, nullptr);
  }
  std::vector<text::Sentence> messages;
  for (std::size_t i = 0; i < kBodies; ++i) {
    messages.push_back(system->sample_message(users[i], i % 2));
  }

  common::ThreadPool pool(kBodies);
  std::latch all_running(kBodies);  // one body per pool thread
  std::mutex system_mu;
  std::vector<std::size_t> order;
  std::vector<TransmitReport> reports(kBodies);
  pool.parallel_for(kBodies, [&](std::size_t i) {
    all_running.arrive_and_wait();
    const std::lock_guard<std::mutex> lock(system_mu);
    order.push_back(i);
    reports[i] =
        system->transmit(users[i], users[(i + 1) % kBodies], messages[i]);
  });
  ASSERT_EQ(order.size(), kBodies);
  for (const std::size_t i : order) {
    EXPECT_EQ(reports[i],
              twin->transmit(users[i], users[(i + 1) % kBodies], messages[i]))
        << "body " << i;
  }
}

}  // namespace
}  // namespace semcache::core
