// Sharded city-scale serving: determinism and the memory audit.
//
// Two contracts pinned here:
//
//  1. SHARD-COUNT INVARIANCE — a ShardedEdgeServing with K shards driven
//     through ParallelDispatcher is byte-identical to the single-system
//     reference for the same enqueue stream: every report field, the
//     merged SystemStats, sender slot state, and decoder weights match
//     exactly, for any K and any per-shard thread count. (Latency is
//     additionally identical at K = 1, where the deployment IS the
//     reference; across K > 1 shards, pairs that would queue behind each
//     other inside one simulator stop contending — that timing
//     decontention is the point of sharding, so latency_s is the one
//     report field excluded from the K > 1 comparison, and the outage
//     counters, keyed by the same clocks, are left out of the stats.)
//  2. MEMORY AUDIT — per-user cost is bytes plus deltas, not model
//     clones: establishing slots materializes NOTHING (user_model_bytes
//     stays 0 until a fine-tune or sync apply fires), and the fixed
//     serving-replica cost is bounded by workers × domains, not users.
//
// Sender names matter: with FNV-1a ownership, senders {a, c, d} land on
// 2 distinct shards at K = 2 and on 3 at K = 3, so the waves here
// genuinely fan out across shards rather than collapsing onto one.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/hashing.hpp"
#include "core/dispatcher.hpp"
#include "core/sharded.hpp"
#include "core/system.hpp"
#include "test_util.hpp"

namespace semcache::core {
namespace {

SystemConfig sharded_config(std::uint64_t seed, std::size_t num_threads) {
  SystemConfig config = test::tiny_system_config(seed);
  config.pretrain.steps = 150;  // lightly trained: determinism, not accuracy
  config.buffer_trigger = 4;    // fine-tunes fire mid-wave
  config.buffer_capacity = 32;
  config.finetune_epochs = 2;
  config.num_edges = 2;
  config.num_threads = num_threads;
  return config;
}

/// One enqueue: (sender, receiver, one message per listed domain).
struct PairSpec {
  std::string sender;
  std::string receiver;
  std::vector<std::size_t> domains;
};

// Three waves: multi-sender fan-out, a shared-sender merge with mid-wave
// fine-tune pressure (trigger = 4), and a cross/intra-edge mix.
const std::vector<std::vector<PairSpec>> kWaves = {
    {{"a", "b", {0, 1, 0}}, {"c", "d", {1, 0}}, {"d", "c", {0, 0, 1}}},
    {{"a", "b", {0, 0}}, {"a", "b", {0, 0, 1}}, {"c", "a", {1, 1, 1, 1}}},
    {{"d", "b", {1, 0, 1, 0}}, {"c", "d", {0}}, {"a", "c", {0, 1}}},
};

struct ServedMessage {
  TransmitReport report;
  int completions = 0;
};

/// Drive `dispatcher` through kWaves with the pre-sampled sentences.
/// `run_after_flush` drives the single-system simulator (the sharded
/// front door drains its shards' simulators inside flush).
std::vector<std::vector<std::vector<ServedMessage>>> drive(
    ParallelDispatcher& dispatcher,
    const std::vector<std::vector<std::vector<text::Sentence>>>& sentences,
    edge::Simulator* run_after_flush) {
  std::vector<std::vector<std::vector<ServedMessage>>> served(kWaves.size());
  for (std::size_t w = 0; w < kWaves.size(); ++w) {
    for (std::size_t p = 0; p < kWaves[w].size(); ++p) {
      dispatcher.enqueue(kWaves[w][p].sender, kWaves[w][p].receiver,
                         sentences[w][p]);
    }
    // Merged enqueues share a completion index, so size by the dispatcher
    // queue, not the spec list.
    served[w].resize(dispatcher.queued_pairs());
    dispatcher.flush([&served, w](std::size_t pair, std::size_t index,
                                  TransmitReport report) {
      auto& slot_list = served[w][pair];
      if (slot_list.size() <= index) slot_list.resize(index + 1);
      slot_list[index].report = std::move(report);
      ++slot_list[index].completions;
    });
    if (run_after_flush != nullptr) run_after_flush->run();
  }
  return served;
}

TEST(StableHash, OwnershipIsDeterministicAndInRange) {
  static_assert(common::stable_hash("a") != common::stable_hash("b"));
  // The documented FNV-1a pin: ownership must never drift across builds.
  static_assert(common::stable_hash("") == 1469598103934665603ULL);
  EXPECT_EQ(common::shard_of("anyone", 1), 0u);
  for (std::size_t k = 2; k <= 5; ++k) {
    EXPECT_LT(common::shard_of("anyone", k), k);
    EXPECT_EQ(common::shard_of("anyone", k), common::shard_of("anyone", k));
  }
}

TEST(ShardedServing, KShardsMatchSingleSystemReference) {
  unsetenv("SEMCACHE_THREADS");
  unsetenv("SEMCACHE_SHARDS");

  // The reference deployment; also the source of every message (serving
  // never consumes the sequential RNG stream — channel and fine-tune
  // draws are position-independent forks — so sampling only here keeps
  // every variant's inputs identical without lockstep sampling).
  auto reference = SemanticEdgeSystem::build(sharded_config(2027, 0));
  const std::vector<std::pair<std::string, std::size_t>> users = {
      {"a", 0}, {"b", 1}, {"c", 0}, {"d", 1}};
  for (const auto& [name, edge] : users) {
    reference->register_user(name, edge, nullptr);
  }
  std::vector<std::vector<std::vector<text::Sentence>>> sentences(
      kWaves.size());
  for (std::size_t w = 0; w < kWaves.size(); ++w) {
    sentences[w].resize(kWaves[w].size());
    for (std::size_t p = 0; p < kWaves[w].size(); ++p) {
      for (const std::size_t d : kWaves[w][p].domains) {
        sentences[w][p].push_back(
            reference->sample_message(kWaves[w][p].sender, d));
      }
    }
  }
  ParallelDispatcher ref_dispatcher(*reference);
  const auto ref_served =
      drive(ref_dispatcher, sentences, &reference->simulator());

  const std::vector<std::pair<std::size_t, std::size_t>> variants = {
      {1, 0}, {2, 0}, {2, 2}, {3, 2}};  // (shards, threads per shard)
  for (const auto& [num_shards, threads] : variants) {
    SCOPED_TRACE("K=" + std::to_string(num_shards) +
                 " threads=" + std::to_string(threads));
    auto sharded =
        ShardedEdgeServing::build(sharded_config(2027, threads), num_shards);
    ASSERT_EQ(sharded->num_shards(), num_shards);
    for (const auto& [name, edge] : users) {
      sharded->register_user(name, edge, nullptr);
    }
    ParallelDispatcher dispatcher(*sharded);
    const auto served = drive(dispatcher, sentences, nullptr);

    // Every message delivered exactly once, byte-identical to the
    // reference. Latency is part of the contract only at K = 1.
    ASSERT_EQ(served.size(), ref_served.size());
    for (std::size_t w = 0; w < served.size(); ++w) {
      ASSERT_EQ(served[w].size(), ref_served[w].size());
      for (std::size_t p = 0; p < served[w].size(); ++p) {
        ASSERT_EQ(served[w][p].size(), ref_served[w][p].size());
        for (std::size_t i = 0; i < served[w][p].size(); ++i) {
          EXPECT_EQ(served[w][p][i].completions, 1);
          const TransmitReport& ref = ref_served[w][p][i].report;
          const TransmitReport& got = served[w][p][i].report;
          EXPECT_EQ(num_shards == 1 ? ref : test::without_latency(ref),
                    num_shards == 1 ? got : test::without_latency(got))
              << "wave " << w << " pair " << p << " message " << i;
        }
      }
    }

    // The merged stats ARE the single-system view (latency never enters
    // SystemStats, so this holds for every K), outage counters aside.
    EXPECT_EQ(test::without_outages(reference->stats()),
              test::without_outages(sharded->stats()));
    EXPECT_EQ(sharded->messages_dispatched(), reference->stats().messages);

    // Serving state lives only on the owning shard and matches the
    // reference slot-for-slot: buffer bookkeeping, versions, weights.
    for (const std::string sender : {"a", "c", "d"}) {
      SemanticEdgeSystem& owner = sharded->owning_shard(sender);
      for (std::size_t domain = 0; domain < 2; ++domain) {
        for (std::size_t edge = 0; edge < 2; ++edge) {
          UserModelSlot* ref_slot =
              reference->edge_state(edge).find_slot(sender, domain);
          UserModelSlot* got_slot =
              owner.edge_state(edge).find_slot(sender, domain);
          ASSERT_EQ(ref_slot == nullptr, got_slot == nullptr);
          if (ref_slot == nullptr) continue;
          SCOPED_TRACE("slot " + sender + "/" + std::to_string(domain) +
                       " edge " + std::to_string(edge));
          EXPECT_EQ(ref_slot->send_version, got_slot->send_version);
          EXPECT_EQ(ref_slot->owns_model, got_slot->owns_model);
          if (ref_slot->buffer != nullptr) {
            ASSERT_NE(got_slot->buffer, nullptr);
            EXPECT_EQ(ref_slot->buffer->total_added(),
                      got_slot->buffer->total_added());
            EXPECT_EQ(ref_slot->buffer->adds_until_ready(),
                      got_slot->buffer->adds_until_ready());
            EXPECT_EQ(ref_slot->buffer->mean_mismatch(),
                      got_slot->buffer->mean_mismatch());
          }
          nn::ParameterSet ref_params = ref_slot->model->parameters();
          nn::ParameterSet got_params = got_slot->model->parameters();
          EXPECT_TRUE(ref_params.values_equal(got_params));
        }
      }
      // Non-owning shards hold the user's directory entry but never any
      // serving state (the ownership rule's other half).
      for (std::size_t s = 0; s < sharded->num_shards(); ++s) {
        if (s == sharded->shard_of(sender)) continue;
        for (std::size_t domain = 0; domain < 2; ++domain) {
          for (std::size_t edge = 0; edge < 2; ++edge) {
            EXPECT_EQ(
                sharded->shard(s).edge_state(edge).find_slot(sender, domain),
                nullptr);
          }
        }
      }
    }

    // Mutable serving state is conserved across the deployment: same slot
    // count, same materialized models, same fine-tuned bytes as the
    // reference — sharding relocates state, it does not duplicate it.
    const MemoryFootprint ref_fp = reference->memory_footprint();
    const MemoryFootprint fp = sharded->memory_footprint();
    EXPECT_EQ(fp.slots, ref_fp.slots);
    EXPECT_EQ(fp.materialized_models, ref_fp.materialized_models);
    EXPECT_EQ(fp.user_model_bytes, ref_fp.user_model_bytes);
    EXPECT_EQ(fp.buffer_bytes, ref_fp.buffer_bytes);
    // Directory (profiles) and fixed costs replicate per shard.
    EXPECT_EQ(fp.users, ref_fp.users * num_shards);
    EXPECT_EQ(fp.general_model_bytes, ref_fp.general_model_bytes * num_shards);
    // One shard at the reference's worker count IS the reference.
    if (num_shards == 1 && threads == 0) {
      EXPECT_EQ(fp, ref_fp);
    }
  }
}

TEST(ShardedServing, MemoryAuditPerUserCostIsBytesPlusDeltas) {
  unsetenv("SEMCACHE_THREADS");
  SystemConfig config = sharded_config(7, 0);
  config.buffer_trigger = 1000;  // never train: the frozen-general baseline
  config.buffer_capacity = 8;
  config.devices_per_edge = 16;
  auto system = SemanticEdgeSystem::build(config);

  const MemoryFootprint before = system->memory_footprint();
  EXPECT_EQ(before.users, 0u);
  EXPECT_EQ(before.user_model_bytes, 0u);

  const std::size_t num_users = 16;
  for (std::size_t u = 0; u < num_users; ++u) {
    system->register_user("u" + std::to_string(u), u % 2, nullptr);
  }
  // Every user sends: slots get established on sender and receiver edges,
  // transactions buffer, but nobody fine-tunes (trigger unreachable).
  std::size_t messages = 0;
  for (std::size_t u = 0; u < num_users; ++u) {
    const std::string sender = "u" + std::to_string(u);
    const std::string receiver = "u" + std::to_string((u + 1) % num_users);
    for (int i = 0; i < 3; ++i) {
      text::Sentence msg = system->sample_message(sender, 0);
      msg.domain = 0;
      system->transmit(sender, receiver, msg);
      ++messages;
    }
  }
  const MemoryFootprint active = system->memory_footprint();
  EXPECT_EQ(active.users, num_users);
  EXPECT_GT(active.slots, 0u);
  EXPECT_GT(active.buffer_bytes, 0u);
  // THE audit: active users cost profiles + slots + buffered deltas —
  // zero model clones.
  EXPECT_EQ(active.materialized_models, 0u);
  EXPECT_EQ(active.user_model_bytes, 0u);
  // Fixed costs did not move with population.
  EXPECT_EQ(active.general_model_bytes, before.general_model_bytes);
  // And the per-user variable cost is a small fraction of one model.
  const std::size_t per_user =
      (active.profile_bytes + active.slot_bytes + active.buffer_bytes) /
      num_users;
  EXPECT_LT(per_user, system->general_model(0).byte_size() / 4);

  // Copy-on-write fires exactly at the first weight write: a cross-edge
  // fine-tune materializes the sender-side model, and the shipped sync
  // materializes the receiver-side replica — 2 models, not 2 per user.
  SystemConfig train_cfg = sharded_config(7, 0);
  train_cfg.buffer_trigger = 3;
  train_cfg.oracle_selection = true;  // all 3 adds hit the (s, 0) buffer
  auto trained = SemanticEdgeSystem::build(train_cfg);
  trained->register_user("s", 0, nullptr);
  trained->register_user("r", 1, nullptr);
  for (int i = 0; i < 3; ++i) {
    text::Sentence msg = trained->sample_message("s", 0);
    msg.domain = 0;
    trained->transmit("s", "r", msg);
  }
  const MemoryFootprint tuned = trained->memory_footprint();
  EXPECT_EQ(tuned.materialized_models, 2u);
  EXPECT_EQ(tuned.user_model_bytes,
            2 * trained->general_model(0).byte_size());
  EXPECT_TRUE(trained->replicas_in_sync("s", 0, 0, 1));
}

TEST(ShardedServing, MemoryAuditChargesServingTables) {
  // The serving tables are deployment-fixed: charged from build() on, in
  // total(), unmoved by users and their traffic, and held once per shard.
  unsetenv("SEMCACHE_THREADS");
  unsetenv("SEMCACHE_SHARDS");
  SystemConfig config = sharded_config(7, 0);
  config.buffer_trigger = 1000;  // never train
  auto system = SemanticEdgeSystem::build(config);
  const MemoryFootprint before = system->memory_footprint();
  EXPECT_GT(before.serving_table_bytes, 0u);
  EXPECT_EQ(before.total(), before.general_model_bytes +
                                before.serving_table_bytes +
                                before.topology_bytes);
  // Nor do the fixed costs grow with the worker count: lanes on a pool
  // share the tables and the generals behind them.
  SystemConfig pooled = config;
  pooled.num_threads = 4;
  EXPECT_EQ(SemanticEdgeSystem::build(pooled)->memory_footprint(), before);

  const std::size_t num_users = 4;
  for (std::size_t u = 0; u < num_users; ++u) {
    system->register_user("u" + std::to_string(u), u % 2, nullptr);
  }
  for (std::size_t u = 0; u < num_users; ++u) {
    const std::string sender = "u" + std::to_string(u);
    system->transmit(sender, "u" + std::to_string((u + 1) % num_users),
                     system->sample_message(sender, u % 2));
  }
  EXPECT_EQ(system->memory_footprint().serving_table_bytes,
            before.serving_table_bytes);

  auto sharded = ShardedEdgeServing::build(config, 3);
  EXPECT_EQ(sharded->memory_footprint().serving_table_bytes,
            3 * before.serving_table_bytes);
}

TEST(ShardedServing, EnvShardCountAndValidation) {
  unsetenv("SEMCACHE_THREADS");
  setenv("SEMCACHE_SHARDS", "2", 1);
  auto sharded = ShardedEdgeServing::build(sharded_config(11, 0));
  unsetenv("SEMCACHE_SHARDS");
  EXPECT_EQ(sharded->num_shards(), 2u);
  sharded->register_user("a", 0, nullptr);
  // Every shard knows the user (replicated directory)...
  for (std::size_t s = 0; s < 2; ++s) {
    EXPECT_EQ(sharded->shard(s).user("a").name, "a");
  }
  // ...and the front door rejects unknown pairs at enqueue, keeping the
  // queue servable (the single-system dispatcher contract, inherited).
  ParallelDispatcher dispatcher(*sharded);
  dispatcher.enqueue("a", "a", {sharded->sample_message("a", 0)});
  EXPECT_THROW(
      dispatcher.enqueue("ghost", "a", {sharded->sample_message("a", 0)}),
      semcache::Error);
  EXPECT_EQ(dispatcher.queued_pairs(), 1u);
  std::size_t delivered = 0;
  EXPECT_EQ(dispatcher.flush([&delivered](std::size_t, std::size_t,
                                          TransmitReport) { ++delivered; }),
            1u);
  EXPECT_EQ(delivered, 1u);
  EXPECT_EQ(sharded->stats().messages, 1u);
  // An explicit count above the environment's cap is refused before any
  // shard is built.
  EXPECT_THROW(ShardedEdgeServing::build(sharded_config(11, 0),
                                         kMaxEnvShards + 1),
               semcache::Error);
}

TEST(ShardedServing, ThrowingCompletionLeavesTheQueueEmpty) {
  // A completion that throws during a sharded flush propagates out of
  // flush, but the dispatcher took its queue before serving: nothing
  // stays queued, and the next enqueue + flush serves normally.
  unsetenv("SEMCACHE_THREADS");
  unsetenv("SEMCACHE_SHARDS");
  auto sharded = ShardedEdgeServing::build(sharded_config(12, 0), 2);
  sharded->register_user("a", 0, nullptr);
  sharded->register_user("b", 1, nullptr);
  ParallelDispatcher dispatcher(*sharded);
  dispatcher.enqueue("a", "b", {sharded->sample_message("a", 0)});
  EXPECT_THROW(dispatcher.flush([](std::size_t, std::size_t, TransmitReport) {
                 throw std::runtime_error("completion failed");
               }),
               std::runtime_error);
  EXPECT_EQ(dispatcher.queued_pairs(), 0u);

  dispatcher.enqueue("a", "b", {sharded->sample_message("a", 0),
                                sharded->sample_message("a", 1)});
  std::vector<std::size_t> delivered;
  EXPECT_EQ(dispatcher.flush([&delivered](std::size_t pair, std::size_t index,
                                          TransmitReport report) {
              EXPECT_EQ(pair, 0u);
              EXPECT_FALSE(report.degraded);
              delivered.push_back(index);
            }),
            1u);
  EXPECT_EQ(delivered, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(sharded->stats().messages, 3u);
}

}  // namespace
}  // namespace semcache::core
