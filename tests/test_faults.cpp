// The deterministic fault plane, pinned end to end.
//
// Three contracts:
//
//  1. IDENTITY-KEYED COINS — every fault decision is a pure function of
//     (seed, identity of the thing failing): sync coins key on (user,
//     domain, version, attempt), stalls on (shard, wave), flap phases on
//     link id. No coin ever consumes a globally ordered RNG stream, so
//     fault draws cannot depend on thread interleaving or shard layout.
//
//  2. WAVES SURVIVE FAULTS — the determinism payoff. Under an active
//     fault storm (flapping links + sync loss + corruption + duplication)
//     transmit_pairs waves and sharded flushes stay cross-pair parallel
//     and produce byte-identical reports, stats, and weights for any
//     thread count and any shard count. There is no sequential fallback
//     left to fall back to.
//
//  3. GRACEFUL DEGRADATION — a stalled shard's pairs are served from the
//     frozen general-model replicas, flagged `degraded`, counted in
//     SystemStats::degraded_serves — never a hang, never a throw.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "core/dispatcher.hpp"
#include "core/sharded.hpp"
#include "core/system.hpp"
#include "faults/fault_plane.hpp"
#include "test_util.hpp"

namespace semcache::core {
namespace {

// ---------------------- FaultPlane unit contracts ----------------------

FaultConfig storm_faults() {
  FaultConfig f;
  f.seed = 0xFA17;
  f.sync_loss = 0.35;
  f.sync_corrupt = 0.30;
  f.sync_duplicate = 0.25;
  f.retry_timeout_s = 0.01;
  f.retry_backoff = 2.0;
  f.max_attempts = 3;
  f.link_flap_period_s = 0.05;
  f.link_flap_down_s = 0.01;
  return f;
}

TEST(FaultPlane, CoinsArePureFunctionsOfIdentity) {
  const FaultPlane a(storm_faults());
  const FaultPlane b(storm_faults());  // distinct instance, same config
  for (std::uint64_t version = 1; version <= 32; ++version) {
    for (std::uint64_t attempt = 1; attempt <= 4; ++attempt) {
      EXPECT_EQ(a.drop_sync("alice", 1, version, attempt),
                b.drop_sync("alice", 1, version, attempt));
      EXPECT_EQ(a.corrupt_sync("alice", 1, version, attempt),
                b.corrupt_sync("alice", 1, version, attempt));
      EXPECT_EQ(a.duplicate_sync("alice", 1, version, attempt),
                b.duplicate_sync("alice", 1, version, attempt));
    }
  }
  for (std::size_t shard = 0; shard < 4; ++shard) {
    for (std::size_t wave = 0; wave < 16; ++wave) {
      EXPECT_EQ(a.stall_shard(shard, wave), b.stall_shard(shard, wave));
    }
  }
  for (edge::LinkId link = 0; link < 8; ++link) {
    EXPECT_EQ(a.flap_phase_s(link), b.flap_phase_s(link));
    EXPECT_GE(a.flap_phase_s(link), 0.0);
    EXPECT_LT(a.flap_phase_s(link), storm_faults().link_flap_period_s);
  }
  // A different seed draws a different coin sequence somewhere.
  FaultConfig reseeded = storm_faults();
  reseeded.seed = 0xBEEF;
  const FaultPlane c(reseeded);
  bool diverged = false;
  for (std::uint64_t version = 1; version <= 64 && !diverged; ++version) {
    diverged = a.drop_sync("alice", 1, version, 1) !=
               c.drop_sync("alice", 1, version, 1);
  }
  EXPECT_TRUE(diverged);
}

TEST(FaultPlane, ProbabilityEndpointsAreExact) {
  FaultConfig always = storm_faults();
  always.sync_loss = 1.0;
  always.sync_corrupt = 1.0;
  always.sync_duplicate = 1.0;
  always.shard_stall = 1.0;
  FaultConfig never = storm_faults();
  never.sync_loss = 0.0;
  never.sync_corrupt = 0.0;
  never.sync_duplicate = 0.0;
  never.shard_stall = 0.0;
  const FaultPlane hot(always);
  const FaultPlane cold(never);
  for (std::uint64_t v = 1; v <= 100; ++v) {
    EXPECT_TRUE(hot.drop_sync("u", 0, v, 1));
    EXPECT_TRUE(hot.corrupt_sync("u", 0, v, 1));
    EXPECT_TRUE(hot.duplicate_sync("u", 0, v, 1));
    EXPECT_TRUE(hot.stall_shard(v % 7, v));
    EXPECT_FALSE(cold.drop_sync("u", 0, v, 1));
    EXPECT_FALSE(cold.corrupt_sync("u", 0, v, 1));
    EXPECT_FALSE(cold.duplicate_sync("u", 0, v, 1));
    EXPECT_FALSE(cold.stall_shard(v % 7, v));
  }
}

TEST(FaultPlane, CorruptBytesIsDeterministicAndNonTrivial) {
  const FaultPlane plane(storm_faults());
  std::vector<std::uint8_t> original(64);
  for (std::size_t i = 0; i < original.size(); ++i) {
    original[i] = static_cast<std::uint8_t>(i);
  }
  auto once = original;
  auto twice = original;
  plane.corrupt_bytes(once, "alice", 2, 9, 1);
  plane.corrupt_bytes(twice, "alice", 2, 9, 1);
  EXPECT_EQ(once, twice);      // same identity -> same mangling
  EXPECT_NE(once, original);   // and it really mangles
  auto other = original;
  plane.corrupt_bytes(other, "alice", 2, 9, 2);  // next attempt differs
  EXPECT_NE(other, once);
  std::vector<std::uint8_t> empty;
  plane.corrupt_bytes(empty, "alice", 2, 9, 1);  // no-op, no crash
  EXPECT_TRUE(empty.empty());
}

TEST(FaultPlane, RetryDelayBacksOffExponentially) {
  const FaultPlane plane(storm_faults());
  EXPECT_DOUBLE_EQ(plane.retry_delay_s(1), 0.01);
  EXPECT_DOUBLE_EQ(plane.retry_delay_s(2), 0.02);
  EXPECT_DOUBLE_EQ(plane.retry_delay_s(3), 0.04);
  EXPECT_DOUBLE_EQ(plane.retry_delay_s(4), 0.08);
}

TEST(FaultPlane, ConfigValidated) {
  FaultConfig bad = storm_faults();
  bad.sync_loss = 1.5;
  EXPECT_THROW(FaultPlane{bad}, Error);
  bad = storm_faults();
  bad.sync_corrupt = -0.1;
  EXPECT_THROW(FaultPlane{bad}, Error);
  bad = storm_faults();
  bad.retry_timeout_s = 0.0;
  EXPECT_THROW(FaultPlane{bad}, Error);
  bad = storm_faults();
  bad.retry_backoff = 0.5;
  EXPECT_THROW(FaultPlane{bad}, Error);
  bad = storm_faults();
  bad.max_attempts = 0;
  EXPECT_THROW(FaultPlane{bad}, Error);
  bad = storm_faults();
  bad.link_flap_down_s = bad.link_flap_period_s + 1.0;
  EXPECT_THROW(FaultPlane{bad}, Error);
}

TEST(BuildValidation, RefusesBadKnobs) {
  // One broken knob per row. build() must refuse each one rather than
  // return a system that throws later: a zero trigger, fine-tune batch or
  // fine-tune lr used to surface only inside a wave, after it had touched
  // the caches and claimed its messages, and a +inf learning rate trained
  // the weights to infinity. It must also refuse before pretraining, which
  // is the slow part of a build: a pretrained codec would land in the
  // fixture cache, so the cache directory must stay empty.
  const char* saved = std::getenv("SEMCACHE_FIXTURE_DIR");
  const std::string saved_dir = saved != nullptr ? saved : "";
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("semcache-build-validation-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ::setenv("SEMCACHE_FIXTURE_DIR", dir.c_str(), 1);
  using Breaker = void (*)(SystemConfig&);
  const std::pair<const char*, Breaker> rows[] = {
      {"buffer_trigger 0", [](SystemConfig& c) { c.buffer_trigger = 0; }},
      {"finetune_batch_size 0",
       [](SystemConfig& c) { c.finetune_batch_size = 0; }},
      {"interleave_depth 0",
       [](SystemConfig& c) { c.channel.interleave_depth = 0; }},
      {"unknown code", [](SystemConfig& c) { c.channel.code = "turbo"; }},
      {"unknown medium", [](SystemConfig& c) { c.channel.medium = "fog"; }},
      {"snr_db NaN",
       [](SystemConfig& c) {
         c.channel.snr_db = std::numeric_limits<double>::quiet_NaN();
       }},
      {"num_edges 0", [](SystemConfig& c) { c.num_edges = 0; }},
      {"sync_loss 2", [](SystemConfig& c) { c.faults.sync_loss = 2.0; }},
      {"unknown selector", [](SystemConfig& c) { c.selector = "oracle"; }},
      {"num_threads above the cap",
       [](SystemConfig& c) { c.num_threads = common::kMaxEnvThreads + 1; }},
      {"finetune_lr 0", [](SystemConfig& c) { c.finetune_lr = 0.0; }},
      {"finetune_lr NaN",
       [](SystemConfig& c) {
         c.finetune_lr = std::numeric_limits<double>::quiet_NaN();
       }},
      {"finetune_lr inf",
       [](SystemConfig& c) {
         c.finetune_lr = std::numeric_limits<double>::infinity();
       }},
      {"pretrain.lr inf",
       [](SystemConfig& c) {
         c.pretrain.lr = std::numeric_limits<double>::infinity();
       }},
  };
  for (const auto& [knob, breaks] : rows) {
    SystemConfig config = test::tiny_system_config(3);
    breaks(config);
    EXPECT_THROW(SemanticEdgeSystem::build(config), Error) << knob;
    EXPECT_TRUE(std::filesystem::is_empty(dir)) << knob;
  }
  if (saved != nullptr) {
    ::setenv("SEMCACHE_FIXTURE_DIR", saved_dir.c_str(), 1);
  } else {
    ::unsetenv("SEMCACHE_FIXTURE_DIR");
  }
  std::filesystem::remove_all(dir);
}

// ------------------- waves survive faults (the payoff) ------------------

SystemConfig faulted_config(std::uint64_t seed, std::size_t num_threads) {
  SystemConfig config = test::tiny_system_config(seed);
  config.pretrain.steps = 150;  // lightly trained: determinism, not accuracy
  config.buffer_trigger = 2;    // fine-tunes (and sync ships) fire mid-wave
  config.buffer_capacity = 32;
  config.finetune_epochs = 2;
  config.num_edges = 2;
  config.num_threads = num_threads;
  config.faults = storm_faults();
  // kQueue keeps delivery chains alive through outages, so every message
  // completes and the identity contract can cover the whole matrix.
  config.faults.outage_policy = edge::OutagePolicy::kQueue;
  return config;
}

struct PairSpec {
  std::string sender;
  std::string receiver;
  std::vector<std::size_t> domains;
};

// Multi-sender fan-out with shared-sender merges and mid-wave fine-tune
// pressure — the same shapes test_sharded pins fault-free. Every pair is
// CROSS-edge (a, c live on edge 0; b, d on edge 1) so every triggered
// update ships a sync over the flapping backbone and draws fault coins;
// intra-edge syncs apply in place and would dodge the storm. Senders
// {a, c, d} split 2 ways at K = 2 and 3 ways at K = 3.
const std::vector<std::vector<PairSpec>> kWaves = {
    {{"a", "b", {0, 1, 0}}, {"c", "d", {1, 0}}, {"d", "c", {0, 0, 1}}},
    {{"a", "b", {0, 0}}, {"a", "d", {0, 0, 1}}, {"c", "b", {1, 1, 1, 1}}},
    {{"d", "a", {1, 0, 1, 0}}, {"c", "d", {0}}, {"a", "b", {0, 1}}},
};

struct ServedMessage {
  TransmitReport report;
  int completions = 0;
};

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

/// THE acceptance matrix: under an active fault storm, every (threads, K)
/// variant reproduces the reference byte for byte — reports, stats, and
/// decoder weights — with waves fully parallel (no fallback exists).
TEST(FaultStorm, WavesStayByteIdenticalAcrossThreadsAndShards) {
  unsetenv("SEMCACHE_THREADS");
  unsetenv("SEMCACHE_SHARDS");

  // Nightly CI rotates the storm seed (SEMCACHE_FUZZ_SEED_BASE = UTC
  // date, echoed into the log); the default base 0 keeps the historical
  // seed 2077.
  const std::uint64_t storm_seed = 2077 + test::fuzz_seed_base();
  auto reference = SemanticEdgeSystem::build(faulted_config(storm_seed, 0));
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

  // The storm must actually have raged, and every injected fault must be
  // accounted for in stats — goodput loss is auditable, never silent.
  const SystemStats& ref_stats = reference->stats();
  ASSERT_GT(ref_stats.updates, 0u);
  EXPECT_GT(ref_stats.sync_drops, 0u);
  EXPECT_GT(ref_stats.sync_retries, 0u);
  EXPECT_GT(ref_stats.sync_corrupt_drops, 0u);
  EXPECT_GT(ref_stats.sync_ack_bytes, 0u);
  EXPECT_GT(ref_stats.outage_queued, 0u);  // the links really flapped

  // threads x shards: {0, 1, 2, 4} x {1, 2, 3} sampled so every thread
  // count and every shard count appears at least once.
  const std::vector<std::pair<std::size_t, std::size_t>> variants = {
      {1, 1}, {1, 4}, {2, 0}, {2, 2}, {3, 4}};  // (shards, threads)
  for (const auto& [num_shards, threads] : variants) {
    SCOPED_TRACE("K=" + std::to_string(num_shards) +
                 " threads=" + std::to_string(threads));
    auto sharded = ShardedEdgeServing::build(faulted_config(storm_seed, threads),
                                             num_shards);
    for (const auto& [name, edge] : users) {
      sharded->register_user(name, edge, nullptr);
    }
    ParallelDispatcher dispatcher(*sharded);
    const auto served = drive(dispatcher, sentences, nullptr);

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
    // Outage counters join the contract only at K = 1, where the
    // deployment IS the reference (see test::without_outages).
    EXPECT_EQ(num_shards == 1 ? ref_stats : test::without_outages(ref_stats),
              num_shards == 1 ? sharded->stats()
                              : test::without_outages(sharded->stats()));
    EXPECT_EQ(sharded->stats().degraded_serves, 0u);  // no stalls injected

    // Decoder weights converge to the same bytes on every variant: the
    // storm's surviving syncs (and gap resyncs) applied identically.
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
          EXPECT_EQ(ref_slot->recv_version.current(),
                    got_slot->recv_version.current());
          nn::ParameterSet ref_params = ref_slot->model->parameters();
          nn::ParameterSet got_params = got_slot->model->parameters();
          EXPECT_TRUE(ref_params.values_equal(got_params));
        }
      }
    }
  }
}

// ----------------------- recovery accounting ---------------------------

/// p = 1 loss: the full retry ladder runs and expires for every update;
/// healing the channel triggers exactly the documented gap resync.
TEST(FaultRecovery, FullLossLadderIsExactlyAccounted) {
  unsetenv("SEMCACHE_THREADS");
  SystemConfig config = test::tiny_system_config(31);
  config.pretrain.steps = 150;
  config.buffer_trigger = 2;
  config.finetune_epochs = 1;
  config.num_edges = 2;
  config.oracle_selection = true;
  config.faults.sync_loss = 1.0;
  config.faults.max_attempts = 3;
  auto system = SemanticEdgeSystem::build(config);
  system->register_user("u", 0, nullptr);
  system->register_user("v", 1, nullptr);

  for (int i = 0; i < 4; ++i) {
    text::Sentence msg = system->sample_message("u", 0);
    msg.domain = 0;
    system->transmit("u", "v", msg);
  }
  const std::size_t updates = system->stats().updates;
  ASSERT_GE(updates, 1u);
  EXPECT_EQ(system->stats().sync_drops, updates * 3);
  EXPECT_EQ(system->stats().sync_retries, updates * 2);
  EXPECT_EQ(system->stats().sync_expired, updates);
  EXPECT_EQ(system->stats().sync_ack_bytes, 0u);  // nothing ever arrived
  EXPECT_FALSE(system->replicas_in_sync("u", 0, 0, 1));

  system->set_sync_loss_probability(0.0);
  for (int i = 0; i < 2; ++i) {
    text::Sentence msg = system->sample_message("u", 0);
    msg.domain = 0;
    system->transmit("u", "v", msg);
  }
  EXPECT_GE(system->stats().full_resyncs, 1u);
  EXPECT_GT(system->stats().resync_bytes, 0u);
  // p = 0 re-enters the fault-free fast path, whose wire framing carries
  // no acks — the retry timer (what acks arm) only exists under faults.
  EXPECT_EQ(system->stats().sync_ack_bytes, 0u);
  EXPECT_TRUE(system->replicas_in_sync("u", 0, 0, 1));
}

// ------------------------ graceful degradation --------------------------

TEST(Degradation, StalledShardsServeDegradedNeverThrow) {
  unsetenv("SEMCACHE_THREADS");
  SystemConfig config = faulted_config(99, 0);
  config.faults = {};  // quiet links/syncs; isolate the stall machinery
  config.faults.shard_stall = 1.0;  // every shard stalls on every wave
  auto sharded = ShardedEdgeServing::build(config, 2);
  auto twin = ShardedEdgeServing::build(config, 2);
  for (auto* deployment : {sharded.get(), twin.get()}) {
    deployment->register_user("a", 0, nullptr);
    deployment->register_user("c", 1, nullptr);
    deployment->register_user("d", 0, nullptr);
  }

  std::vector<std::vector<text::Sentence>> batches(3);
  const std::vector<std::pair<std::string, std::string>> pairs = {
      {"a", "c"}, {"c", "d"}, {"d", "a"}};
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    for (int i = 0; i < 3; ++i) {
      batches[p].push_back(sharded->sample_message(pairs[p].first, i % 2));
    }
  }

  const auto run = [&](ShardedEdgeServing& deployment) {
    ParallelDispatcher dispatcher(deployment);
    for (std::size_t p = 0; p < pairs.size(); ++p) {
      dispatcher.enqueue(pairs[p].first, pairs[p].second, batches[p]);
    }
    std::vector<std::vector<TransmitReport>> reports(pairs.size());
    dispatcher.flush([&reports](std::size_t pair, std::size_t index,
                                TransmitReport report) {
      auto& list = reports[pair];
      if (list.size() <= index) list.resize(index + 1);
      list[index] = std::move(report);
    });
    return reports;
  };

  const auto reports = run(*sharded);
  std::size_t total = 0;
  for (std::size_t p = 0; p < reports.size(); ++p) {
    ASSERT_EQ(reports[p].size(), batches[p].size()) << "pair " << p;
    for (const TransmitReport& r : reports[p]) {
      EXPECT_TRUE(r.degraded);
      EXPECT_FALSE(r.triggered_update);  // frozen generals never train
      EXPECT_GT(r.latency_s, 0.0);       // the timing plane still ran
      ++total;
    }
  }
  EXPECT_EQ(sharded->stats().degraded_serves, total);
  EXPECT_EQ(sharded->stats().messages, total);
  EXPECT_EQ(sharded->stats().updates, 0u);
  // Degraded serving leaves NO serving state behind: no slots, no
  // buffers, no materialized models.
  EXPECT_EQ(sharded->memory_footprint().slots, 0u);
  EXPECT_EQ(sharded->memory_footprint().user_model_bytes, 0u);

  // And it is deterministic: an identical twin produces identical bytes.
  const auto twin_reports = run(*twin);
  ASSERT_EQ(twin_reports.size(), reports.size());
  for (std::size_t p = 0; p < reports.size(); ++p) {
    ASSERT_EQ(twin_reports[p].size(), reports[p].size());
    for (std::size_t i = 0; i < reports[p].size(); ++i) {
      EXPECT_EQ(reports[p][i], twin_reports[p][i])
          << "degraded pair " << p << " message " << i;
    }
  }
}

TEST(Degradation, DropPolicyOutagesLoseCompletionsButNeverHang) {
  unsetenv("SEMCACHE_THREADS");
  SystemConfig config = faulted_config(7, 0);
  config.faults = {};
  config.faults.link_flap_period_s = 1.0;
  config.faults.link_flap_down_s = 1.0;  // always down
  config.faults.outage_policy = edge::OutagePolicy::kDrop;
  auto system = SemanticEdgeSystem::build(config);
  system->register_user("a", 0, nullptr);
  system->register_user("b", 1, nullptr);

  ParallelDispatcher dispatcher(*system);
  dispatcher.enqueue("a", "b", {system->sample_message("a", 0),
                                system->sample_message("a", 1)});
  std::size_t completions = 0;
  dispatcher.flush(
      [&completions](std::size_t, std::size_t, TransmitReport) {
        ++completions;
      });
  system->simulator().run();
  // Every delivery chain died at its first (dropped) uplink hop: no
  // completions, no hang, and every refused send is accounted.
  EXPECT_EQ(completions, 0u);
  EXPECT_EQ(system->stats().messages, 2u);  // the data plane still served
  EXPECT_GT(system->stats().outage_drops, 0u);
  EXPECT_EQ(system->stats().outage_queued, 0u);
}

TEST(Degradation, DegradedReportsMatchHealthyServingWhileNothingTrains) {
  // With a trigger the batches never reach, healthy serving never
  // fine-tunes, so its models ARE the frozen generals and a degraded
  // serve of the same wave must report the same data plane — the
  // mismatch of channel-corrupted payloads included (the decoder copy's
  // loss on the clean features, not the receiver's on the corrupted
  // ones). 7 dB puts a few of the payloads through decode errors. The
  // wave has three senders, so on the 4-worker system its degraded lanes
  // fan out over the pool; that run must equal the 0-thread one byte for
  // byte.
  unsetenv("SEMCACHE_THREADS");
  SystemConfig config = test::tiny_system_config(77);
  config.pretrain.steps = 150;
  config.buffer_trigger = 64;
  config.channel.snr_db = 7.0;
  SystemConfig pooled_config = config;
  pooled_config.num_threads = 4;
  auto healthy = SemanticEdgeSystem::build(config);
  auto degraded = SemanticEdgeSystem::build(config);
  auto pooled = SemanticEdgeSystem::build(pooled_config);
  ASSERT_NE(pooled->thread_pool(), nullptr);

  // a -> b and b -> c cross the channel; c -> a stays on edge 0.
  const std::vector<std::pair<std::string, std::string>> pairs = {
      {"a", "b"}, {"b", "c"}, {"c", "a"}};
  std::vector<SemanticEdgeSystem::PairBatch> wave;
  for (auto* system : {healthy.get(), degraded.get(), pooled.get()}) {
    system->register_user("a", 0, nullptr);
    system->register_user("b", 1, nullptr);
    system->register_user("c", 0, nullptr);
    wave.clear();
    for (const auto& [sender, receiver] : pairs) {
      wave.push_back({sender, receiver, {}});
      for (int i = 0; i < 12; ++i) {
        wave.back().messages.push_back(system->sample_message(sender, i % 2));
      }
    }
  }

  using Reports = std::vector<std::vector<TransmitReport>>;
  const auto into = [&wave](Reports& out) -> SemanticEdgeSystem::PairDone {
    out.resize(wave.size());
    for (std::size_t p = 0; p < wave.size(); ++p) {
      out[p].resize(wave[p].messages.size());
    }
    return [&out](std::size_t pair, std::size_t i, TransmitReport report) {
      out[pair][i] = std::move(report);
    };
  };
  Reports want, got, got_pooled;
  healthy->transmit_pairs(wave, into(want));
  degraded->serve_degraded(wave, into(got));
  pooled->serve_degraded(wave, into(got_pooled));
  for (auto* system : {healthy.get(), degraded.get(), pooled.get()}) {
    system->simulator().run();
  }

  ASSERT_EQ(healthy->stats().updates, 0u);
  std::size_t total = 0;
  for (std::size_t p = 0; p < wave.size(); ++p) {
    for (std::size_t i = 0; i < wave[p].messages.size(); ++i) {
      SCOPED_TRACE("pair " + std::to_string(p) + " message " +
                   std::to_string(i));
      EXPECT_EQ(got[p][i], got_pooled[p][i]);
      // Degraded serving only flags its reports and establishes no slot;
      // every other field, latency and the exact mismatch double
      // included, is the healthy one.
      TransmitReport expected = want[p][i];
      expected.degraded = true;
      expected.established_user_model = false;
      EXPECT_EQ(expected, got[p][i]);
      ++total;
    }
  }
  EXPECT_EQ(degraded->stats(), pooled->stats());
  SystemStats expected_stats = healthy->stats();
  expected_stats.degraded_serves = total;
  EXPECT_EQ(expected_stats, degraded->stats());
}

}  // namespace
}  // namespace semcache::core
