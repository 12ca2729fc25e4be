// Batch-vs-sequential equivalence for the one-pair wave's data plane.
//
// Two systems are built from the same seed (bit-identical weights, worlds,
// and RNG streams) and driven in lockstep: the SEQUENTIAL system gets N
// one-message transmit_pairs waves, the BATCHED system one wave of the
// same N messages, then both run their simulators to idle. Every per-message
// TransmitReport field (including mismatch losses and event-driven
// latencies, compared as exact doubles) and the aggregate SystemStats must
// match — the batched path is a pure kernel-amortization of the sequential
// one, never a semantic change. Covers the N = 1 bit-identity case,
// updates firing mid-batch (chunk splitting), mixed-domain batches
// (grouping), the intra-edge no-channel path, and a chunk whose
// decoder-copy pass takes a strict subset of its rows.
#include <gtest/gtest.h>

#include <vector>

#include "channel/burst.hpp"
#include "core/system.hpp"
#include "test_util.hpp"

namespace semcache::core {
namespace {

SystemConfig twin_config() {
  SystemConfig config = test::tiny_system_config(977);
  // Equivalence needs determinism, not accuracy: a lightly trained codec
  // keeps this suite tier1-fast while exercising the identical kernels.
  config.pretrain.steps = 150;
  config.buffer_trigger = 4;  // updates fire mid-batch
  config.buffer_capacity = 32;
  config.finetune_epochs = 2;
  config.num_edges = 2;
  return config;
}

// The twin systems are shared across the suite; every test performs the
// SAME operation sequence on both (one sequentially, one batched), so the
// mirror invariant — identical state, identical RNG streams — holds from
// test to test.
class TransmitBatchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    seq_ = SemanticEdgeSystem::build(twin_config()).release();
    bat_ = SemanticEdgeSystem::build(twin_config()).release();
    for (auto* system : {seq_, bat_}) {
      system->register_user("a", 0, nullptr);
      system->register_user("b", 1, nullptr);
      system->register_user("c", 0, nullptr);  // same edge as "a"
    }
  }
  static void TearDownTestSuite() {
    delete seq_;
    delete bat_;
    seq_ = bat_ = nullptr;
  }

  /// Draw the same message stream from both systems (their rng_ streams
  /// advance in lockstep); domains[i] picks each message's true domain.
  static std::vector<std::vector<text::Sentence>> sample_twin_messages(
      const std::string& user, const std::vector<std::size_t>& domains) {
    std::vector<std::vector<text::Sentence>> twin(2);
    for (const std::size_t d : domains) {
      twin[0].push_back(seq_->sample_message(user, d));
      twin[1].push_back(bat_->sample_message(user, d));
      EXPECT_EQ(twin[0].back().surface, twin[1].back().surface);
      EXPECT_EQ(twin[0].back().meanings, twin[1].back().meanings);
    }
    return twin;
  }

  /// Run the same N messages sequentially on seq_ and as one batch on
  /// bat_, then compare reports (per arrival index) and stats.
  static void run_and_compare(const std::string& sender,
                              const std::string& receiver,
                              std::vector<std::vector<text::Sentence>> twin) {
    const std::size_t n = twin[0].size();
    std::vector<TransmitReport> seq_reports(n), bat_reports(n);
    std::vector<int> seq_seen(n, 0), bat_seen(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      seq_->transmit_pairs({{sender, receiver, {twin[0][i]}}},
                           [&seq_reports, &seq_seen, i](
                               std::size_t, std::size_t, TransmitReport r) {
                             seq_reports[i] = std::move(r);
                             ++seq_seen[i];
                           });
    }
    seq_->simulator().run();
    bat_->transmit_pairs({{sender, receiver, std::move(twin[1])}},
                         [&bat_reports, &bat_seen](
                             std::size_t, std::size_t i, TransmitReport r) {
                           bat_reports[i] = std::move(r);
                           ++bat_seen[i];
                         });
    bat_->simulator().run();

    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(seq_seen[i], 1) << "sequential completion " << i;
      EXPECT_EQ(bat_seen[i], 1) << "batch completion " << i;
      EXPECT_EQ(seq_reports[i], bat_reports[i]) << "message " << i;
    }
    EXPECT_EQ(seq_->stats(), bat_->stats());
  }

  static SemanticEdgeSystem* seq_;
  static SemanticEdgeSystem* bat_;
};

SemanticEdgeSystem* TransmitBatchTest::seq_ = nullptr;
SemanticEdgeSystem* TransmitBatchTest::bat_ = nullptr;

TEST_F(TransmitBatchTest, SingleMessageBitIdenticalToTransmitAsync) {
  // N = 1 across enough messages that one trips the fine-tune trigger:
  // the batched twin's one-message wave must be indistinguishable from
  // the sequential twin's — reports, stats, and (via the shared system
  // state carried into the later tests) the RNG discipline.
  bool saw_update = false;
  for (int k = 0; k < 5; ++k) {
    auto twin = sample_twin_messages("a", {0});
    TransmitReport seq_report, bat_report;
    seq_->transmit_pairs({{"a", "b", {twin[0][0]}}},
                         [&](std::size_t, std::size_t, TransmitReport r) {
                           seq_report = std::move(r);
                         });
    seq_->simulator().run();
    bat_->transmit_pairs({{"a", "b", {twin[1][0]}}},
                         [&](std::size_t, std::size_t i, TransmitReport r) {
                           EXPECT_EQ(i, 0u);
                           bat_report = std::move(r);
                         });
    bat_->simulator().run();
    EXPECT_EQ(seq_report, bat_report) << "single message " << k;
    saw_update = saw_update || bat_report.triggered_update;
    EXPECT_EQ(seq_->stats(), bat_->stats());
  }
  EXPECT_GT(seq_->stats().messages, 0u);
  EXPECT_EQ(saw_update, seq_->stats().updates > 0);
}

TEST_F(TransmitBatchTest, BatchMatchesSequentialCrossEdge) {
  // 9 same-domain messages with trigger 4: at least two updates fire
  // mid-batch, so the batched path must split its encode chunks exactly
  // where the sequential path fine-tunes.
  const auto before_updates = seq_->stats().updates;
  run_and_compare("a", "b",
                  sample_twin_messages("a", {0, 0, 0, 0, 0, 0, 0, 0, 0}));
  EXPECT_GT(seq_->stats().updates, before_updates);  // chunking exercised
  // After the simulators drain, both systems' decoder replicas agree.
  EXPECT_EQ(seq_->replicas_in_sync("a", 0, 0, 1),
            bat_->replicas_in_sync("a", 0, 0, 1));
  EXPECT_TRUE(bat_->replicas_in_sync("a", 0, 0, 1));
}

TEST_F(TransmitBatchTest, BatchMatchesSequentialMixedDomains) {
  // Interleaved domains: the batch groups messages per selected domain but
  // must keep every per-message outcome (channel fork, buffer position,
  // update trigger) tied to the original arrival order.
  run_and_compare("a", "b",
                  sample_twin_messages("a", {0, 1, 0, 1, 1, 0, 1, 0}));
  EXPECT_EQ(seq_->edge_state(0).slot_count(), bat_->edge_state(0).slot_count());
}

TEST_F(TransmitBatchTest, IntraEdgeBatchSkipsChannelAndMatches) {
  // Sender and receiver share edge 0: no channel (airtime must stay 0) and
  // updates apply to the receiver replica synchronously mid-batch.
  auto twin = sample_twin_messages("a", {0, 0, 0, 0, 0, 0});
  run_and_compare("a", "c", std::move(twin));
  // Spot-check the no-channel invariant on a fresh pair of reports.
  auto check = sample_twin_messages("a", {0});
  TransmitReport seq_report, bat_report;
  seq_->transmit_pairs({{"a", "c", {check[0][0]}}},
                       [&](std::size_t, std::size_t, TransmitReport r) {
                         seq_report = std::move(r);
                       });
  seq_->simulator().run();
  bat_->transmit_pairs({{"a", "c", {check[1][0]}}},
                       [&](std::size_t, std::size_t, TransmitReport r) {
                         bat_report = std::move(r);
                       });
  bat_->simulator().run();
  EXPECT_EQ(seq_report.airtime_bits, 0u);
  EXPECT_EQ(bat_report.airtime_bits, 0u);
  EXPECT_EQ(seq_report, bat_report) << "intra-edge single";
}

TEST(MismatchReuse, FastPathBitIdenticalToFullDecoderCopyPass) {
  // The §II-C fast path (receiver logits reused as decoder-copy logits
  // when the payload crossed intact and the replicas are at the same sync
  // version) must be a pure shortcut: a system with mismatch_reuse
  // disabled computes every mismatch through the full decoder-copy
  // forward, and all reports — mismatch doubles included — must agree
  // exactly, across fine-tune updates and on the intra-edge path.
  SystemConfig on_cfg = twin_config();
  SystemConfig off_cfg = twin_config();
  off_cfg.mismatch_reuse = false;
  auto with_reuse = SemanticEdgeSystem::build(on_cfg);
  auto without_reuse = SemanticEdgeSystem::build(off_cfg);
  for (auto* system : {with_reuse.get(), without_reuse.get()}) {
    system->register_user("a", 0, nullptr);
    system->register_user("b", 1, nullptr);
    system->register_user("c", 0, nullptr);
  }
  for (int k = 0; k < 10; ++k) {
    const std::string receiver = (k % 3 == 2) ? "c" : "b";  // mix in intra-edge
    const auto msg_on = with_reuse->sample_message("a", 0);
    const auto msg_off = without_reuse->sample_message("a", 0);
    ASSERT_EQ(msg_on.surface, msg_off.surface);
    const TransmitReport r_on = with_reuse->transmit("a", receiver, msg_on);
    const TransmitReport r_off =
        without_reuse->transmit("a", receiver, msg_off);
    EXPECT_EQ(r_off, r_on) << "message " << k;
  }
  EXPECT_GT(with_reuse->stats().updates, 0u);  // fine-tunes exercised
}

TEST(MismatchReuseNoisy, CorruptedPayloadFallbackBitIdenticalAcrossPaths) {
  // Force the channel-corrupted fallback: uncoded at 0 dB flips ~8% of
  // payload bits, so essentially every message arrives corrupted
  // (P(all clean) < e^-50 for this run) and the reuse path must send its
  // rows through the chunk's batched decoder-copy pass instead of reading
  // the receiver logits.
  // Three lockstep systems pin both contracts at once: the batched path
  // equals the sequential path, and the reuse fallback equals the full
  // decoder-copy pass, bit-exactly, with fine-tune updates firing on
  // garbage-mismatch buffers along the way.
  SystemConfig noisy = twin_config();
  noisy.channel.code = "uncoded";
  noisy.channel.snr_db = 0.0;
  SystemConfig noisy_off = noisy;
  noisy_off.mismatch_reuse = false;
  auto seq = SemanticEdgeSystem::build(noisy);
  auto bat = SemanticEdgeSystem::build(noisy);
  auto full = SemanticEdgeSystem::build(noisy_off);
  for (auto* system : {seq.get(), bat.get(), full.get()}) {
    system->register_user("a", 0, nullptr);
    system->register_user("b", 1, nullptr);
  }

  const std::size_t n = 7;  // crosses the trigger: updates fire mid-batch
  std::vector<text::Sentence> msgs_seq, msgs_bat, msgs_full;
  for (std::size_t i = 0; i < n; ++i) {
    msgs_seq.push_back(seq->sample_message("a", 0));
    msgs_bat.push_back(bat->sample_message("a", 0));
    msgs_full.push_back(full->sample_message("a", 0));
    ASSERT_EQ(msgs_seq.back().surface, msgs_bat.back().surface);
    ASSERT_EQ(msgs_seq.back().surface, msgs_full.back().surface);
  }
  std::vector<TransmitReport> r_seq(n), r_bat(n), r_full(n);
  for (std::size_t i = 0; i < n; ++i) {
    seq->transmit_pairs(
        {{"a", "b", {msgs_seq[i]}}},
        [&r_seq, i](std::size_t, std::size_t, TransmitReport r) {
          r_seq[i] = std::move(r);
        });
    full->transmit_pairs(
        {{"a", "b", {msgs_full[i]}}},
        [&r_full, i](std::size_t, std::size_t, TransmitReport r) {
          r_full[i] = std::move(r);
        });
  }
  seq->simulator().run();
  full->simulator().run();
  bat->transmit_pairs({{"a", "b", std::move(msgs_bat)}},
                      [&r_bat](std::size_t, std::size_t i, TransmitReport r) {
                        r_bat[i] = std::move(r);
                      });
  bat->simulator().run();

  bool saw_decode_error = false;
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(r_seq[i], r_bat[i]) << "batch msg " << i;
    EXPECT_EQ(r_full[i], r_bat[i]) << "reuse-off msg " << i;
    saw_decode_error = saw_decode_error || !r_bat[i].exact;
  }
  EXPECT_EQ(seq->stats(), bat->stats());
  // The channel really was hostile (decode errors observed) and the
  // adaptation loop still ran on the corrupted-mismatch buffers.
  EXPECT_TRUE(saw_decode_error);
  EXPECT_GT(bat->stats().updates, 0u);
}

TEST(MismatchReuseMixed, ChunkWithCleanAndCorruptedRowsMatchesEveryPath) {
  // One chunk whose copy pass takes a strict subset of its rows. With a
  // one-message dwell, no in-message transitions and the states 50 dB
  // apart, each message's weather coin alone decides its fate: a good
  // epoch (40 dB, uncoded) crosses intact and reads the receiver logits,
  // a bad one (-10 dB) arrives corrupted and joins the decoder-copy pass.
  // Reports and stats must equal a mismatch_reuse = false twin, which
  // sends every row through the pass, and N one-message waves.
  SystemConfig config = twin_config();
  config.seed = 5;
  config.buffer_trigger = 9;  // the first chunk is messages 0..8
  config.channel.medium = "gilbert_elliott";
  config.channel.code = "uncoded";
  config.channel.burst.dwell_messages = 1;
  config.channel.burst.bad_weather_prob = 0.5;
  config.channel.burst.snr_good_db = 40.0;
  config.channel.burst.snr_bad_db = -10.0;
  config.channel.burst.p_good_to_bad = 0.0;
  config.channel.burst.p_bad_to_good = 0.0;
  SystemConfig off_config = config;
  off_config.mismatch_reuse = false;

  // The system keys its burst weather on its own seed (burst.seed = 0).
  channel::GilbertElliottConfig weather = config.channel.burst;
  weather.seed = config.seed;
  const channel::GilbertElliottChannel channel(weather);
  std::size_t bad_in_first_chunk = 0;
  for (std::uint64_t slot = 0; slot < config.buffer_trigger; ++slot) {
    if (channel.starts_bad(slot)) ++bad_in_first_chunk;
  }
  ASSERT_GT(bad_in_first_chunk, 0u);
  ASSERT_LT(bad_in_first_chunk, config.buffer_trigger);

  auto seq = SemanticEdgeSystem::build(config);
  auto bat = SemanticEdgeSystem::build(config);
  auto full = SemanticEdgeSystem::build(off_config);
  for (auto* system : {seq.get(), bat.get(), full.get()}) {
    system->register_user("a", 0, nullptr);
    system->register_user("b", 1, nullptr);
  }
  const std::size_t n = 20;
  std::vector<text::Sentence> msgs_seq, msgs_bat, msgs_full;
  for (std::size_t i = 0; i < n; ++i) {
    msgs_seq.push_back(seq->sample_message("a", 0));
    msgs_bat.push_back(bat->sample_message("a", 0));
    msgs_full.push_back(full->sample_message("a", 0));
    ASSERT_EQ(msgs_seq.back().surface, msgs_bat.back().surface);
    ASSERT_EQ(msgs_seq.back().surface, msgs_full.back().surface);
  }
  std::vector<TransmitReport> r_seq(n), r_bat(n), r_full(n);
  for (std::size_t i = 0; i < n; ++i) {
    seq->transmit_pairs(
        {{"a", "b", {msgs_seq[i]}}},
        [&r_seq, i](std::size_t, std::size_t, TransmitReport r) {
          r_seq[i] = std::move(r);
        });
  }
  seq->simulator().run();
  bat->transmit_pairs({{"a", "b", std::move(msgs_bat)}},
                      [&r_bat](std::size_t, std::size_t i, TransmitReport r) {
                        r_bat[i] = std::move(r);
                      });
  bat->simulator().run();
  full->transmit_pairs({{"a", "b", std::move(msgs_full)}},
                       [&r_full](std::size_t, std::size_t i, TransmitReport r) {
                         r_full[i] = std::move(r);
                       });
  full->simulator().run();

  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(r_seq[i], r_bat[i]) << "one-message waves msg " << i;
    EXPECT_EQ(r_full[i], r_bat[i]) << "reuse-off msg " << i;
  }
  EXPECT_EQ(seq->stats(), bat->stats());
  EXPECT_EQ(full->stats(), bat->stats());
  EXPECT_EQ(bat->stats().updates, 2u);  // at messages 8 and 17
}

TEST_F(TransmitBatchTest, ValidationErrors) {
  // Failed validation must not mutate state — these run against both twins
  // symmetrically (i.e. not at all).
  auto noop = [](std::size_t, std::size_t, TransmitReport) {};
  EXPECT_THROW(bat_->transmit_pairs({{"a", "b", {}}}, noop), Error);
  text::Sentence bad;
  bad.domain = 0;
  bad.surface = {1, 2, 3};
  bad.meanings = {1, 2, 3};
  EXPECT_THROW(bat_->transmit_pairs({{"a", "b", {bad}}}, noop), Error);
  const auto msg = bat_->sample_message("a", 0);
  EXPECT_THROW(bat_->transmit_pairs({{"a", "b", {msg}}}, nullptr), Error);
  EXPECT_THROW(bat_->transmit_pairs({{"a", "nobody", {msg}}}, noop), Error);
  // A surface of the right length, but a short meanings vector, or an id or
  // a domain outside the world: refused up front, never counted, cached or
  // served.
  const std::size_t surface_vocab = bat_->config().codec.surface_vocab;
  const std::size_t meaning_vocab = bat_->config().codec.meaning_vocab;
  std::vector<text::Sentence> out_of_range(6, msg);
  out_of_range[0].surface[1] = static_cast<std::int32_t>(surface_vocab);
  out_of_range[1].surface[0] = -1;
  out_of_range[2].meanings.pop_back();
  out_of_range[3].meanings[2] = static_cast<std::int32_t>(meaning_vocab);
  out_of_range[4].meanings[0] = -1;
  out_of_range[5].domain = bat_->world().num_domains();
  for (const text::Sentence& bad_id : out_of_range) {
    EXPECT_THROW(bat_->transmit_pairs({{"a", "b", {bad_id}}}, noop), Error);
  }
  // Re-mirror the twins: bat_ consumed one sample_message draw above.
  (void)seq_->sample_message("a", 0);
  EXPECT_EQ(seq_->stats(), bat_->stats());
}

}  // namespace
}  // namespace semcache::core
