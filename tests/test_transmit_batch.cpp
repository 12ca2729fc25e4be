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
// (grouping), the intra-edge no-channel path, and chunks whose payloads
// arrive corrupted, all or some. A fine-tuned sender's mismatch, and an
// intra-edge receiver's decoded meanings, are also checked against an
// independent clone of the sender's model.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "channel/burst.hpp"
#include "core/system.hpp"
#include "tensor/ops.hpp"
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

TEST(DecoderCopy, FineTunedSenderMismatchEqualsAnIndependentCopy) {
  // The sender's decoder copy (§II-C) measures each message's mismatch on
  // the clean quantized features, whatever the channel did to the payload.
  // Fine-tune one sender once across the edges, clone its model, then serve
  // fewer messages than the trigger: every mismatch must equal the clone's
  // cross-entropy on the clean payload. Two receivers take the second
  // batch on fresh systems. Across a hostile channel (uncoded, 0 dB), "b"
  // decodes corrupted payloads on its own replica. On the sender's edge,
  // "c"'s replica is the sender's own slot and the payloads arrive as
  // sent, so each decoded meaning must equal the clone's argmax.
  SystemConfig config = twin_config();
  config.oracle_selection = true;  // every message trains domain 0's slot
  config.buffer_trigger = 12;
  config.channel.code = "uncoded";
  config.channel.snr_db = 0.0;
  for (const std::string receiver : {"b", "c"}) {
    SCOPED_TRACE("receiver " + receiver);
    auto system = SemanticEdgeSystem::build(config);
    system->register_user("a", 0, nullptr);
    system->register_user("b", 1, nullptr);
    system->register_user("c", 0, nullptr);
    const auto serve = [&](const std::string& to,
                           const std::vector<text::Sentence>& messages) {
      std::vector<TransmitReport> reports(messages.size());
      system->transmit_pairs(
          {{"a", to, messages}},
          [&reports](std::size_t, std::size_t i, TransmitReport r) {
            reports[i] = std::move(r);
          });
      system->simulator().run();
      return reports;
    };
    const auto sample = [&](std::size_t n) {
      std::vector<text::Sentence> messages;
      for (std::size_t i = 0; i < n; ++i) {
        messages.push_back(system->sample_message("a", 0));
      }
      return messages;
    };

    serve("b", sample(config.buffer_trigger));
    ASSERT_EQ(system->stats().updates, 1u);
    const UserModelSlot* slot = system->edge_state(0).find_slot("a", 0);
    ASSERT_NE(slot, nullptr);
    ASSERT_TRUE(slot->owns_model);
    const auto ref = slot->model->clone();

    const std::vector<text::Sentence> messages =
        sample(config.buffer_trigger - 1);
    const std::vector<TransmitReport> reports = serve(receiver, messages);
    ASSERT_EQ(system->stats().updates, 1u);
    const semantic::FeatureQuantizer& q = system->quantizer();
    const std::size_t vocab = system->config().codec.meaning_vocab;
    bool saw_inexact = false;
    for (std::size_t i = 0; i < messages.size(); ++i) {
      const tensor::Tensor& logits = ref->decoder().decode_logits_batch(
          q.dequantize_batch(q.quantize_batch(
              ref->encoder().encode_batch(messages[i].surface, 1))));
      EXPECT_EQ(reports[i].mismatch,
                tensor::mean_cross_entropy(logits.flat(), vocab,
                                           messages[i].meanings))
          << "message " << i;
      if (receiver == "c") {
        EXPECT_EQ(reports[i].decoded_meanings, tensor::row_argmax(logits))
            << "message " << i;
      }
      saw_inexact = saw_inexact || !reports[i].exact;
    }
    if (receiver == "b") {
      EXPECT_TRUE(saw_inexact);  // the channel corrupted what the copy ignores
    }
  }
}

TEST(DecoderCopyNoisy, CorruptedPayloadsBatchedMatchesSequential) {
  // Uncoded at 0 dB flips ~8% of payload bits, so essentially every
  // message arrives corrupted (P(all clean) < e^-50 for this run). The
  // batched path must still equal the sequential one bit-exactly, with
  // fine-tune updates firing on garbage-mismatch buffers along the way.
  SystemConfig noisy = twin_config();
  noisy.channel.code = "uncoded";
  noisy.channel.snr_db = 0.0;
  auto seq = SemanticEdgeSystem::build(noisy);
  auto bat = SemanticEdgeSystem::build(noisy);
  for (auto* system : {seq.get(), bat.get()}) {
    system->register_user("a", 0, nullptr);
    system->register_user("b", 1, nullptr);
  }

  const std::size_t n = 7;  // crosses the trigger: updates fire mid-batch
  std::vector<text::Sentence> msgs_seq, msgs_bat;
  for (std::size_t i = 0; i < n; ++i) {
    msgs_seq.push_back(seq->sample_message("a", 0));
    msgs_bat.push_back(bat->sample_message("a", 0));
    ASSERT_EQ(msgs_seq.back().surface, msgs_bat.back().surface);
  }
  std::vector<TransmitReport> r_seq(n), r_bat(n);
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

  bool saw_decode_error = false;
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(r_seq[i], r_bat[i]) << "batch msg " << i;
    saw_decode_error = saw_decode_error || !r_bat[i].exact;
  }
  EXPECT_EQ(seq->stats(), bat->stats());
  // The channel really was hostile (decode errors observed) and the
  // adaptation loop still ran on the corrupted-mismatch buffers.
  EXPECT_TRUE(saw_decode_error);
  EXPECT_GT(bat->stats().updates, 0u);
}

TEST(DecoderCopyMixed, ChunkWithCleanAndCorruptedRowsMatchesSequential) {
  // One chunk whose payloads arrive partly intact, partly corrupted. With
  // a one-message dwell, no in-message transitions and the states 50 dB
  // apart, each message's weather coin alone decides its fate: a good
  // epoch (40 dB, uncoded) crosses intact, a bad one (-10 dB) arrives
  // corrupted. Reports and stats must equal N one-message waves.
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
  for (auto* system : {seq.get(), bat.get()}) {
    system->register_user("a", 0, nullptr);
    system->register_user("b", 1, nullptr);
  }
  const std::size_t n = 20;
  std::vector<text::Sentence> msgs_seq, msgs_bat;
  for (std::size_t i = 0; i < n; ++i) {
    msgs_seq.push_back(seq->sample_message("a", 0));
    msgs_bat.push_back(bat->sample_message("a", 0));
    ASSERT_EQ(msgs_seq.back().surface, msgs_bat.back().surface);
  }
  std::vector<TransmitReport> r_seq(n), r_bat(n);
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

  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(r_seq[i], r_bat[i]) << "one-message waves msg " << i;
  }
  EXPECT_EQ(seq->stats(), bat->stats());
  EXPECT_EQ(bat->stats().updates, 2u);  // at messages 8 and 17
}

TEST(IntraEdgeUpdate, AppliesTheDecoderDeltaOnce) {
  // Intra-edge, the sender's slot is also the receiver's replica (one slot
  // per (sender, domain) per edge), so an update must leave it exactly
  // where a cross-edge update leaves the sender's copy and the remote
  // replica. Twin systems built from one seed send the same messages from
  // a to b through one update: b shares a's edge on one, and sits on the
  // other edge on the other.
  SystemConfig config = twin_config();
  config.oracle_selection = true;  // every message trains domain 0's slot
  auto intra = SemanticEdgeSystem::build(config);
  auto cross = SemanticEdgeSystem::build(config);
  intra->register_user("a", 0, nullptr);
  intra->register_user("b", 0, nullptr);
  cross->register_user("a", 0, nullptr);
  cross->register_user("b", 1, nullptr);
  std::vector<text::Sentence> messages;
  for (std::size_t i = 0; i < config.buffer_trigger; ++i) {
    messages.push_back(intra->sample_message("a", 0));
    ASSERT_EQ(cross->sample_message("a", 0).surface, messages.back().surface);
  }
  const auto noop = [](std::size_t, std::size_t, TransmitReport) {};
  for (auto* system : {intra.get(), cross.get()}) {
    system->transmit_pairs({{"a", "b", messages}}, noop);
    system->simulator().run();
    ASSERT_EQ(system->stats().updates, 1u);
  }
  nn::ParameterSet slot =
      intra->edge_state(0).find_slot("a", 0)->model->decoder().parameters();
  nn::ParameterSet copy =
      cross->edge_state(0).find_slot("a", 0)->model->decoder().parameters();
  nn::ParameterSet replica =
      cross->edge_state(1).find_slot("a", 0)->model->decoder().parameters();
  EXPECT_TRUE(copy.values_equal(replica));
  EXPECT_TRUE(slot.values_equal(copy));
  EXPECT_TRUE(slot.values_equal(replica));
  EXPECT_EQ(intra->stats().full_resyncs, 0u);
}

TEST(IntraEdgeUpdate, AfterACrossEdgeUpdateBooksNoResync) {
  // A sender whose first update went cross-edge and whose second stays on
  // its edge: the slot's own replica never missed a version, so nothing
  // may be booked as a gap resync.
  SystemConfig config = twin_config();
  config.oracle_selection = true;
  auto system = SemanticEdgeSystem::build(config);
  system->register_user("a", 0, nullptr);
  system->register_user("b", 1, nullptr);
  system->register_user("c", 0, nullptr);
  const auto noop = [](std::size_t, std::size_t, TransmitReport) {};
  for (const char* receiver : {"b", "c"}) {
    std::vector<text::Sentence> messages;
    for (std::size_t i = 0; i < config.buffer_trigger; ++i) {
      messages.push_back(system->sample_message("a", 0));
    }
    system->transmit_pairs({{"a", receiver, messages}}, noop);
    system->simulator().run();
  }
  EXPECT_EQ(system->stats().updates, 2u);
  EXPECT_EQ(system->stats().full_resyncs, 0u);
  EXPECT_EQ(system->stats().resync_bytes, 0u);
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
