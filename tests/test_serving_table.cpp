// semantic::ServingTable against the network it tabulates, bit for bit.
//
// Aliased user slots serve through these tables (core/transmit.cpp), so
// every lookup must return exactly what the frozen codec computes: each
// surface id's position code, each code's argmax and softmax row, each
// sentence's mismatch, and each corrupted payload's decode, also when
// several threads decode through one table at once. The codecs
// carry random weights (the identity needs no training) in two shapes:
// serve's 16-bit codes, and 9-bit codes of three 3-bit dims that share
// codes between surface ids.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <latch>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/system.hpp"
#include "semantic/codec.hpp"
#include "semantic/quantizer.hpp"
#include "semantic/serving_table.hpp"
#include "tensor/ops.hpp"
#include "test_util.hpp"

namespace semcache::semantic {
namespace {

struct Shape {
  const char* name;
  CodecConfig codec;
  unsigned bits;
};

std::vector<Shape> shapes() {
  CodecConfig serve;
  serve.surface_vocab = 61;
  serve.meaning_vocab = 45;
  serve.sentence_length = 8;
  serve.feature_dim = 16;
  CodecConfig narrow;
  narrow.surface_vocab = 37;
  narrow.meaning_vocab = 23;
  narrow.sentence_length = 6;
  narrow.feature_dim = 18;
  narrow.embed_dim = 12;
  narrow.hidden_dim = 20;
  return {{"serve", serve, 8}, {"narrow", narrow, 3}};
}

/// A random sentence: `length` surface ids and as many meaning ids.
void random_sentence(const CodecConfig& c, Rng& rng,
                     std::vector<std::int32_t>& surface,
                     std::vector<std::int32_t>& meanings) {
  surface.resize(c.sentence_length);
  meanings.resize(c.sentence_length);
  for (std::size_t p = 0; p < c.sentence_length; ++p) {
    surface[p] = static_cast<std::int32_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(c.surface_vocab) - 1));
    meanings[p] = static_cast<std::int32_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(c.meaning_vocab) - 1));
  }
}

class ServingTableTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  ServingTableTest()
      : shape_(shapes()[GetParam()]),
        init_(31 + GetParam()),
        codec_(shape_.codec, init_),
        quantizer_(shape_.codec.feature_dim, shape_.bits),
        table_(codec_, quantizer_) {}

  const CodecConfig& config() const { return shape_.codec; }

  /// 40 random sentences' payloads with 3 % of their bits flipped, so some
  /// positions carry codes the table does not hold.
  std::vector<BitVec> corrupted_payloads() {
    Rng rng(13);
    std::vector<std::int32_t> surface;
    std::vector<std::int32_t> meanings;
    std::vector<BitVec> payloads(40);
    for (BitVec& payload : payloads) {
      random_sentence(config(), rng, surface, meanings);
      table_.encode(surface, payload);
      for (auto& bit : payload) {
        if (rng.bernoulli(0.03)) bit ^= 1;
      }
    }
    return payloads;
  }

  Shape shape_;
  Rng init_;
  SemanticCodec codec_;
  FeatureQuantizer quantizer_;
  ServingTable table_;
};

TEST_P(ServingTableTest, CodesEqualTheQuantizedEncoder) {
  const CodecConfig& c = config();
  const std::size_t length = c.sentence_length;
  const std::size_t bits = table_.code_bits();
  ASSERT_EQ(bits, c.per_position_dims() * shape_.bits);
  // Every surface id once, in sentences of L, padded with id 0.
  const std::size_t sentences = (c.surface_vocab + length - 1) / length;
  std::vector<std::int32_t> surface(sentences * length, 0);
  std::iota(surface.begin(),
            surface.begin() + static_cast<std::ptrdiff_t>(c.surface_vocab), 0);
  const std::vector<BitVec> payloads = quantizer_.quantize_batch(
      codec_.encoder().encode_batch(surface, sentences));
  for (std::size_t id = 0; id < c.surface_vocab; ++id) {
    const std::span<const std::uint8_t> code =
        table_.entry_code(table_.entry_of(static_cast<std::int32_t>(id)));
    const BitVec expected(
        payloads[id / length].begin() +
            static_cast<std::ptrdiff_t>((id % length) * bits),
        payloads[id / length].begin() +
            static_cast<std::ptrdiff_t>((id % length + 1) * bits));
    EXPECT_EQ(BitVec(code.begin(), code.end()), expected) << "surface " << id;
  }

  // The entries are the distinct codes, ascending.
  EXPECT_LE(table_.entry_count(), c.surface_vocab);
  for (std::size_t e = 1; e < table_.entry_count(); ++e) {
    EXPECT_LT(std::memcmp(table_.entry_code(e - 1).data(),
                          table_.entry_code(e).data(), bits),
              0)
        << "entry " << e;
  }

  // A sentence's payload is its tokens' codes in order.
  Rng rng(5);
  std::vector<std::int32_t> words;
  std::vector<std::int32_t> meanings;
  BitVec payload;
  for (int trial = 0; trial < 20; ++trial) {
    random_sentence(c, rng, words, meanings);
    table_.encode(words, payload);
    EXPECT_EQ(payload,
              quantizer_.quantize_batch(codec_.encoder().encode_batch(words, 1))
                  .front())
        << "trial " << trial;
  }
}

TEST_P(ServingTableTest, EntriesEqualTheDecoderOnTheirCodes) {
  const CodecConfig& c = config();
  for (std::size_t e = 0; e < table_.entry_count(); ++e) {
    // The entry's code at every position of one payload.
    BitVec payload;
    const std::span<const std::uint8_t> code = table_.entry_code(e);
    for (std::size_t p = 0; p < c.sentence_length; ++p) {
      payload.insert(payload.end(), code.begin(), code.end());
    }
    const tensor::Tensor logits = codec_.decoder().decode_logits_batch(
        quantizer_.dequantize_batch({payload}));
    const std::vector<std::int32_t> argmax = tensor::row_argmax(logits);
    const tensor::Tensor probs = tensor::row_softmax(logits);
    EXPECT_EQ(table_.argmax(e), argmax[0]) << "entry " << e;
    const std::span<const float> row = table_.probs(e);
    ASSERT_EQ(row.size(), c.meaning_vocab);
    EXPECT_EQ(std::memcmp(row.data(), probs.data(),
                          c.meaning_vocab * sizeof(float)),
              0)
        << "entry " << e;
  }
}

TEST_P(ServingTableTest, MismatchEqualsTheCrossEntropyOfTheNetwork) {
  const CodecConfig& c = config();
  Rng rng(9);
  std::vector<std::int32_t> surface;
  std::vector<std::int32_t> meanings;
  for (int trial = 0; trial < 50; ++trial) {
    random_sentence(c, rng, surface, meanings);
    const tensor::Tensor clean = quantizer_.dequantize_batch(
        quantizer_.quantize_batch(codec_.encoder().encode_batch(surface, 1)));
    const tensor::Tensor& logits = codec_.decoder().decode_logits_batch(clean);
    const double expected = tensor::mean_cross_entropy(
        logits.flat(), c.meaning_vocab, meanings);
    EXPECT_EQ(table_.mismatch(surface, meanings), expected)
        << "trial " << trial;
  }
}

TEST_P(ServingTableTest, CorruptedPayloadsDecodeAsTheNetwork) {
  const std::vector<BitVec> payloads = corrupted_payloads();
  std::vector<std::int32_t> decoded;
  const std::size_t misses = table_.decode(payloads, decoded);
  const std::size_t positions = payloads.size() * config().sentence_length;
  EXPECT_GT(misses, 0u);          // corrupted codes ran through the decoder
  EXPECT_LT(misses, positions);   // and clean ones were looked up
  EXPECT_EQ(decoded, codec_.decoder().decode(
                         quantizer_.dequantize_batch(payloads)));
}

TEST_P(ServingTableTest, FourThreadsDecodeThroughOneTable) {
  // Pool lanes decode through one shared table at once, misses included.
  // Four threads start together and decode the same payloads 25 times
  // each; every result must equal the single-thread decode. The threads
  // only record: a TSan build links an uninstrumented GoogleTest, so the
  // comparisons run on the main thread after the join.
  const std::vector<BitVec> payloads = corrupted_payloads();
  std::vector<std::int32_t> expected;
  const std::size_t expected_misses = table_.decode(payloads, expected);
  ASSERT_GT(expected_misses, 0u);

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kRounds = 25;
  std::vector<std::vector<std::int32_t>> decoded(kThreads * kRounds);
  std::vector<std::size_t> misses(kThreads * kRounds);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      for (std::size_t r = 0; r < kRounds; ++r) {
        misses[t * kRounds + r] =
            table_.decode(payloads, decoded[t * kRounds + r]);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    EXPECT_EQ(misses[i], expected_misses)
        << "thread " << i / kRounds << " round " << i % kRounds;
    EXPECT_EQ(decoded[i], expected)
        << "thread " << i / kRounds << " round " << i % kRounds;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, ServingTableTest, ::testing::Values(0, 1),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                           return std::string(shapes()[info.param].name);
                         });

TEST(ServingTableSystem, IntraEdgeWaveEqualsTheGeneralModels) {
  // Intra-edge, nobody fine-tunes: every message is served from the tables
  // at both ends, and must equal the general model's network.
  unsetenv("SEMCACHE_THREADS");
  core::SystemConfig config = test::tiny_system_config(77);
  config.pretrain.steps = 100;
  auto system = core::SemanticEdgeSystem::build(config);
  system->register_user("a", 0, nullptr);
  system->register_user("b", 0, nullptr);
  std::vector<text::Sentence> messages;
  for (std::size_t i = 0; i < 12; ++i) {
    messages.push_back(system->sample_message("a", i % 2));
  }
  std::vector<core::TransmitReport> reports(messages.size());
  system->transmit_pairs({{"a", "b", messages}},
                         [&](std::size_t, std::size_t i,
                             core::TransmitReport r) {
                           reports[i] = std::move(r);
                         });
  system->simulator().run();
  ASSERT_EQ(system->stats().updates, 0u);

  const FeatureQuantizer& quantizer = system->quantizer();
  const std::size_t vocab = system->config().codec.meaning_vocab;
  for (std::size_t i = 0; i < messages.size(); ++i) {
    const core::TransmitReport& r = reports[i];
    SemanticCodec& general = system->general_model(r.domain_selected);
    const tensor::Tensor features =
        general.encoder().encode_batch(messages[i].surface, 1);
    const std::vector<BitVec> payload = quantizer.quantize_batch(features);
    EXPECT_EQ(r.decoded_meanings,
              general.decoder().decode(quantizer.dequantize_batch(payload)))
        << "message " << i;
    const tensor::Tensor& logits = general.decoder().decode_logits_batch(
        quantizer.dequantize_batch(quantizer.quantize_batch(features)));
    EXPECT_EQ(r.mismatch, tensor::mean_cross_entropy(logits.flat(), vocab,
                                                     messages[i].meanings))
        << "message " << i;
    EXPECT_EQ(r.payload_bytes, (payload[0].size() + 7) / 8 + 8)
        << "message " << i;
  }
}

}  // namespace
}  // namespace semcache::semantic
