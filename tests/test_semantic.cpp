// Unit tests for semcache::semantic — codec shapes and gradients, clone
// byte-identity, quantizer round-trips, training convergence, fidelity.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "metrics/ngram.hpp"
#include "nn/optimizer.hpp"
#include "semantic/codec.hpp"
#include "semantic/fidelity.hpp"
#include "semantic/quantizer.hpp"
#include "semantic/trainer.hpp"
#include "tensor/ops.hpp"
#include "test_util.hpp"

namespace semcache::semantic {
namespace {

CodecConfig small_config() {
  CodecConfig c;
  c.surface_vocab = 40;
  c.meaning_vocab = 30;
  c.sentence_length = 4;
  c.embed_dim = 8;
  c.feature_dim = 8;  // 2 dims per position
  c.hidden_dim = 16;
  return c;
}

std::vector<std::int32_t> ids(std::initializer_list<std::int32_t> v) {
  return {v};
}

TEST(Codec, ConfigValidation) {
  Rng rng(1);
  CodecConfig bad = small_config();
  bad.feature_dim = 7;  // not a multiple of sentence_length
  EXPECT_THROW(SemanticCodec(bad, rng), Error);
  bad = small_config();
  bad.surface_vocab = 1;
  EXPECT_THROW(SemanticCodec(bad, rng), Error);
}

TEST(Codec, EncodeShapeAndRange) {
  Rng rng(2);
  KbEncoder enc(small_config(), rng);
  const auto f = enc.encode(ids({1, 2, 3, 4}));
  EXPECT_EQ(f.dim(0), 1u);
  EXPECT_EQ(f.dim(1), 8u);
  for (std::size_t i = 0; i < f.size(); ++i) {
    EXPECT_GT(f.at(i), -1.0f);
    EXPECT_LT(f.at(i), 1.0f);  // tanh-bounded
  }
}

TEST(Codec, EncodeRejectsWrongLength) {
  Rng rng(3);
  KbEncoder enc(small_config(), rng);
  EXPECT_THROW(enc.encode(ids({1, 2, 3})), Error);
}

TEST(Codec, DecodeShapes) {
  Rng rng(4);
  KbDecoder dec(small_config(), rng);
  tensor::Tensor f({1, 8});
  const auto& logits = dec.decode_logits_batch(f);
  EXPECT_EQ(logits.dim(0), 4u);
  EXPECT_EQ(logits.dim(1), 30u);
  const auto decoded = dec.decode(f);
  EXPECT_EQ(decoded.size(), 4u);
}

TEST(Codec, DecodeRejectsBadFeature) {
  Rng rng(5);
  KbDecoder dec(small_config(), rng);
  tensor::Tensor wrong({1, 4});
  EXPECT_THROW(dec.decode_logits_batch(wrong), Error);
}

TEST(Codec, JointLossFiniteAndBackwardRuns) {
  Rng rng(6);
  SemanticCodec codec(small_config(), rng);
  const auto surface = ids({5, 6, 7, 8});
  const auto meanings = ids({1, 2, 3, 4});
  const double loss = codec.forward_loss(surface, meanings);
  EXPECT_GT(loss, 0.0);
  EXPECT_LT(loss, 10.0);
  EXPECT_NO_THROW(codec.backward());
  // Gradients should be non-zero somewhere. (Bind the ParameterSet: its
  // params() span must not outlive it.)
  const nn::ParameterSet params = codec.parameters();
  float grad_norm = 0.0f;
  for (const auto* p : params.params()) {
    grad_norm += tensor::l2_norm(p->grad);
  }
  EXPECT_GT(grad_norm, 0.0f);
}

TEST(Codec, FeatureNoiseRequiresRng) {
  Rng rng(7);
  SemanticCodec codec(small_config(), rng);
  EXPECT_THROW(
      codec.forward_loss(ids({1, 2, 3, 4}), ids({1, 2, 3, 4}), 0.1f, nullptr),
      Error);
}

TEST(Codec, CloneIsByteIdenticalAndIndependent) {
  Rng rng(8);
  SemanticCodec codec(small_config(), rng);
  auto copy = codec.clone();
  EXPECT_TRUE(codec.parameters().values_equal(copy->parameters()));
  // Same outputs.
  const auto surface = ids({3, 1, 4, 1});
  EXPECT_EQ(codec.reconstruct(surface), copy->reconstruct(surface));
  // Mutating the copy leaves the original untouched.
  copy->parameters().params()[0]->value.at(0) += 1.0f;
  EXPECT_FALSE(codec.parameters().values_equal(copy->parameters()));
}

TEST(Codec, ByteSizeMatchesSerialization) {
  Rng rng(9);
  SemanticCodec codec(small_config(), rng);
  ByteWriter w;
  codec.parameters().serialize(w);
  EXPECT_EQ(codec.byte_size(), w.size());
}

TEST(Codec, GradCheckThroughFullCodec) {
  Rng rng(10);
  SemanticCodec codec(small_config(), rng);
  const auto surface = ids({2, 9, 17, 33});
  const auto meanings = ids({0, 5, 11, 29});
  auto params = codec.parameters();
  auto loss_fn = [&]() -> double {
    return codec.forward_loss(surface, meanings);
  };
  nn::Optimizer::zero_grad(params.params());
  loss_fn();
  codec.backward();
  const auto result = nn::gradcheck(loss_fn, params.params(), 1e-3, 30);
  EXPECT_TRUE(result.ok(2e-2)) << "rel err " << result.max_rel_error;
}

TEST(Quantizer, RoundTripWithinMaxError) {
  FeatureQuantizer q(8, 6);
  Rng rng(11);
  tensor::Tensor f({1, 8});
  for (std::size_t i = 0; i < 8; ++i) {
    f.at(0, i) = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  const auto restored = q.roundtrip(f);
  EXPECT_LE(f.max_abs_diff(restored), static_cast<float>(q.max_error()) + 1e-6f);
}

TEST(Quantizer, BitCounts) {
  FeatureQuantizer q(16, 6);
  EXPECT_EQ(q.total_bits(), 96u);
  EXPECT_EQ(q.payload_bytes(), 12u);
  tensor::Tensor f({1, 16});
  EXPECT_EQ(q.quantize(f).size(), 96u);
}

TEST(Quantizer, ClampsOutOfRange) {
  FeatureQuantizer q(2, 4);
  tensor::Tensor f({1, 2}, {5.0f, -5.0f});
  const auto restored = q.roundtrip(f);
  EXPECT_FLOAT_EQ(restored.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(restored.at(0, 1), -1.0f);
}

TEST(Quantizer, ExtremesAreExact) {
  FeatureQuantizer q(2, 8);
  tensor::Tensor f({1, 2}, {1.0f, -1.0f});
  const auto restored = q.roundtrip(f);
  EXPECT_FLOAT_EQ(restored.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(restored.at(0, 1), -1.0f);
}

TEST(Quantizer, RejectsBadArguments) {
  EXPECT_THROW(FeatureQuantizer(0, 8), Error);
  EXPECT_THROW(FeatureQuantizer(4, 0), Error);
  EXPECT_THROW(FeatureQuantizer(4, 17), Error);
  FeatureQuantizer q(4, 8);
  tensor::Tensor wrong({1, 3});
  EXPECT_THROW(q.quantize(wrong), Error);
  BitVec bits(31, 0);
  EXPECT_THROW(q.dequantize(bits), Error);
}

class QuantizerBitsSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(QuantizerBitsSweep, ErrorShrinksWithBits) {
  const unsigned bits = GetParam();
  FeatureQuantizer q(4, bits);
  EXPECT_NEAR(q.max_error(), 1.0 / ((1u << bits) - 1), 1e-12);
  Rng rng(13);
  tensor::Tensor f({1, 4});
  for (std::size_t i = 0; i < 4; ++i) {
    f.at(0, i) = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  EXPECT_LE(f.max_abs_diff(q.roundtrip(f)),
            static_cast<float>(q.max_error()) + 1e-6f);
}

INSTANTIATE_TEST_SUITE_P(Sweep, QuantizerBitsSweep,
                         ::testing::Values(1, 2, 4, 6, 8, 12, 16));

// --- Batched quantizer (the pair wave's data plane) ---------------------

class QuantizerBatchSweep : public ::testing::TestWithParam<unsigned> {
 protected:
  static constexpr std::size_t kDims = 6;
  static constexpr std::size_t kRows = 9;

  /// Mixed batch: tanh-range rows interleaved with out-of-range rows that
  /// must clamp, plus the exact extremes.
  static tensor::Tensor mixed_batch(std::uint64_t seed) {
    Rng rng(seed);
    tensor::Tensor f({kRows, kDims});
    for (std::size_t r = 0; r < kRows; ++r) {
      for (std::size_t c = 0; c < kDims; ++c) {
        if (r % 3 == 2) {
          f.at(r, c) = static_cast<float>(rng.uniform(-4.0, 4.0));  // clamps
        } else {
          f.at(r, c) = static_cast<float>(rng.uniform(-1.0, 1.0));
        }
      }
    }
    f.at(0, 0) = 1.0f;
    f.at(0, 1) = -1.0f;
    return f;
  }

  static tensor::Tensor row_of(const tensor::Tensor& batch, std::size_t r) {
    tensor::Tensor row({1, kDims});
    for (std::size_t c = 0; c < kDims; ++c) row.at(0, c) = batch.at(r, c);
    return row;
  }
};

TEST_P(QuantizerBatchSweep, QuantizeBatchRowEqualsSingleQuantize) {
  const unsigned bits = GetParam();
  const FeatureQuantizer q(kDims, bits);
  const tensor::Tensor f = mixed_batch(50 + bits);
  const std::vector<BitVec> payloads = q.quantize_batch(f);
  ASSERT_EQ(payloads.size(), kRows);
  for (std::size_t r = 0; r < kRows; ++r) {
    EXPECT_EQ(payloads[r], q.quantize(row_of(f, r))) << "row " << r;
    EXPECT_EQ(payloads[r].size(), q.total_bits());
  }
}

TEST_P(QuantizerBatchSweep, DequantizeBatchRowEqualsSingleDequantize) {
  const unsigned bits = GetParam();
  const FeatureQuantizer q(kDims, bits);
  const std::vector<BitVec> payloads =
      q.quantize_batch(mixed_batch(60 + bits));
  const tensor::Tensor restored = q.dequantize_batch(payloads);
  ASSERT_EQ(restored.dim(0), kRows);
  ASSERT_EQ(restored.dim(1), kDims);
  for (std::size_t r = 0; r < kRows; ++r) {
    const tensor::Tensor single = q.dequantize(payloads[r]);
    for (std::size_t c = 0; c < kDims; ++c) {
      EXPECT_EQ(restored.at(r, c), single.at(0, c))  // bit-exact
          << "row " << r << " dim " << c;
    }
  }
}

TEST_P(QuantizerBatchSweep, RoundtripBatchMatchesSinglesWithinMaxError) {
  const unsigned bits = GetParam();
  const FeatureQuantizer q(kDims, bits);
  const tensor::Tensor f = mixed_batch(70 + bits);
  const tensor::Tensor restored = q.dequantize_batch(q.quantize_batch(f));
  ASSERT_EQ(restored.shape(), f.shape());
  for (std::size_t r = 0; r < kRows; ++r) {
    const tensor::Tensor single = q.roundtrip(row_of(f, r));
    for (std::size_t c = 0; c < kDims; ++c) {
      EXPECT_EQ(restored.at(r, c), single.at(0, c))  // bit-exact
          << "row " << r << " dim " << c;
      // Per-dimension reconstruction error bound, against the clamped
      // input (out-of-range dims reconstruct the nearest extreme).
      const float clamped = std::clamp(f.at(r, c), -1.0f, 1.0f);
      EXPECT_LE(std::abs(restored.at(r, c) - clamped),
                static_cast<float>(q.max_error()) + 1e-6f)
          << "row " << r << " dim " << c;
    }
  }
}

TEST(QuantizerBatch, RejectsBadShapes) {
  const FeatureQuantizer q(4, 8);
  EXPECT_THROW(q.quantize_batch(tensor::Tensor({2, 3})), Error);
  EXPECT_THROW(q.quantize_batch(tensor::Tensor({8})), Error);
  EXPECT_THROW(q.dequantize_batch({}), Error);
  EXPECT_THROW(q.dequantize_batch({BitVec(31, 0)}), Error);
}

INSTANTIATE_TEST_SUITE_P(Sweep, QuantizerBatchSweep,
                         ::testing::Values(1, 4, 8, 16));

// Training tests share a world.
class TrainingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(21);
    text::WorldConfig cfg;
    cfg.num_domains = 2;
    cfg.concepts_per_domain = 12;
    cfg.num_polysemous = 6;
    cfg.sentence_length = 6;
    world_ = new text::World(text::World::generate(cfg, rng));
  }
  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
  }
  static CodecConfig codec_config() { return test::codec_for_world(*world_); }
  static text::World* world_;
};

text::World* TrainingTest::world_ = nullptr;

TEST_F(TrainingTest, DomainPretrainingConverges) {
  Rng rng(22);
  SemanticCodec codec(codec_config(), rng);
  TrainConfig tc;
  tc.steps = 3000;
  Rng trng(23);
  const TrainStats stats =
      CodecTrainer::pretrain_domain(codec, *world_, 0, tc, trng);
  EXPECT_EQ(stats.steps, 3000u);
  EXPECT_LT(stats.final_loss, stats.first_loss);
  Rng erng(24);
  const FidelityReport report = evaluate_codec(codec, *world_, 0, 200, erng);
  EXPECT_GT(report.token_accuracy, 0.9);
  EXPECT_GT(report.sentence_exact, 0.5);
}

TEST_F(TrainingTest, TrainedDomainBeatsUntrainedDomain) {
  Rng rng(25);
  SemanticCodec codec(codec_config(), rng);
  TrainConfig tc;
  tc.steps = 2500;
  Rng trng(26);
  CodecTrainer::pretrain_domain(codec, *world_, 0, tc, trng);
  Rng erng(27);
  const auto own = evaluate_codec(codec, *world_, 0, 150, erng);
  const auto other = evaluate_codec(codec, *world_, 1, 150, erng);
  EXPECT_GT(own.token_accuracy, other.token_accuracy + 0.2);
}

TEST_F(TrainingTest, FinetuneAdaptsToIdiolect) {
  Rng rng(28);
  SemanticCodec codec(codec_config(), rng);
  TrainConfig tc;
  tc.steps = 2500;
  Rng trng(29);
  CodecTrainer::pretrain_domain(codec, *world_, 0, tc, trng);

  text::IdiolectConfig icfg;
  icfg.substitution_rate = 0.9;  // aggressive: nearly every concept renamed
  icfg.slang_prob = 1.0;         // always fresh slang the model never saw
  Rng irng(30);
  const text::Idiolect idio = text::Idiolect::generate(*world_, icfg, irng);
  ASSERT_GT(idio.size(), 5u);

  Rng erng(31);
  const auto before = evaluate_codec(codec, *world_, 0, 150, erng, &idio);
  // The general model must actually be hurt by the idiolect, otherwise the
  // adaptation claim is vacuous.
  ASSERT_LT(before.token_accuracy, 0.85);

  std::vector<Sample> buffer;
  Rng srng(32);
  for (int i = 0; i < 64; ++i) {
    buffer.push_back(CodecTrainer::draw_sample(*world_, 0, &idio, srng));
  }
  Rng frng(33);
  CodecTrainer::finetune(codec, buffer, 12, 2e-3, frng);

  Rng erng2(31);  // same eval stream for a paired comparison
  const auto after = evaluate_codec(codec, *world_, 0, 150, erng2, &idio);
  EXPECT_GT(after.token_accuracy, before.token_accuracy + 0.08);
}

TEST_F(TrainingTest, FinetuneRejectsEmptyBuffer) {
  Rng rng(35);
  SemanticCodec codec(codec_config(), rng);
  Rng frng(36);
  EXPECT_THROW(CodecTrainer::finetune(codec, {}, 1, 1e-3, frng), Error);
}

TEST_F(TrainingTest, QuantizationAwareTrainingHelps) {
  // Train two codecs, one with QAT noise at the 3-bit quantizer scale, and
  // compare accuracy through the coarse quantizer.
  const unsigned bits = 3;
  FeatureQuantizer q(codec_config().feature_dim, bits);
  TrainConfig plain;
  plain.steps = 2500;
  TrainConfig noisy = plain;
  noisy.feature_noise = q.max_error() / 2.0;

  Rng rng_a(40), rng_b(40);
  SemanticCodec a(codec_config(), rng_a);
  SemanticCodec b(codec_config(), rng_b);
  Rng ta(41), tb(41);
  CodecTrainer::pretrain_domain(a, *world_, 0, plain, ta);
  CodecTrainer::pretrain_domain(b, *world_, 0, noisy, tb);

  auto quantized_accuracy = [&](SemanticCodec& codec) {
    Rng erng(42);
    metrics::OnlineStats acc;
    for (int i = 0; i < 200; ++i) {
      const auto s = CodecTrainer::draw_sample(*world_, 0, nullptr, erng);
      const auto f = codec.encoder().encode(s.surface);
      const auto decoded = codec.decoder().decode(q.roundtrip(f));
      acc.add(metrics::token_accuracy(s.meanings, decoded));
    }
    return acc.mean();
  };
  EXPECT_GE(quantized_accuracy(b) + 0.02, quantized_accuracy(a));
}

}  // namespace
}  // namespace semcache::semantic
