// Tests for the bimodal (text + scene) codec extension (§III-B): shapes,
// gradients, and the headline property — scene context lets a POOLED model
// resolve polysemy that text alone cannot.
#include <gtest/gtest.h>

#include "metrics/ngram.hpp"
#include "metrics/stats.hpp"
#include "nn/optimizer.hpp"
#include "semantic/bimodal.hpp"
#include "semantic/trainer.hpp"

namespace semcache::semantic {
namespace {

BimodalConfig small_config(const text::World& world,
                           const SceneSampler& scenes) {
  BimodalConfig bc;
  bc.text.surface_vocab = world.surface_count();
  bc.text.meaning_vocab = world.meaning_count();
  bc.text.sentence_length = world.config().sentence_length;
  bc.text.embed_dim = 16;
  bc.text.feature_dim = bc.text.sentence_length * 2;
  bc.text.hidden_dim = 32;
  bc.scene_vocab = scenes.scene_vocab();
  bc.scene_embed_dim = 8;
  bc.scene_feature_dim = 4;
  return bc;
}

TEST(SceneSampler, TagsLandInDomainBlock) {
  SceneConfig sc;
  sc.off_domain_prob = 0.0;
  SceneSampler sampler(3, sc);
  Rng rng(1);
  for (std::size_t d = 0; d < 3; ++d) {
    for (int i = 0; i < 20; ++i) {
      for (const auto tag : sampler.sample(d, rng)) {
        EXPECT_GE(tag, static_cast<std::int32_t>(d * sc.tags_per_domain));
        EXPECT_LT(tag, static_cast<std::int32_t>((d + 1) * sc.tags_per_domain));
      }
    }
  }
}

TEST(SceneSampler, OffDomainClutterAppears) {
  SceneConfig sc;
  sc.off_domain_prob = 0.5;
  SceneSampler sampler(2, sc);
  Rng rng(2);
  std::size_t off = 0, total = 0;
  for (int i = 0; i < 100; ++i) {
    for (const auto tag : sampler.sample(0, rng)) {
      ++total;
      if (tag >= static_cast<std::int32_t>(sc.tags_per_domain)) ++off;
    }
  }
  EXPECT_NEAR(static_cast<double>(off) / static_cast<double>(total), 0.5,
              0.1);
}

TEST(SceneSampler, Validation) {
  SceneConfig bad;
  bad.off_domain_prob = 1.0;
  EXPECT_THROW(SceneSampler(2, bad), Error);
  EXPECT_THROW(SceneSampler(0, SceneConfig{}), Error);
}

class BimodalTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(31);
    text::WorldConfig wc;
    wc.num_domains = 2;
    wc.concepts_per_domain = 12;
    wc.num_polysemous = 10;
    wc.polysemous_prob = 0.35;
    wc.sentence_length = 6;
    world_ = new text::World(text::World::generate(wc, rng));
    scenes_ = new SceneSampler(2, SceneConfig{});
  }
  static void TearDownTestSuite() {
    delete world_;
    delete scenes_;
    world_ = nullptr;
    scenes_ = nullptr;
  }
  static text::World* world_;
  static SceneSampler* scenes_;
};

text::World* BimodalTest::world_ = nullptr;
SceneSampler* BimodalTest::scenes_ = nullptr;

TEST_F(BimodalTest, EncodeDecodeShapes) {
  Rng rng(32);
  BimodalCodec codec(small_config(*world_, *scenes_), rng);
  Rng srng(33);
  const auto msg = world_->sample_sentence(0, srng);
  const auto scene = scenes_->sample(0, srng);
  const auto feature = codec.encode(msg.surface, scene);
  EXPECT_EQ(feature.dim(1), 6u * 2u + 4u);
  for (std::size_t i = 0; i < feature.size(); ++i) {
    EXPECT_LE(std::abs(feature.at(i)), 1.0f);
  }
  const auto decoded = codec.decode(feature);
  EXPECT_EQ(decoded.size(), 6u);
}

// The layers draw their initial weights in declaration order: both
// embeddings, then t1, t2, s1, s2, d1, d2. parameters() lists them per
// branch: text, scene, decoder.
TEST_F(BimodalTest, ParametersAndDrawsFollowTheDocumentedLayerOrder) {
  const BimodalConfig bc = small_config(*world_, *scenes_);
  const CodecConfig& tc = bc.text;
  Rng rng(17);
  BimodalCodec codec(bc, rng);
  Rng layer_rng(17);
  nn::Embedding text_embed(tc.surface_vocab, tc.embed_dim, layer_rng,
                           "bim.text_embed");
  nn::Embedding scene_embed(bc.scene_vocab, bc.scene_embed_dim, layer_rng,
                            "bim.scene_embed");
  nn::LinearReLU t1(tc.embed_dim, tc.hidden_dim, layer_rng, "bim.t1");
  nn::Linear t2(tc.hidden_dim, tc.per_position_dims(), layer_rng, "bim.t2");
  nn::LinearReLU s1(bc.scene_embed_dim, tc.hidden_dim, layer_rng, "bim.s1");
  nn::Linear s2(tc.hidden_dim, bc.scene_feature_dim, layer_rng, "bim.s2");
  nn::LinearReLU d1(tc.per_position_dims() + bc.scene_feature_dim,
                    tc.hidden_dim, layer_rng, "bim.d1");
  nn::Linear d2(tc.hidden_dim, tc.meaning_vocab, layer_rng, "bim.d2");
  nn::ParameterSet expected;
  expected.add_all(text_embed.parameters());
  expected.add_all(t1.parameters());
  expected.add_all(t2.parameters());
  expected.add_all(scene_embed.parameters());
  expected.add_all(s1.parameters());
  expected.add_all(s2.parameters());
  expected.add_all(d1.parameters());
  expected.add_all(d2.parameters());

  const nn::ParameterSet got = codec.parameters();
  ASSERT_EQ(got.count(), expected.count());
  for (std::size_t i = 0; i < got.count(); ++i) {
    EXPECT_EQ(got.params()[i]->name, expected.params()[i]->name) << i;
  }
  EXPECT_TRUE(got.values_equal(expected));
}

TEST_F(BimodalTest, GradCheck) {
  Rng rng(34);
  BimodalCodec codec(small_config(*world_, *scenes_), rng);
  Rng srng(35);
  const auto msg = world_->sample_sentence(0, srng);
  const auto scene = scenes_->sample(0, srng);
  auto params = codec.parameters();
  auto loss_fn = [&]() -> double {
    return codec.forward_loss(msg.surface, scene, msg.meanings);
  };
  nn::Optimizer::zero_grad(params.params());
  loss_fn();
  codec.backward();
  const auto result = nn::gradcheck(loss_fn, params.params(), 1e-3, 25);
  // ReLU kink straddles inflate a handful of elements (bias perturbations
  // shift every row's pre-activation across the kink); a systematic
  // backward bug would corrupt whole tensors, not ~2% of elements. Require
  // the overwhelming majority to match tightly.
  EXPECT_TRUE(result.mostly_ok(/*allowed=*/10, /*max_abs=*/0.2))
      << "rel err " << result.max_rel_error << " above_tol "
      << result.above_tol << "/" << result.checked;
}

TEST_F(BimodalTest, PooledBimodalResolvesPolysemyTextOnlyCannot) {
  // Train a pooled TEXT-ONLY codec and a pooled BIMODAL codec on both
  // domains; compare accuracy on polysemous positions. Text-only has no
  // way to pick the sense; the scene vector disambiguates.
  const BimodalConfig bc = small_config(*world_, *scenes_);
  Rng rng_t(36), rng_b(36);
  SemanticCodec text_only(bc.text, rng_t);
  BimodalCodec bimodal(bc, rng_b);

  const std::size_t kSteps = 6000;
  {
    nn::Adam opt_t(3e-3), opt_b(3e-3);
    nn::ParameterSet pt = text_only.parameters();
    nn::ParameterSet pb = bimodal.parameters();
    Rng trng(37);
    for (std::size_t step = 0; step < kSteps; ++step) {
      const auto d = static_cast<std::size_t>(trng.uniform_int(0, 1));
      const auto msg = world_->sample_sentence(d, trng);
      const auto scene = scenes_->sample(d, trng);
      nn::Optimizer::zero_grad(pt.params());
      text_only.forward_loss(msg.surface, msg.meanings);
      text_only.backward();
      nn::Optimizer::clip_grad_norm(pt.params(), 5.0);
      opt_t.step(pt.params());
      nn::Optimizer::zero_grad(pb.params());
      bimodal.forward_loss(msg.surface, scene, msg.meanings);
      bimodal.backward();
      nn::Optimizer::clip_grad_norm(pb.params(), 5.0);
      opt_b.step(pb.params());
    }
  }

  Rng erng(38);
  metrics::OnlineStats text_poly, bim_poly;
  for (int i = 0; i < 300; ++i) {
    const auto d = static_cast<std::size_t>(erng.uniform_int(0, 1));
    const auto msg = world_->sample_sentence(d, erng);
    const auto scene = scenes_->sample(d, erng);
    const auto t_dec = text_only.reconstruct(msg.surface);
    const auto b_dec = bimodal.decode(bimodal.encode(msg.surface, scene));
    const auto& poly = world_->polysemous_meanings(d);
    for (std::size_t p = 0; p < msg.meanings.size(); ++p) {
      if (std::find(poly.begin(), poly.end(), msg.meanings[p]) == poly.end()) {
        continue;
      }
      text_poly.add(t_dec[p] == msg.meanings[p] ? 1.0 : 0.0);
      bim_poly.add(b_dec[p] == msg.meanings[p] ? 1.0 : 0.0);
    }
  }
  ASSERT_GT(text_poly.count(), 100u);
  EXPECT_GT(bim_poly.mean(), text_poly.mean() + 0.15)
      << "text " << text_poly.mean() << " bimodal " << bim_poly.mean();
}

TEST_F(BimodalTest, RejectsMalformedInput) {
  Rng rng(39);
  BimodalCodec codec(small_config(*world_, *scenes_), rng);
  const std::vector<std::int32_t> short_text = {1, 2};
  const std::vector<std::int32_t> scene = {0, 1};
  EXPECT_THROW(codec.encode(short_text, scene), Error);
  const std::vector<std::int32_t> text = {1, 2, 3, 4, 5, 6};
  EXPECT_THROW(codec.encode(text, {}), Error);
}

}  // namespace
}  // namespace semcache::semantic
