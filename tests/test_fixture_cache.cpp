// Pretrained-fixture cache (src/semantic/fixture_cache.hpp): a cache hit
// must be indistinguishable from having trained — bit-identical weights,
// identical stats, and an RNG fast-forwarded to the same state, so every
// downstream draw matches. Uses a tiny codec (tens of steps) so the suite
// stays tier-1 fast. The file layout is SemanticCodec::parameters()' order,
// which the CodecLayout test pins with the order the layers draw their
// initial weights.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "semantic/fixture_cache.hpp"
#include "semantic/trainer.hpp"
#include "test_util.hpp"

namespace semcache::semantic {
namespace {

class FixtureCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("semcache-fixture-test-" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    ::setenv("SEMCACHE_FIXTURE_DIR", dir_.c_str(), 1);
  }

  void TearDown() override {
    ::unsetenv("SEMCACHE_FIXTURE_DIR");
    std::filesystem::remove_all(dir_);
  }

  static text::World tiny_world(Rng& rng) {
    text::WorldConfig wc;
    wc.num_domains = 2;
    wc.concepts_per_domain = 8;
    wc.num_polysemous = 3;
    wc.sentence_length = 4;
    return text::World::generate(wc, rng);
  }

  static CodecConfig tiny_codec(const text::World& world) {
    CodecConfig cc;
    cc.surface_vocab = world.surface_count();
    cc.meaning_vocab = world.meaning_count();
    cc.sentence_length = world.config().sentence_length;
    cc.embed_dim = 6;
    cc.feature_dim = 4;
    cc.hidden_dim = 8;
    return cc;
  }

  std::filesystem::path dir_;
};

// parameters()' order is the fixture-cache file layout and, for the
// decoder half, the sync wire order; the order the layers draw their
// initial weights fixes every pretrained weight. Both follow the members'
// declaration order, so building the documented layers one at a time from
// the same seed must give the same names, shapes and values in order.
TEST(CodecLayout, ParametersAndDrawsFollowTheDocumentedLayerOrder) {
  CodecConfig cc;
  cc.surface_vocab = 40;
  cc.meaning_vocab = 30;
  cc.sentence_length = 4;
  cc.embed_dim = 6;
  cc.feature_dim = 8;
  cc.hidden_dim = 10;
  const std::size_t per_pos = cc.per_position_dims();
  for (const std::uint64_t seed : {1, 7}) {
    Rng rng(seed);
    SemanticCodec codec(cc, rng);
    Rng layer_rng(seed);
    nn::Embedding embed(cc.surface_vocab, cc.embed_dim, layer_rng,
                        "enc.embed");
    nn::LinearReLU enc_l1(cc.embed_dim, cc.hidden_dim, layer_rng, "enc.l1");
    nn::Linear enc_l2(cc.hidden_dim, per_pos, layer_rng, "enc.l2");
    nn::LinearReLU dec_l1(per_pos, cc.hidden_dim, layer_rng, "dec.l1");
    nn::Linear dec_l2(cc.hidden_dim, cc.meaning_vocab, layer_rng, "dec.l2");
    nn::ParameterSet expected;
    expected.add_all(embed.parameters());
    expected.add_all(enc_l1.parameters());
    expected.add_all(enc_l2.parameters());
    expected.add_all(dec_l1.parameters());
    expected.add_all(dec_l2.parameters());

    const nn::ParameterSet got = codec.parameters();
    ASSERT_EQ(got.count(), expected.count());
    for (std::size_t i = 0; i < got.count(); ++i) {
      EXPECT_EQ(got.params()[i]->name, expected.params()[i]->name) << i;
    }
    EXPECT_TRUE(got.values_equal(expected)) << "seed " << seed;
  }
}

TEST_F(FixtureCacheTest, DisabledWithoutEnvVar) {
  ::unsetenv("SEMCACHE_FIXTURE_DIR");
  EXPECT_FALSE(FixtureCache::enabled());
  ::setenv("SEMCACHE_FIXTURE_DIR", "", 1);
  EXPECT_FALSE(FixtureCache::enabled());
}

TEST_F(FixtureCacheTest, HitIsBitIdenticalToTraining) {
  ASSERT_TRUE(FixtureCache::enabled());
  Rng world_rng(7);
  const text::World world = tiny_world(world_rng);
  const CodecConfig cc = tiny_codec(world);
  TrainConfig tc;
  tc.steps = 40;

  // First run: trains and stores the fixture.
  Rng init_a(11);
  SemanticCodec a(cc, init_a);
  Rng train_a(22);
  const TrainStats stats_a =
      CodecTrainer::pretrain_domain(a, world, 0, tc, train_a);
  EXPECT_FALSE(std::filesystem::is_empty(dir_));

  // Second run, identical inputs: must hit and reproduce everything.
  Rng init_b(11);
  SemanticCodec b(cc, init_b);
  Rng train_b(22);
  const TrainStats stats_b =
      CodecTrainer::pretrain_domain(b, world, 0, tc, train_b);

  EXPECT_EQ(stats_a.steps, stats_b.steps);
  EXPECT_DOUBLE_EQ(stats_a.final_loss, stats_b.final_loss);
  EXPECT_TRUE(a.parameters().values_equal(b.parameters()));
  // The trainer RNG was fast-forwarded: post-run streams must agree.
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(train_a.uniform_int(0, 1 << 20), train_b.uniform_int(0, 1 << 20));
  }
}

TEST_F(FixtureCacheTest, DifferentInputsMiss) {
  Rng world_rng(7);
  const text::World world = tiny_world(world_rng);
  const CodecConfig cc = tiny_codec(world);
  TrainConfig tc;
  tc.steps = 20;

  Rng init_a(11);
  SemanticCodec a(cc, init_a);
  Rng train_a(22);
  CodecTrainer::pretrain_domain(a, world, 0, tc, train_a);
  const auto files_after_first =
      std::distance(std::filesystem::directory_iterator(dir_),
                    std::filesystem::directory_iterator{});

  // Different domain, different trainer seed, different step count: each
  // must produce a distinct fixture rather than a false hit.
  Rng init_b(11);
  SemanticCodec b(cc, init_b);
  Rng train_b(22);
  CodecTrainer::pretrain_domain(b, world, 1, tc, train_b);

  Rng init_c(11);
  SemanticCodec c(cc, init_c);
  Rng train_c(23);
  CodecTrainer::pretrain_domain(c, world, 0, tc, train_c);

  TrainConfig longer = tc;
  longer.steps = 21;
  Rng init_d(11);
  SemanticCodec d(cc, init_d);
  Rng train_d(22);
  CodecTrainer::pretrain_domain(d, world, 0, longer, train_d);

  const auto files_after_all =
      std::distance(std::filesystem::directory_iterator(dir_),
                    std::filesystem::directory_iterator{});
  EXPECT_EQ(files_after_all, files_after_first + 3);
  EXPECT_FALSE(a.parameters().values_equal(b.parameters()));
}

TEST_F(FixtureCacheTest, CorruptFileFallsBackToTraining) {
  Rng world_rng(7);
  const text::World world = tiny_world(world_rng);
  const CodecConfig cc = tiny_codec(world);
  TrainConfig tc;
  tc.steps = 20;

  Rng init_a(11);
  SemanticCodec a(cc, init_a);
  Rng train_a(22);
  CodecTrainer::pretrain_domain(a, world, 0, tc, train_a);
  const std::filesystem::path fixture =
      std::filesystem::directory_iterator(dir_)->path();
  const auto valid_size = std::filesystem::file_size(fixture);

  // Two corruptions of the stored fixture, each followed by a retrain:
  //  - truncated mid-parameter-block: magic, version, stats, and the RNG
  //    state all parse, so the loader reaches (and must survive) a failing
  //    weight deserialize without clobbering the codec;
  //  - 16 bytes appended after a complete parameter block: every field
  //    parses, and only the trailing bytes mark the file as not ours.
  // Either way the retrain stores a fresh fixture over the corrupt one.
  for (const bool append : {false, true}) {
    if (append) {
      std::ofstream(fixture, std::ios::binary | std::ios::app)
          << std::string(16, 'x');
    } else {
      std::filesystem::resize_file(fixture, valid_size - 16);
    }

    Rng init_b(11);
    SemanticCodec b(cc, init_b);
    Rng train_b(22);
    const TrainStats stats =
        CodecTrainer::pretrain_domain(b, world, 0, tc, train_b);
    EXPECT_EQ(stats.steps, tc.steps);  // really trained, not a bogus hit
    EXPECT_TRUE(a.parameters().values_equal(b.parameters()));
    EXPECT_EQ(std::filesystem::file_size(fixture), valid_size)
        << (append ? "appended" : "truncated") << " fixture not rewritten";
  }
}

}  // namespace
}  // namespace semcache::semantic
