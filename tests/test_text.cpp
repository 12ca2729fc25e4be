// Unit tests for semcache::text — vocabulary, Zipf sampling, world
// generation invariants (polysemy by construction), idiolects.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <sstream>

#include "common/check.hpp"
#include "text/corpus.hpp"
#include "text/idiolect.hpp"
#include "text/vocab.hpp"
#include "text/zipf.hpp"

namespace semcache::text {
namespace {

TEST(Vocab, ReservedTokens) {
  Vocab v;
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v.id("<pad>"), Vocab::kPad);
  EXPECT_EQ(v.id("<unk>"), Vocab::kUnk);
}

TEST(Vocab, AddIsIdempotent) {
  Vocab v;
  const auto a = v.add("word");
  const auto b = v.add("word");
  EXPECT_EQ(a, b);
  EXPECT_EQ(v.size(), 3u);
}

TEST(Vocab, UnknownMapsToUnk) {
  Vocab v;
  EXPECT_EQ(v.id("missing"), Vocab::kUnk);
  EXPECT_FALSE(v.contains("missing"));
}

TEST(Vocab, WordLookupAndBounds) {
  Vocab v;
  const auto id = v.add("hello");
  EXPECT_EQ(v.word(id), "hello");
  EXPECT_THROW(v.word(99), Error);
  EXPECT_THROW(v.word(-1), Error);
}

TEST(Zipf, PmfSumsToOne) {
  ZipfSampler z(20, 1.0);
  double total = 0.0;
  for (std::size_t r = 0; r < 20; ++r) total += z.pmf(r);
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Zipf, MonotoneDecreasing) {
  ZipfSampler z(10, 1.2);
  for (std::size_t r = 1; r < 10; ++r) EXPECT_LT(z.pmf(r), z.pmf(r - 1));
}

TEST(Zipf, AlphaZeroIsUniform) {
  ZipfSampler z(5, 0.0);
  for (std::size_t r = 0; r < 5; ++r) EXPECT_NEAR(z.pmf(r), 0.2, 1e-12);
}

TEST(Zipf, DeepRankPmfIsExactNotACdfResidual) {
  // Regression: pmf used to be cdf_[r] - cdf_[r-1] with cdf_.back()
  // clamped to 1.0, which silently dumped the whole accumulated rounding
  // error of a long normalization into pmf(n-1) (and lost precision to
  // cancellation at every deep rank). pmf now comes from the raw
  // weights, so even at n = 50000 the mass function sums to one, stays
  // monotone through the very last rank, and the tail matches the
  // analytic weight/total directly.
  const std::size_t n = 50000;
  const double alpha = 1.0;
  ZipfSampler z(n, alpha);
  double total = 0.0;
  for (std::size_t r = 0; r < n; ++r) total += z.pmf(r);
  EXPECT_NEAR(total, 1.0, 1e-9);
  for (std::size_t r = 1; r < n; ++r) {
    ASSERT_LE(z.pmf(r), z.pmf(r - 1)) << "rank " << r;
  }
  double norm = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    norm += 1.0 / std::pow(static_cast<double>(r + 1), alpha);
  }
  const double expected_last = (1.0 / static_cast<double>(n)) / norm;
  EXPECT_NEAR(z.pmf(n - 1), expected_last, expected_last * 1e-9);
}

TEST(Zipf, EmpiricalMatchesPmf) {
  ZipfSampler z(8, 1.0);
  Rng rng(3);
  std::vector<int> counts(8, 0);
  const int n = 40000;
  for (int i = 0; i < n; ++i) ++counts[z.sample(rng)];
  for (std::size_t r = 0; r < 8; ++r) {
    EXPECT_NEAR(counts[r] / static_cast<double>(n), z.pmf(r), 0.01);
  }
}

class WorldTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(42);
    WorldConfig cfg;
    cfg.num_domains = 4;
    cfg.concepts_per_domain = 20;
    cfg.num_polysemous = 10;
    world_ = new World(World::generate(cfg, rng));
  }
  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
  }
  static World* world_;
};

World* WorldTest::world_ = nullptr;

TEST_F(WorldTest, DomainNamesResolved) {
  EXPECT_EQ(world_->domain_name(0), "it");
  EXPECT_EQ(world_->domain_name(1), "medical");
  EXPECT_THROW(world_->domain_name(4), Error);
}

TEST_F(WorldTest, MeaningCountMatchesStructure) {
  // function words + polysemous senses + domain concepts.
  std::size_t poly_senses = 0;
  for (std::size_t d = 0; d < 4; ++d) {
    poly_senses += world_->polysemous_meanings(d).size();
  }
  EXPECT_EQ(world_->meaning_count(),
            16u + poly_senses + 4u * 20u);
  EXPECT_GE(poly_senses, 2u * 10u);  // every polysemous word has >= 2 senses
}

TEST_F(WorldTest, PolysemousSurfacesShared) {
  // Each polysemous meaning's surface maps to >= 2 distinct meanings.
  std::map<std::int32_t, std::set<std::int32_t>> by_surface;
  for (std::size_t d = 0; d < 4; ++d) {
    for (const auto mid : world_->polysemous_meanings(d)) {
      by_surface[world_->meaning(mid).surface].insert(mid);
    }
  }
  EXPECT_FALSE(by_surface.empty());
  for (const auto& [surface, senses] : by_surface) {
    EXPECT_GE(senses.size(), 2u) << "surface "
                                 << world_->surface_vocab().word(surface);
  }
}

TEST_F(WorldTest, DomainConceptSurfacesUnique) {
  // Domain-exclusive concepts never share surfaces with anything else.
  std::map<std::int32_t, int> surface_uses;
  for (std::size_t m = 0; m < world_->meaning_count(); ++m) {
    ++surface_uses[world_->meaning(static_cast<std::int32_t>(m)).surface];
  }
  for (std::size_t d = 0; d < 4; ++d) {
    for (const auto mid : world_->domain_meanings(d)) {
      EXPECT_EQ(surface_uses[world_->meaning(mid).surface], 1);
    }
  }
}

TEST_F(WorldTest, SampledSentenceConsistent) {
  Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    const Sentence s = world_->sample_sentence(2, rng);
    EXPECT_EQ(s.domain, 2u);
    EXPECT_EQ(s.surface.size(), world_->config().sentence_length);
    ASSERT_EQ(s.meanings.size(), s.surface.size());
    for (std::size_t p = 0; p < s.meanings.size(); ++p) {
      const Meaning& m = world_->meaning(s.meanings[p]);
      // Surface must be the canonical utterance of the meaning.
      EXPECT_EQ(m.surface, s.surface[p]);
      // Meaning must belong to the sentence's domain or be shared.
      EXPECT_TRUE(m.domain == 2u || m.domain == World::kSharedDomain);
    }
  }
}

TEST_F(WorldTest, SampleRejectsBadDomain) {
  Rng rng(1);
  EXPECT_THROW(world_->sample_sentence(9, rng), Error);
}

TEST_F(WorldTest, GenerationDeterministic) {
  Rng a(42), b(42);
  WorldConfig cfg;
  cfg.num_domains = 2;
  cfg.concepts_per_domain = 8;
  World w1 = World::generate(cfg, a);
  World w2 = World::generate(cfg, b);
  EXPECT_EQ(w1.surface_count(), w2.surface_count());
  EXPECT_EQ(w1.meaning_count(), w2.meaning_count());
  Rng s1(5), s2(5);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(w1.sample_sentence(0, s1).surface,
              w2.sample_sentence(0, s2).surface);
  }
}

TEST_F(WorldTest, RenderersRoundTripWords) {
  Rng rng(9);
  const Sentence s = world_->sample_sentence(1, rng);
  std::istringstream text(world_->surface_to_string(s.surface));
  std::vector<std::int32_t> ids;
  for (std::string word; text >> word;) {
    ids.push_back(world_->surface_vocab().id(word));
  }
  EXPECT_EQ(ids, s.surface);
}

TEST(WorldConfigValidation, RejectsBadConfigs) {
  Rng rng(1);
  WorldConfig no_domains;
  no_domains.num_domains = 0;
  EXPECT_THROW(World::generate(no_domains, rng), Error);
  WorldConfig bad_probs;
  bad_probs.function_word_prob = 0.7;
  bad_probs.polysemous_prob = 0.4;
  EXPECT_THROW(World::generate(bad_probs, rng), Error);
}

TEST(World, SlangPoolExhaustion) {
  Rng rng(2);
  WorldConfig cfg;
  cfg.num_domains = 1;
  cfg.concepts_per_domain = 4;
  cfg.slang_pool_size = 2;
  World w = World::generate(cfg, rng);
  EXPECT_EQ(w.slang_remaining(), 2u);
  w.take_slang_surface();
  w.take_slang_surface();
  EXPECT_THROW(w.take_slang_surface(), Error);
}

TEST(Idiolect, AppliesOnlyMappedMeanings) {
  Rng rng(11);
  WorldConfig cfg;
  cfg.num_domains = 2;
  cfg.concepts_per_domain = 20;
  World w = World::generate(cfg, rng);
  IdiolectConfig icfg;
  icfg.substitution_rate = 0.5;
  Idiolect idio = Idiolect::generate(w, icfg, rng);
  EXPECT_GT(idio.size(), 0u);

  Rng srng(3);
  for (int i = 0; i < 30; ++i) {
    Sentence s = w.sample_sentence(0, srng);
    const Sentence original = s;
    idio.apply(s);
    EXPECT_EQ(s.meanings, original.meanings);  // meaning unchanged
    for (std::size_t p = 0; p < s.surface.size(); ++p) {
      if (idio.remaps(s.meanings[p])) {
        EXPECT_NE(s.surface[p], original.surface[p]);
      } else {
        EXPECT_EQ(s.surface[p], original.surface[p]);
      }
    }
  }
}

TEST(Idiolect, ZeroRateIsEmpty) {
  Rng rng(12);
  WorldConfig cfg;
  cfg.num_domains = 1;
  cfg.concepts_per_domain = 10;
  World w = World::generate(cfg, rng);
  IdiolectConfig icfg;
  icfg.substitution_rate = 0.0;
  const Idiolect idio = Idiolect::generate(w, icfg, rng);
  EXPECT_EQ(idio.size(), 0u);
}

TEST(Idiolect, DeterministicForSameRng) {
  Rng rng1(13), rng2(13);
  WorldConfig cfg;
  cfg.num_domains = 2;
  cfg.concepts_per_domain = 15;
  World w1 = World::generate(cfg, rng1);
  World w2 = World::generate(cfg, rng2);
  IdiolectConfig icfg;
  Rng i1(5), i2(5);
  Idiolect a = Idiolect::generate(w1, icfg, i1);
  Idiolect b = Idiolect::generate(w2, icfg, i2);
  EXPECT_EQ(a.size(), b.size());
}

TEST(PseudoWord, DeterministicAndNonEmpty) {
  Rng a(3), b(3);
  for (int i = 0; i < 20; ++i) {
    const std::string w1 = pseudo_word(a);
    EXPECT_EQ(w1, pseudo_word(b));
    EXPECT_GE(w1.size(), 2u);
  }
}

// Sentence statistics: function-word fraction tracks configuration. A
// world without function words draws none, whatever the probability says.
struct MixtureCase {
  double function_word_prob;
  std::size_t num_function_words;
  double expected_fraction;
};

class SentenceMixture : public ::testing::TestWithParam<MixtureCase> {};

TEST_P(SentenceMixture, FunctionWordFraction) {
  Rng rng(17);
  WorldConfig cfg;
  cfg.num_domains = 2;
  cfg.concepts_per_domain = 10;
  cfg.function_word_prob = GetParam().function_word_prob;
  cfg.num_function_words = GetParam().num_function_words;
  cfg.polysemous_prob = 0.1;
  World w = World::generate(cfg, rng);
  std::size_t function_tokens = 0, total = 0;
  for (int i = 0; i < 400; ++i) {
    const Sentence s = w.sample_sentence(0, rng);
    for (const auto mid : s.meanings) {
      ++total;
      if (w.meaning(mid).domain == World::kSharedDomain) ++function_tokens;
    }
  }
  EXPECT_NEAR(function_tokens / static_cast<double>(total),
              GetParam().expected_fraction, 0.05);
}

INSTANTIATE_TEST_SUITE_P(Sweep, SentenceMixture,
                         ::testing::Values(MixtureCase{0.1, 16, 0.1},
                                           MixtureCase{0.25, 16, 0.25},
                                           MixtureCase{0.4, 16, 0.4},
                                           MixtureCase{0.25, 0, 0.0}));

}  // namespace
}  // namespace semcache::text
