// Unit tests for semcache::select — naive Bayes / logistic baselines learn
// separable domains; context-aware selectors exploit conversation
// stickiness; the GRU classifier trains end-to-end.
#include <gtest/gtest.h>

#include "common/check.hpp"
#include "select/context.hpp"
#include "select/gru_classifier.hpp"
#include "select/logistic.hpp"
#include "select/naive_bayes.hpp"

namespace semcache::select {
namespace {

class SelectorWorld : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(51);
    text::WorldConfig cfg;
    cfg.num_domains = 3;
    cfg.concepts_per_domain = 15;
    cfg.num_polysemous = 8;
    cfg.sentence_length = 6;
    world_ = new text::World(text::World::generate(cfg, rng));
  }
  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
  }

  static void train(DomainSelector& sel, std::size_t examples,
                    std::uint64_t seed) {
    Rng rng(seed);
    for (std::size_t i = 0; i < examples; ++i) {
      const auto d = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(world_->num_domains()) - 1));
      const auto s = world_->sample_sentence(d, rng);
      sel.observe(s.surface, d);
    }
  }

  static double stateless_accuracy(DomainSelector& sel, std::size_t n,
                                   std::uint64_t seed) {
    Rng rng(seed);
    std::size_t correct = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const auto d = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(world_->num_domains()) - 1));
      const auto s = world_->sample_sentence(d, rng);
      sel.reset_context();
      if (sel.select(s.surface) == d) ++correct;
    }
    return static_cast<double>(correct) / static_cast<double>(n);
  }

  static double conversation_accuracy(DomainSelector& sel, std::size_t convs,
                                      double switch_prob, std::uint64_t seed) {
    Rng rng(seed);
    std::size_t correct = 0, total = 0;
    for (std::size_t c = 0; c < convs; ++c) {
      const Conversation conv =
          generate_conversation(*world_, 16, switch_prob, rng);
      sel.reset_context();
      for (const auto& msg : conv.messages) {
        if (sel.select(msg.surface) == msg.domain) ++correct;
        ++total;
      }
    }
    return static_cast<double>(correct) / static_cast<double>(total);
  }

  static text::World* world_;
};

text::World* SelectorWorld::world_ = nullptr;

TEST_F(SelectorWorld, NaiveBayesLearnsSeparableDomains) {
  NaiveBayesSelector nb(world_->surface_count(), world_->num_domains());
  train(nb, 600, 1);
  EXPECT_GT(stateless_accuracy(nb, 300, 2), 0.9);
}

TEST_F(SelectorWorld, NaiveBayesPosteriorNormalized) {
  NaiveBayesSelector nb(world_->surface_count(), world_->num_domains());
  train(nb, 100, 3);
  Rng rng(4);
  const auto s = world_->sample_sentence(0, rng);
  const auto post = nb.log_posterior(s.surface);
  double total = 0.0;
  for (const double lp : post) total += std::exp(lp);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST_F(SelectorWorld, NaiveBayesValidatesInput) {
  NaiveBayesSelector nb(10, 2);
  const std::vector<std::int32_t> bad = {11};
  EXPECT_THROW(nb.observe(bad, 0), Error);
  const std::vector<std::int32_t> ok = {1};
  EXPECT_THROW(nb.observe(ok, 5), Error);
}

TEST_F(SelectorWorld, LogisticLearnsSeparableDomains) {
  Rng rng(5);
  LogisticSelector lr(world_->surface_count(), world_->num_domains(), rng);
  train(lr, 1200, 6);
  EXPECT_GT(stateless_accuracy(lr, 300, 7), 0.85);
}

TEST_F(SelectorWorld, ContextBeatsStatelessOnStickyConversations) {
  // Polysemy-heavy short messages are ambiguous one at a time; context
  // disambiguates. This is the §III-A claim in miniature.
  auto nb_base = std::make_unique<NaiveBayesSelector>(
      world_->surface_count(), world_->num_domains());
  train(*nb_base, 600, 8);
  NaiveBayesSelector nb_plain(world_->surface_count(), world_->num_domains());
  train(nb_plain, 600, 8);

  ContextSelector ctx(std::move(nb_base), world_->num_domains());
  const double ctx_acc = conversation_accuracy(ctx, 40, 0.08, 9);
  const double plain_acc = conversation_accuracy(nb_plain, 40, 0.08, 9);
  EXPECT_GE(ctx_acc, plain_acc);
}

TEST_F(SelectorWorld, ContextResetForgetsHistory) {
  auto base = std::make_unique<NaiveBayesSelector>(world_->surface_count(),
                                                   world_->num_domains());
  train(*base, 600, 10);
  ContextSelector ctx(std::move(base), world_->num_domains());
  Rng rng(11);
  // Prime context hard on domain 0.
  for (int i = 0; i < 8; ++i) {
    ctx.select(world_->sample_sentence(0, rng).surface);
  }
  ctx.reset_context();
  // After reset, a clear domain-1 message must win immediately.
  std::size_t wins = 0;
  for (int i = 0; i < 20; ++i) {
    ctx.reset_context();
    if (ctx.select(world_->sample_sentence(1, rng).surface) == 1) ++wins;
  }
  EXPECT_GE(wins, 16u);
}

TEST_F(SelectorWorld, ContextValidatesConfig) {
  auto base = std::make_unique<NaiveBayesSelector>(10, 2);
  ContextConfig bad;
  bad.ewma = 1.0;
  EXPECT_THROW(ContextSelector(std::move(base), 2, bad), Error);
  EXPECT_THROW(ContextSelector(nullptr, 2), Error);
}

TEST_F(SelectorWorld, GruTrainsOnConversations) {
  Rng rng(12);
  GruClassifierConfig cfg;
  GruClassifier gru(world_->surface_count(), world_->num_domains(), rng, cfg);
  Rng crng(13);
  double first_loss = 0.0, last_loss = 0.0;
  for (int i = 0; i < 150; ++i) {
    const Conversation conv = generate_conversation(*world_, 10, 0.1, crng);
    const double loss = gru.train_conversation(conv);
    if (i == 0) first_loss = loss;
    last_loss = loss;
  }
  EXPECT_LT(last_loss, first_loss);
  EXPECT_GT(conversation_accuracy(gru, 20, 0.1, 14), 0.6);
}

TEST_F(SelectorWorld, GruContextAccumulatesAcrossSelects) {
  Rng rng(15);
  GruClassifier gru(world_->surface_count(), world_->num_domains(), rng);
  Rng crng(16);
  for (int i = 0; i < 100; ++i) {
    gru.train_conversation(generate_conversation(*world_, 8, 0.1, crng));
  }
  // select() without reset threads hidden state through the conversation.
  Rng mrng(17);
  gru.reset_context();
  for (int i = 0; i < 5; ++i) {
    gru.select(world_->sample_sentence(2, mrng).surface);
  }
  // No crash, and context length grew; reset clears it.
  gru.reset_context();
  SUCCEED();
}

TEST_F(SelectorWorld, GruRejectsEmptyConversation) {
  Rng rng(18);
  GruClassifier gru(world_->surface_count(), world_->num_domains(), rng);
  EXPECT_THROW(gru.train_conversation(Conversation{}), Error);
}

TEST_F(SelectorWorld, ConversationGeneratorProperties) {
  Rng rng(19);
  // switch_prob 0: single topic throughout.
  const Conversation stable = generate_conversation(*world_, 12, 0.0, rng);
  ASSERT_EQ(stable.messages.size(), 12u);
  for (const auto& m : stable.messages) {
    EXPECT_EQ(m.domain, stable.messages[0].domain);
  }
  // switch_prob 1: every message changes domain.
  const Conversation jumpy = generate_conversation(*world_, 12, 1.0, rng);
  for (std::size_t i = 1; i < jumpy.messages.size(); ++i) {
    EXPECT_NE(jumpy.messages[i].domain, jumpy.messages[i - 1].domain);
  }
}

TEST_F(SelectorWorld, SelectorNamesDistinct) {
  Rng rng(20);
  NaiveBayesSelector nb(10, 2);
  LogisticSelector lr(10, 2, rng);
  GruClassifier gru(10, 2, rng);
  auto base = std::make_unique<NaiveBayesSelector>(10, 2);
  ContextSelector ctx(std::move(base), 2);
  EXPECT_EQ(nb.name(), "naive_bayes");
  EXPECT_EQ(lr.name(), "logistic");
  EXPECT_EQ(gru.name(), "gru");
  EXPECT_EQ(ctx.name(), "context(naive_bayes)");
}

// Sweep: context advantage grows as conversations get stickier (lower
// switch probability).
class StickinessSweep : public ::testing::TestWithParam<double> {};

TEST_P(StickinessSweep, ContextNeverMuchWorse) {
  Rng rng(61);
  text::WorldConfig cfg;
  cfg.num_domains = 3;
  cfg.concepts_per_domain = 12;
  cfg.num_polysemous = 8;
  cfg.sentence_length = 5;
  text::World world = text::World::generate(cfg, rng);

  auto make_nb = [&] {
    auto nb = std::make_unique<NaiveBayesSelector>(world.surface_count(), 3);
    Rng trng(62);
    for (int i = 0; i < 500; ++i) {
      const auto d = static_cast<std::size_t>(trng.uniform_int(0, 2));
      const auto s = world.sample_sentence(d, trng);
      nb->observe(s.surface, d);
    }
    return nb;
  };

  auto run = [&](DomainSelector& sel) {
    Rng crng(63);
    std::size_t correct = 0, total = 0;
    for (int c = 0; c < 30; ++c) {
      const Conversation conv =
          generate_conversation(world, 14, GetParam(), crng);
      sel.reset_context();
      for (const auto& m : conv.messages) {
        if (sel.select(m.surface) == m.domain) ++correct;
        ++total;
      }
    }
    return static_cast<double>(correct) / static_cast<double>(total);
  };

  auto plain = make_nb();
  ContextSelector ctx(make_nb(), 3);
  // Context should never lose more than a little, even when topics jump.
  EXPECT_GE(run(ctx), run(*plain) - 0.05) << "switch " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Sweep, StickinessSweep,
                         ::testing::Values(0.02, 0.1, 0.3));

}  // namespace
}  // namespace semcache::select
