#include "semantic/bimodal.hpp"

#include "common/check.hpp"
#include "tensor/ops.hpp"

namespace semcache::semantic {

SceneSampler::SceneSampler(std::size_t num_domains, const SceneConfig& config)
    : num_domains_(num_domains), config_(config) {
  SEMCACHE_CHECK(num_domains >= 1, "scene: need at least one domain");
  SEMCACHE_CHECK(config.tags_per_domain >= 1 && config.tags_per_scene >= 1,
                 "scene: tag counts must be >= 1");
  SEMCACHE_CHECK(config.off_domain_prob >= 0.0 && config.off_domain_prob < 1.0,
                 "scene: off_domain_prob must be in [0, 1)");
}

std::vector<std::int32_t> SceneSampler::sample(std::size_t domain,
                                               Rng& rng) const {
  SEMCACHE_CHECK(domain < num_domains_, "scene: domain out of range");
  std::vector<std::int32_t> tags;
  tags.reserve(config_.tags_per_scene);
  for (std::size_t i = 0; i < config_.tags_per_scene; ++i) {
    std::size_t d = domain;
    if (num_domains_ > 1 && rng.bernoulli(config_.off_domain_prob)) {
      // Clutter: a tag from some other domain's inventory.
      const auto offset = static_cast<std::size_t>(rng.uniform_int(
          1, static_cast<std::int64_t>(num_domains_) - 1));
      d = (domain + offset) % num_domains_;
    }
    const auto tag = rng.uniform_int(
        0, static_cast<std::int64_t>(config_.tags_per_domain) - 1);
    tags.push_back(static_cast<std::int32_t>(
        d * config_.tags_per_domain + static_cast<std::size_t>(tag)));
  }
  return tags;
}

namespace {
// Called first in the init list, so a bad config is refused before any
// layer draws from the RNG.
const BimodalConfig& validated(const BimodalConfig& config) {
  SEMCACHE_CHECK(config.scene_vocab >= 2, "bimodal: scene_vocab too small");
  SEMCACHE_CHECK(config.scene_feature_dim >= 1,
                 "bimodal: scene_feature_dim must be >= 1");
  SEMCACHE_CHECK(config.text.sentence_length >= 1 &&
                     config.text.feature_dim % config.text.sentence_length == 0,
                 "bimodal: text feature_dim must be a multiple of L");
  return config;
}
}  // namespace

// Hidden layers use the fused LinearReLU (bit- and checkpoint-compatible
// with the Linear + ReLU pairs they replace).
BimodalCodec::BimodalCodec(const BimodalConfig& config, Rng& rng)
    : config_(validated(config)),
      text_embed_(config.text.surface_vocab, config.text.embed_dim, rng,
                  "bim.text_embed"),
      scene_embed_(config.scene_vocab, config.scene_embed_dim, rng,
                   "bim.scene_embed"),
      t1_(config.text.embed_dim, config.text.hidden_dim, rng, "bim.t1"),
      t2_(config.text.hidden_dim, config.text.per_position_dims(), rng,
          "bim.t2"),
      s1_(config.scene_embed_dim, config.text.hidden_dim, rng, "bim.s1"),
      s2_(config.text.hidden_dim, config.scene_feature_dim, rng, "bim.s2"),
      d1_(config.text.per_position_dims() + config.scene_feature_dim,
          config.text.hidden_dim, rng, "bim.d1"),
      d2_(config.text.hidden_dim, config.text.meaning_vocab, rng, "bim.d2") {}

Tensor BimodalCodec::encode(std::span<const std::int32_t> surface,
                            std::span<const std::int32_t> scene) {
  const std::size_t L = config_.text.sentence_length;
  SEMCACHE_CHECK(surface.size() == L, "bimodal: wrong sentence length");
  SEMCACHE_CHECK(!scene.empty(), "bimodal: empty scene");
  // Text half: (L x per_pos).
  Tensor h = text_tanh_.forward(
      t2_.forward(t1_.forward(text_embed_.forward(surface))));
  // Scene half: mean-pool tag embeddings -> (1 x scene_feature).
  const Tensor tags = scene_embed_.forward(scene);
  last_scene_count_ = scene.size();
  Tensor pooled({1, config_.scene_embed_dim});
  for (std::size_t t = 0; t < tags.dim(0); ++t) {
    for (std::size_t j = 0; j < config_.scene_embed_dim; ++j) {
      pooled.at(0, j) += tags.at(t, j) / static_cast<float>(tags.dim(0));
    }
  }
  const Tensor& scene_feat =
      scene_tanh_.forward(s2_.forward(s1_.forward(pooled)));

  Tensor out({1, config_.total_feature_dim()});
  h.reshape({1, config_.text.feature_dim});
  for (std::size_t i = 0; i < config_.text.feature_dim; ++i) {
    out.at(0, i) = h.at(0, i);
  }
  for (std::size_t i = 0; i < config_.scene_feature_dim; ++i) {
    out.at(0, config_.text.feature_dim + i) = scene_feat.at(0, i);
  }
  return out;
}

Tensor BimodalCodec::decode_logits(const Tensor& feature) {
  SEMCACHE_CHECK(feature.rank() == 2 && feature.dim(0) == 1 &&
                     feature.dim(1) == config_.total_feature_dim(),
                 "bimodal: feature must be (1 x total_dim)");
  const std::size_t L = config_.text.sentence_length;
  const std::size_t per_pos = config_.text.per_position_dims();
  Tensor dec_in({L, per_pos + config_.scene_feature_dim});
  for (std::size_t p = 0; p < L; ++p) {
    for (std::size_t i = 0; i < per_pos; ++i) {
      dec_in.at(p, i) = feature.at(0, p * per_pos + i);
    }
    for (std::size_t i = 0; i < config_.scene_feature_dim; ++i) {
      dec_in.at(p, per_pos + i) =
          feature.at(0, config_.text.feature_dim + i);
    }
  }
  return d2_.forward(d1_.forward(dec_in));
}

std::vector<std::int32_t> BimodalCodec::decode(const Tensor& feature) {
  return tensor::row_argmax(decode_logits(feature));
}

double BimodalCodec::forward_loss(std::span<const std::int32_t> surface,
                                  std::span<const std::int32_t> scene,
                                  std::span<const std::int32_t> meanings,
                                  float feature_noise, Rng* rng) {
  Tensor feature = encode(surface, scene);
  if (feature_noise > 0.0f) {
    SEMCACHE_CHECK(rng != nullptr, "bimodal: noise requires an rng");
    float* pf = feature.data();
    for (std::size_t i = 0; i < feature.size(); ++i) {
      pf[i] += static_cast<float>(rng->uniform(-feature_noise, feature_noise));
    }
  }
  return loss_.forward(decode_logits(feature), meanings);
}

void BimodalCodec::backward() {
  const std::size_t L = config_.text.sentence_length;
  const std::size_t per_pos = config_.text.per_position_dims();
  const Tensor& dgrid = d1_.backward(d2_.backward(loss_.backward()));
  // Split the decoder-input gradient back into text and scene halves.
  Tensor dtext({L, per_pos});
  Tensor dscene({1, config_.scene_feature_dim});
  for (std::size_t p = 0; p < L; ++p) {
    for (std::size_t i = 0; i < per_pos; ++i) {
      dtext.at(p, i) = dgrid.at(p, i);
    }
    for (std::size_t i = 0; i < config_.scene_feature_dim; ++i) {
      dscene.at(0, i) += dgrid.at(p, per_pos + i);  // broadcast -> sum
    }
  }
  text_embed_.backward(
      t1_.backward(t2_.backward(text_tanh_.backward(dtext))));
  const Tensor& dpooled =
      s1_.backward(s2_.backward(scene_tanh_.backward(dscene)));
  // Mean-pool backward: spread evenly over the scene tags.
  SEMCACHE_CHECK(last_scene_count_ > 0, "bimodal: backward before encode");
  Tensor dtags({last_scene_count_, config_.scene_embed_dim});
  for (std::size_t t = 0; t < last_scene_count_; ++t) {
    for (std::size_t j = 0; j < config_.scene_embed_dim; ++j) {
      dtags.at(t, j) =
          dpooled.at(0, j) / static_cast<float>(last_scene_count_);
    }
  }
  scene_embed_.backward(dtags);
}

nn::ParameterSet BimodalCodec::parameters() {
  nn::ParameterSet set;
  set.add_all(text_embed_.parameters());
  set.add_all(t1_.parameters());
  set.add_all(t2_.parameters());
  set.add_all(scene_embed_.parameters());
  set.add_all(s1_.parameters());
  set.add_all(s2_.parameters());
  set.add_all(d1_.parameters());
  set.add_all(d2_.parameters());
  return set;
}

}  // namespace semcache::semantic
