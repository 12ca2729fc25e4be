// Bimodal (text + scene) semantic codec — the §III-B research direction.
//
// "Given the diverse nature of message types, including text, image, video
// and audio, it is crucial to consider multimodality when designing these
// models."
//
// We simulate the visual modality as SCENE TAGS: each message carries a few
// tags drawn from its domain's visual inventory (a Metaverse scene graph —
// "road", "hospital ward", "server rack" — reduced to ids). The bimodal
// encoder transmits, alongside the per-position text features, a small
// SCENE VECTOR pooled from the tags; the decoder conditions every position
// on it. The payoff is architectural: a *single pooled* bimodal codec can
// resolve "bus"-style polysemy from scene context alone, without
// domain-specialized decoders (experiment E12).
#pragma once

#include <memory>

#include "semantic/codec.hpp"

namespace semcache::semantic {

struct SceneConfig {
  std::size_t tags_per_domain = 12;  ///< visual inventory size per domain
  std::size_t tags_per_scene = 4;    ///< tags attached to one message
  double off_domain_prob = 0.1;      ///< chance a tag is domain-unrelated
};

/// Scene tags live in a global vocabulary of num_domains * tags_per_domain
/// ids, domain d owning the contiguous block [d*tags_per_domain, ...).
class SceneSampler {
 public:
  SceneSampler(std::size_t num_domains, const SceneConfig& config);

  std::vector<std::int32_t> sample(std::size_t domain, Rng& rng) const;
  std::size_t scene_vocab() const {
    return num_domains_ * config_.tags_per_domain;
  }
  const SceneConfig& config() const { return config_; }

 private:
  std::size_t num_domains_;
  SceneConfig config_;
};

struct BimodalConfig {
  CodecConfig text;               ///< the usual per-position text codec dims
  std::size_t scene_vocab = 0;    ///< from SceneSampler::scene_vocab()
  std::size_t scene_embed_dim = 12;
  std::size_t scene_feature_dim = 4;  ///< extra transmitted dims

  std::size_t total_feature_dim() const {
    return text.feature_dim + scene_feature_dim;
  }
};

/// Encoder/decoder pair over (text tokens, scene tags). The transmitted
/// feature is [per-position text dims | scene dims]; the decoder feeds
/// every position the scene vector next to its own feature slice.
class BimodalCodec {
 public:
  BimodalCodec(const BimodalConfig& config, Rng& rng);

  /// Returns (1 x total_feature_dim), all tanh-bounded.
  Tensor encode(std::span<const std::int32_t> surface,
                std::span<const std::int32_t> scene);
  /// (L x meaning_vocab) logits from a received feature.
  Tensor decode_logits(const Tensor& feature);
  std::vector<std::int32_t> decode(const Tensor& feature);

  /// Joint train step support (mirrors SemanticCodec).
  double forward_loss(std::span<const std::int32_t> surface,
                      std::span<const std::int32_t> scene,
                      std::span<const std::int32_t> meanings,
                      float feature_noise = 0.0f, Rng* rng = nullptr);
  void backward();

  /// The text embedding, t1, t2, the scene embedding, s1, s2, d1, d2.
  nn::ParameterSet parameters();
  const BimodalConfig& config() const { return config_; }

 private:
  BimodalConfig config_;
  // Declaration order is construction order, which is the order the layers
  // draw their initial weights: both embeddings, then t1, t2, s1, s2, d1, d2.
  nn::Embedding text_embed_;
  nn::Embedding scene_embed_;
  // Text side (same shape as KbEncoder).
  nn::LinearReLU t1_;
  nn::Linear t2_;
  nn::Tanh text_tanh_;
  // Scene side: mean-pooled tag embeddings -> scene feature.
  nn::LinearReLU s1_;
  nn::Linear s2_;
  nn::Tanh scene_tanh_;
  std::size_t last_scene_count_ = 0;
  // Decoder: per position [text slice | scene vector] -> logits.
  nn::LinearReLU d1_;
  nn::Linear d2_;
  nn::SoftmaxCrossEntropy loss_;
};

}  // namespace semcache::semantic
