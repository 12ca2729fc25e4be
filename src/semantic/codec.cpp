#include "semantic/codec.hpp"

#include <cstring>

#include "common/check.hpp"
#include "tensor/ops.hpp"

namespace semcache::semantic {

namespace {
// Called first in each half's init list, so a bad config is refused before
// any layer draws from the RNG.
const CodecConfig& validated(const CodecConfig& c) {
  SEMCACHE_CHECK(c.surface_vocab >= 2, "codec: surface_vocab too small");
  SEMCACHE_CHECK(c.meaning_vocab >= 2, "codec: meaning_vocab too small");
  SEMCACHE_CHECK(c.sentence_length >= 1, "codec: sentence_length must be >= 1");
  SEMCACHE_CHECK(c.embed_dim >= 1 && c.feature_dim >= 1 && c.hidden_dim >= 1,
                 "codec: dims must be >= 1");
  SEMCACHE_CHECK(c.feature_dim % c.sentence_length == 0,
                 "codec: feature_dim must be a multiple of sentence_length "
                 "(per-position factorization)");
  return c;
}
}  // namespace

// Shared per-position encoder: positions are batch rows. The fused
// LinearReLU is bit- and checkpoint-compatible with the Linear + ReLU pair
// it replaces (same parameter names, same RNG draws, same bits).
KbEncoder::KbEncoder(const CodecConfig& config, Rng& rng)
    : config_(validated(config)),
      embed_(config.surface_vocab, config.embed_dim, rng, "enc.embed"),
      l1_(config.embed_dim, config.hidden_dim, rng, "enc.l1"),
      l2_(config.hidden_dim, config.per_position_dims(), rng, "enc.l2") {}

const Tensor& KbEncoder::encode_batch(std::span<const std::int32_t> surface,
                                      std::size_t count) {
  SEMCACHE_CHECK(count >= 1, "encode_batch: empty batch");
  SEMCACHE_CHECK(surface.size() == count * config_.sentence_length,
                 "encode_batch: expected " + std::to_string(count) + " x " +
                     std::to_string(config_.sentence_length) +
                     " tokens, got " + std::to_string(surface.size()));
  // (count*L x embed) -> (count*L x hidden) -> (count*L x k/L)
  const Tensor& h =
      tanh_.forward(l2_.forward(l1_.forward(embed_.forward(surface))));
  // Rows regroup into per-sentence features: L positions x k/L dims = k.
  feature_.resize({count, config_.feature_dim});
  std::memcpy(feature_.data(), h.data(), h.size() * sizeof(float));
  return feature_;
}

Tensor KbEncoder::encode(std::span<const std::int32_t> surface) {
  SEMCACHE_CHECK(surface.size() == config_.sentence_length,
                 "encode: expected exactly " +
                     std::to_string(config_.sentence_length) + " tokens, got " +
                     std::to_string(surface.size()));
  return encode_batch(surface, 1);
}

void KbEncoder::backward_batch(const Tensor& grad_features) {
  SEMCACHE_CHECK(grad_features.rank() == 2 &&
                     grad_features.dim(1) == config_.feature_dim,
                 "encoder backward: gradient must be (count x k)");
  grad_rows_.resize({grad_features.dim(0) * config_.sentence_length,
                     config_.per_position_dims()});
  std::memcpy(grad_rows_.data(), grad_features.data(),
              grad_features.size() * sizeof(float));
  embed_.backward(l1_.backward(l2_.backward(tanh_.backward(grad_rows_))));
}

nn::ParameterSet KbEncoder::parameters() {
  nn::ParameterSet set;
  set.add_all(embed_.parameters());
  set.add_all(l1_.parameters());
  set.add_all(l2_.parameters());
  return set;
}

// Shared per-position decoder: positions are batch rows (fused LinearReLU:
// same bits/params as the former Linear + ReLU pair).
KbDecoder::KbDecoder(const CodecConfig& config, Rng& rng)
    : config_(validated(config)),
      l1_(config.per_position_dims(), config.hidden_dim, rng, "dec.l1"),
      l2_(config.hidden_dim, config.meaning_vocab, rng, "dec.l2") {}

const Tensor& KbDecoder::decode_logits_batch(const Tensor& features) {
  SEMCACHE_CHECK(features.rank() == 2 &&
                     features.dim(1) == config_.feature_dim,
                 "decode: features must be (count x k)");
  rows_.resize({features.dim(0) * config_.sentence_length,
                config_.per_position_dims()});
  std::memcpy(rows_.data(), features.data(), features.size() * sizeof(float));
  return l2_.forward(l1_.forward(rows_));  // (count*L x meaning_vocab)
}

void KbDecoder::decode_logits_rows(const Tensor& rows, Tensor& hidden,
                                   Tensor& logits) const {
  SEMCACHE_CHECK(rows.rank() == 2 &&
                     rows.dim(1) == config_.per_position_dims(),
                 "decode: rows must be (rows x k/L)");
  l1_.infer(rows, hidden);
  l2_.infer(hidden, logits);
}

std::vector<std::int32_t> KbDecoder::decode(const Tensor& features) {
  return tensor::row_argmax(decode_logits_batch(features));
}

const Tensor& KbDecoder::backward_batch(const Tensor& grad_logits) {
  // (count*L x k/L)
  const Tensor& g = l1_.backward(l2_.backward(grad_logits));
  SEMCACHE_CHECK(g.dim(0) % config_.sentence_length == 0,
                 "decoder backward: row count not a sentence multiple");
  dfeature_.resize({g.dim(0) / config_.sentence_length, config_.feature_dim});
  std::memcpy(dfeature_.data(), g.data(), g.size() * sizeof(float));
  return dfeature_;
}

nn::ParameterSet KbDecoder::parameters() {
  nn::ParameterSet set;
  set.add_all(l1_.parameters());
  set.add_all(l2_.parameters());
  return set;
}

SemanticCodec::SemanticCodec(const CodecConfig& config, Rng& rng)
    : config_(config),
      encoder_(std::make_unique<KbEncoder>(config, rng)),
      decoder_(std::make_unique<KbDecoder>(config, rng)) {}

double SemanticCodec::forward_loss_batch(std::span<const std::int32_t> surface,
                                         std::span<const std::int32_t> meanings,
                                         std::size_t count,
                                         float feature_noise, Rng* rng) {
  SEMCACHE_CHECK(meanings.size() == count * config_.sentence_length,
                 "forward_loss: meaning count mismatch");
  const Tensor& feature = encoder_->encode_batch(surface, count);
  const Tensor* input = &feature;
  if (feature_noise > 0.0f) {
    SEMCACHE_CHECK(rng != nullptr, "forward_loss: noise requires an rng");
    noisy_.resize(feature.shape());
    const float* pf = feature.data();
    float* pn = noisy_.data();
    for (std::size_t i = 0; i < noisy_.size(); ++i) {
      pn[i] = pf[i] +
              static_cast<float>(rng->uniform(-feature_noise, feature_noise));
    }
    input = &noisy_;
  }
  const Tensor& logits = decoder_->decode_logits_batch(*input);
  return loss_.forward(logits, meanings);
}

double SemanticCodec::forward_loss(std::span<const std::int32_t> surface,
                                   std::span<const std::int32_t> meanings,
                                   float feature_noise, Rng* rng) {
  return forward_loss_batch(surface, meanings, 1, feature_noise, rng);
}

void SemanticCodec::backward() {
  const Tensor& dlogits = loss_.backward();
  encoder_->backward_batch(decoder_->backward_batch(dlogits));
}

std::vector<std::int32_t> SemanticCodec::reconstruct(
    std::span<const std::int32_t> surface) {
  return decoder_->decode(encoder_->encode_batch(
      surface, surface.size() / config_.sentence_length));
}

nn::ParameterSet SemanticCodec::parameters() {
  nn::ParameterSet set;
  set.add_all(encoder_->parameters().params());
  set.add_all(decoder_->parameters().params());
  return set;
}

std::unique_ptr<SemanticCodec> SemanticCodec::clone() const {
  // Construct with a throwaway rng, then overwrite with our exact weights.
  Rng scratch(0);
  auto copy = std::make_unique<SemanticCodec>(config_, scratch);
  nn::ParameterSet src = const_cast<SemanticCodec*>(this)->parameters();
  copy->parameters().copy_values_from(src);
  return copy;
}

std::size_t SemanticCodec::byte_size() const {
  return const_cast<SemanticCodec*>(this)->parameters().byte_size();
}

}  // namespace semcache::semantic
