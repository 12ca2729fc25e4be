// Knowledge-base encoder/decoder pair (the "KB models" of Fig. 1).
//
// KbEncoder: surface-token ids -> k-dim semantic feature in (-1, 1)^k.
// KbDecoder: semantic feature  -> per-position logits over the MEANING
// vocabulary. Decoding recovers the *sense* of each word, so a decoder
// trained on the IT domain maps the surface word "bus" to bus#it while the
// transport decoder maps it to bus#transport — the paper's §II-A example.
//
// Architecture: per-position factorized with shared weights (the shape
// DeepSC-style transformer codecs use per token). Each of the L positions
// owns k/L feature dimensions; the same embed->MLP encoder and MLP->logits
// decoder processes every position (position = batch row). This keeps the
// parameter count small, converges quickly, and makes the bottleneck
// interpretable: k/L tanh-bounded floats per word-sense.
//
// The feature dimension k is the semantic bottleneck: it is what gets
// quantized and transmitted, replacing the raw text bits of traditional
// communication.
//
// Because positions are batch rows, a batch of N sentences is just N*L rows
// through the same MLPs: the *_batch entry points stack whole buffers of
// sentences into one kernel invocation per layer, which is where the serving
// and fine-tuning throughput comes from. The single-sentence calls are the
// N == 1 special case of the batch path.
//
// Each half holds its layers as named members and chains their calls; its
// scratch tensors are members too, resized in place, so a warmed-up pass
// makes no heap allocation. Members are constructed in declaration order,
// which is the order the layers draw their initial weights from the RNG:
// reordering them changes every pretrained weight and fixture-cache file.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "common/rng.hpp"
#include "nn/gradcheck.hpp"
#include "nn/layers.hpp"
#include "nn/loss.hpp"
#include "nn/model.hpp"

namespace semcache::semantic {

using nn::Parameter;
using tensor::Tensor;

struct CodecConfig {
  std::size_t surface_vocab = 0;    ///< input vocabulary size
  std::size_t meaning_vocab = 0;    ///< output (sense) vocabulary size
  std::size_t sentence_length = 8;  ///< fixed token window L
  std::size_t embed_dim = 20;
  /// k, the transmitted bottleneck; must be a multiple of sentence_length
  /// (each position owns k/L dims).
  std::size_t feature_dim = 16;
  std::size_t hidden_dim = 48;

  std::size_t per_position_dims() const {
    return feature_dim / sentence_length;
  }
};

/// Semantic feature extractor (one per domain per edge server).
class KbEncoder {
 public:
  KbEncoder(const CodecConfig& config, Rng& rng);

  /// surface.size() must equal config.sentence_length; returns (1 x k)
  /// features bounded to (-1, 1) by the final tanh.
  Tensor encode(std::span<const std::int32_t> surface);
  /// Batched encode: `surface` holds `count` sentences of L tokens each,
  /// concatenated. Returns (count x k) features in an internal buffer
  /// (valid until the next encode); one kernel pass per layer for the
  /// whole batch.
  const Tensor& encode_batch(std::span<const std::int32_t> surface,
                             std::size_t count);
  /// Accumulate gradients given dL/dfeatures (count x k) from the last
  /// encode_batch.
  void backward_batch(const Tensor& grad_features);

  /// enc.embed, enc.l1.{w,b}, enc.l2.{w,b}, in that order.
  nn::ParameterSet parameters();
  const CodecConfig& config() const { return config_; }

 private:
  CodecConfig config_;
  nn::Embedding embed_;
  nn::LinearReLU l1_;
  nn::Linear l2_;
  nn::Tanh tanh_;
  Tensor feature_;    // encode_batch's (count x k) result
  Tensor grad_rows_;  // backward_batch's gradient as (count*L x k/L) rows
};

/// Semantic feature restorer (the KB-decoder; replicated as the sender-side
/// "decoder copy" in §II-C).
class KbDecoder {
 public:
  KbDecoder(const CodecConfig& config, Rng& rng);

  /// Batched logits: features (count x k) -> (count*L x meaning_vocab) in
  /// an internal buffer (valid until the next decode).
  const Tensor& decode_logits_batch(const Tensor& features);
  /// Logits of bare position rows: (rows x k/L) dequantized dims, each
  /// row one position of any sentence -> (rows x meaning_vocab) into
  /// `logits`, through the caller's `hidden` scratch. Row r's logits equal
  /// that position's row of decode_logits_batch. Read-only: any number of
  /// threads may run it on one decoder while nothing trains it.
  void decode_logits_rows(const Tensor& rows, Tensor& hidden,
                          Tensor& logits) const;
  /// Greedy decode of (count x k) features to count*L meaning ids.
  std::vector<std::int32_t> decode(const Tensor& features);
  /// Batched backward: dL/dlogits (count*L x V) -> dL/dfeatures
  /// (count x k) in an internal buffer.
  const Tensor& backward_batch(const Tensor& grad_logits);

  /// dec.l1.{w,b}, dec.l2.{w,b}, in that order.
  nn::ParameterSet parameters();
  const CodecConfig& config() const { return config_; }

 private:
  CodecConfig config_;
  nn::LinearReLU l1_;
  nn::Linear l2_;
  Tensor rows_;       // decode_logits_batch's features as (count*L x k/L) rows
  Tensor dfeature_;   // backward_batch's (count x k) result
};

/// An encoder/decoder pair trained jointly — a complete KB model.
class SemanticCodec {
 public:
  SemanticCodec(const CodecConfig& config, Rng& rng);

  KbEncoder& encoder() { return *encoder_; }
  KbDecoder& decoder() { return *decoder_; }
  const CodecConfig& config() const { return config_; }

  /// Joint forward: encode then decode; fills the internal loss state.
  /// Returns mean cross-entropy over the L positions.
  ///
  /// `feature_noise` > 0 adds uniform noise in [-noise, noise] to the
  /// feature between encoder and decoder (quantization-aware training: the
  /// decoder learns to tolerate the quantizer's worst-case error). The
  /// noise is additive, so the straight-through gradient is exact.
  double forward_loss(std::span<const std::int32_t> surface,
                      std::span<const std::int32_t> meanings,
                      float feature_noise = 0.0f, Rng* rng = nullptr);
  /// Batched joint forward over `count` sentences (surface and meanings
  /// hold count*L concatenated ids). Returns mean cross-entropy over all
  /// count*L positions; one kernel pass per layer for the whole batch.
  double forward_loss_batch(std::span<const std::int32_t> surface,
                            std::span<const std::int32_t> meanings,
                            std::size_t count, float feature_noise = 0.0f,
                            Rng* rng = nullptr);
  /// Backward through decoder and encoder; call after forward_loss[_batch].
  void backward();

  /// End-to-end greedy reconstruction (clean features, no channel).
  std::vector<std::int32_t> reconstruct(std::span<const std::int32_t> surface);

  /// The encoder's parameters, then the decoder's. The order is the
  /// fixture-cache file layout and, for the decoder half, the sync wire
  /// order.
  nn::ParameterSet parameters();
  /// Deep copy with byte-identical weights (used to spawn user models from
  /// general models, Fig. 1 step ②).
  std::unique_ptr<SemanticCodec> clone() const;

  /// Serialized model size in bytes (what caching charges, E5).
  std::size_t byte_size() const;

 private:
  CodecConfig config_;
  std::unique_ptr<KbEncoder> encoder_;
  std::unique_ptr<KbDecoder> decoder_;
  nn::SoftmaxCrossEntropy loss_;
  Tensor noisy_;  // forward_loss_batch's feature plus training noise
};

}  // namespace semcache::semantic
