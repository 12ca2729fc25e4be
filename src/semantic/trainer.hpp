// Training loops for KB codecs: domain pretraining (the "well-pretrained
// general KB-encoders" of §II-A), pooled pretraining (the general-model
// baseline), and fine-tuning on buffered user transactions (§II-D).
#pragma once

#include <vector>

#include "semantic/codec.hpp"
#include "text/corpus.hpp"
#include "text/idiolect.hpp"

namespace semcache::semantic {

/// One buffered communication transaction: what the user uttered and what
/// they meant. This is the record type stored in the domain buffers b^m.
struct Sample {
  std::vector<std::int32_t> surface;
  std::vector<std::int32_t> meanings;
};

struct TrainStats {
  std::size_t steps = 0;
  double first_loss = 0.0;
  double final_loss = 0.0;
};

struct TrainConfig {
  std::size_t steps = 3000;
  double lr = 3e-3;
  double grad_clip = 5.0;
  /// Quantization-aware feature noise amplitude (0 = off); typically the
  /// quantizer's half step, see FeatureQuantizer::max_error().
  double feature_noise = 0.0;
};

class CodecTrainer {
 public:
  /// Pretrain on sentences drawn from a single domain.
  static TrainStats pretrain_domain(SemanticCodec& codec,
                                    const text::World& world,
                                    std::size_t domain,
                                    const TrainConfig& config, Rng& rng);

  /// Pretrain on sentences pooled uniformly over all domains (the single
  /// general model §II-A argues against).
  static TrainStats pretrain_pooled(SemanticCodec& codec,
                                    const text::World& world,
                                    const TrainConfig& config, Rng& rng);

  /// Epoch-based fine-tuning on a fixed set of samples (the user buffer).
  ///
  /// `batch_size` > 1 stacks that many shuffled samples per optimizer step
  /// through the codec's *_batch entry points (one kernel pass per layer
  /// for the whole minibatch; the gradient is the mean over the batch).
  /// The default of 1 preserves the per-sample update sequence exactly.
  ///
  /// Runs with subnormal floats flushed to zero (x86 FTZ and DAZ) on the
  /// calling thread and hands back the caller's MXCSR on return or throw.
  static TrainStats finetune(SemanticCodec& codec,
                             std::span<const Sample> samples,
                             std::size_t epochs, double lr, Rng& rng,
                             double feature_noise = 0.0,
                             std::size_t batch_size = 1);

  /// Draw a sample: sentence from `domain`, idiolect applied if non-null.
  static Sample draw_sample(const text::World& world, std::size_t domain,
                            const text::Idiolect* idiolect, Rng& rng);
};

}  // namespace semcache::semantic
