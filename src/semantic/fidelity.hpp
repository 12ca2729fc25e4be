// Semantic fidelity evaluation: how well reconstructed meanings match what
// the sender meant.
#pragma once

#include "metrics/stats.hpp"
#include "semantic/codec.hpp"
#include "semantic/trainer.hpp"
#include "text/corpus.hpp"
#include "text/idiolect.hpp"

namespace semcache::semantic {

struct FidelityReport {
  double token_accuracy = 0.0;   ///< mean per-position meaning accuracy
  double sentence_exact = 0.0;   ///< fraction of perfectly recovered sentences
  double bleu = 0.0;             ///< mean BLEU over sentences
  double mean_loss = 0.0;        ///< mean cross-entropy
  std::size_t sentences = 0;
};

/// Evaluate a codec on freshly sampled sentences from one domain (clean
/// features, no quantization/channel — the semantic-layer ceiling).
FidelityReport evaluate_codec(SemanticCodec& codec, const text::World& world,
                              std::size_t domain, std::size_t sentences,
                              Rng& rng,
                              const text::Idiolect* idiolect = nullptr);

}  // namespace semcache::semantic
