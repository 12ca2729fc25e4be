#include "semantic/fidelity.hpp"

#include "metrics/ngram.hpp"

namespace semcache::semantic {

FidelityReport evaluate_codec(SemanticCodec& codec, const text::World& world,
                              std::size_t domain, std::size_t sentences,
                              Rng& rng, const text::Idiolect* idiolect) {
  FidelityReport report;
  metrics::OnlineStats acc;
  metrics::OnlineStats bleu;
  metrics::OnlineStats loss;
  std::size_t exact = 0;
  for (std::size_t i = 0; i < sentences; ++i) {
    const Sample s = CodecTrainer::draw_sample(world, domain, idiolect, rng);
    loss.add(codec.forward_loss(s.surface, s.meanings));
    const auto decoded = codec.reconstruct(s.surface);
    acc.add(metrics::token_accuracy(s.meanings, decoded));
    bleu.add(metrics::bleu(s.meanings, decoded, 2));
    if (decoded == s.meanings) ++exact;
  }
  report.token_accuracy = acc.mean();
  report.bleu = bleu.mean();
  report.mean_loss = loss.mean();
  report.sentence_exact =
      sentences == 0 ? 0.0
                     : static_cast<double>(exact) / static_cast<double>(sentences);
  report.sentences = sentences;
  return report;
}

}  // namespace semcache::semantic
