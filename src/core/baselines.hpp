// Baselines the experiments compare against.
//
//  * TraditionalCodec — bit-oriented communication: surface token ids are
//    serialized to bytes, source-compressed with a corpus-trained Huffman
//    code, and sent through the SAME channel stack as the semantic
//    features. Fidelity is measured at the surface level, plus a meaning-
//    level translation using the true domain's surface->meaning table (a
//    generous "perfectly informed human reader" assumption).
//  * The general-model-only and no-decoder-copy baselines are SystemConfig
//    switches on SemanticEdgeSystem itself (benches flip them).
#pragma once

#include <unordered_map>

#include "channel/pipeline.hpp"
#include "compress/huffman.hpp"
#include "text/corpus.hpp"

namespace semcache::core {

class TraditionalCodec {
 public:
  /// Trains the Huffman table on sentences sampled from the world (all
  /// domains pooled), mirroring how the semantic KBs are trained offline.
  TraditionalCodec(const text::World& world, Rng& rng,
                   std::size_t training_sentences = 2000);

  struct Result {
    std::vector<std::int32_t> received_surface;
    std::vector<std::int32_t> received_meanings;  ///< oracle translation
    double surface_accuracy = 0.0;
    double meaning_accuracy = 0.0;
    std::size_t payload_bits = 0;
  };

  /// Compress, send through `pipe`, decompress, score.
  Result transmit(const text::Sentence& message,
                  const channel::ChannelPipeline& pipe, Rng& rng) const;

  /// Source-coded size of a message without channel transmission.
  std::size_t compressed_bits(const text::Sentence& message) const;

 private:
  std::vector<std::uint8_t> serialize_surface(
      std::span<const std::int32_t> surface) const;
  std::vector<std::int32_t> deserialize_surface(
      std::span<const std::uint8_t> bytes, std::size_t count) const;

  const text::World& world_;
  compress::HuffmanCode huffman_;
  /// [domain][surface id] -> meaning id, for the oracle reader.
  std::vector<std::unordered_map<std::int32_t, std::int32_t>> surface_to_meaning_;
};

}  // namespace semcache::core
