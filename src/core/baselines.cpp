#include "core/baselines.hpp"

#include "common/check.hpp"
#include "metrics/ngram.hpp"

namespace semcache::core {

TraditionalCodec::TraditionalCodec(const text::World& world, Rng& rng,
                                   std::size_t training_sentences)
    : world_(world) {
  // Gather byte statistics from pooled-domain samples.
  compress::ByteHistogram hist{};
  for (std::size_t i = 0; i < training_sentences; ++i) {
    const auto d = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(world.num_domains()) - 1));
    const text::Sentence s = world.sample_sentence(d, rng);
    for (const std::uint8_t b : serialize_surface(s.surface)) ++hist[b];
  }
  huffman_ = compress::HuffmanCode::build(hist);

  // Oracle surface->meaning tables: function meanings are valid in every
  // domain; domain meanings (incl. polysemous senses) in their own.
  surface_to_meaning_.resize(world.num_domains());
  for (std::size_t mid = 0; mid < world.meaning_count(); ++mid) {
    const text::Meaning& m = world.meaning(static_cast<std::int32_t>(mid));
    if (m.domain == text::World::kSharedDomain) {
      for (auto& table : surface_to_meaning_) {
        table.emplace(m.surface, static_cast<std::int32_t>(mid));
      }
    } else {
      surface_to_meaning_[m.domain][m.surface] =
          static_cast<std::int32_t>(mid);
    }
  }
}

std::vector<std::uint8_t> TraditionalCodec::serialize_surface(
    std::span<const std::int32_t> surface) const {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(surface.size() * 2);
  for (const auto id : surface) {
    bytes.push_back(static_cast<std::uint8_t>(id & 0xFF));
    bytes.push_back(static_cast<std::uint8_t>((id >> 8) & 0xFF));
  }
  return bytes;
}

std::vector<std::int32_t> TraditionalCodec::deserialize_surface(
    std::span<const std::uint8_t> bytes, std::size_t count) const {
  std::vector<std::int32_t> ids;
  ids.reserve(count);
  for (std::size_t i = 0; i + 1 < bytes.size() && ids.size() < count; i += 2) {
    auto id = static_cast<std::int32_t>(bytes[i]) |
              (static_cast<std::int32_t>(bytes[i + 1]) << 8);
    // Channel corruption can produce out-of-vocabulary ids.
    if (id < 0 || static_cast<std::size_t>(id) >= world_.surface_count()) {
      id = text::Vocab::kUnk;
    }
    ids.push_back(id);
  }
  ids.resize(count, text::Vocab::kUnk);
  return ids;
}

std::size_t TraditionalCodec::compressed_bits(
    const text::Sentence& message) const {
  return huffman_.encode(serialize_surface(message.surface)).size();
}

TraditionalCodec::Result TraditionalCodec::transmit(
    const text::Sentence& message, const channel::ChannelPipeline& pipe,
    Rng& rng) const {
  const auto bytes = serialize_surface(message.surface);
  const BitVec payload = huffman_.encode(bytes);
  const BitVec received = pipe.transmit(payload, rng);
  const auto rx_bytes = huffman_.decode(received, bytes.size());
  Result result;
  result.payload_bits = payload.size();
  result.received_surface =
      deserialize_surface(rx_bytes, message.surface.size());
  result.surface_accuracy =
      metrics::token_accuracy(message.surface, result.received_surface);

  // Oracle meaning translation in the TRUE domain.
  const auto& table = surface_to_meaning_[message.domain];
  result.received_meanings.reserve(result.received_surface.size());
  for (const auto surf : result.received_surface) {
    const auto it = table.find(surf);
    result.received_meanings.push_back(it == table.end() ? -1 : it->second);
  }
  result.meaning_accuracy =
      metrics::token_accuracy(message.meanings, result.received_meanings);
  return result;
}

}  // namespace semcache::core
