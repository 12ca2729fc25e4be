#include "fl/sync.hpp"

#include <cmath>

#include "channel/crc.hpp"
#include "common/check.hpp"

namespace semcache::fl {

std::vector<std::uint8_t> SyncMessage::to_bytes() const {
  ByteWriter w;
  w.write_string(user);
  w.write_u32(domain);
  w.write_u64(version);
  delta.serialize(w);
  return w.bytes();
}

SyncMessage SyncMessage::from_bytes(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  SyncMessage m;
  m.user = r.read_string();
  m.domain = r.read_u32();
  m.version = r.read_u64();
  m.delta = CompressedDelta::deserialize(r);
  SEMCACHE_CHECK(r.exhausted(), "SyncMessage: trailing bytes");
  return m;
}

std::size_t SyncMessage::byte_size() const { return to_bytes().size(); }

std::vector<std::uint8_t> SyncMessage::to_wire() const {
  std::vector<std::uint8_t> wire = to_bytes();
  const std::uint32_t crc = channel::crc32(wire);
  for (std::size_t i = 0; i < 4; ++i) {
    wire.push_back(static_cast<std::uint8_t>((crc >> (8 * i)) & 0xFF));
  }
  return wire;
}

SyncMessage SyncMessage::from_wire(std::span<const std::uint8_t> bytes) {
  SEMCACHE_CHECK(bytes.size() >= 4, "SyncMessage: wire image too short");
  const std::span<const std::uint8_t> payload =
      bytes.subspan(0, bytes.size() - 4);
  std::uint32_t crc = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    crc |= static_cast<std::uint32_t>(bytes[bytes.size() - 4 + i]) << (8 * i);
  }
  SEMCACHE_CHECK(channel::crc32(payload) == crc,
                 "SyncMessage: CRC mismatch (corrupted in transit)");
  return from_bytes(payload);
}

ModelSynchronizer::ModelSynchronizer(const CompressionConfig& config)
    : compressor_(config) {}

SyncMessage ModelSynchronizer::make_message(std::span<const float> before,
                                            std::span<const float> after,
                                            const std::string& user,
                                            std::uint32_t domain,
                                            std::uint64_t version) const {
  SEMCACHE_CHECK(before.size() == after.size(),
                 "make_message: snapshot size mismatch");
  std::vector<float> delta(before.size());
  for (std::size_t i = 0; i < delta.size(); ++i) {
    delta[i] = after[i] - before[i];
  }
  SyncMessage m;
  m.user = user;
  m.domain = domain;
  m.version = version;
  m.delta = compressor_.compress(delta);
  return m;
}

void ModelSynchronizer::apply(nn::ParameterSet& params,
                              const SyncMessage& message) const {
  // Before decompress sizes its output from the untrusted count: a wire
  // image may carry any u32 here.
  SEMCACHE_CHECK(message.delta.total_dims == params.scalar_count(),
                 "ModelSynchronizer::apply: delta size does not match the "
                 "parameters");
  const std::vector<float> delta = compressor_.decompress(message.delta);
  params.apply_delta(delta);
}

double ModelSynchronizer::compression_residual(
    std::span<const float> before, std::span<const float> after) const {
  SEMCACHE_CHECK(before.size() == after.size(),
                 "compression_residual: size mismatch");
  std::vector<float> delta(before.size());
  for (std::size_t i = 0; i < delta.size(); ++i) {
    delta[i] = after[i] - before[i];
  }
  const auto reconstructed =
      compressor_.decompress(compressor_.compress(delta));
  double sq = 0.0;
  for (std::size_t i = 0; i < delta.size(); ++i) {
    const double d = static_cast<double>(delta[i]) - reconstructed[i];
    sq += d * d;
  }
  return std::sqrt(sq);
}

bool VersionVector::advance(std::uint64_t version) {
  if (version != current_ + 1) {
    ++rejected_;
    return false;
  }
  current_ = version;
  return true;
}

}  // namespace semcache::fl
