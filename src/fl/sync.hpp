// Decoder replica synchronization (Fig. 1, step ④).
//
// After a fine-tuning round at the sender edge, the decoder's weight delta
// is compressed and shipped to the receiver edge — "similar to the update
// process in traditional Federated Learning" (§II-D). Consistency contract:
// BOTH replicas apply the same DECOMPRESSED delta, so lossy compression
// never causes divergence — the sender's decoder copy is always bit-
// identical to the receiver's decoder (verified by tests and the E10
// ablation).
#pragma once

#include <cstdint>
#include <string>

#include "fl/compressor.hpp"
#include "nn/model.hpp"

namespace semcache::fl {

/// One sync message on the wire.
struct SyncMessage {
  std::string user;
  std::uint32_t domain = 0;
  std::uint64_t version = 0;  ///< sender's model version after this update
  CompressedDelta delta;

  std::vector<std::uint8_t> to_bytes() const;
  /// Parse a payload image. Hardened against truncated/garbage input:
  /// every read is bounds-checked and every count is validated against the
  /// bytes actually present, so malformed input throws semcache::Error —
  /// never UB, never an unbounded allocation (test_fl fuzzes this).
  static SyncMessage from_bytes(std::span<const std::uint8_t> bytes);
  std::size_t byte_size() const;

  /// Wire framing: payload (to_bytes) followed by its CRC-32, LE u32.
  /// Corruption in transit is detected at the receiver by from_wire, which
  /// throws semcache::Error on a CRC mismatch (the retry path's clean-drop
  /// signal) as well as on any malformed payload.
  std::vector<std::uint8_t> to_wire() const;
  static SyncMessage from_wire(std::span<const std::uint8_t> bytes);
  /// byte_size() plus the CRC trailer.
  std::size_t wire_byte_size() const { return byte_size() + 4; }
};

class ModelSynchronizer {
 public:
  explicit ModelSynchronizer(const CompressionConfig& config);

  /// Build a sync message from pre/post fine-tuning snapshots of the
  /// decoder parameters. IMPORTANT: the caller must then roll its own
  /// replica forward with apply() (not keep the raw fine-tuned weights) so
  /// both ends see the identical lossy delta.
  SyncMessage make_message(std::span<const float> before,
                           std::span<const float> after,
                           const std::string& user, std::uint32_t domain,
                           std::uint64_t version) const;

  /// Apply a received message to a replica's parameters. Throws
  /// semcache::Error, leaving them unchanged, when the delta's dimension
  /// count differs from theirs.
  void apply(nn::ParameterSet& params, const SyncMessage& message) const;

  /// Residual error between the true delta and its compressed form
  /// (L2 norm), for the E9 fidelity-vs-bytes tradeoff.
  double compression_residual(std::span<const float> before,
                              std::span<const float> after) const;

  const DeltaCompressor& compressor() const { return compressor_; }

 private:
  DeltaCompressor compressor_;
};

/// Monotonic model version tracker; detects lost or replayed updates.
class VersionVector {
 public:
  /// Returns false (and ignores the update) unless version == current + 1.
  bool advance(std::uint64_t version);
  /// Force the version after a full-state resync (gap recovery).
  void reset(std::uint64_t version) { current_ = version; }
  std::uint64_t current() const { return current_; }
  std::size_t rejected() const { return rejected_; }

 private:
  std::uint64_t current_ = 0;
  std::size_t rejected_ = 0;
};

}  // namespace semcache::fl
