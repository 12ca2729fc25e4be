// FaultPlane — seeded, fully deterministic fault injection.
//
// Every fault decision is a PURE FUNCTION of the fault seed and the
// identity of the thing failing — a sync message's (user, domain, version,
// attempt), a link's id, a (shard, wave) pair — never of a global RNG
// ordinal or of execution order. That is what lets transmit_pairs waves and
// sharded flushes stay byte-identical across any thread count and shard
// count while faults are ACTIVE: two deployments that serve the same
// messages draw the same coins, no matter how the work interleaves.
//
// The plane injects three fault families:
//   * sync-plane: per-attempt loss / corruption / duplication of gradient
//     sync messages, resolved against the retry/backoff policy below (the
//     VersionVector gap-resync remains the last resort when every attempt
//     fails);
//   * link-plane: periodic outage (flap) windows on every topology link,
//     with a per-link phase so links do not blink in lockstep (see
//     edge::Link for the queue-vs-drop admission semantics);
//   * dispatcher-plane: shard stalls, degraded by ParallelDispatcher to
//     frozen-general serving instead of a hang or a throw.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "edge/link.hpp"

namespace semcache::core {

/// Fault-injection knobs, embedded as SystemConfig::faults. All
/// probabilities are per-decision in [0, 1]; the defaults inject nothing.
struct FaultConfig {
  std::uint64_t seed = 0x5EED;  ///< fault coins only; independent of system seed

  // --- sync plane (per transmission attempt of one sync message) ---
  double sync_loss = 0.0;       ///< attempt lost in transit
  double sync_corrupt = 0.0;    ///< attempt arrives with flipped bytes (CRC catches)
  double sync_duplicate = 0.0;  ///< delivered attempt arrives twice (replay-dropped)

  // --- recovery policy ---
  double retry_timeout_s = 0.05;  ///< wait before attempt 2
  double retry_backoff = 2.0;     ///< delay multiplier per further attempt
  std::size_t max_attempts = 4;   ///< then the message expires (gap-resync repairs)

  // --- link plane ---
  double link_flap_period_s = 0.0;  ///< 0 = no flapping
  double link_flap_down_s = 0.0;    ///< outage length at the start of each period
  edge::OutagePolicy outage_policy = edge::OutagePolicy::kQueue;

  // --- dispatcher plane ---
  double shard_stall = 0.0;  ///< per-(shard, flush) stall probability

  bool sync_faults_active() const {
    return sync_loss > 0.0 || sync_corrupt > 0.0 || sync_duplicate > 0.0;
  }
  bool link_faults_active() const {
    return link_flap_period_s > 0.0 && link_flap_down_s > 0.0;
  }
};

class FaultPlane {
 public:
  /// Validates the config (probabilities in [0, 1], backoff >= 1,
  /// positive timeout, max_attempts >= 1, down <= period); throws
  /// semcache::Error on violation.
  explicit FaultPlane(FaultConfig config = {});

  const FaultConfig& config() const { return config_; }

  // --- sync-plane coins, keyed by message identity + attempt number ---
  bool drop_sync(std::string_view user, std::uint32_t domain,
                 std::uint64_t version, std::uint64_t attempt) const;
  bool corrupt_sync(std::string_view user, std::uint32_t domain,
                    std::uint64_t version, std::uint64_t attempt) const;
  bool duplicate_sync(std::string_view user, std::uint32_t domain,
                      std::uint64_t version, std::uint64_t attempt) const;

  /// Deterministically flip 1–3 bytes of a wire image, keyed by the same
  /// identity as the coins (so every deployment corrupts the same bytes).
  void corrupt_bytes(std::vector<std::uint8_t>& bytes, std::string_view user,
                     std::uint32_t domain, std::uint64_t version,
                     std::uint64_t attempt) const;

  /// Backoff delay charged before transmission attempt `attempt + 1`
  /// (attempt counts from 1): retry_timeout_s * retry_backoff^(attempt-1).
  double retry_delay_s(std::uint64_t attempt) const;

  /// Dispatcher-plane coin: does shard `shard` stall on flush `wave`?
  bool stall_shard(std::size_t shard, std::size_t wave) const;

  /// Per-link flap phase offset in [0, link_flap_period_s), derived from
  /// the fault seed and the link id so links do not blink in lockstep.
  double flap_phase_s(edge::LinkId link) const;

 private:
  /// Uniform [0, 1) draw, pure in (seed, kind tag, a, b, c).
  double coin(std::uint64_t kind, std::uint64_t a, std::uint64_t b,
              std::uint64_t c) const;

  FaultConfig config_;
};

}  // namespace semcache::core
