// ShardedEdgeServing — K independent SemanticEdgeSystem shards behind one
// deployment-wide view; the city-scale layer.
//
// The paper's premise is many users per edge sharing GENERAL models with
// tiny per-user fine-tune state. A single SemanticEdgeSystem already
// parallelizes inside one serving wave, but everything sequential (the
// selector, LRU cache order, the event loop) still funnels through one
// deployment. This layer scales OUT instead: users are hash-partitioned by
// sending user (common::shard_of, a stable FNV-1a hash — never std::hash,
// which is implementation-defined), and each shard owns a full system —
// its own thread pool, LRU caches, user-model slots, simulator, and
// SystemStats.
//
// Why sender-hash partitioning is exact, not approximate: every mutable
// serving object — slot, transaction buffer, fine-tune scratch, decoder
// replica — is keyed by (sending user, domain), so placing all of a
// sender's pairs on shard_of(sender) puts each piece of mutable state on
// exactly one shard. Shards are byte-identical deployments at build time
// (same config + seed → same world, same pretrained generals, same
// selector: Rng::fork is pure in (seed, tag)), user registration is
// replicated into every shard in the same order (profiles are directory
// bytes; the heavy state stays owner-only), and channel-noise forks are
// position-independent. The one global coordinate — the system-wide
// message index that seeds each message's channel-noise fork — is pinned
// per batch by the front door (PairBatch::noise_base), assigned in
// first-enqueue order from the deployment-wide counter here. Result: the
// K-shard data plane is byte-identical to the single-system reference for
// the same pair stream (test_sharded pins it for any K and any thread
// count).
//
// What is NOT identical across K: timing. Each shard has an independent
// simulator, so pairs that would contend on shared links/compute inside
// one system do not contend across shards — that decontention is the
// feature, and it only shows up in latency_s, never in decoded bytes,
// weights, or stats. (A K=1 deployment is timing-identical too.)
//
// The front door is core::ParallelDispatcher constructed over this class:
// enqueue routes to the owning shard, flush fans the shard waves out on
// one thread per busy shard and merges completions back into global pair
// order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/hashing.hpp"
#include "core/system.hpp"

namespace semcache::core {

/// Largest shard count; each shard is a full system (pool, caches,
/// simulator). SEMCACHE_SHARDS ignores a value above it.
inline constexpr std::size_t kMaxEnvShards = 256;

class ShardedEdgeServing {
 public:
  /// Build `num_shards` identical shards from one config. 0 — the default
  /// — resolves through the SEMCACHE_SHARDS environment variable, else 1.
  /// A count above kMaxEnvShards throws semcache::Error before any shard.
  /// Every shard gets the same config and seed; per-shard resources
  /// (thread pools, caches) come from the config as usual, so a deployment
  /// with S shards of N threads runs S pools. Pretraining is repeated per
  /// shard (bit-identical results); point SEMCACHE_FIXTURE_DIR at a
  /// directory to pay it once and load K-1 times from the fixture cache.
  static std::unique_ptr<ShardedEdgeServing> build(SystemConfig config,
                                                   std::size_t num_shards = 0);

  std::size_t num_shards() const { return shards_.size(); }
  /// The ownership rule: all serving state for pairs SENT by `user`.
  std::size_t shard_of(std::string_view user) const {
    return common::shard_of(user, shards_.size());
  }
  SemanticEdgeSystem& shard(std::size_t index);
  SemanticEdgeSystem& owning_shard(const std::string& sender) {
    return *shards_[shard_of(sender)];
  }

  /// Register a user on every shard (same order → identical device ids and
  /// registration state everywhere). Profiles are directory bytes; slots,
  /// buffers, and materialized models only ever appear on the owning
  /// shard. Returns the owning shard's profile.
  const UserProfile& register_user(const std::string& name,
                                   std::size_t edge_index,
                                   const text::IdiolectConfig* idiolect_cfg);

  /// Sample as the user's OWNING shard would (its RNG stream advances).
  text::Sentence sample_message(const std::string& user, std::size_t domain);

  /// Claim `n` deployment-wide message indices (the channel-noise bases
  /// the front door pins into PairBatch::noise_base); returns the first.
  /// Serving through shards directly, without pinned bases, desyncs this
  /// counter from the shards' own — route waves through the dispatcher.
  std::uint64_t claim_noise_bases(std::uint64_t n) {
    const std::uint64_t base = noise_cursor_;
    noise_cursor_ += n;
    return base;
  }
  std::uint64_t messages_dispatched() const { return noise_cursor_; }

  /// Field-wise sum of every shard's stats — the one system-wide view.
  SystemStats stats() const;
  /// Deployment-wide memory audit (field-wise sum over shards).
  MemoryFootprint memory_footprint() const;

 private:
  explicit ShardedEdgeServing() = default;

  std::vector<std::unique_ptr<SemanticEdgeSystem>> shards_;
  std::uint64_t noise_cursor_ = 0;
};

}  // namespace semcache::core
