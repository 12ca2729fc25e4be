#include "core/sharded.hpp"

#include <cstdlib>

#include "common/check.hpp"

namespace semcache::core {

namespace {
std::size_t resolve_shard_count(std::size_t configured) {
  if (configured != 0) return configured;
  const char* env = std::getenv("SEMCACHE_SHARDS");
  if (env == nullptr || *env == '\0') return 1;
  for (const char* p = env; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return 1;  // garbage: ignore, like THREADS
  }
  char* end = nullptr;
  const unsigned long value = std::strtoul(env, &end, 10);
  if (end == env || *end != '\0' || value == 0 || value > kMaxEnvShards) {
    return 1;
  }
  return static_cast<std::size_t>(value);
}
}  // namespace

std::unique_ptr<ShardedEdgeServing> ShardedEdgeServing::build(
    SystemConfig config, std::size_t num_shards) {
  SEMCACHE_CHECK(num_shards <= kMaxEnvShards,
                 "sharded: num_shards must be <= " +
                     std::to_string(kMaxEnvShards));
  const std::size_t shards = resolve_shard_count(num_shards);
  // Not make_unique: the constructor is private.
  std::unique_ptr<ShardedEdgeServing> serving(new ShardedEdgeServing());
  serving->shards_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    // Same config and seed on purpose: shards must be byte-identical
    // deployments (worlds, generals, selectors) for sender-hash routing
    // to be exact. Per-shard divergence comes only from which pairs each
    // shard serves.
    serving->shards_.push_back(SemanticEdgeSystem::build(config));
  }
  return serving;
}

SemanticEdgeSystem& ShardedEdgeServing::shard(std::size_t index) {
  SEMCACHE_CHECK(index < shards_.size(), "shard: index out of range");
  return *shards_[index];
}

const UserProfile& ShardedEdgeServing::register_user(
    const std::string& name, std::size_t edge_index,
    const text::IdiolectConfig* idiolect_cfg) {
  const UserProfile* owned = nullptr;
  const std::size_t owner = shard_of(name);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const UserProfile& p =
        shards_[s]->register_user(name, edge_index, idiolect_cfg);
    if (s == owner) owned = &p;
  }
  return *owned;
}

text::Sentence ShardedEdgeServing::sample_message(const std::string& user,
                                                  std::size_t domain) {
  return owning_shard(user).sample_message(user, domain);
}

SystemStats ShardedEdgeServing::stats() const {
  SystemStats total;
  for (const auto& shard : shards_) total += shard->stats();
  return total;
}

MemoryFootprint ShardedEdgeServing::memory_footprint() const {
  MemoryFootprint total;
  for (const auto& shard : shards_) total += shard->memory_footprint();
  return total;
}

}  // namespace semcache::core
