// Byte-capacity cache with pluggable eviction. Values are owned via
// shared_ptr so callers can keep using an entry that gets evicted mid-use
// (models are large; copying them on every access would defeat the point).
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/policy.hpp"
#include "common/check.hpp"

namespace semcache::cache {

struct CacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t insertions = 0;
  std::size_t evictions = 0;
  std::size_t rejected = 0;  ///< items larger than total capacity
  std::uint64_t bytes_evicted = 0;

  double hit_rate() const {
    const std::size_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }
  std::string to_string() const;
};

template <typename Value>
class Cache {
 public:
  Cache(std::size_t capacity_bytes, std::unique_ptr<EvictionPolicy> policy)
      : capacity_(capacity_bytes), policy_(std::move(policy)) {
    SEMCACHE_CHECK(policy_ != nullptr, "Cache: null policy");
  }

  /// Lookup; counts a hit or miss and notifies the policy.
  std::shared_ptr<Value> get(const std::string& key) {
    const auto it = entries_.find(key);
    if (it == entries_.end()) {
      ++stats_.misses;
      return nullptr;
    }
    ++stats_.hits;
    policy_->on_access(key);
    return it->second.value;
  }

  /// Lookup without touching statistics or recency (for inspection).
  std::shared_ptr<Value> peek(const std::string& key) const {
    const auto it = entries_.find(key);
    return it == entries_.end() ? nullptr : it->second.value;
  }

  struct PutResult {
    bool inserted = false;
    std::vector<std::string> evicted;
  };

  /// Insert or replace; evicts until the entry fits. Entries larger than
  /// the whole cache are rejected.
  PutResult put(const std::string& key, std::shared_ptr<Value> value,
                const EntryInfo& info) {
    SEMCACHE_CHECK(value != nullptr, "Cache::put: null value");
    PutResult result;
    if (info.size_bytes > capacity_) {
      ++stats_.rejected;
      return result;
    }
    erase(key);  // replace semantics
    while (used_ + info.size_bytes > capacity_) {
      const std::string victim = policy_->choose_victim();
      SEMCACHE_CHECK(victim != key, "Cache: policy evicted the new key");
      evict(victim);
      result.evicted.push_back(victim);
    }
    entries_[key] = {std::move(value), info};
    used_ += info.size_bytes;
    policy_->on_insert(key, info);
    ++stats_.insertions;
    result.inserted = true;
    return result;
  }

  bool contains(const std::string& key) const { return entries_.contains(key); }

  /// Remove an entry if present (not counted as an eviction).
  bool erase(const std::string& key) {
    const auto it = entries_.find(key);
    if (it == entries_.end()) return false;
    used_ -= it->second.info.size_bytes;
    policy_->on_erase(key);
    entries_.erase(it);
    return true;
  }

  std::size_t capacity_bytes() const { return capacity_; }
  std::size_t used_bytes() const { return used_; }
  std::size_t entry_count() const { return entries_.size(); }
  const CacheStats& stats() const { return stats_; }

 private:
  struct Entry {
    std::shared_ptr<Value> value;
    EntryInfo info;
  };

  void evict(const std::string& key) {
    const auto it = entries_.find(key);
    SEMCACHE_CHECK(it != entries_.end(), "Cache: policy chose unknown victim");
    used_ -= it->second.info.size_bytes;
    stats_.bytes_evicted += it->second.info.size_bytes;
    ++stats_.evictions;
    policy_->on_erase(key);
    entries_.erase(it);
  }

  std::size_t capacity_;
  std::size_t used_ = 0;
  std::unique_ptr<EvictionPolicy> policy_;
  std::unordered_map<std::string, Entry> entries_;
  CacheStats stats_;
};

}  // namespace semcache::cache
