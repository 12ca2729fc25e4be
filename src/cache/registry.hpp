// Cloud model registry: the authoritative store every KB model can be
// re-fetched from. A cache miss on an edge server turns into a simulated
// transfer over the edge-cloud link — the "time and resources required to
// establish individual KBs" that caching is supposed to save (E5).
#pragma once

#include <string>
#include <unordered_map>

#include "edge/network.hpp"
#include "edge/sim.hpp"

namespace semcache::cache {

class ModelRegistry {
 public:
  void register_model(const std::string& key, std::size_t size_bytes);
  bool contains(const std::string& key) const { return sizes_.contains(key); }
  std::size_t model_size(const std::string& key) const;

  /// Simulate fetching a model from the cloud over `cloud_link` (the
  /// directed cloud -> edge link); `on_done` fires at delivery. Returns the
  /// scheduled delivery time.
  edge::SimTime fetch(edge::Simulator& sim, edge::Link& cloud_link,
                      const std::string& key,
                      edge::Simulator::Handler on_done);

  /// Idle-network fetch latency for a model.
  double fetch_latency(const edge::Link& cloud_link,
                       const std::string& key) const;

  std::size_t fetches() const { return fetches_; }
  std::uint64_t bytes_fetched() const { return bytes_fetched_; }

 private:
  std::unordered_map<std::string, std::size_t> sizes_;
  std::size_t fetches_ = 0;
  std::uint64_t bytes_fetched_ = 0;
};

}  // namespace semcache::cache
