#include "core/edge_state.hpp"

#include "common/check.hpp"

namespace semcache::core {

EdgeServerState::EdgeServerState(std::size_t index, edge::NodeId node,
                                 std::size_t cache_capacity_bytes)
    : index_(index),
      node_(node),
      cache_(cache_capacity_bytes, cache::make_lru_policy()) {}

std::string EdgeServerState::slot_key(const std::string& user,
                                      std::size_t domain) {
  return user + "/" + std::to_string(domain);
}

UserModelSlot* EdgeServerState::find_slot(const std::string& user,
                                          std::size_t domain) {
  const auto it = slots_.find(slot_key(user, domain));
  return it == slots_.end() ? nullptr : &it->second;
}

UserModelSlot& EdgeServerState::ensure_slot(
    const std::string& user, std::size_t domain,
    const std::function<std::shared_ptr<semantic::SemanticCodec>()>& make) {
  const std::string key = slot_key(user, domain);
  const auto it = slots_.find(key);
  if (it != slots_.end()) return it->second;
  UserModelSlot slot;
  slot.model = make();
  SEMCACHE_CHECK(slot.model != nullptr, "ensure_slot: factory returned null");
  auto [pos, inserted] = slots_.emplace(key, std::move(slot));
  SEMCACHE_CHECK(inserted, "ensure_slot: race on slot key");
  return pos->second;
}

std::size_t EdgeServerState::user_model_bytes() const {
  std::size_t total = 0;
  for (const auto& [key, slot] : slots_) {
    if (slot.owns_model && slot.model) total += slot.model->byte_size();
  }
  return total;
}

std::size_t EdgeServerState::materialized_models() const {
  std::size_t count = 0;
  for (const auto& [key, slot] : slots_) {
    if (slot.owns_model) ++count;
  }
  return count;
}

}  // namespace semcache::core
