// Per-edge-server state of the semantic caching model (Fig. 1):
//  ① a byte-capacity cache of domain-specialized general models — each
//    cached entry holds the encoder AND the decoder copy (§II-C);
//  ② user-specific individual model slots, one per (user, domain), each
//    with its transaction buffer b^m (③) and replica version bookkeeping.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "cache/cache.hpp"
#include "edge/node.hpp"
#include "fl/buffer.hpp"
#include "fl/sync.hpp"
#include "semantic/codec.hpp"

namespace semcache::core {

/// A user-domain-specialized model slot. At the SENDER edge the full codec
/// (encoder + decoder copy) lives here; at the RECEIVER edge only the
/// decoder half is consulted, kept in sync by gradient messages.
///
/// Copy-on-write: a fresh slot ALIASES the frozen general model
/// (owns_model == false) — establishing a user costs bytes, not a model
/// clone. The slot materializes a private clone only at the first weight
/// write (a fine-tune at the sender, a sync apply at the receiver), which
/// is what keeps per-user memory O(deltas) until a user actually trains
/// (the city-scale premise). Serving an aliased slot reads the system's
/// per-domain serving tables, which decode the positions they miss through
/// the shared general's read-only row pass. No lane runs the shared
/// general's other passes: they write the scratch tensors its layers hold.
struct UserModelSlot {
  std::shared_ptr<semantic::SemanticCodec> model;
  bool owns_model = false;  ///< true once materialized (private clone)
  std::unique_ptr<fl::DomainBuffer> buffer;   // sender side only
  std::uint64_t send_version = 0;             // sender: last version produced
  fl::VersionVector recv_version;             // receiver: applied updates
  std::size_t updates_applied = 0;
};

class EdgeServerState {
 public:
  /// The general-model cache evicts least-recently-used entries.
  EdgeServerState(std::size_t index, edge::NodeId node,
                  std::size_t cache_capacity_bytes);

  std::size_t index() const { return index_; }
  edge::NodeId node() const { return node_; }

  cache::Cache<semantic::SemanticCodec>& general_cache() { return cache_; }

  /// Slot lookup; nullptr when absent.
  UserModelSlot* find_slot(const std::string& user, std::size_t domain);
  /// Create-or-get; `make` is invoked only on creation and typically hands
  /// back the shared general model (copy-on-write aliasing).
  UserModelSlot& ensure_slot(
      const std::string& user, std::size_t domain,
      const std::function<std::shared_ptr<semantic::SemanticCodec>()>& make);

  std::size_t slot_count() const { return slots_.size(); }
  /// Bytes held by MATERIALIZED user-specific models (aliased slots cost
  /// nothing here; general-cache bytes are accounted by the cache).
  std::size_t user_model_bytes() const;
  /// Slots that have materialized a private model (copy-on-write fired).
  std::size_t materialized_models() const;
  /// All (user/domain, slot) entries, for accounting walks.
  const std::map<std::string, UserModelSlot>& slots() const { return slots_; }

 private:
  static std::string slot_key(const std::string& user, std::size_t domain);

  std::size_t index_;
  edge::NodeId node_;
  cache::Cache<semantic::SemanticCodec> cache_;
  std::map<std::string, UserModelSlot> slots_;
};

}  // namespace semcache::core
