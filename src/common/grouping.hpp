// First-appearance grouping — the one partition shape the serving layer
// keeps needing: batch messages by selected domain, wave pairs into lanes
// by sending user. Groups appear in the order their key is first seen and
// preserve the original index order inside each group, which is exactly
// what the determinism contracts lean on (commit order == first-appearance
// order == the order a sequential loop would discover the keys).
#pragma once

#include <cstddef>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

namespace semcache::common {

template <typename Key>
struct Grouped {
  std::vector<Key> keys;  ///< keys[g] is the shared key of groups[g]
  std::vector<std::vector<std::size_t>> groups;
};

/// Partition indices [0, count) into groups keyed by key_of(i). Small
/// waves (domains, senders on a laptop topology) resolve by a linear
/// scan over the keys seen so far — cheap, allocation-free, and cache
/// friendly. Past kGroupingLinearCutoff distinct keys (city-scale waves:
/// 10^4-10^5 distinct sender lanes) a hash index takes over so the whole
/// partition stays O(n) instead of O(n * k). The output is identical
/// either way — the index only changes HOW a key is located, never the
/// first-appearance order. Keys without a std::hash specialization keep
/// the linear path.
inline constexpr std::size_t kGroupingLinearCutoff = 32;

template <typename KeyFn>
auto group_by_first_appearance(std::size_t count, const KeyFn& key_of) {
  using Key = std::decay_t<decltype(key_of(std::size_t{0}))>;
  constexpr bool kIndexable = requires(const Key& k) { std::hash<Key>{}(k); };
  struct NoIndex {};
  using Index = std::conditional_t<kIndexable,
                                   std::unordered_map<Key, std::size_t>,
                                   NoIndex>;
  Grouped<Key> out;
  Index index;
  bool indexed = false;
  for (std::size_t i = 0; i < count; ++i) {
    decltype(auto) key = key_of(i);
    std::size_t g = out.keys.size();
    if constexpr (kIndexable) {
      if (indexed) {
        const auto it = index.find(key);
        if (it != index.end()) g = it->second;
      }
    }
    if (g == out.keys.size() && !indexed) {
      g = 0;
      while (g < out.keys.size() && !(out.keys[g] == key)) ++g;
    }
    if (g == out.keys.size()) {
      out.keys.push_back(std::forward<decltype(key)>(key));
      out.groups.emplace_back();
      if constexpr (kIndexable) {
        if (indexed) {
          index.emplace(out.keys.back(), g);
        } else if (out.keys.size() > kGroupingLinearCutoff) {
          for (std::size_t k = 0; k < out.keys.size(); ++k) {
            index.emplace(out.keys[k], k);
          }
          indexed = true;
        }
      }
    }
    out.groups[g].push_back(i);
  }
  return out;
}

}  // namespace semcache::common
