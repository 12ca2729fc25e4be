// Shared helpers for the semcache test suites.
//
// Pulls together the bits every suite was re-inventing inline: a
// seeded-RNG fixture, near-equality comparators for float spans /
// tensors, the tiny SystemConfig factory used by the trained-system
// suites (test_core, test_failure_injection, test_integration), and what
// the identity suites compare reports, counters and slots with.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <span>
#include <string>

#include "common/bits.hpp"
#include "common/rng.hpp"
#include "core/system.hpp"
#include "tensor/tensor.hpp"

namespace semcache::test {

/// Offset added to the fuzz-style suites' seeds (test_sim_wheel,
/// test_faults storms). Unset or empty keeps the historical fixed seeds;
/// the nightly CI job sets SEMCACHE_FUZZ_SEED_BASE to the UTC date so
/// every night explores a fresh seed neighborhood. The first call echoes
/// the resolved base into the log so a red nightly is reproducible.
inline std::uint64_t fuzz_seed_base() {
  static const std::uint64_t base = [] {
    const char* env = std::getenv("SEMCACHE_FUZZ_SEED_BASE");
    std::uint64_t v = 0;
    if (env != nullptr) {
      for (const char* p = env; *p >= '0' && *p <= '9'; ++p) {
        v = v * 10 + static_cast<std::uint64_t>(*p - '0');
      }
    }
    std::cout << "[ fuzz   ] SEMCACHE_FUZZ_SEED_BASE=" << v
              << (env == nullptr ? " (unset)" : "") << std::endl;
    return v;
  }();
  return base;
}

/// Fair-coin random bit vector; the standard payload generator for the
/// channel-stack suites.
inline BitVec random_bits(std::size_t n, Rng& rng) {
  BitVec bits(n);
  for (auto& b : bits) b = rng.bernoulli(0.5) ? 1 : 0;
  return bits;
}

/// Fixture for tests whose only setup is a deterministic RNG. Derive and
/// optionally pass a custom seed from the subclass constructor.
class SeededRngTest : public ::testing::Test {
 protected:
  explicit SeededRngTest(std::uint64_t seed = 42) : rng_(seed) {}
  Rng rng_;
};

/// Element-wise near-equality over two float spans. Reports the first
/// offending index, the values, and the sizes on failure so EXPECT_TRUE
/// output is directly actionable.
inline ::testing::AssertionResult AllNear(std::span<const float> a,
                                          std::span<const float> b,
                                          double tol) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "size mismatch: " << a.size() << " vs " << b.size();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double diff = std::abs(static_cast<double>(a[i]) -
                                 static_cast<double>(b[i]));
    if (!(diff <= tol)) {  // NaN-safe: NaN fails the comparison
      return ::testing::AssertionFailure()
             << "element " << i << ": " << a[i] << " vs " << b[i]
             << " (|diff| = " << diff << " > " << tol << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

/// Tensor overload: shapes must match exactly, values up to `tol`.
inline ::testing::AssertionResult AllNear(const tensor::Tensor& a,
                                          const tensor::Tensor& b,
                                          double tol) {
  if (a.shape() != b.shape()) {
    return ::testing::AssertionFailure() << "shape mismatch";
  }
  return AllNear(std::span<const float>(a.data(), a.size()),
                 std::span<const float>(b.data(), b.size()), tol);
}

/// Codec config sized for a generated world, with the small 16/12/32
/// dims the suites standardize on. Vocab sizes and sentence length come
/// from the world so the config is always consistent with it.
inline semantic::CodecConfig codec_for_world(const text::World& world,
                                             std::size_t embed_dim = 16,
                                             std::size_t feature_dim = 12,
                                             std::size_t hidden_dim = 32) {
  semantic::CodecConfig c;
  c.surface_vocab = world.surface_count();
  c.meaning_vocab = world.meaning_count();
  c.sentence_length = world.config().sentence_length;
  c.embed_dim = embed_dim;
  c.feature_dim = feature_dim;
  c.hidden_dim = hidden_dim;
  return c;
}

/// Tiny SystemConfig shared by the trained-system suites: 2 domains,
/// 6-token sentences, and a small 16/12/32 codec that pretrains in around
/// a second. Callers override world size, pretrain steps, triggers, and
/// selector mode per test; only the common skeleton lives here.
inline core::SystemConfig tiny_system_config(std::uint64_t seed) {
  core::SystemConfig config;
  config.seed = seed;
  config.world.num_domains = 2;
  config.world.sentence_length = 6;
  config.codec.embed_dim = 16;
  config.codec.feature_dim = 12;
  config.codec.hidden_dim = 32;
  return config;
}

// --- identity-suite comparisons -----------------------------------------
//
// The identity suites compare whole reports and counters with
// EXPECT_EQ(ref, got); the structs' defaulted operator== covers every
// field of their lists (core/system.hpp). Two fields are keyed by
// per-shard simulated time and so leave the contract where the clocks
// differ: across K > 1 shards, pairs that would queue behind each other
// inside one simulator stop contending (the point of sharding), which
// moves arrival times and the sends an outage window catches. Those
// comparisons go through the projections below.

/// The report with latency_s zeroed: compared across K > 1 shards.
inline core::TransmitReport without_latency(core::TransmitReport r) {
  r.latency_s = 0.0;
  return r;
}

/// The stats with outage_drops and outage_queued zeroed: compared across
/// K > 1 shards, and by test_sharded throughout.
inline core::SystemStats without_outages(core::SystemStats s) {
  s.outage_drops = 0;
  s.outage_queued = 0;
  return s;
}

/// Sender-side slot state of (user, domain) — versions, buffer counters,
/// full model weights — and the replica-sync verdict match the reference
/// system exactly.
inline void expect_slot_state_equal(core::SemanticEdgeSystem& ref,
                                    core::SemanticEdgeSystem& got,
                                    const std::string& user,
                                    std::size_t domain,
                                    std::size_t sender_edge,
                                    std::size_t receiver_edge) {
  SCOPED_TRACE("slot " + user + "/" + std::to_string(domain));
  core::UserModelSlot* rs = ref.edge_state(sender_edge).find_slot(user, domain);
  core::UserModelSlot* gs = got.edge_state(sender_edge).find_slot(user, domain);
  ASSERT_EQ(rs == nullptr, gs == nullptr);
  if (rs == nullptr) return;
  EXPECT_EQ(rs->send_version, gs->send_version);
  ASSERT_NE(rs->buffer, nullptr);
  ASSERT_NE(gs->buffer, nullptr);
  EXPECT_EQ(rs->buffer->size(), gs->buffer->size());
  EXPECT_EQ(rs->buffer->total_added(), gs->buffer->total_added());
  EXPECT_EQ(rs->buffer->adds_until_ready(), gs->buffer->adds_until_ready());
  EXPECT_EQ(rs->buffer->mean_mismatch(), gs->buffer->mean_mismatch());
  EXPECT_TRUE(rs->model->parameters().values_equal(gs->model->parameters()));
  EXPECT_EQ(ref.replicas_in_sync(user, domain, sender_edge, receiver_edge),
            got.replicas_in_sync(user, domain, sender_edge, receiver_edge));
}

}  // namespace semcache::test

namespace semcache::core {

// gtest prints the operands of a failing EXPECT_EQ through PrintTo, found
// by argument-dependent lookup, so these live beside the structs. Each
// expands its struct's field list: the message names every field.
#define SEMCACHE_PRINT_FIELD(type, name, ...) \
  *os << " " #name "=" << ::testing::PrintToString(v.name);

inline void PrintTo(const TransmitReport& v, std::ostream* os) {
  SEMCACHE_TRANSMIT_REPORT_FIELDS(SEMCACHE_PRINT_FIELD)
}
inline void PrintTo(const SystemStats& v, std::ostream* os) {
  SEMCACHE_SYSTEM_STATS_FIELDS(SEMCACHE_PRINT_FIELD)
}
inline void PrintTo(const MemoryFootprint& v, std::ostream* os) {
  SEMCACHE_MEMORY_FOOTPRINT_FIELDS(SEMCACHE_PRINT_FIELD)
}

#undef SEMCACHE_PRINT_FIELD

}  // namespace semcache::core
