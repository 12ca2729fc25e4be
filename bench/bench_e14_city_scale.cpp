// E14 — city-scale sharded serving: users per GB and msgs/s/core.
//
// The paper's economic claim is that semantic serving state is CHEAP per
// user — general models amortize across the population while each user
// adds only directory bytes, slot bookkeeping, and buffered deltas
// (copy-on-write: a model clone materializes only when a user actually
// fine-tunes). This bench registers a city-scale population (default
// 100000 users; SEMCACHE_E14_USERS overrides — CI runs a smaller one),
// drives Zipf-distributed pair activity through the sharded front door
// (core::ShardedEdgeServing behind core::ParallelDispatcher), and reports
// the two capacity numbers that fall out:
//
//   * users/GB — registered users per gigabyte of deployment-wide
//     per-user state (profiles, slots, buffers, materialized models,
//     summed across shards; fixed costs reported separately),
//   * msgs/s/core — delivered serving throughput per engaged core
//     (shards x per-shard worker lanes), over a K in {1, 2, 4} sweep.
//
// Activity is Zipf(alpha = 1.0) over the population for both sender and
// receiver draws — the head users go hot (slots, buffers, fine-tunes)
// while the long tail stays registration-only, which is exactly the
// regime the memory audit is about. Message sampling happens outside the
// timed section; the timer covers enqueue + flush (the serving wave and
// its simulator drains).
//
// Knobs: SEMCACHE_E14_USERS (population, default 100000),
// SEMCACHE_E14_WAVES / _PAIRS / _MSGS (wave count, pairs per wave,
// messages per pair; defaults 12/8/4). K shards repeat pretraining
// bit-identically; SEMCACHE_FIXTURE_DIR amortizes it to one run — this
// bench points it at a temp directory when unset.
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/dispatcher.hpp"
#include "core/sharded.hpp"
#include "core/system.hpp"
#include "text/zipf.hpp"

using namespace semcache;

namespace {

std::size_t env_size(const char* name, std::size_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  const unsigned long value = std::strtoul(raw, &end, 10);
  return (end == raw || *end != '\0' || value == 0) ? fallback : value;
}

struct CityResult {
  double build_s = 0.0;
  double register_s = 0.0;
  double serve_s = 0.0;
  std::size_t delivered = 0;
  std::size_t cores = 0;
  std::size_t updates = 0;
  core::MemoryFootprint footprint;
};

CityResult run(std::size_t num_shards, std::size_t users, std::size_t waves,
               std::size_t pairs, std::size_t msgs) {
  using clock = std::chrono::steady_clock;
  const auto seconds = [](clock::time_point a, clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
  };

  core::SystemConfig config;
  config.seed = 1401;
  config.world = bench::standard_world(2, 8);
  config.codec.embed_dim = 20;
  config.codec.feature_dim = 16;
  config.codec.hidden_dim = 48;
  config.pretrain.steps = 800;
  config.oracle_selection = true;  // measure serving, not selector drift
  config.num_edges = 2;
  // Every registered user needs a device slot on its edge.
  config.devices_per_edge = users / 2 + 64;

  CityResult result;
  const auto t_build = clock::now();
  auto city = core::ShardedEdgeServing::build(config, num_shards);
  const auto t_register = clock::now();
  result.build_s = seconds(t_build, t_register);
  for (std::size_t u = 0; u < users; ++u) {
    city->register_user("u" + std::to_string(u), u % 2, nullptr);
  }
  result.register_s = seconds(t_register, clock::now());

  const std::size_t threads =
      city->shard(0).thread_pool() == nullptr
          ? 1
          : city->shard(0).thread_pool()->worker_count();
  result.cores = num_shards * threads;

  // Same activity stream for every K (seed fixed, drawn outside shards).
  Rng activity(0xE14);
  text::ZipfSampler zipf(users, 1.0);
  core::ParallelDispatcher dispatcher(*city);
  double serve_s = 0.0;
  for (std::size_t w = 0; w < waves; ++w) {
    // Draw the wave and sample its messages OUTSIDE the timer.
    std::vector<std::string> senders, receivers;
    std::vector<std::vector<text::Sentence>> batches;
    for (std::size_t p = 0; p < pairs; ++p) {
      const std::size_t si = zipf.sample(activity);
      std::size_t ri = zipf.sample(activity);
      if (ri == si) ri = (ri + 1) % users;
      senders.push_back("u" + std::to_string(si));
      receivers.push_back("u" + std::to_string(ri));
      std::vector<text::Sentence> batch;
      for (std::size_t i = 0; i < msgs; ++i) {
        batch.push_back(
            city->sample_message(senders.back(), (w + p + i) % 2));
      }
      batches.push_back(std::move(batch));
    }
    const auto t_wave = clock::now();
    for (std::size_t p = 0; p < pairs; ++p) {
      dispatcher.enqueue(senders[p], receivers[p], std::move(batches[p]));
    }
    dispatcher.flush([&result](std::size_t, std::size_t,
                               core::TransmitReport) { ++result.delivered; });
    serve_s += seconds(t_wave, clock::now());
  }
  result.serve_s = serve_s;
  result.updates = city->stats().updates;
  result.footprint = city->memory_footprint();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  // K shards pretrain bit-identical codecs; pay once via the fixture
  // cache when the caller has not already pointed it somewhere.
  if (std::getenv("SEMCACHE_FIXTURE_DIR") == nullptr) {
    const auto dir =
        std::filesystem::temp_directory_path() / "semcache-e14-fixtures";
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (!ec) setenv("SEMCACHE_FIXTURE_DIR", dir.c_str(), 0);
  }

  const std::size_t users = env_size("SEMCACHE_E14_USERS", 100000);
  const std::size_t waves = env_size("SEMCACHE_E14_WAVES", 12);
  const std::size_t pairs = env_size("SEMCACHE_E14_PAIRS", 8);
  const std::size_t msgs = env_size("SEMCACHE_E14_MSGS", 4);

  metrics::Table memory(
      "E14 — city-scale memory audit (" + std::to_string(users) +
          " registered users; per-user = profiles + slots + buffers + "
          "materialized models, summed over shards)",
      {"shards", "fixed_mb", "per_user_b", "users_per_gb", "slots",
       "materialized"});
  metrics::Table serving(
      "E14 — sharded serving throughput (Zipf(1.0) activity, " +
          std::to_string(waves) + " waves x " + std::to_string(pairs) +
          " pairs x " + std::to_string(msgs) + " msgs)",
      {"shards", "cores", "build_s", "register_s", "serve_s", "msgs_per_s",
       "msgs_per_s_core", "updates"});

  for (const std::size_t num_shards : {1u, 2u, 4u}) {
    const CityResult r = run(num_shards, users, waves, pairs, msgs);
    const core::MemoryFootprint& fp = r.footprint;
    const double fixed_mb =
        static_cast<double>(fp.general_model_bytes + fp.serving_table_bytes +
                            fp.topology_bytes) /
        (1024.0 * 1024.0);
    const double per_user =
        static_cast<double>(fp.profile_bytes + fp.slot_bytes +
                            fp.buffer_bytes + fp.user_model_bytes) /
        static_cast<double>(users);
    const double users_per_gb =
        static_cast<double>(1ULL << 30) / per_user;
    memory.add_row({std::to_string(num_shards),
                    metrics::Table::num(fixed_mb, 1),
                    metrics::Table::num(per_user, 1),
                    metrics::Table::num(users_per_gb, 0),
                    std::to_string(fp.slots),
                    std::to_string(fp.materialized_models)});
    const double msgs_per_s =
        static_cast<double>(r.delivered) / r.serve_s;
    serving.add_row({std::to_string(num_shards), std::to_string(r.cores),
                     metrics::Table::num(r.build_s, 2),
                     metrics::Table::num(r.register_s, 2),
                     metrics::Table::num(r.serve_s, 3),
                     metrics::Table::num(msgs_per_s, 0),
                     metrics::Table::num(
                         msgs_per_s / static_cast<double>(r.cores), 0),
                     std::to_string(r.updates)});
  }
  bench::emit(memory, argc, argv);
  bench::emit(serving, argc, argv);
  return 0;
}
