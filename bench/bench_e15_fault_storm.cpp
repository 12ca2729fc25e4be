// E15 — fault storm: goodput, availability, and recovery cost under
// deterministic fault injection (core::FaultPlane).
//
// Four scenarios run the SAME traffic through the same sharded deployment
// shape (K = 2 behind core::ParallelDispatcher) and differ only in the
// injected fault mix:
//
//   * clean      — fault plane disarmed; the availability baseline.
//   * flap-queue — flapping backbone links (outages hold-and-drain) plus
//                  a sync storm: loss + corruption + duplication with the
//                  retry/backoff ladder mopping up. Every message still
//                  completes; the cost shows up as latency and sync
//                  retries/resyncs.
//   * flap-drop  — the same storm with outage_policy = kDrop: a send that
//                  lands in a down window is refused and its delivery
//                  chain dies, so goodput falls below 100% (the
//                  availability number the paper's edge story cares
//                  about) while the data plane itself never stalls.
//   * stall      — shard stalls (p = 0.3 per shard per wave): the
//                  dispatcher serves the stalled shard's pairs degraded
//                  from the frozen general models — availability stays
//                  100%, quality cost is the degraded-serve count.
//
// Reported per scenario: goodput % (completions / attempted), degraded
// serves, mean delivered latency and its delta vs clean (the recovery
// latency actually paid: outage drain + retry backoff), the sync ladder's
// accounting (retries / drops / expired), gap-resync traffic in KB (the
// last-resort recovery cost), outage counters, and serve wall time.
//
// Faults are identity-keyed (see src/faults/fault_plane.hpp), so every
// scenario is bit-reproducible at any thread count — rerunning this bench
// under SEMCACHE_THREADS=4 changes the wall clock, never the counters.
//
// Knobs: SEMCACHE_E15_WAVES / _PAIRS / _MSGS (defaults 16/6/3 — enough
// waves that every sender ships several sync versions, so expired ladders
// are followed by delivered updates and the gap-resync path is measured,
// not just armed).
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/dispatcher.hpp"
#include "core/sharded.hpp"
#include "core/system.hpp"

using namespace semcache;

namespace {

constexpr std::size_t kUsers = 16;
constexpr std::size_t kShards = 2;

std::size_t env_size(const char* name, std::size_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  const unsigned long value = std::strtoul(raw, &end, 10);
  return (end == raw || *end != '\0' || value == 0) ? fallback : value;
}

core::FaultConfig storm() {
  core::FaultConfig f;
  f.seed = 0xE15;
  f.sync_loss = 0.3;
  f.sync_corrupt = 0.2;
  f.sync_duplicate = 0.15;
  f.retry_timeout_s = 0.02;
  f.retry_backoff = 2.0;
  f.max_attempts = 4;
  f.link_flap_period_s = 0.08;
  f.link_flap_down_s = 0.02;
  return f;
}

struct Scenario {
  std::string name;
  core::FaultConfig faults;
};

struct StormResult {
  std::size_t attempted = 0;
  std::size_t delivered = 0;
  double latency_sum_s = 0.0;
  double serve_s = 0.0;
  core::SystemStats stats;
};

StormResult run(const Scenario& scenario, std::size_t waves,
                std::size_t pairs, std::size_t msgs) {
  using clock = std::chrono::steady_clock;

  core::SystemConfig config;
  config.seed = 1501;
  config.world = bench::standard_world(2, 8);
  config.codec.embed_dim = 20;
  config.codec.feature_dim = 16;
  config.codec.hidden_dim = 48;
  config.pretrain.steps = 400;
  config.oracle_selection = true;  // measure the fault plane, not the selector
  config.num_edges = 2;
  config.devices_per_edge = kUsers;  // every registered user needs a device
  config.buffer_trigger = 3;  // sync ships fire often enough to meet the storm
  config.faults = scenario.faults;

  auto city = core::ShardedEdgeServing::build(config, kShards);
  for (std::size_t u = 0; u < kUsers; ++u) {
    city->register_user("u" + std::to_string(u), u % 2, nullptr);
  }

  StormResult result;
  core::ParallelDispatcher dispatcher(*city);
  for (std::size_t w = 0; w < waves; ++w) {
    // Fixed pair rotation, every pair cross-edge (sender and receiver of
    // opposite parity) so each triggered update ships a sync over the
    // faulted backbone. Each sender keeps ONE partner across waves so an
    // expired sync's version gap meets later delivered updates at the same
    // receiver slot — that is what exercises the gap-resync path. Sampled
    // OUTSIDE the timer.
    std::vector<std::string> senders, receivers;
    std::vector<std::vector<text::Sentence>> batches;
    for (std::size_t p = 0; p < pairs; ++p) {
      const std::size_t si = (w * pairs + p) % kUsers;
      const std::size_t ri = (si + 1) % kUsers;  // opposite parity
      senders.push_back("u" + std::to_string(si));
      receivers.push_back("u" + std::to_string(ri));
      std::vector<text::Sentence> batch;
      for (std::size_t i = 0; i < msgs; ++i) {
        batch.push_back(city->sample_message(senders.back(), (w + p + i) % 2));
      }
      batches.push_back(std::move(batch));
      result.attempted += msgs;
    }
    const auto t_wave = clock::now();
    for (std::size_t p = 0; p < pairs; ++p) {
      dispatcher.enqueue(senders[p], receivers[p], std::move(batches[p]));
    }
    dispatcher.flush([&result](std::size_t, std::size_t,
                               core::TransmitReport report) {
      ++result.delivered;
      result.latency_sum_s += report.latency_s;
    });
    result.serve_s +=
        std::chrono::duration<double>(clock::now() - t_wave).count();
  }
  result.stats = city->stats();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  // K shards pretrain bit-identical codecs, and all four scenarios share
  // one codec config: pay the pretraining once via the fixture cache.
  if (std::getenv("SEMCACHE_FIXTURE_DIR") == nullptr) {
    const auto dir =
        std::filesystem::temp_directory_path() / "semcache-e15-fixtures";
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (!ec) setenv("SEMCACHE_FIXTURE_DIR", dir.c_str(), 0);
  }

  const std::size_t waves = env_size("SEMCACHE_E15_WAVES", 16);
  const std::size_t pairs = env_size("SEMCACHE_E15_PAIRS", 6);
  const std::size_t msgs = env_size("SEMCACHE_E15_MSGS", 3);

  std::vector<Scenario> scenarios;
  scenarios.push_back({"clean", {}});
  {
    Scenario s{"flap-queue", storm()};
    s.faults.outage_policy = edge::OutagePolicy::kQueue;
    scenarios.push_back(s);
  }
  {
    Scenario s{"flap-drop", storm()};
    s.faults.outage_policy = edge::OutagePolicy::kDrop;
    scenarios.push_back(s);
  }
  {
    Scenario s{"stall", {}};
    s.faults.shard_stall = 0.3;
    scenarios.push_back(s);
  }

  metrics::Table availability(
      "E15 — goodput and availability under fault storms (" +
          std::to_string(kShards) + " shards, " + std::to_string(waves) +
          " waves x " + std::to_string(pairs) + " pairs x " +
          std::to_string(msgs) + " msgs)",
      {"scenario", "goodput_pct", "delivered", "degraded", "avg_ms",
       "d_ms_vs_clean", "serve_s"});
  metrics::Table recovery(
      "E15 — recovery accounting (retry ladder first, gap resync last "
      "resort)",
      {"scenario", "updates", "sync_retries", "sync_drops", "sync_expired",
       "corrupt_drops", "duplicates", "full_resyncs", "resync_kb", "outage_q",
       "outage_d"});

  double clean_avg_ms = 0.0;
  for (const Scenario& scenario : scenarios) {
    const StormResult r = run(scenario, waves, pairs, msgs);
    const double goodput =
        100.0 * static_cast<double>(r.delivered) /
        static_cast<double>(r.attempted);
    const double avg_ms =
        r.delivered == 0
            ? 0.0
            : 1000.0 * r.latency_sum_s / static_cast<double>(r.delivered);
    if (scenario.name == "clean") clean_avg_ms = avg_ms;
    availability.add_row(
        {scenario.name, metrics::Table::num(goodput, 1),
         std::to_string(r.delivered),
         std::to_string(r.stats.degraded_serves),
         metrics::Table::num(avg_ms, 2),
         metrics::Table::num(avg_ms - clean_avg_ms, 2),
         metrics::Table::num(r.serve_s, 3)});
    recovery.add_row(
        {scenario.name, std::to_string(r.stats.updates),
         std::to_string(r.stats.sync_retries),
         std::to_string(r.stats.sync_drops),
         std::to_string(r.stats.sync_expired),
         std::to_string(r.stats.sync_corrupt_drops),
         std::to_string(r.stats.sync_duplicates),
         std::to_string(r.stats.full_resyncs),
         metrics::Table::num(
             static_cast<double>(r.stats.resync_bytes) / 1024.0, 1),
         std::to_string(r.stats.outage_queued),
         std::to_string(r.stats.outage_drops)});
  }
  bench::emit(availability, argc, argv);
  bench::emit(recovery, argc, argv);
  return 0;
}
