// perfbench — the repository's serving benchmark.
//
// Closed-loop workloads drive the public serving API: one client
// enqueues a wave of user-pair batches on core::ParallelDispatcher,
// flushes it, and waits until every message is delivered before drawing
// the next wave. `serve`, `serve_pool` and `personalize` run over one
// SemanticEdgeSystem, `city` over a ShardedEdgeServing. README.md in this
// directory says why each workload exists and defines every metric.
//
//   perfbench --workload serve|serve_pool|personalize|city --seed N
//             --seconds S --trace 0|1 [--spans FILE]
//
// --seed drives the traffic only (user draws, pair sizes, domains); the
// deployment itself is built from a fixed seed. --trace 1 records spans
// around the benchmark's calls into the library and replays sampled waves
// through the per-layer entry points; its numbers are per-layer metrics,
// never end-to-end ones. The last stdout line is one JSON object with the
// keys correct, attempted, failed and metrics. Exit code 1 means an output
// check failed; 2 means a usage error.
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "channel/pipeline.hpp"
#include "common/cpu.hpp"
#include "core/dispatcher.hpp"
#include "core/sharded.hpp"
#include "core/system.hpp"
#include "fl/sync.hpp"
#include "semantic/trainer.hpp"
#include "tensor/ops.hpp"
#include "text/zipf.hpp"
#include "trace.hpp"

namespace {

using namespace semcache;
using perfbench::ScopedSpan;
using perfbench::Tracer;
using Clock = std::chrono::steady_clock;

// Environment knobs that would change what the library does (threads,
// shards, SIMD tier, soft decoding) or turn pretraining into a file read
// (fixture cache). They are cleared before anything is built.
constexpr const char* kPinnedEnv[] = {"SEMCACHE_THREADS", "SEMCACHE_SHARDS",
                                      "SEMCACHE_SIMD", "SEMCACHE_SOFT",
                                      "SEMCACHE_FIXTURE_DIR"};

// Set-ups per run; setup_s is their median.
constexpr std::size_t kSetupRepeats = 3;
// wave_ms_p95 needs at least 10 waves beyond it.
constexpr std::size_t kMinTimedWaves = 200;
// Slices of the timed waves printed as diagnostics.
constexpr std::size_t kMaxSlices = 10;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Nearest-rank percentile of `values` (sorted in place).
double percentile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

/// Samples strictly above the q-percentile (the tail a percentile rests on).
std::size_t beyond(std::vector<double>& values, double q) {
  const double cut = percentile(values, q);
  return static_cast<std::size_t>(
      values.end() - std::upper_bound(values.begin(), values.end(), cut));
}

double median(std::vector<double> values) { return percentile(values, 0.5); }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Wall-clock figures of one run, over every timed wave: delivered
/// messages over the summed wave wall time, percentiles over all waves,
/// and process CPU over delivered messages. The same figures per slice
/// (the timed waves cut into at most kMaxSlices equal consecutive parts)
/// are printed as diagnostics only: they show drift inside a run, from the
/// host or from the program itself.
struct WallFigures {
  double msgs_per_s = 0.0;
  double wave_ms_p50 = 0.0;
  double wave_ms_p95 = 0.0;
  double cpu_us_per_msg = 0.0;
  std::size_t beyond_p95 = 0;  ///< waves strictly above the p95
};

WallFigures wall_figures(const std::vector<double>& wave_s,
                         const std::vector<double>& wave_cpu_s,
                         const std::vector<double>& wave_msgs,
                         std::size_t lo, std::size_t hi) {
  WallFigures f;
  double wall = 0.0, cpu_s = 0.0, msgs = 0.0;
  std::vector<double> ms;
  for (std::size_t i = lo; i < hi; ++i) {
    wall += wave_s[i];
    cpu_s += wave_cpu_s[i];
    msgs += wave_msgs[i];
    ms.push_back(1e3 * wave_s[i]);
  }
  f.msgs_per_s = ratio(msgs, wall);
  f.cpu_us_per_msg = 1e6 * ratio(cpu_s, msgs);
  f.wave_ms_p50 = percentile(ms, 0.50);
  f.wave_ms_p95 = percentile(ms, 0.95);
  f.beyond_p95 = beyond(ms, 0.95);
  return f;
}

/// FNV-1a, for the output digests.
struct Digest {
  std::uint64_t h = 1469598103934665603ULL;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ULL;
    }
  }
  template <typename T>
  void value(const T& v) {
    bytes(&v, sizeof(v));
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
  }
};

// ---------------------------------------------------------------------------
// Deployment: one SemanticEdgeSystem or one ShardedEdgeServing, behind the
// dispatcher that serves it.
// ---------------------------------------------------------------------------
class Deployment {
 public:
  Deployment(const core::SystemConfig& config, std::size_t shards) {
    if (shards == 0) {
      system_ = core::SemanticEdgeSystem::build(config);
      dispatcher_ = std::make_unique<core::ParallelDispatcher>(*system_);
    } else {
      sharded_ = core::ShardedEdgeServing::build(config, shards);
      dispatcher_ = std::make_unique<core::ParallelDispatcher>(*sharded_);
    }
  }

  bool sharded() const { return sharded_ != nullptr; }
  std::size_t num_shards() const {
    return sharded_ ? sharded_->num_shards() : 1;
  }
  core::SemanticEdgeSystem& shard(std::size_t s) {
    return sharded_ ? sharded_->shard(s) : *system_;
  }
  std::size_t shard_of(const std::string& user) const {
    return sharded_ ? sharded_->shard_of(user) : 0;
  }
  core::SemanticEdgeSystem& owner(const std::string& user) {
    return shard(shard_of(user));
  }
  core::ParallelDispatcher& dispatcher() { return *dispatcher_; }

  void register_user(const std::string& name, std::size_t edge,
                     const text::IdiolectConfig* idiolect) {
    if (sharded_) {
      sharded_->register_user(name, edge, idiolect);
    } else {
      system_->register_user(name, edge, idiolect);
    }
    ++users_;
  }
  std::size_t users() const { return users_; }
  text::Sentence sample(const std::string& user, std::size_t domain) {
    return sharded_ ? sharded_->sample_message(user, domain)
                    : system_->sample_message(user, domain);
  }
  core::SystemStats stats() const {
    return sharded_ ? sharded_->stats() : system_->stats();
  }
  core::MemoryFootprint footprint() const {
    return sharded_ ? sharded_->memory_footprint()
                    : system_->memory_footprint();
  }
  std::uint64_t link_bytes() {
    std::uint64_t total = 0;
    for (std::size_t s = 0; s < num_shards(); ++s) {
      total += shard(s).network().total_bytes_carried();
    }
    return total;
  }
  std::size_t events_processed() {
    std::size_t total = 0;
    for (std::size_t s = 0; s < num_shards(); ++s) {
      total += shard(s).simulator().processed();
    }
    return total;
  }

 private:
  // Declared before the dispatcher, which borrows them.
  std::unique_ptr<core::SemanticEdgeSystem> system_;
  std::unique_ptr<core::ShardedEdgeServing> sharded_;
  std::unique_ptr<core::ParallelDispatcher> dispatcher_;
  std::size_t users_ = 0;
};

struct Pair {
  std::string sender;
  std::string receiver;
  std::vector<text::Sentence> messages;
};
using Wave = std::vector<Pair>;

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------
struct Spec {
  std::string name;
  core::SystemConfig config;
  std::size_t shards = 0;  ///< 0 = one SemanticEdgeSystem
  std::size_t warmup_waves = 0;
  /// Timed waves whose reports feed the deterministic metrics and the
  /// digest; every run serves at least this many.
  std::size_t guard_waves = 0;
  std::size_t replay_every = 1;  ///< traced run: replay every n-th wave
  bool fine_tunes = false;  ///< checked: updates happen iff this is set
  std::function<void(Deployment&)> register_users;
  std::function<Wave(Deployment&, Rng&)> draw_wave;
};

/// The deployment all three workloads share: four-domain world, the
/// codec sized as in the experiment benches, two edges. Its seed is fixed;
/// --seed only drives traffic.
core::SystemConfig base_config() {
  core::SystemConfig c;
  c.seed = 2023;
  c.world.num_domains = 4;
  c.world.concepts_per_domain = 20;
  c.world.num_polysemous = 12;
  c.world.sentence_length = 8;
  c.codec.embed_dim = 20;
  c.codec.feature_dim = 16;
  c.codec.hidden_dim = 48;
  c.pretrain.steps = 2000;
  c.num_edges = 2;
  c.devices_per_edge = 16;
  return c;
}

std::string indexed(const char* prefix, std::size_t i) {
  return prefix + std::to_string(i);
}

/// Read path: 8 distinct senders (8 lanes) on a sequential system, four
/// domains through the NB selector, every pair cross-edge over
/// conv_k3_r12 with soft-decision AWGN. Buffers are cleared after every
/// wave and the trigger sits above any slot's per-wave count, so no
/// fine-tune fires. The same traffic on a pool is `serve_pool`.
Spec serve_spec() {
  Spec s;
  s.name = "serve";
  s.config = base_config();
  s.config.num_threads = 0;
  s.config.selector = "nb";
  s.config.channel.code = "conv_k3_r12";
  s.config.channel.soft_decision = true;
  s.config.channel.snr_db = 3.0;
  s.config.buffer_trigger = 1024;
  s.config.buffer_capacity = 1024;
  s.warmup_waves = 15;
  s.guard_waves = 200;
  s.replay_every = 8;
  constexpr std::size_t kPairs = 8;
  s.register_users = [](Deployment& d) {
    for (std::size_t p = 0; p < kPairs; ++p) {
      d.register_user(indexed("s", p), p % 2, nullptr);
      d.register_user(indexed("r", p), (p + 1) % 2, nullptr);
    }
  };
  s.draw_wave = [](Deployment& d, Rng& rng) {
    Wave wave(kPairs);
    for (std::size_t p = 0; p < kPairs; ++p) {
      wave[p].sender = indexed("s", p);
      wave[p].receiver = indexed("r", p);
      const auto n = static_cast<std::size_t>(rng.uniform_int(24, 40));
      for (std::size_t i = 0; i < n; ++i) {
        wave[p].messages.push_back(
            d.sample(wave[p].sender, static_cast<std::size_t>(
                                         rng.uniform_int(0, 3))));
      }
    }
    return wave;
  };
  return s;
}

/// Serve's traffic on a system with a 4-worker pool (the caller blocks
/// while the pool runs, so at most 4 threads are busy): the lanes of a
/// wave fan out over the pool and the simulator's concurrent link waves
/// run on it. Not gated (README.md, host drift): on a shared 4-vCPU host
/// a wave waits for whichever vCPU the hypervisor took.
Spec serve_pool_spec() {
  Spec s = serve_spec();
  s.name = "serve_pool";
  s.config.num_threads = 4;
  return s;
}

/// Write path (§II-D ③/④): idiolect users on a sequential system with the
/// default buffer trigger and fine-tune settings, cross-edge, so every
/// update ships a compressed decoder delta. Each wave is one sender's burst
/// of 26-32 messages in that sender's own domain, so every wave crosses the
/// trigger (24) once and carries one fine-tune, and the median wave rests
/// on the trainer. The burst's slot is emptied after the wave (outside the
/// timer), so every fine-tune trains on the 24 samples since the previous
/// one: fine-tunes below buffer capacity only. At the default capacity
/// (256) one fine-tune takes about 13x longer (README.md), too long for a
/// run of seconds to hold the waves its p95 needs.
Spec personalize_spec() {
  Spec s;
  s.name = "personalize";
  s.config = base_config();
  s.config.num_threads = 0;
  s.config.selector = "nb";
  s.config.channel.code = "hamming74";
  s.config.channel.soft_decision = false;
  s.warmup_waves = 16;
  s.guard_waves = 200;
  s.replay_every = 4;
  s.fine_tunes = true;
  constexpr std::size_t kPairs = 4;
  s.register_users = [](Deployment& d) {
    const text::IdiolectConfig idiolect;
    for (std::size_t p = 0; p < kPairs; ++p) {
      d.register_user(indexed("s", p), p % 2, &idiolect);
      d.register_user(indexed("r", p), (p + 1) % 2, &idiolect);
    }
  };
  s.draw_wave = [](Deployment& d, Rng& rng) {
    const auto p = static_cast<std::size_t>(rng.uniform_int(0, kPairs - 1));
    Wave wave(1);
    wave[0].sender = indexed("s", p);
    wave[0].receiver = indexed("r", p);
    const auto n = static_cast<std::size_t>(rng.uniform_int(26, 32));
    for (std::size_t i = 0; i < n; ++i) {
      wave[0].messages.push_back(d.sample(wave[0].sender, p));
    }
    return wave;
  };
  return s;
}

/// Scale-out: K = 4 shards without per-shard pools (4 shard threads) and
/// 100 000 registered users spread over four edges; Zipf(1.0) senders and
/// receivers, oracle selection, no fine-tune. With two edges about half
/// the pairs would be intra-edge, which puts the latency median on the
/// edge between the intra- and cross-edge modes; four edges keep it in
/// the cross-edge mode.
Spec city_spec() {
  Spec s;
  s.name = "city";
  s.config = base_config();
  s.config.world.num_domains = 2;
  s.config.pretrain.steps = 1000;
  s.config.num_threads = 0;
  s.config.num_edges = 4;
  s.config.oracle_selection = true;
  s.config.buffer_trigger = 1024;
  s.config.buffer_capacity = 1024;
  s.shards = 4;
  s.warmup_waves = 330;
  s.guard_waves = 330;
  s.replay_every = 16;
  constexpr std::size_t kUsers = 100000;
  constexpr std::size_t kPairs = 96;
  constexpr std::size_t kMessages = 4;
  s.config.devices_per_edge = kUsers / 4 + 64;
  auto names = std::make_shared<std::vector<std::string>>();
  auto zipf = std::make_shared<text::ZipfSampler>(kUsers, 1.0);
  s.register_users = [names](Deployment& d) {
    names->clear();
    names->reserve(kUsers);
    for (std::size_t u = 0; u < kUsers; ++u) {
      names->push_back(indexed("u", u));
      d.register_user(names->back(), u % 4, nullptr);
    }
  };
  s.draw_wave = [names, zipf](Deployment& d, Rng& rng) {
    // A pair drawn twice in one wave sends one batch, as the dispatcher
    // would merge it anyway; keeping pairs distinct keeps the wave's pair
    // order equal to the dispatcher's completion indices.
    Wave wave;
    std::map<std::pair<std::size_t, std::size_t>, std::size_t> slot;
    for (std::size_t p = 0; p < kPairs; ++p) {
      const std::size_t from = zipf->sample(rng);
      std::size_t to = zipf->sample(rng);
      if (to == from) to = (to + 1) % kUsers;
      const auto [it, fresh] = slot.insert({{from, to}, wave.size()});
      if (fresh) wave.push_back({(*names)[from], (*names)[to], {}});
      Pair& pair = wave[it->second];
      for (std::size_t i = 0; i < kMessages; ++i) {
        pair.messages.push_back(d.sample(
            pair.sender, static_cast<std::size_t>(rng.uniform_int(0, 1))));
      }
    }
    return wave;
  };
  return s;
}

// ---------------------------------------------------------------------------
// One served wave: what came back, and the checks on it.
// ---------------------------------------------------------------------------
struct WaveResult {
  std::vector<std::vector<core::TransmitReport>> reports;  ///< [pair][index]
  std::vector<std::vector<std::uint8_t>> completions;      ///< [pair][index]
  std::size_t unexpected = 0;  ///< completions for unknown (pair, index)
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double flush_s = 0.0;
  double flush_cpu_s = 0.0;  ///< traced run only
  std::uint32_t flush_span = Tracer::kNoParent;
  std::size_t events = 0;
  std::size_t delivered = 0;  ///< (pair, index) slots completed at least once
};

/// Enqueue, flush and (single-system) drain one wave. Only the calls into
/// the library sit between the two clock reads; result slots are sized
/// beforehand and the completion callback only moves the report into
/// place.
WaveResult serve_wave(Deployment& d, Wave wave, Tracer* tracer,
                      std::uint64_t wave_id) {
  WaveResult r;
  r.reports.resize(wave.size());
  r.completions.resize(wave.size());
  for (std::size_t p = 0; p < wave.size(); ++p) {
    r.reports[p].resize(wave[p].messages.size());
    r.completions[p].assign(wave[p].messages.size(), 0);
  }
  auto on_done = [&r](std::size_t pair, std::size_t index,
                      core::TransmitReport report) {
    if (pair >= r.reports.size() || index >= r.reports[pair].size()) {
      ++r.unexpected;
      return;
    }
    ++r.completions[pair][index];
    r.reports[pair][index] = std::move(report);
  };
  const std::size_t events_before = d.events_processed();
  core::ParallelDispatcher& dispatcher = d.dispatcher();

  const double cpu0 = process_cpu_s();
  const Clock::time_point t0 = Clock::now();
  {
    ScopedSpan wave_span(tracer, "wave", wave_id);
    {
      ScopedSpan span(tracer, "core.enqueue", wave_id, wave_span.id());
      for (Pair& pair : wave) {
        dispatcher.enqueue(pair.sender, pair.receiver,
                           std::move(pair.messages));
      }
    }
    {
      ScopedSpan span(tracer, "core.flush", wave_id, wave_span.id());
      r.flush_span = span.id();
      const double fcpu0 = tracer != nullptr ? process_cpu_s() : 0.0;
      const Clock::time_point f0 = Clock::now();
      dispatcher.flush(on_done);
      r.flush_s = seconds_between(f0, Clock::now());
      if (tracer != nullptr) r.flush_cpu_s = process_cpu_s() - fcpu0;
    }
    if (!d.sharded()) {
      // The sharded flush drains every shard itself.
      ScopedSpan span(tracer, "edge.drain", wave_id, wave_span.id());
      d.shard(0).simulator().run();
    }
  }
  r.wall_s = seconds_between(t0, Clock::now());
  r.cpu_s = process_cpu_s() - cpu0;
  r.events = d.events_processed() - events_before;
  for (const auto& pair : r.completions) {
    r.delivered += static_cast<std::size_t>(
        std::count_if(pair.begin(), pair.end(), [](auto c) { return c > 0; }));
  }
  return r;
}

// ---------------------------------------------------------------------------
// Traced run: replay sampled waves through the per-layer entry points, on
// copies, so the measured deployment is never mutated.
// ---------------------------------------------------------------------------
class Replayer {
 public:
  Replayer(Deployment& d, const core::SystemConfig& config)
      : config_(config),
        sync_(config.sync_compression),
        pipeline_(channel::make_awgn_pipeline(
            channel::make_code(config.channel.code), config.channel.modulation,
            config.channel.snr_db, config.channel.interleave_depth)),
        quantizer_(&d.shard(0).quantizer()) {
    pipeline_->set_soft_decision(
        channel::resolve_soft_decision(config.channel.soft_decision));
    core::SemanticEdgeSystem& sys = d.shard(0);
    for (std::size_t m = 0; m < sys.world().num_domains(); ++m) {
      models_.push_back(sys.general_model(m).clone());
    }
  }

  struct Counts {
    std::size_t messages = 0;
    std::size_t channel_payloads = 0;
    std::size_t channel_clean = 0;
    std::size_t updates = 0;
  };
  const Counts& counts() const { return counts_; }

  /// Re-run `wave` (a copy taken before it was served) with the domains
  /// and update triggers its reports recorded. Returns the summed stage
  /// time, the part of the flush the replay accounts for.
  double replay(Deployment& d, const Wave& wave, const WaveResult& served,
                Tracer& tracer, std::uint64_t wave_id) {
    core::SemanticEdgeSystem& sys = d.shard(0);
    const std::size_t stage_first = tracer.spans().size();
    ScopedSpan replay_span(&tracer, "replay", wave_id, served.flush_span);
    const std::uint32_t parent = replay_span.id();

    if (!config_.oracle_selection) {
      ScopedSpan span(&tracer, "select.select", wave_id, parent);
      for (const Pair& pair : wave) {
        for (const text::Sentence& msg : pair.messages) {
          sys.selector().select(msg.surface);
        }
      }
    }

    std::vector<std::int32_t> surfaces;
    for (std::size_t p = 0; p < wave.size(); ++p) {
      const Pair& pair = wave[p];
      const bool cross = d.owner(pair.sender).user(pair.sender).edge_index !=
                         d.owner(pair.sender).user(pair.receiver).edge_index;
      std::map<std::size_t, std::vector<std::size_t>> groups;
      for (std::size_t i = 0; i < pair.messages.size(); ++i) {
        groups[served.reports[p][i].domain_selected].push_back(i);
      }
      for (const auto& [m, indices] : groups) {
        replay_group(*models_[m], pair, indices, cross, surfaces, tracer,
                     wave_id, parent);
      }
      counts_.messages += pair.messages.size();
    }

    for (std::size_t p = 0; p < wave.size(); ++p) {
      const auto& reports = served.reports[p];
      for (std::size_t i = 0; i < reports.size(); ++i) {
        if (!reports[i].triggered_update) continue;
        // The fine-tune saw the buffer as it stood at message i; the
        // pair's later messages to the same slot were appended after it
        // (buffers stay below capacity on every workload here).
        std::size_t later = 0;
        for (std::size_t j = i + 1; j < reports.size(); ++j) {
          later += reports[j].domain_selected == reports[i].domain_selected;
        }
        replay_update(d, wave[p].sender, reports[i].domain_selected, later,
                      tracer, wave_id, parent);
      }
    }

    double stage_s = 0.0;
    const auto& spans = tracer.spans();
    for (std::size_t i = stage_first; i < spans.size(); ++i) {
      if (spans[i].parent == parent) stage_s += spans[i].seconds();
    }
    return stage_s;
  }

 private:
  void replay_group(semantic::SemanticCodec& model, const Pair& pair,
                    const std::vector<std::size_t>& indices, bool cross,
                    std::vector<std::int32_t>& surfaces, Tracer& tracer,
                    std::uint64_t wave_id, std::uint32_t parent) {
    surfaces.clear();
    for (const std::size_t i : indices) {
      const auto& s = pair.messages[i].surface;
      surfaces.insert(surfaces.end(), s.begin(), s.end());
    }
    // Valid until the encoder's next encode_batch.
    const tensor::Tensor* features = nullptr;
    {
      ScopedSpan span(&tracer, "semantic.encode", wave_id, parent);
      features = &model.encoder().encode_batch(surfaces, indices.size());
    }
    std::vector<BitVec> payloads;
    {
      ScopedSpan span(&tracer, "semantic.quantize", wave_id, parent);
      payloads = quantizer_->quantize_batch(*features);
    }
    std::vector<BitVec> received;
    if (cross) {
      std::vector<Rng> rngs;
      for (std::size_t j = 0; j < payloads.size(); ++j) {
        rngs.push_back(noise_.fork(++noise_tag_));
      }
      {
        ScopedSpan span(&tracer, "channel.transmit", wave_id, parent);
        received = pipeline_->transmit_batch(payloads, rngs);
      }
      counts_.channel_payloads += payloads.size();
      for (std::size_t j = 0; j < payloads.size(); ++j) {
        counts_.channel_clean += received[j] == payloads[j] ? 1 : 0;
      }
    } else {
      received = payloads;
    }
    tensor::Tensor rx;
    {
      ScopedSpan span(&tracer, "semantic.quantize", wave_id, parent);
      rx = quantizer_->dequantize_batch(received);
    }
    {
      ScopedSpan span(&tracer, "semantic.decode", wave_id, parent);
      const tensor::Tensor& logits = model.decoder().decode_logits_batch(rx);
      tensor::row_argmax(logits);
    }
  }

  void replay_update(Deployment& d, const std::string& sender,
                     std::size_t domain, std::size_t later, Tracer& tracer,
                     std::uint64_t wave_id, std::uint32_t parent) {
    core::SemanticEdgeSystem& owner = d.owner(sender);
    const core::UserModelSlot* slot =
        owner.edge_state(owner.user(sender).edge_index)
            .find_slot(sender, domain);
    if (slot == nullptr || slot->buffer == nullptr) return;
    const auto buffered = slot->buffer->samples();
    const auto samples =
        buffered.first(buffered.size() - std::min(later, buffered.size()));
    auto model = slot->model->clone();
    const std::vector<float> before =
        model->decoder().parameters().flatten_values();
    Rng rng = noise_.fork(++noise_tag_);
    {
      ScopedSpan span(&tracer, "semantic.finetune", wave_id, parent);
      semantic::CodecTrainer::finetune(
          *model, samples, config_.finetune_epochs,
          config_.finetune_lr, rng, owner.config().pretrain.feature_noise,
          config_.finetune_batch_size);
    }
    const std::vector<float> after =
        model->decoder().parameters().flatten_values();
    {
      ScopedSpan span(&tracer, "fl.sync", wave_id, parent);
      const fl::SyncMessage msg = sync_.make_message(
          before, after, sender, static_cast<std::uint32_t>(domain), 1);
      nn::ParameterSet params = model->decoder().parameters();
      sync_.apply(params, msg);
    }
    ++counts_.updates;
  }

  core::SystemConfig config_;
  fl::ModelSynchronizer sync_;
  std::unique_ptr<channel::ChannelPipeline> pipeline_;
  const semantic::FeatureQuantizer* quantizer_;
  std::vector<std::unique_ptr<semantic::SemanticCodec>> models_;
  Rng noise_{0x5EEDu};
  std::uint64_t noise_tag_ = 0;
  Counts counts_;
};

// ---------------------------------------------------------------------------
// Accumulators.
// ---------------------------------------------------------------------------
/// Per-message outcomes over a window of waves.
struct MessageTotals {
  std::size_t messages = 0;
  double accuracy_sum = 0.0;
  std::size_t exact = 0;
  std::size_t cache_hits = 0;
  std::size_t slots_new = 0;
  std::uint64_t airtime_bits = 0;
  Digest meanings;
  Digest latency;

  /// Adds the wave's messages; their simulated latencies go to
  /// `latency_ms` when it is given.
  void add(const WaveResult& w, std::vector<double>* latency_ms = nullptr) {
    for (const auto& pair : w.reports) {
      for (const core::TransmitReport& r : pair) {
        ++messages;
        accuracy_sum += r.token_accuracy;
        exact += r.exact ? 1 : 0;
        cache_hits += r.general_cache_hit ? 1 : 0;
        slots_new += r.established_user_model ? 1 : 0;
        airtime_bits += r.airtime_bits;
        if (latency_ms != nullptr) latency_ms->push_back(1e3 * r.latency_s);
        meanings.bytes(r.decoded_meanings.data(),
                       r.decoded_meanings.size() * sizeof(std::int32_t));
        latency.value(std::bit_cast<std::uint64_t>(r.latency_s));
      }
    }
  }
};

std::string stats_digest(const core::SystemStats& s) {
  Digest d;
  for (const std::uint64_t v :
       {std::uint64_t{s.messages}, s.feature_bytes, s.uplink_bytes,
        s.downlink_bytes, s.sync_bytes, std::uint64_t{s.updates},
        std::uint64_t{s.selection_errors}, std::uint64_t{s.full_resyncs},
        std::uint64_t{s.degraded_serves}}) {
    d.value(v);
  }
  return d.hex();
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  std::ostringstream out;
  out.precision(10);
  out << v;
  return out.str();
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out << ", ";
    out << "\"" << metrics[i].name << "\": {\"value\": "
        << json_number(metrics[i].value) << ", \"unit\": \""
        << metrics[i].unit << "\"}";
  }
  out << "}";
  return out.str();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string spans_path;
};

bool parse_options(int argc, char** argv, Options& o) {
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      o.workload = value;
    } else if (key == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && o.seconds > 0.0;
    } else if (key == "--trace") {
      have_trace = value == "0" || value == "1";
      o.trace = value == "1";
    } else if (key == "--spans") {
      o.spans_path = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && have_seconds && have_trace &&
         (o.workload == "serve" || o.workload == "serve_pool" ||
          o.workload == "personalize" || o.workload == "city");
}

/// Serves waves on one deployment and keeps what every wave needs: the
/// output checks, the sent count, and the buffer clearing.
class Loop {
 public:
  Loop(Deployment& d, const Spec& spec) : d_(d), spec_(spec) {}

  /// Serve `wave` and check its outputs: every (pair, index) completes
  /// exactly once with `sentence_length` decoded meanings.
  WaveResult serve(Wave wave, Tracer* tracer, std::uint64_t wave_id) {
    std::size_t sent = 0;
    std::vector<std::string> senders;
    for (const Pair& pair : wave) {
      sent += pair.messages.size();
      senders.push_back(pair.sender);
    }
    sent_ += sent;
    WaveResult r = serve_wave(d_, std::move(wave), tracer, wave_id);
    const std::size_t length = spec_.config.world.sentence_length;
    unexpected_ += r.unexpected;
    for (std::size_t p = 0; p < r.reports.size(); ++p) {
      for (std::size_t i = 0; i < r.reports[p].size(); ++i) {
        const core::TransmitReport& report = r.reports[p][i];
        if (r.completions[p][i] != 1 ||
            report.decoded_meanings.size() != length) {
          ++failed_;
        }
        touched_.insert({senders[p], report.domain_selected});
      }
    }
    return r;
  }

  /// Close the wave: empty the transaction buffers of the wave's sender
  /// slots (outside any timer).
  void end_wave() {
    for (const auto& [user, domain] : touched_) {
      core::SemanticEdgeSystem& owner = d_.owner(user);
      core::UserModelSlot* slot =
          owner.edge_state(owner.user(user).edge_index).find_slot(user, domain);
      if (slot != nullptr && slot->buffer != nullptr) slot->buffer->clear();
    }
    touched_.clear();
  }

  std::size_t sent() const { return sent_; }
  std::size_t failed() const { return failed_; }
  std::size_t unexpected() const { return unexpected_; }

 private:
  Deployment& d_;
  const Spec& spec_;
  std::size_t sent_ = 0;
  std::size_t failed_ = 0;
  std::size_t unexpected_ = 0;
  std::set<std::pair<std::string, std::size_t>> touched_;
};

double span_sum(const Tracer& tracer, const std::string& name) {
  double total = 0.0;
  for (const Tracer::Span& s : tracer.spans()) {
    if (name == s.name) total += s.seconds();
  }
  return total;
}

std::vector<double> span_ms(const Tracer& tracer, const std::string& name) {
  std::vector<double> out;
  for (const Tracer::Span& s : tracer.spans()) {
    if (name == s.name) out.push_back(1e3 * s.seconds());
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_options(argc, argv, opt)) {
    std::cerr << "usage: perfbench --workload serve|serve_pool|personalize|city"
                 " --seed N --seconds S --trace 0|1 [--spans FILE]\n";
    return 2;
  }

  std::string env_cleared;
  for (const char* name : kPinnedEnv) {
    if (std::getenv(name) != nullptr) {
      env_cleared += (env_cleared.empty() ? "" : ",") + std::string(name);
      unsetenv(name);
    }
  }

  const Spec spec = opt.workload == "serve"         ? serve_spec()
                    : opt.workload == "serve_pool"  ? serve_pool_spec()
                    : opt.workload == "personalize" ? personalize_spec()
                                                    : city_spec();

  // --- Set-up: build, register and warm up, repeated; the last
  // deployment is the one measured. Every repeat replays the same warm-up
  // traffic, and its time counts in setup_s. ---
  std::unique_ptr<Deployment> dep;
  std::unique_ptr<Loop> loop;
  Rng traffic(opt.seed);
  std::vector<double> setup_times;
  for (std::size_t rep = 0; rep < kSetupRepeats; ++rep) {
    loop.reset();
    dep.reset();
    const Clock::time_point t0 = Clock::now();
    dep = std::make_unique<Deployment>(spec.config, spec.shards);
    spec.register_users(*dep);
    loop = std::make_unique<Loop>(*dep, spec);
    traffic = Rng(opt.seed);
    for (std::size_t w = 0; w < spec.warmup_waves; ++w) {
      loop->serve(spec.draw_wave(*dep, traffic), nullptr, 0);
      loop->end_wave();
    }
    setup_times.push_back(seconds_between(t0, Clock::now()));
  }
  const std::size_t warmup_failed = loop->failed() + loop->unexpected();

  core::SemanticEdgeSystem& sys0 = dep->shard(0);
  const core::SystemConfig& engaged = sys0.config();
  std::cout << "config: workload=" << spec.name << " seed=" << opt.seed
            << " simd=" << common::simd_tier_name(common::active_simd_tier())
            << " matmul=" << tensor::active_matmul_path()
            << " workers=" << engaged.num_threads
            << " shards=" << dep->num_shards()
            << " code=" << engaged.channel.code << " soft="
            << (channel::resolve_soft_decision(engaged.channel.soft_decision)
                    ? "on"
                    : "off")
            << " snr_db=" << engaged.channel.snr_db
            << " selector=" << (engaged.oracle_selection ? "oracle"
                                                         : engaged.selector)
            << " domains=" << engaged.world.num_domains
            << " users=" << dep->users()
            << " buffer_trigger=" << engaged.buffer_trigger
            << " env_cleared=" << (env_cleared.empty() ? "none" : env_cleared)
            << " trace=" << (opt.trace ? 1 : 0) << "\n";

  std::unique_ptr<Tracer> tracer;
  std::unique_ptr<Replayer> replayer;
  if (opt.trace) {
    tracer = std::make_unique<Tracer>();
    replayer = std::make_unique<Replayer>(*dep, engaged);
  }

  // --- Timed loop: closed, one client. Inputs are drawn before each
  // wave's clock starts; at least kMinTimedWaves and guard_waves waves run
  // even if --seconds runs out first. ---
  const core::SystemStats stats0 = dep->stats();
  const std::uint64_t link_bytes0 = dep->link_bytes();
  const std::size_t sent0 = loop->sent();
  const std::size_t failed0 = loop->failed();
  MessageTotals all, guard;
  std::vector<double> latency;  ///< simulated ms, guard waves only
  std::vector<double> wave_s, wave_cpu_s, wave_msgs, flush_ms;
  double timed_s = 0.0, flush_s = 0.0, flush_cpu_s = 0.0;
  double skew_sum = 0.0;
  std::size_t events = 0, pairs_enqueued = 0, delivered_count = 0;
  double replay_wall_s = 0.0, replay_stage_s = 0.0, replay_flush_cpu_s = 0.0;
  std::set<std::uint64_t> replayed_waves;
  double guard_wire_bytes = 0.0, guard_per_user_bytes = 0.0;
  std::string guard_stats_digest;
  const std::size_t min_waves = std::max(kMinTimedWaves, spec.guard_waves);
  std::size_t timed = 0;
  const Clock::time_point run0 = Clock::now();
  while (timed < min_waves ||
         seconds_between(run0, Clock::now()) < opt.seconds) {
    Wave wave = spec.draw_wave(*dep, traffic);
    std::vector<double> per_shard(dep->num_shards(), 0.0);
    double wave_total = 0.0;
    for (const Pair& p : wave) {
      per_shard[dep->shard_of(p.sender)] += static_cast<double>(p.messages.size());
      wave_total += static_cast<double>(p.messages.size());
    }
    skew_sum += *std::max_element(per_shard.begin(), per_shard.end()) /
                (wave_total / static_cast<double>(per_shard.size()));
    pairs_enqueued += wave.size();
    const bool replay = replayer && timed % spec.replay_every == 0;
    Wave copy = replay ? wave : Wave{};

    const WaveResult r = loop->serve(std::move(wave), tracer.get(), timed);
    timed_s += r.wall_s;
    flush_s += r.flush_s;
    flush_cpu_s += r.flush_cpu_s;
    events += r.events;
    wave_s.push_back(r.wall_s);
    wave_cpu_s.push_back(r.cpu_s);
    wave_msgs.push_back(static_cast<double>(r.delivered));
    delivered_count += r.delivered;
    flush_ms.push_back(1e3 * r.flush_s);
    all.add(r);
    if (timed < spec.guard_waves) guard.add(r, &latency);
    if (replay) {
      replayed_waves.insert(timed);
      const Clock::time_point t0 = Clock::now();
      replay_stage_s += replayer->replay(*dep, copy, r, *tracer, timed);
      replay_flush_cpu_s += r.flush_cpu_s;
      replay_wall_s += seconds_between(t0, Clock::now());
    }
    loop->end_wave();
    ++timed;
    if (timed == spec.guard_waves) {
      // Between waves, so the per-user bytes hold what persists per user,
      // not the size of the last wave's buffered transactions.
      const core::MemoryFootprint fp = dep->footprint();
      guard_per_user_bytes =
          static_cast<double>(fp.profile_bytes + fp.slot_bytes +
                              fp.buffer_bytes + fp.user_model_bytes) /
          static_cast<double>(dep->users());
      guard_wire_bytes =
          static_cast<double>(dep->link_bytes() - link_bytes0) /
          static_cast<double>(guard.messages);
      guard_stats_digest = stats_digest(dep->stats());
    }
  }
  const double run_wall_s = seconds_between(run0, Clock::now());

  // --- Output checks. ---
  const core::SystemStats stats1 = dep->stats();
  const std::size_t sent = loop->sent() - sent0;
  const std::size_t failed = loop->failed() - failed0;
  const std::size_t updates = stats1.updates - stats0.updates;
  std::vector<std::string> problems;
  if (failed > 0 || loop->unexpected() > 0 || warmup_failed > 0) {
    problems.push_back("messages not delivered exactly once with " +
                       std::to_string(spec.config.world.sentence_length) +
                       " meanings: " + std::to_string(failed) + " timed, " +
                       std::to_string(warmup_failed) + " warm-up, " +
                       std::to_string(loop->unexpected()) + " unexpected");
  }
  if (stats1.messages != loop->sent()) {
    problems.push_back("stats().messages = " + std::to_string(stats1.messages) +
                       " but " + std::to_string(loop->sent()) + " were sent");
  }
  if (spec.fine_tunes != (stats1.updates > 0)) {
    problems.push_back("fine-tune updates = " + std::to_string(stats1.updates) +
                       (spec.fine_tunes ? ", expected some" : ", expected none"));
  }
  const bool correct = problems.empty();
  for (const std::string& p : problems) std::cout << "CHECK FAILED: " << p << "\n";

  // --- Metrics. ---
  const auto delivered = static_cast<double>(delivered_count);
  const double messages = static_cast<double>(stats1.messages - stats0.messages);
  const WallFigures wall =
      wall_figures(wave_s, wave_cpu_s, wave_msgs, 0, wave_s.size());
  std::vector<Metric> metrics;
  if (!opt.trace) {
    metrics = {
        {"msgs_per_s", wall.msgs_per_s, "1/s"},
        {"wave_ms_p50", wall.wave_ms_p50, "ms"},
        {"wave_ms_p95", wall.wave_ms_p95, "ms"},
        {"cpu_us_per_msg", wall.cpu_us_per_msg, "us"},
        {"setup_s", median(setup_times), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"delivered_frac", ratio(delivered, static_cast<double>(sent)), "frac"},
        {"token_accuracy",
         ratio(guard.accuracy_sum, static_cast<double>(guard.messages)), "frac"},
        {"exact_frac",
         ratio(static_cast<double>(guard.exact),
               static_cast<double>(guard.messages)),
         "frac"},
        // Simulated time (deterministic per seed), kept apart from
        // wall-clock times by its unit.
        {"sim_latency_ms_p50", percentile(latency, 0.50), "sim_ms"},
        {"sim_latency_ms_p99", percentile(latency, 0.99), "sim_ms"},
        {"wire_bytes_per_msg", guard_wire_bytes, "B"},
        {"per_user_bytes", guard_per_user_bytes, "B"},
    };
  } else {
    const Replayer::Counts& rc = replayer->counts();
    const double replayed = static_cast<double>(rc.messages);
    std::vector<double> drain = span_ms(*tracer, "edge.drain");
    std::vector<double> finetune = span_ms(*tracer, "semantic.finetune");
    metrics = {
        {"core.flush_ms_p50", percentile(flush_ms, 0.50), "ms"},
        {"core.enqueue_us_per_pair",
         1e6 * ratio(span_sum(*tracer, "core.enqueue"),
                     static_cast<double>(pairs_enqueued)),
         "us"},
        {"core.cpu_per_wall", ratio(flush_cpu_s, flush_s), "ratio"},
        {"core.unattributed_frac",
         1.0 - ratio(replay_stage_s, replay_flush_cpu_s), "frac"},
        {"core.shard_skew", skew_sum / static_cast<double>(timed), "ratio"},
        {"edge.drain_ms_p50", percentile(drain, 0.50), "ms"},
        {"edge.events_per_msg", ratio(static_cast<double>(events), delivered),
         "count"},
        {"select.us_per_msg",
         1e6 * ratio(span_sum(*tracer, "select.select"), replayed), "us"},
        {"select.error_frac",
         ratio(static_cast<double>(stats1.selection_errors -
                                   stats0.selection_errors),
               messages),
         "frac"},
        {"cache.general_hit_frac",
         ratio(static_cast<double>(all.cache_hits),
               static_cast<double>(all.messages)),
         "frac"},
        {"cache.slot_new_frac",
         ratio(static_cast<double>(all.slots_new),
               static_cast<double>(all.messages)),
         "frac"},
        {"semantic.encode_us_per_msg",
         1e6 * ratio(span_sum(*tracer, "semantic.encode"), replayed), "us"},
        {"semantic.decode_us_per_msg",
         1e6 * ratio(span_sum(*tracer, "semantic.decode"), replayed), "us"},
        {"semantic.quantize_us_per_msg",
         1e6 * ratio(span_sum(*tracer, "semantic.quantize"), replayed), "us"},
        {"semantic.finetune_ms_p50", percentile(finetune, 0.50), "ms"},
        {"semantic.materialized_models",
         static_cast<double>(dep->footprint().materialized_models), "count"},
        {"channel.us_per_msg",
         1e6 * ratio(span_sum(*tracer, "channel.transmit"), replayed), "us"},
        {"channel.airtime_bits_per_msg",
         ratio(static_cast<double>(all.airtime_bits),
               static_cast<double>(all.messages)),
         "bit"},
        {"channel.clean_frac",
         ratio(static_cast<double>(rc.channel_clean),
               static_cast<double>(rc.channel_payloads)),
         "frac"},
        {"fl.updates_per_kmsg",
         1e3 * ratio(static_cast<double>(updates), messages), "count"},
        {"fl.sync_bytes_per_update",
         ratio(static_cast<double>(stats1.sync_bytes - stats0.sync_bytes),
               static_cast<double>(updates)),
         "B"},
        {"fl.sync_us_per_update",
         1e6 * ratio(span_sum(*tracer, "fl.sync"),
                     static_cast<double>(rc.updates)),
         "us"},
        {"bench.harness_frac",
         ratio(run_wall_s - timed_s - replay_wall_s, run_wall_s), "frac"},
        {"trace.wave_ms_p50", wall.wave_ms_p50, "ms"},
    };
  }

  // --- Human-readable report. ---
  std::cout << "run: timed_waves=" << timed << " timed_messages=" << sent
            << " timed_s=" << timed_s << " run_wall_s=" << run_wall_s
            << " harness_frac="
            << ratio(run_wall_s - timed_s - replay_wall_s, run_wall_s)
            << " replay_s=" << replay_wall_s << " warmup_waves="
            << spec.warmup_waves << " (inside setup_s)"
            << " setup_runs=" << setup_times.size() << "\n";
  std::cout << "samples: waves n=" << wave_s.size() << " (" << wall.beyond_p95
            << " beyond the p95)  sim_latency n=" << latency.size()
            << " over the first " << spec.guard_waves
            << " timed waves (beyond p99: " << beyond(latency, 0.99) << ")\n";
  // Diagnostics only: the wall figures per consecutive slice of the timed
  // waves, to tell drift inside a run from a steady one.
  const std::size_t slices = std::min(kMaxSlices, wave_s.size());
  std::ostringstream slice_rate, slice_p50, slice_p95;
  slice_p50.precision(3);
  slice_p95.precision(3);
  for (std::size_t k = 0; k < slices; ++k) {
    const WallFigures f =
        wall_figures(wave_s, wave_cpu_s, wave_msgs, k * wave_s.size() / slices,
                     (k + 1) * wave_s.size() / slices);
    slice_rate << " " << std::lround(f.msgs_per_s);
    slice_p50 << " " << f.wave_ms_p50;
    slice_p95 << " " << f.wave_ms_p95;
  }
  std::cout << "slices (" << slices << " of " << wave_s.size() / slices
            << "+ waves): msgs_per_s =" << slice_rate.str()
            << "  wave_ms_p50 =" << slice_p50.str()
            << "  wave_ms_p95 =" << slice_p95.str() << "\n";
  std::cout << "digest: meanings=" << guard.meanings.hex()
            << " latency=" << guard.latency.hex()
            << " stats=" << guard_stats_digest << "\n";
  std::cout << "stats: messages=" << stats1.messages
            << " updates=" << stats1.updates
            << " selection_errors=" << stats1.selection_errors
            << " sync_bytes=" << stats1.sync_bytes
            << " feature_bytes=" << stats1.feature_bytes << "\n";
  for (const Metric& m : metrics) {
    std::cout << "metric " << m.name << " = " << json_number(m.value) << " "
              << m.unit << "\n";
  }
  if (tracer) {
    std::cout << "self time over the " << replayed_waves.size()
              << " replayed waves (replayed stages count against the flush"
                 " they re-run):\n";
    double self_total = 0.0;
    const auto totals = tracer->self_times(replayed_waves);
    for (const auto& [name, t] : totals) self_total += t.self_s;
    std::vector<std::pair<double, std::string>> order;
    for (const auto& [name, t] : totals) order.push_back({t.self_s, name});
    std::sort(order.rbegin(), order.rend());
    for (const auto& [self_s, name] : order) {
      const Tracer::NameTotals& t = totals.at(name);
      char line[160];
      std::snprintf(line, sizeof(line),
                    "  %-20s n=%-7zu total_ms=%-10.2f self_ms=%-10.2f "
                    "self_share=%.3f\n",
                    name.c_str(), t.count, 1e3 * t.total_s, 1e3 * self_s,
                    ratio(self_s, self_total));
      std::cout << line;
    }
    if (!opt.spans_path.empty()) {
      if (tracer->write(opt.spans_path)) {
        std::cout << "spans: " << tracer->spans().size() << " written to "
                  << opt.spans_path << "\n";
      } else {
        std::cout << "spans: could not write " << opt.spans_path << "\n";
      }
    }
  }
  std::cout << "perfbench-result {\"workload\": \"" << spec.name
            << "\", \"seed\": " << opt.seed
            << ", \"trace\": " << (opt.trace ? 1 : 0)
            << ", \"timed_waves\": " << timed
            << ", \"metrics\": " << metrics_json(metrics) << "}\n";
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << sent << ", \"failed\": " << failed
            << ", \"metrics\": " << metrics_json(metrics) << "}" << std::endl;
  return correct ? 0 : 1;
}
