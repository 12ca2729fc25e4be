#include "core/system.hpp"

#include <cmath>

#include "common/check.hpp"
#include "select/context.hpp"
#include "select/naive_bayes.hpp"

namespace semcache::core {

SemanticEdgeSystem::SemanticEdgeSystem(SystemConfig config)
    : config_(std::move(config)),
      rng_(config_.seed),
      world_(text::World::generate(config_.world, rng_)) {}

std::unique_ptr<SemanticEdgeSystem> SemanticEdgeSystem::build(
    SystemConfig config) {
  // Every knob is refused before pretrain_models(), the slow part of a
  // build. The first three would otherwise surface only mid-wave, after the
  // wave has touched caches and slots; a +inf learning rate would train
  // the weights to infinity.
  SEMCACHE_CHECK(config.buffer_trigger >= 1,
                 "config: buffer_trigger must be >= 1");
  SEMCACHE_CHECK(config.finetune_batch_size >= 1,
                 "config: finetune_batch_size must be >= 1");
  SEMCACHE_CHECK(std::isfinite(config.finetune_lr) && config.finetune_lr > 0.0,
                 "config: finetune_lr must be finite and positive");
  SEMCACHE_CHECK(std::isfinite(config.pretrain.lr) && config.pretrain.lr > 0.0,
                 "config: pretrain.lr must be finite and positive");
  SEMCACHE_CHECK(config.selector == "nb" || config.selector == "context",
                 "unknown selector '" + config.selector +
                     "' (expected \"nb\" or \"context\")");
  // SEMCACHE_THREADS' cap: the pool below spawns them all, or aborts.
  SEMCACHE_CHECK(config.num_threads <= common::kMaxEnvThreads,
                 "config: num_threads must be <= " +
                     std::to_string(common::kMaxEnvThreads));
  // Not make_unique: the constructor is private.
  std::unique_ptr<SemanticEdgeSystem> sys(
      new SemanticEdgeSystem(std::move(config)));
  sys->config_.codec.surface_vocab = sys->world_.surface_count();
  sys->config_.codec.meaning_vocab = sys->world_.meaning_count();
  sys->config_.codec.sentence_length = sys->config_.world.sentence_length;
  sys->quantizer_ = std::make_unique<semantic::FeatureQuantizer>(
      sys->config_.codec.feature_dim, sys->config_.feature_bits);
  if (sys->config_.pretrain.feature_noise == 0.0) {
    // Quantization-aware training: match the quantizer's half-step error.
    sys->config_.pretrain.feature_noise = sys->quantizer_->max_error() / 2.0;
  }
  sys->synchronizer_ =
      std::make_unique<fl::ModelSynchronizer>(sys->config_.sync_compression);

  const ChannelConfig& ch = sys->config_.channel;
  if (ch.medium == "gilbert_elliott") {
    channel::GilbertElliottConfig burst = ch.burst;
    if (burst.seed == 0) burst.seed = sys->config_.seed;
    sys->pipeline_ = channel::make_burst_pipeline(
        channel::make_code(ch.code), ch.modulation, burst,
        ch.interleave_depth);
  } else {
    SEMCACHE_CHECK(ch.medium == "awgn",
                   "channel: unknown medium \"" + ch.medium + "\"");
    sys->pipeline_ = channel::make_awgn_pipeline(
        channel::make_code(ch.code), ch.modulation, ch.snr_db,
        ch.interleave_depth);
  }
  sys->pipeline_->set_soft_decision(
      channel::resolve_soft_decision(ch.soft_decision));

  // Lane worker pool (README "Threading model"): resolved once at build —
  // an explicit num_threads wins, SEMCACHE_THREADS fills in for the
  // default 0, and a resolved 0 leaves pool_ null so every wave runs its
  // lanes inline.
  sys->config_.num_threads =
      common::resolve_thread_count(sys->config_.num_threads);
  if (sys->config_.num_threads > 0) {
    sys->pool_ = std::make_unique<common::ThreadPool>(sys->config_.num_threads);
  }

  // The topology refuses num_edges 0.
  sys->build_topology();

  // Fault plane: validate the config once (throws on bad knobs) and wire
  // the link layer. Outage sinks are attached unconditionally so explicit
  // Link::add_outage windows (tests, scenario scripts) land in SystemStats
  // even when no flap schedule is configured; flap schedules get a
  // per-link deterministic phase so a fleet of links never flaps in
  // lockstep.
  sys->fault_plane_ = FaultPlane(sys->config_.faults);
  const FaultConfig& faults = sys->config_.faults;
  edge::Network& net = *sys->topology_.net;
  for (edge::LinkId id = 0; id < net.link_count(); ++id) {
    edge::Link& link = net.link_at(id);
    link.set_outage_sinks(&sys->stats_.outage_drops,
                          &sys->stats_.outage_queued);
    if (faults.link_faults_active()) {
      link.set_outage_policy(faults.outage_policy);
      link.set_flap_schedule(faults.link_flap_period_s, faults.link_flap_down_s,
                             sys->fault_plane_.flap_phase_s(id));
    }
  }

  sys->pretrain_models();
  semantic::SemanticCodec& codec = sys->general_model(0);
  sys->encode_flops_ =
      2.0 * static_cast<double>(codec.encoder().parameters().scalar_count());
  sys->decode_flops_ =
      2.0 * static_cast<double>(codec.decoder().parameters().scalar_count());

  // Warm every edge cache with every general model (step ① of Fig. 1:
  // the edge caches both general encoders and decoder copies — one codec
  // object holds both halves).
  for (const auto& state : sys->edge_states_) {
    for (std::size_t d = 0; d < sys->world_.num_domains(); ++d) {
      cache::EntryInfo info;
      info.size_bytes = sys->general_models_[d]->byte_size();
      info.fetch_cost = net.link(sys->topology_.cloud, state->node())
                            .transfer_time(info.size_bytes);
      state->general_cache().put("general/" + std::to_string(d),
                                 sys->general_models_[d], info);
    }
  }

  // Serving tables of the frozen generals (semantic/serving_table.hpp):
  // aliased (copy-on-write) slots encode, decode and measure their
  // mismatch by lookup, and only channel-corrupted positions run the
  // general's decoder, by its read-only row pass. One table per domain, a
  // fixed cost bounded by the surface and meaning vocabularies. The
  // generals are frozen after pretraining and outlive their tables.
  sys->serving_tables_.reserve(sys->world_.num_domains());
  for (std::size_t d = 0; d < sys->world_.num_domains(); ++d) {
    sys->serving_tables_.emplace_back(sys->general_model(d), *sys->quantizer_);
  }
  return sys;
}

void SemanticEdgeSystem::materialize_slot(UserModelSlot& slot,
                                          std::size_t domain) {
  if (slot.owns_model) return;
  slot.model = general_model(domain).clone();
  slot.owns_model = true;
}

void SemanticEdgeSystem::pretrain_models() {
  // One general codec per domain (§II-A). All edge servers share the same
  // pretrained weights, which is what makes d^m_j == d^m_i (§II-C) hold at
  // bootstrap.
  Rng train_rng = rng_.fork(0xC0DEC);
  for (std::size_t d = 0; d < world_.num_domains(); ++d) {
    Rng init_rng = rng_.fork(0x1000 + d);
    auto codec =
        std::make_shared<semantic::SemanticCodec>(config_.codec, init_rng);
    semantic::CodecTrainer::pretrain_domain(*codec, world_, d,
                                            config_.pretrain, train_rng);
    general_models_.push_back(std::move(codec));
  }

  // Train the domain selector. "nb" is the stateless baseline; "context"
  // wraps it in the §III-A conversation-context decorator. (E6 compares
  // the full selector zoo including the GRU.)
  auto nb = std::make_unique<select::NaiveBayesSelector>(
      world_.surface_count(), world_.num_domains());
  Rng sel_rng = rng_.fork(0x5E1EC7);
  const std::size_t selector_examples = 400 * world_.num_domains();
  for (std::size_t i = 0; i < selector_examples; ++i) {
    const auto d = static_cast<std::size_t>(sel_rng.uniform_int(
        0, static_cast<std::int64_t>(world_.num_domains()) - 1));
    const text::Sentence s = world_.sample_sentence(d, sel_rng);
    nb->observe(s.surface, d);
  }
  if (config_.selector == "context") {
    selector_ = std::make_unique<select::ContextSelector>(
        std::move(nb), world_.num_domains());
  } else {
    selector_ = std::move(nb);
  }
}

void SemanticEdgeSystem::build_topology() {
  topology_ = edge::build_standard_topology(
      config_.num_edges, config_.devices_per_edge, config_.topology);
  next_device_slot_.assign(config_.num_edges, 0);
  for (std::size_t e = 0; e < config_.num_edges; ++e) {
    edge_states_.push_back(std::make_unique<EdgeServerState>(
        e, topology_.edges[e], config_.cache_capacity_bytes));
  }
}

const UserProfile& SemanticEdgeSystem::register_user(
    const std::string& name, std::size_t edge_index,
    const text::IdiolectConfig* idiolect_cfg) {
  SEMCACHE_CHECK(edge_index < config_.num_edges,
                 "register_user: edge index out of range");
  SEMCACHE_CHECK(!users_.contains(name), "register_user: duplicate user");
  UserProfile profile;
  profile.name = name;
  profile.edge_index = edge_index;
  std::size_t& cursor = next_device_slot_[edge_index];
  SEMCACHE_CHECK(cursor < topology_.devices[edge_index].size(),
                 "register_user: no free device on edge " +
                     std::to_string(edge_index) +
                     "; raise devices_per_edge");
  profile.device = topology_.devices[edge_index][cursor++];
  if (idiolect_cfg != nullptr) {
    Rng idio_rng = rng_.fork(std::hash<std::string>{}(name));
    profile.idiolect = std::make_unique<text::Idiolect>(
        text::Idiolect::generate(world_, *idiolect_cfg, idio_rng));
  }
  auto [it, inserted] = users_.emplace(name, std::move(profile));
  SEMCACHE_CHECK(inserted, "register_user: insert failed");
  return it->second;
}

text::Sentence SemanticEdgeSystem::sample_message(const std::string& user,
                                                  std::size_t domain) {
  const UserProfile& profile = this->user(user);
  text::Sentence s = world_.sample_sentence(domain, rng_);
  if (profile.idiolect) profile.idiolect->apply(s);
  return s;
}

EdgeServerState& SemanticEdgeSystem::edge_state(std::size_t index) {
  SEMCACHE_CHECK(index < edge_states_.size(), "edge_state: out of range");
  return *edge_states_[index];
}

const UserProfile& SemanticEdgeSystem::user(const std::string& name) const {
  const auto it = users_.find(name);
  SEMCACHE_CHECK(it != users_.end(), "unknown user: " + name);
  return it->second;
}

semantic::SemanticCodec& SemanticEdgeSystem::general_model(
    std::size_t domain) {
  SEMCACHE_CHECK(domain < general_models_.size(),
                 "general_model: domain out of range");
  return *general_models_[domain];
}

bool SemanticEdgeSystem::touch_general_cache(EdgeServerState& state,
                                             std::size_t domain) {
  const std::string key = "general/" + std::to_string(domain);
  if (state.general_cache().get(key) != nullptr) return true;
  // Miss: re-fetch from the cloud registry (charged on the cloud link) and
  // reinstate the entry.
  cache::EntryInfo info;
  info.size_bytes = general_models_[domain]->byte_size();
  edge::Link& cloud_link =
      topology_.net->link(topology_.cloud, topology_.edges[state.index()]);
  info.fetch_cost = cloud_link.transfer_time(info.size_bytes);
  cloud_link.send(sim_, info.size_bytes, [] {});
  state.general_cache().put(key, general_models_[domain], info);
  return false;
}

MemoryFootprint SemanticEdgeSystem::memory_footprint() const {
  MemoryFootprint fp;
  for (const auto& general : general_models_) {
    fp.general_model_bytes += general->byte_size();
  }
  for (const semantic::ServingTable& table : serving_tables_) {
    fp.serving_table_bytes += table.byte_size();
  }
  fp.topology_bytes = topology_.net->approx_byte_size();

  fp.users = users_.size();
  for (const auto& [name, profile] : users_) {
    fp.profile_bytes += sizeof(UserProfile) + name.capacity();
    if (profile.idiolect != nullptr) {
      // unordered_map entry: two int32 ids plus node/bucket overhead.
      fp.profile_bytes += sizeof(text::Idiolect) +
                          profile.idiolect->size() *
                              (2 * sizeof(std::int32_t) + 2 * sizeof(void*));
    }
  }

  const std::size_t tokens_per_sample = 2 * config_.codec.sentence_length;
  for (const auto& state : edge_states_) {
    fp.slots += state->slot_count();
    fp.user_model_bytes += state->user_model_bytes();
    fp.materialized_models += state->materialized_models();
    for (const auto& [key, slot] : state->slots()) {
      fp.slot_bytes += sizeof(UserModelSlot) + key.capacity();
      if (slot.buffer != nullptr) {
        fp.buffer_bytes +=
            sizeof(fl::DomainBuffer) +
            slot.buffer->size() *
                (sizeof(semantic::Sample) + sizeof(double) +
                 tokens_per_sample * sizeof(std::int32_t));
      }
    }
  }
  return fp;
}

bool SemanticEdgeSystem::replicas_in_sync(const std::string& user,
                                          std::size_t domain,
                                          std::size_t sender_edge,
                                          std::size_t receiver_edge) {
  UserModelSlot* s = edge_state(sender_edge).find_slot(user, domain);
  UserModelSlot* r = edge_state(receiver_edge).find_slot(user, domain);
  if (s == nullptr || r == nullptr) return false;
  nn::ParameterSet sp = s->model->decoder().parameters();
  nn::ParameterSet rp = r->model->decoder().parameters();
  return sp.values_equal(rp);
}

TransmitReport SemanticEdgeSystem::transmit(const std::string& sender,
                                            const std::string& receiver,
                                            const text::Sentence& message) {
  std::vector<PairBatch> wave(1);
  wave[0] = {sender, receiver, {message}};
  std::optional<TransmitReport> result;
  transmit_pairs(wave, [&](std::size_t, std::size_t, TransmitReport r) {
    result = std::move(r);
  });
  sim_.run();
  SEMCACHE_CHECK(result.has_value(), "transmit: chain did not complete");
  return std::move(*result);
}

}  // namespace semcache::core
