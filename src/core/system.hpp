// SemanticEdgeSystem — the paper's contribution, assembled.
//
// Owns the language world, the trained general KB models, the edge/cloud
// topology, per-edge caches and user-model slots, the domain selector, the
// channel stack, and the FL-style sync machinery. One call to transmit()
// exercises the complete Fig. 1 workflow:
//
//   select model ─ encode (sender edge) ─ quantize ─ channel ─ decode
//   (receiver edge, user-specific decoder replica) ─ deliver; meanwhile the
//   sender's DECODER COPY measures the mismatch locally, buffers the
//   transaction (③), and — once the buffer trips — fine-tunes the user
//   model and ships the compressed decoder delta to the receiver edge (④).
//
// Until a user's slot has trained, it aliases the frozen general model,
// and the system serves it from that general's ServingTable
// (semantic/serving_table.hpp): the codes, argmaxes and probability rows
// the frozen network computes, tabulated at build(). The table decodes
// the positions it misses through the general's read-only row pass, so no
// lane ever runs a shared general's training forward. The first
// fine-tune gives the slot a private model, which later fine-tunes train
// in place; its decoder copy measures each chunk's mismatch on the
// chunk's clean payloads.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "channel/pipeline.hpp"
#include "common/thread_pool.hpp"
#include "core/edge_state.hpp"
#include "edge/network.hpp"
#include "faults/fault_plane.hpp"
#include "fl/sync.hpp"
#include "select/selector.hpp"
#include "semantic/fidelity.hpp"
#include "semantic/quantizer.hpp"
#include "semantic/serving_table.hpp"
#include "text/idiolect.hpp"

namespace semcache::core {

struct ChannelConfig {
  std::string code = "hamming74";  ///< see channel::make_code
  channel::Modulation modulation = channel::Modulation::kQpsk;
  double snr_db = 10.0;
  std::size_t interleave_depth = 8;
  /// Physical medium: "awgn" (memoryless, the pre-existing default) or
  /// "gilbert_elliott" (two-state burst noise driven by `burst`; the
  /// channel sees each message's global slot index, so burst weather is
  /// byte-identical across thread and shard counts).
  std::string medium = "awgn";
  channel::GilbertElliottConfig burst;
  /// Soft-decision (LLR) receive path. The hard default is bit-identical
  /// to earlier builds.
  bool soft_decision = false;
};

struct SystemConfig {
  text::WorldConfig world;
  // Codec dims; surface_vocab / meaning_vocab / sentence_length are filled
  // in from the generated world.
  semantic::CodecConfig codec;
  semantic::TrainConfig pretrain{/*steps=*/4000, /*lr=*/3e-3, /*grad_clip=*/5.0};
  unsigned feature_bits = 8;  ///< quantizer bits per feature dim

  // Fig. 1 ③/④ machinery.
  std::size_t buffer_trigger = 24;
  std::size_t buffer_capacity = 256;
  std::size_t finetune_epochs = 6;
  double finetune_lr = 1.5e-3;
  /// Samples stacked per fine-tune optimizer step (through the codec's
  /// batched entry points). 1 = per-sample Adam, the paper-faithful
  /// default; larger values trade update granularity for kernel
  /// amortization on busy edges.
  std::size_t finetune_batch_size = 1;
  fl::CompressionConfig sync_compression{/*top_k_fraction=*/0.25, /*bits=*/8};

  /// Ablation switch (§II-C): with the decoder copy disabled, mismatch
  /// calculation requires shipping the receiver's decoded output back to
  /// the sender (bytes + latency charged on the backbone).
  bool decoder_copy_enabled = true;

  /// Deterministic fault injection (core::FaultPlane): sync-message loss /
  /// corruption / duplication with retry + exponential backoff, link
  /// outage flapping, and dispatcher shard stalls. Every coin is keyed by
  /// the identity of the thing failing (message identity, link id, shard),
  /// so fault-injected runs stay byte-identical across thread and shard
  /// counts. All-zero defaults inject nothing and keep the fault-free
  /// paths bit-compatible with earlier builds. A sync message whose every
  /// attempt is lost opens a version gap at the receiver; the next
  /// delivered update detects the gap and triggers a FULL decoder-state
  /// resync (bytes charged), restoring replica byte-identity (§III-C
  /// reliability) — retry first, resync as last resort.
  FaultConfig faults;

  /// Use the message's true domain instead of the selector (oracle mode,
  /// isolates codec behaviour from selection errors).
  bool oracle_selection = false;

  /// Which selector the system trains at build time:
  /// "nb" (stateless naive Bayes) or "context" (NB + EWMA/Markov context,
  /// §III-A). Ignored under oracle_selection.
  std::string selector = "nb";

  /// Lane workers: a pair wave's sender lanes (transmit_pairs) compute
  /// concurrently on this many threads. 0 — the default — builds no pool
  /// and never spawns a std::thread. Any value N >= 1 builds a
  /// common::ThreadPool whose results are BIT-IDENTICAL to the sequential
  /// path (lanes own disjoint state; see README "Threading model"); the
  /// SEMCACHE_THREADS environment variable overrides a default-0 config
  /// at build() time (benches and the sanitizer CI jobs use it). build()
  /// refuses a value above common::kMaxEnvThreads (256).
  std::size_t num_threads = 0;

  // Edge deployment.
  std::size_t num_edges = 2;
  std::size_t devices_per_edge = 4;
  edge::TopologyConfig topology;
  std::size_t cache_capacity_bytes = 8u << 20;

  ChannelConfig channel;
  std::uint64_t seed = 42;
};

struct UserProfile {
  std::string name;
  std::size_t edge_index = 0;
  edge::NodeId device = 0;
  std::unique_ptr<text::Idiolect> idiolect;  ///< null = speaks plainly
};

// Reports and counters as data. Each struct below is declared from one
// X-macro field list of X(type, name[, initializer]) entries. The list
// expands to the named members (value-initialized unless an initializer
// follows), to the counters' field-wise operator+= (whose operand is `o`),
// and to the test suites' printers; operator== is defaulted. A field added
// to a list is declared, folded, compared and printed from that one line.
#define SEMCACHE_FIELD_MEMBER(type, name, ...) type name{__VA_ARGS__};
#define SEMCACHE_FIELD_FOLD(type, name, ...) name += o.name;

/// Outcome of one end-to-end message.
#define SEMCACHE_TRANSMIT_REPORT_FIELDS(X)                                   \
  X(std::size_t, domain_true)                                                \
  X(std::size_t, domain_selected)                                            \
  X(bool, selection_correct, true)                                           \
  X(std::vector<std::int32_t>, decoded_meanings)                             \
  X(double, token_accuracy)                                                  \
  X(bool, exact)                                                             \
  X(double, mismatch) /* sender-side decoder-copy loss (③) */               \
  X(std::size_t, payload_bytes) /* quantized feature payload */              \
  /* Coded bits on the edge-edge channel before interleaver padding      */  \
  /* (ChannelCode::encoded_length); ChannelPipeline::airtime_bits counts */  \
  /* the padded on-air length. At a 128-bit payload and depth 8 the      */  \
  /* default hamming74 gives 224 both ways; serve's conv_k3_r12 gives    */  \
  /* 260 here against 264 on the air.                                    */  \
  X(std::size_t, airtime_bits)                                               \
  X(std::size_t, sync_bytes) /* gradient message, if an update fired */      \
  X(std::size_t, output_return_bytes) /* only when decoder copy disabled */  \
  X(bool, triggered_update)                                                  \
  X(bool, established_user_model)                                            \
  X(bool, general_cache_hit, true)                                           \
  /* Served from the frozen general models because the owning shard      */  \
  /* stalled or failed mid-flush (no personalization, no fine-tune, no   */  \
  /* cache/slot mutation) — availability over freshness.                 */  \
  X(bool, degraded)                                                          \
  X(double, latency_s) /* arrival at receiver device minus send time */

struct TransmitReport {
  SEMCACHE_TRANSMIT_REPORT_FIELDS(SEMCACHE_FIELD_MEMBER)
  bool operator==(const TransmitReport&) const = default;
};

/// Aggregate accounting across a run.
#define SEMCACHE_SYSTEM_STATS_FIELDS(X)                                      \
  X(std::size_t, messages)                                                   \
  X(std::uint64_t, feature_bytes)                                            \
  X(std::uint64_t, uplink_bytes)                                             \
  X(std::uint64_t, downlink_bytes)                                           \
  X(std::uint64_t, sync_bytes)                                               \
  X(std::uint64_t, output_return_bytes)                                      \
  X(std::size_t, updates)                                                    \
  X(std::size_t, selection_errors)                                           \
  X(std::size_t, sync_drops) /* injected per-attempt sync losses */          \
  X(std::size_t, full_resyncs) /* gap-triggered full-state recoveries */     \
  X(std::uint64_t, resync_bytes) /* bytes spent on full snapshots */         \
  /* Fault-plane accounting: every injected fault lands in exactly one of */ \
  /* these (or sync_drops above), so a fault-storm run is auditable from  */ \
  /* stats alone — no stderr scraping.                                    */ \
  X(std::size_t, sync_retries) /* retransmit attempts beyond the 1st */      \
  X(std::size_t, sync_corrupt_drops) /* CRC-rejected arrivals */             \
  X(std::size_t, sync_duplicates) /* duplicate deliveries (replayed) */      \
  X(std::size_t, sync_expired) /* messages abandoned at max_attempts */      \
  X(std::uint64_t, sync_ack_bytes) /* ack traffic on the reverse link */     \
  X(std::size_t, outage_drops) /* link sends refused during outages */       \
  X(std::size_t, outage_queued) /* link sends delayed to outage end */       \
  X(std::size_t, degraded_serves) /* messages served from frozen generals */

struct SystemStats {
  SEMCACHE_SYSTEM_STATS_FIELDS(SEMCACHE_FIELD_MEMBER)

  /// Field-wise accumulate (the sharded layer's stats merge).
  SystemStats& operator+=(const SystemStats& o) {
    SEMCACHE_SYSTEM_STATS_FIELDS(SEMCACHE_FIELD_FOLD)
    return *this;
  }
  bool operator==(const SystemStats&) const = default;
};

/// Where a deployment's bytes live, split so the city-scale question —
/// "what does ONE MORE user cost?" — has a measurable answer. Fixed costs
/// (general models, serving tables, topology) amortize over the whole
/// deployment and do not grow with the worker count; per-user costs
/// (profiles, slots, buffers, MATERIALIZED fine-tuned models) are what
/// bound users-per-GB. The copy-on-write slot design keeps
/// user_model_bytes at zero until a user actually fine-tunes: per-user cost
/// is bytes plus deltas, not clones.
#define SEMCACHE_MEMORY_FOOTPRINT_FIELDS(X)                                  \
  /* Deployment-fixed. */                                                    \
  X(std::size_t, general_model_bytes) /* frozen per-domain generals */       \
  X(std::size_t, serving_table_bytes) /* per-domain ServingTables */         \
  X(std::size_t, topology_bytes) /* nodes/links/adjacency (approx) */        \
  /* Per-user. */                                                            \
  X(std::size_t, profile_bytes) /* directory entries + idiolects */          \
  X(std::size_t, slot_bytes) /* slot bookkeeping (versions, keys) */         \
  X(std::size_t, buffer_bytes) /* buffered transactions (the deltas) */      \
  X(std::size_t, user_model_bytes) /* materialized fine-tuned models only */ \
  /* Counts. */                                                              \
  X(std::size_t, users)                                                      \
  X(std::size_t, slots)                                                      \
  X(std::size_t, materialized_models)

struct MemoryFootprint {
  SEMCACHE_MEMORY_FOOTPRINT_FIELDS(SEMCACHE_FIELD_MEMBER)

  std::size_t total() const {
    return general_model_bytes + serving_table_bytes + topology_bytes +
           profile_bytes + slot_bytes + buffer_bytes + user_model_bytes;
  }

  MemoryFootprint& operator+=(const MemoryFootprint& o) {
    SEMCACHE_MEMORY_FOOTPRINT_FIELDS(SEMCACHE_FIELD_FOLD)
    return *this;
  }
  bool operator==(const MemoryFootprint&) const = default;
};

#undef SEMCACHE_FIELD_MEMBER
#undef SEMCACHE_FIELD_FOLD

class SemanticEdgeSystem {
 public:
  /// Generate the world, pretrain one general codec per domain, train the
  /// selector, build the topology, and warm every edge cache.
  static std::unique_ptr<SemanticEdgeSystem> build(SystemConfig config);

  /// Register a user on an edge server; `idiolect_cfg` non-null gives the
  /// user a private way of speaking (E3).
  const UserProfile& register_user(const std::string& name,
                                   std::size_t edge_index,
                                   const text::IdiolectConfig* idiolect_cfg);

  /// Sample a message as `user` would utter it (idiolect applied).
  text::Sentence sample_message(const std::string& user, std::size_t domain);

  /// Synchronous end-to-end transmission: a one-pair, one-message
  /// transmit_pairs wave, then the event loop runs to idle.
  TransmitReport transmit(const std::string& sender,
                          const std::string& receiver,
                          const text::Sentence& message);

  /// One user pair's ready-to-serve transmissions.
  struct PairBatch {
    /// noise_base sentinel: claim the base index from this system's own
    /// message counter at prepare time (the single-system default).
    static constexpr std::uint64_t kAutoNoiseBase = ~0ULL;

    std::string sender;
    std::string receiver;
    std::vector<text::Sentence> messages;
    /// System-wide message index of messages[0] for channel-noise forking.
    /// The sharded front door pins this from ITS global counter so K
    /// independent shards consume exactly the noise streams the
    /// single-system reference would, regardless of how pairs interleave
    /// across shards. Left at kAutoNoiseBase everywhere else.
    std::uint64_t noise_base = kAutoNoiseBase;
  };
  /// Completion for pair-parallel serving: message `index` of pair `pair`
  /// arrived at its receiver device.
  using PairDone =
      std::function<void(std::size_t pair, std::size_t index, TransmitReport)>;

  /// The serving entry point: serve several user pairs' batches as one
  /// wave. Three deterministic phases — (1) selection / cache touches /
  /// slot establishment run on the calling thread in pair order (they
  /// share the selector, the LRU caches, and the cloud links); (2) the
  /// per-pair data planes run CONCURRENTLY on the system pool, partitioned
  /// into lanes by sending user (every mutable serving object — user-model
  /// slots, buffers, decoder replicas — is keyed by (sender, domain), so
  /// distinct senders touch disjoint state; system accounting collects
  /// into pair-local sinks); (3) stats merges, gradient-sync ships, and
  /// delivery-chain scheduling commit on the calling thread in pair
  /// order. Within a pair, messages are grouped by selected domain and
  /// each group runs one encode_batch / quantize_batch / transmit_batch
  /// (per-message forked RNG) / decode_logits_batch per fine-tune
  /// interval; an end whose slot aliases the frozen general reads the
  /// domain's ServingTable in place of its network passes.
  /// `on_done(pair, index, report)` fires as message `index` of pair
  /// `pair` arrives at its receiver device; every message keeps its own
  /// timing-plane event chain. The batches are read in place and may be
  /// released once the call returns.
  ///
  /// Results (reports, stats, cache contents, model weights, event
  /// ordering) are BYTE-IDENTICAL to num_threads = 0 for any worker
  /// count, and identical to serving the pairs one at a time as one-pair
  /// waves in order (test_serve_pairs pins both). A one-pair wave of N
  /// messages equals N one-message waves (test_transmit_batch).
  ///
  /// The guarantee HOLDS UNDER ACTIVE FAULT INJECTION: sync loss /
  /// corruption / duplication coins are keyed by message identity (user,
  /// domain, version, attempt) and link outages by (link, sim time), so a
  /// wave draws exactly the coins the sequential path would — there is no
  /// sequential fallback (test_faults pins the full thread x shard
  /// matrix).
  void transmit_pairs(const std::vector<PairBatch>& batches, PairDone on_done);

  /// Degraded-mode serving (the dispatcher's answer to a stalled or
  /// failed shard): serve the wave end-to-end through the FROZEN general
  /// models — selection, encode, quantize, channel, decode, delivery
  /// chains — with NO personalization and NO state mutation (no
  /// slot establishment, no buffer adds, no fine-tune, no sync, no cache
  /// touches). It is transmit_pairs' wave over buffer-less slots aliasing
  /// the generals, lanes on the pool included, so reports follow the
  /// healthy definitions field for field (mismatch included). Every
  /// report is flagged `degraded` and counted in
  /// SystemStats::degraded_serves. Channel noise keeps the identity-keyed
  /// fork discipline via each batch's pinned noise base, so degraded
  /// serving is itself deterministic.
  void serve_degraded(const std::vector<PairBatch>& batches, PairDone on_done);

  /// Admission checks for one pair batch (non-empty, known users,
  /// message lengths, surface and meaning ids inside their vocabularies,
  /// a domain the world has); throws semcache::Error on violation. The
  /// single source of truth: every wave runs it wave-wide BEFORE any
  /// prepare so a rejected wave is side-effect-free, and
  /// ParallelDispatcher fails fast at enqueue time so a queued wave can
  /// never be lost to a validation throw mid-flush.
  void validate_pair_batch(const PairBatch& batch) const;

  // --- introspection used by tests, examples, and benches ---
  text::World& world() { return world_; }
  edge::Simulator& simulator() { return sim_; }
  edge::Network& network() { return *topology_.net; }
  EdgeServerState& edge_state(std::size_t index);
  const SystemConfig& config() const { return config_; }
  const SystemStats& stats() const { return stats_; }
  const UserProfile& user(const std::string& name) const;
  semantic::SemanticCodec& general_model(std::size_t domain);
  select::DomainSelector& selector() { return *selector_; }
  const semantic::FeatureQuantizer& quantizer() const { return *quantizer_; }
  /// The lane worker pool; nullptr when the resolved num_threads is 0
  /// (pure sequential build).
  common::ThreadPool* thread_pool() { return pool_.get(); }
  /// The deterministic fault-injection plane built from config().faults.
  const FaultPlane& fault_plane() const { return fault_plane_; }

  /// Byte-identity check between the sender-side decoder copy and the
  /// receiver-side decoder replica for a (user, domain) pair.
  bool replicas_in_sync(const std::string& user, std::size_t domain,
                        std::size_t sender_edge, std::size_t receiver_edge);

  /// The memory audit: where this deployment's bytes live, with per-user
  /// costs (profiles, slots, buffered deltas, materialized models)
  /// separated from deployment-fixed costs (generals, serving tables,
  /// topology). Approximate to container-bookkeeping precision; the point
  /// is the SHAPE — per-user cost must stay O(bytes + deltas).
  MemoryFootprint memory_footprint() const;

  /// Adjust the sync-loss injection rate mid-run (failure-injection
  /// tests): sets config().faults.sync_loss and rebuilds the fault plane.
  void set_sync_loss_probability(double p);

 private:
  explicit SemanticEdgeSystem(SystemConfig config);
  void pretrain_models();
  void build_topology();
  /// Copy-on-write: give `slot` a private clone of the general model
  /// before its first weight write. No-op when already materialized.
  void materialize_slot(UserModelSlot& slot, std::size_t domain);
  /// Resolve the general model through the edge cache (charges a cloud
  /// fetch on a miss); returns whether it was a hit.
  bool touch_general_cache(EdgeServerState& state, std::size_t domain);

  /// A gradient-sync ship whose link send is deferred to a wave's commit
  /// phase (cross-edge only; intra-edge applies are slot-local and run in
  /// place).
  struct PendingShip {
    fl::SyncMessage msg;
    std::vector<float> snapshot;  ///< post-update decoder state (resync)
    std::string sender;
    std::size_t domain = 0;
    std::size_t sender_edge = 0;
    std::size_t receiver_edge = 0;
  };

  /// One pair's wave-scoped state: resolved profiles, per-message reports
  /// and domain groups from the prepare phase, and the pair-local sinks
  /// (stats, sync outbox) the compute phase collects into and the commit
  /// phase folds back in pair order.
  struct PairTask;

  /// Fine-tune `sslot`'s own model on its buffered transactions and roll
  /// its decoder copy forward by the lossy sync delta. Intra-edge the slot
  /// is also the receiver's replica, so that apply is the receiver's and
  /// the slot records the version; cross-edge the sync joins the pair's
  /// outbox.
  void run_update(PairTask& task, std::size_t domain, UserModelSlot& sslot,
                  TransmitReport& report);
  /// Apply one delivered sync message to the receiver-edge replica
  /// (version advance, replay drop, or gap-triggered full resync).
  void apply_sync_at_receiver(EdgeServerState& recv_state,
                              const std::string& sender, std::size_t domain,
                              const fl::SyncMessage& msg,
                              const std::vector<float>& snapshot,
                              SystemStats& stats);
  /// Queue a cross-edge gradient ship on the backbone (the commit half of
  /// an update). Takes the ship by value: msg and the decoder snapshot
  /// move into the event.
  /// With sync faults active, resolves the message's full retry schedule
  /// here from identity-keyed coins (see the implementation comment).
  void ship_sync(PendingShip ship);

  // --- the pair wave (every serving entry point runs these phases) ---
  /// The one wave driver behind transmit_pairs and serve_degraded:
  /// validate the whole wave, then prepare / compute / commit. `degraded`
  /// serves every pair from the frozen generals.
  void serve_wave(const std::vector<PairBatch>& batches, PairDone on_done,
                  bool degraded);
  /// Selection for message `i` of the task, then — unless the task is
  /// degraded — general-cache touches and user-slot establishment; fills
  /// the corresponding report fields, the selected domain among them.
  void prepare_message(PairTask& task, std::size_t i);
  /// Eager data plane for domain group `group` of the task: batched
  /// encode/quantize/channel/decode plus the per-message mismatch, buffer
  /// add, and update trigger, split into chunks at the exact messages
  /// where the sequential path fine-tunes. `sslot` / `rslot` are the
  /// sender's model and the receiver's replica (the same buffer-less slot
  /// for degraded serving, which then buffers and trains nothing). Each
  /// end of each chunk serves from the domain's ServingTable while its
  /// slot aliases the general, and through its network once materialized.
  void process_domain_group(PairTask& task, std::size_t group,
                            UserModelSlot& sslot, UserModelSlot& rslot);
  /// Phase 1 (calling thread, pair order): selection, cache touches,
  /// slot establishment, global message-index assignment.
  void prepare_pair(PairTask& task);
  /// Phase 2 (pool worker, lane-keyed by sender): the pair's batched data
  /// plane — encode/quantize/channel/decode, mismatch, buffer adds,
  /// fine-tunes — against pair-owned state and pair-local sinks.
  void compute_pair(PairTask& task);
  /// Phase 3 (calling thread, pair order): fold the pair-local sinks into
  /// the global stats, ship deferred gradient syncs, schedule deliveries.
  void commit_pair(PairTask& task,
                   const std::shared_ptr<const PairDone>& on_done);
  /// Timing-plane event chain (uplink -> encode -> backbone -> decode ->
  /// downlink) for message `index` of the task; the chain takes the
  /// message's report out of the task and hands it to `on_done` at the
  /// receiver device.
  void schedule_delivery(PairTask& task, std::size_t index,
                         std::shared_ptr<const PairDone> on_done);

  SystemConfig config_;
  Rng rng_;
  FaultPlane fault_plane_;  ///< rebuilt whenever config_.faults changes
  /// Runs the sender lanes of every wave; null when num_threads is 0.
  std::unique_ptr<common::ThreadPool> pool_;
  text::World world_;
  /// Declared before serving_tables_, which point into them.
  std::vector<std::shared_ptr<semantic::SemanticCodec>> general_models_;
  /// serving_tables_[domain]: the frozen general's codes, argmaxes and
  /// probability rows, built once at build() and read-only after, so
  /// every lane shares them. Aliased slots serve through these, and so do
  /// their positions the tables miss.
  std::vector<semantic::ServingTable> serving_tables_;
  std::unique_ptr<select::DomainSelector> selector_;
  std::unique_ptr<semantic::FeatureQuantizer> quantizer_;
  std::unique_ptr<channel::ChannelPipeline> pipeline_;
  std::unique_ptr<fl::ModelSynchronizer> synchronizer_;
  /// Edge compute a delivery charges: 2 flops per encoder (decoder)
  /// weight. Set once in build(); every codec has config_.codec's shape.
  double encode_flops_ = 0.0;
  double decode_flops_ = 0.0;

  edge::Simulator sim_;
  edge::StandardTopology topology_;
  std::vector<std::unique_ptr<EdgeServerState>> edge_states_;
  std::map<std::string, UserProfile> users_;
  std::vector<std::size_t> next_device_slot_;  // per-edge cursor

  SystemStats stats_;
};

}  // namespace semcache::core
