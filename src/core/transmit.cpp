// The Fig. 1 end-to-end workflow.
//
// Structure note: the DATA plane (encode/quantize/channel/decode, mismatch,
// fine-tuning) is computed eagerly when a wave is served — its results do
// not depend on simulated time. The TIMING plane (uplink, compute
// queueing, backbone transfer, downlink, sync shipping) is a callback
// chain through the discrete-event simulator, so open-loop workloads
// (E7/E10) see real queueing contention. Weight updates therefore take
// effect in serving order, which is deterministic.
//
// There is one serving driver, the pair wave (serve_wave): prepare
// (selection, caches, slots; calling thread, pair order), compute (the
// batched data plane; lanes keyed by sender), commit (stats folds, sync
// ships, delivery chains; calling thread, pair order). transmit_pairs runs
// it, transmit is its one-pair, one-message case, and serve_degraded runs
// it with every pair on frozen, buffer-less slots.
//
// Within a pair, messages are grouped by selected domain and each group
// runs encode_batch / quantize_batch / transmit_batch /
// decode_logits_batch once per chunk, where chunk boundaries fall exactly
// on the messages whose buffer add trips the fine-tune trigger (the
// sequential path updates the weights there, so later messages must be
// encoded by the post-update model). Per-message channel noise keeps the
// sequential fork discipline: message i (counted across the whole system)
// forks rng_ with tag 0xC4A2 ^ (i * 2654435761), so batched and sequential
// runs consume identical noise streams.
//
// An end whose slot still aliases the frozen general (never fine-tuned or
// synced, or degraded) runs no network for its clean positions: the
// domain's semantic::ServingTable, built at build(), holds each surface
// id's code and each clean code's argmax and probability row. An aliased
// sender builds its payloads and its mismatch from the table; an aliased
// receiver decodes by lookup, and the table runs only the
// channel-corrupted positions through the general's read-only decoder
// pass. A materialized end runs its own network: a fine-tuned sender
// encodes the chunk and runs its decoder copy once over the chunk's clean
// payloads for the mismatch (③), and a materialized receiver decodes what
// arrived through its replica. The choice is made per chunk and per end,
// because a fine-tune in the middle of a group materializes the sender's
// slot. The tables return the network's bits (test_serving_table), so the
// choice never changes a result.
//
// A fine-tune (④) trains the sender slot's own model in place. Its
// decoder copy then steps back to the pre-update snapshot and applies the
// lossy sync delta, exactly as the receiver's replica will.
//
// Threads parallelize one thing: the sender lanes of a wave. Every
// mutable serving object — user-model slot (which the fine-tune trains),
// transaction buffer, decoder replica — is keyed by (sending user,
// domain), so pairs with distinct senders own disjoint state and their
// compute phases run concurrently on the system pool
// (SystemConfig::num_threads > 0), the calling thread taking lanes too.
// A lane writes only state its sender owns and thread-local scratch; the
// serving tables and the frozen generals behind them are read-only and
// shared by every lane. What the pairs DO share is routed around the
// fan-out: the selector, LRU caches, and slot creation run in the prepare
// phase; system accounting collects into the pair's own sinks (the
// channel pipeline is a const function of payload, rng and slot, so it
// keeps none); cross-edge gradient-sync ships and delivery scheduling wait
// for the commit phase. Inside a lane everything runs sequentially, so
// threads=N output is bit-identical to threads=0 (test_transmit_parallel
// and test_serve_pairs pin the matrix).
// A one-lane wave computes inline on the calling thread.
#include "core/system.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/grouping.hpp"
#include "common/log.hpp"
#include "metrics/ngram.hpp"
#include "tensor/ops.hpp"

namespace semcache::core {

namespace {
constexpr std::size_t kHeaderBytes = 8;  ///< per-message framing overhead
constexpr std::size_t kTokenBytes = 2;   ///< raw token id on device links
constexpr std::size_t kSyncAckBytes = 16;  ///< sync delivery ack frame
constexpr std::size_t kCrcBytes = 4;       ///< sync wire CRC trailer

std::size_t raw_message_bytes(const text::Sentence& s) {
  return kHeaderBytes + kTokenBytes * s.surface.size();
}

/// Channel-noise fork tag for the system-wide message counter value `index`
/// (the same discipline whether the message rides the batched or the
/// sequential path). Pinned by test_channel_golden.
std::uint64_t channel_fork_tag(std::uint64_t index) {
  return 0xC4A2 ^ (index * 2654435761ULL);
}
}  // namespace

struct SemanticEdgeSystem::PairTask {
  std::size_t pair_index = 0;
  const PairBatch* batch = nullptr;  ///< the caller's, read in place
  /// serve_degraded: selection only at prepare, frozen buffer-less slots
  /// at compute — no serving state is created or written.
  bool degraded = false;
  const UserProfile* sprofile = nullptr;
  const UserProfile* rprofile = nullptr;
  EdgeServerState* sstate = nullptr;
  EdgeServerState* rstate = nullptr;
  bool cross_edge = false;
  std::uint64_t base_message_index = 0;
  /// One per message, moved into its delivery chain at commit.
  std::vector<TransmitReport> reports;
  // Selected-domain grouping (first-appearance order).
  std::vector<std::size_t> group_domains;
  std::vector<std::vector<std::size_t>> groups;
  // Pair-local sinks the commit phase folds back in pair order.
  SystemStats stats_delta;
  std::vector<PendingShip> outbox;
};

void SemanticEdgeSystem::run_update(PairTask& task, std::size_t domain,
                                    UserModelSlot& sslot,
                                    TransmitReport& report) {
  const std::string& sender = task.batch->sender;
  // First weight write for this slot: copy-on-write materializes a private
  // clone of the general model here, so the bytes are charged exactly when
  // the user develops state of their own.
  materialize_slot(sslot, domain);

  // Fine-tune the slot's own model on the buffered transactions (§II-D:
  // the user-specialized encoder and decoder "start to be trained together
  // after enough collected data at b^m").
  nn::ParameterSet sdec = sslot.model->decoder().parameters();
  const std::vector<float> before = sdec.flatten_values();
  Rng ft_rng = rng_.fork(0xF17E ^ (sslot.send_version + 1));
  semantic::CodecTrainer::finetune(*sslot.model, sslot.buffer->samples(),
                                   config_.finetune_epochs,
                                   config_.finetune_lr, ft_rng,
                                   config_.pretrain.feature_noise,
                                   config_.finetune_batch_size);

  // The decoder sync message carries the lossy pre/post delta. The encoder
  // keeps its fine-tuned weights (it lives only at the sender edge); the
  // decoder COPY steps back to its snapshot and applies the same delta the
  // receiver will apply, so the replicas stay bit-identical.
  fl::SyncMessage msg = synchronizer_->make_message(
      before, sdec.flatten_values(), sender,
      static_cast<std::uint32_t>(domain), ++sslot.send_version);
  sdec.unflatten_values(before);
  synchronizer_->apply(sdec, msg);
  sslot.buffer->consume();

  report.triggered_update = true;
  report.sync_bytes = msg.byte_size();
  task.stats_delta.sync_bytes += msg.byte_size();
  ++task.stats_delta.updates;

  // Intra-edge, the sender's slot is also the receiver's replica (one slot
  // per (sender, domain) per edge), so the apply above was the receiver's:
  // the slot records the version and nothing ships.
  if (!task.cross_edge) {
    sslot.recv_version.reset(sslot.send_version);
    ++sslot.updates_applied;
    return;
  }
  // Cross-edge, ship the gradient to the receiver edge (④). The backbone
  // send mutates link/simulator state, so it queues for the wave's ordered
  // commit phase. The snapshot of the sender's post-update decoder rides
  // along for gap recovery — on the wire it would be fetched on demand, so
  // its bytes are only charged when a resync actually happens.
  PendingShip ship;
  ship.msg = std::move(msg);
  ship.snapshot = sdec.flatten_values();
  ship.sender = sender;
  ship.domain = domain;
  ship.sender_edge = task.sstate->index();
  ship.receiver_edge = task.rstate->index();
  task.outbox.push_back(std::move(ship));
}

void SemanticEdgeSystem::apply_sync_at_receiver(
    EdgeServerState& recv_state, const std::string& sender, std::size_t domain,
    const fl::SyncMessage& msg, const std::vector<float>& snapshot,
    SystemStats& stats) {
  UserModelSlot* rslot = recv_state.find_slot(sender, domain);
  if (rslot == nullptr) return;  // receiver never saw this user; drop
  if (rslot->recv_version.advance(msg.version)) {
    materialize_slot(*rslot, domain);  // copy-on-write before the apply
    nn::ParameterSet rdec = rslot->model->decoder().parameters();
    synchronizer_->apply(rdec, msg);
    ++rslot->updates_applied;
    return;
  }
  if (msg.version <= rslot->recv_version.current()) return;  // replay
  // Version gap: one or more updates were lost. Recover with a full
  // decoder-state transfer (bytes charged on the backbone).
  materialize_slot(*rslot, domain);
  nn::ParameterSet rdec = rslot->model->decoder().parameters();
  rdec.unflatten_values(snapshot);
  rslot->recv_version.reset(msg.version);
  ++rslot->updates_applied;
  ++stats.full_resyncs;
  stats.resync_bytes += 4 * snapshot.size();
}

void SemanticEdgeSystem::ship_sync(PendingShip ship) {
  EdgeServerState& recv_state = *edge_states_[ship.receiver_edge];
  edge::Link& fwd = topology_.net->link(topology_.edges[ship.sender_edge],
                                        topology_.edges[ship.receiver_edge]);
  const std::size_t byte_size = ship.msg.byte_size();

  if (!fault_plane_.config().sync_faults_active()) {
    // Fault-free fast path, bit-compatible with the pre-fault-plane wire:
    // msg and the decoder snapshot MOVE into the closure (the snapshot is
    // a full parameter vector — the caller hands over a ship it is done
    // with). The apply runs at arrival time on the event loop, where
    // accounting is the global stats.
    fwd.send(sim_, byte_size,
             [this, &recv_state, sender = std::move(ship.sender),
              domain = ship.domain, msg = std::move(ship.msg),
              snapshot = std::move(ship.snapshot)] {
               apply_sync_at_receiver(recv_state, sender, domain, msg,
                                      snapshot, stats_);
             });
    return;
  }

  // ---- Sync faults active: retry with exponential backoff. ----
  //
  // Every attempt's fate is a pure function of (seed, sender, domain,
  // version, attempt) — see FaultPlane — so the WHOLE retry ladder is
  // resolved here at ship time, deterministically, and only the surviving
  // wire traffic is scheduled on the simulator. That keeps waves
  // byte-identical at any thread or shard count: no coin ever depends on
  // a global ordinal or on event interleaving. Retransmissions ride the
  // same backbone link with the CRC-framed wire size; the receiver's CRC
  // check rejects corrupted images cleanly (no state touched). If every
  // attempt fails the message expires — the sender's replica has already
  // moved on, so the receiver heals through the VersionVector gap-resync
  // on the next delivered update (resync as last resort, retry first).
  const FaultConfig& cfg = fault_plane_.config();
  const auto domain32 = static_cast<std::uint32_t>(ship.domain);
  const std::uint64_t version = ship.msg.version;
  const std::size_t wire_bytes = byte_size + kCrcBytes;

  // Schedule one attempt's wire traffic `after` seconds from now (0 =
  // immediately, matching the fault-free path's timing for attempt 1).
  const auto send_attempt = [this, &fwd](double after, std::size_t bytes,
                                         edge::Simulator::Handler handler) {
    if (after <= 0.0) {
      fwd.send(sim_, bytes, std::move(handler));
    } else {
      sim_.schedule_after(after, [this, &fwd, bytes,
                                  handler = std::move(handler)]() mutable {
        fwd.send(sim_, bytes, std::move(handler));
      });
    }
  };

  double delay = 0.0;
  std::uint64_t attempt = 1;
  bool delivered = false;
  for (; attempt <= cfg.max_attempts; ++attempt) {
    if (attempt > 1) {
      ++stats_.sync_retries;
      stats_.sync_bytes += byte_size;  // the retransmission rides the wire too
    }
    if (fault_plane_.drop_sync(ship.sender, domain32, version, attempt)) {
      // Lost in transit: nothing arrives, the sender times out and backs
      // off before the next attempt.
      ++stats_.sync_drops;
      delay += fault_plane_.retry_delay_s(attempt);
      continue;
    }
    if (fault_plane_.corrupt_sync(ship.sender, domain32, version, attempt)) {
      // Corrupted in transit: the real wire image, deterministically
      // mangled, traverses the link; the receiver runs the CRC gate and
      // drops it cleanly into the retry path. (A 2^-32 CRC collision
      // would parse — the attempt is still counted faulted and dropped.)
      auto wire = ship.msg.to_wire();
      fault_plane_.corrupt_bytes(wire, ship.sender, domain32, version,
                                 attempt);
      send_attempt(delay, wire.size(), [this, wire = std::move(wire)] {
        try {
          (void)fl::SyncMessage::from_wire(wire);
        } catch (const Error&) {
        }
        ++stats_.sync_corrupt_drops;
      });
      ++stats_.sync_drops;
      delay += fault_plane_.retry_delay_s(attempt);
      continue;
    }
    delivered = true;
    break;
  }
  if (!delivered) {
    // Retry budget exhausted: give up. The version gap heals via full
    // resync on the next delivered update for this (user, domain).
    ++stats_.sync_expired;
    common::log_once("sync-expired",
                     "sync message expired after max_attempts retries; "
                     "the receiver will gap-resync on the next delivered "
                     "update (see SystemStats::sync_expired)");
    return;
  }

  const bool duplicate =
      fault_plane_.duplicate_sync(ship.sender, domain32, version, attempt);
  // The intact attempt. Shared ownership so an injected duplicate can
  // deliver the same payload twice (the second copy is a VersionVector
  // replay at the receiver and is dropped there).
  auto payload = std::make_shared<PendingShip>(std::move(ship));
  send_attempt(delay, wire_bytes, [this, &recv_state, payload] {
    apply_sync_at_receiver(recv_state, payload->sender, payload->domain,
                           payload->msg, payload->snapshot, stats_);
    // Delivery ack on the reverse backbone path (modeled reliable; it is
    // what arms the sender's retry timer in a real deployment).
    stats_.sync_ack_bytes += kSyncAckBytes;
    topology_.net
        ->link(topology_.edges[payload->receiver_edge],
               topology_.edges[payload->sender_edge])
        .send(sim_, kSyncAckBytes, [] {});
  });
  if (duplicate) {
    ++stats_.sync_duplicates;
    stats_.sync_bytes += byte_size;  // the duplicate copy rides the wire too
    send_attempt(delay, wire_bytes, [this, &recv_state, payload] {
      // Second copy: link FIFO guarantees it lands after the first, so
      // the receiver's replay check drops it without touching state.
      apply_sync_at_receiver(recv_state, payload->sender, payload->domain,
                             payload->msg, payload->snapshot, stats_);
    });
  }
}

void SemanticEdgeSystem::set_sync_loss_probability(double p) {
  SEMCACHE_CHECK(p >= 0.0 && p <= 1.0,
                 "sync_loss_probability must be in [0, 1]");
  config_.faults.sync_loss = p;
  fault_plane_ = FaultPlane(config_.faults);
}

void SemanticEdgeSystem::prepare_message(PairTask& task, std::size_t i) {
  const text::Sentence& message = task.batch->messages[i];
  TransmitReport& report = task.reports[i];
  report.domain_true = message.domain;
  report.degraded = task.degraded;

  // --- Model selection (§III-A). ---
  const std::size_t m = config_.oracle_selection
                            ? message.domain
                            : selector_->select(message.surface);
  report.domain_selected = m;
  report.selection_correct = (m == message.domain);
  if (!report.selection_correct) ++stats_.selection_errors;
  // Degraded serving stops here: it touches no cache and establishes no
  // slot (compute_pair serves it from the frozen general).
  if (task.degraded) return;

  // --- General models through the edge caches (①). ---
  EdgeServerState& sstate = *task.sstate;
  EdgeServerState& rstate = *task.rstate;
  const std::string& sender = task.batch->sender;
  report.general_cache_hit = touch_general_cache(sstate, m);
  touch_general_cache(rstate, m);

  // --- User-specific slots (②): established copy-on-write — the fresh
  // slot ALIASES the shared general model (bytes, not a clone; serving
  // reads the domain's serving table, and the first fine-tune or sync
  // apply materializes a private copy). The receiver edge holds the
  // decoder replica for this (sender, domain) pair. ---
  report.established_user_model = (sstate.find_slot(sender, m) == nullptr);
  UserModelSlot& sslot =
      sstate.ensure_slot(sender, m, [&] { return general_models_[m]; });
  if (sslot.buffer == nullptr) {
    // A trigger above the configured capacity means "never train" (the
    // frozen-general-model baseline); size the ring to match.
    sslot.buffer = std::make_unique<fl::DomainBuffer>(
        config_.buffer_trigger,
        std::max(config_.buffer_capacity, config_.buffer_trigger));
  }
  rstate.ensure_slot(sender, m, [&] { return general_models_[m]; });
}

void SemanticEdgeSystem::process_domain_group(PairTask& task,
                                              std::size_t group,
                                              UserModelSlot& sslot,
                                              UserModelSlot& rslot) {
  const std::size_t m = task.group_domains[group];
  const std::vector<std::size_t>& indices = task.groups[group];
  const std::vector<text::Sentence>& messages = task.batch->messages;
  std::vector<TransmitReport>& reports = task.reports;
  const std::size_t length = config_.codec.sentence_length;
  const std::size_t vocab = config_.codec.meaning_vocab;
  const semantic::ServingTable& table = serving_tables_[m];

  const std::size_t block = length * vocab;  // one message's logits
  std::vector<std::int32_t> surfaces;
  std::vector<BitVec> payloads;
  std::vector<BitVec> received;
  std::vector<std::int32_t> decoded;

  std::size_t pos = 0;
  while (pos < indices.size()) {
    // Chunk boundary: the sequential path fine-tunes at the message whose
    // buffer add trips the trigger, and every later message is encoded by
    // the updated weights — so a chunk may extend at most that far. A
    // buffer-less (degraded) slot never trains: one chunk takes the group.
    std::size_t chunk = indices.size() - pos;
    if (sslot.buffer != nullptr) {
      chunk = std::min(
          chunk, std::max<std::size_t>(1, sslot.buffer->adds_until_ready()));
    }

    // An end whose slot still aliases the frozen general serves from the
    // domain's table; a materialized end runs its own network. Resolved
    // per chunk: the update trigger at a chunk boundary may MATERIALIZE
    // the sender slot (copy-on-write), after which later chunks must run
    // on the private fine-tuned model.
    const bool sender_frozen = !sslot.owns_model;
    const bool receiver_frozen = !rslot.owns_model;

    // ---- One batched pass over the chunk: payloads. ----
    if (sender_frozen) {
      payloads.resize(chunk);
      for (std::size_t j = 0; j < chunk; ++j) {
        table.encode(messages[indices[pos + j]].surface, payloads[j]);
      }
    } else {
      surfaces.clear();
      surfaces.reserve(chunk * length);
      for (std::size_t j = 0; j < chunk; ++j) {
        const text::Sentence& message = messages[indices[pos + j]];
        surfaces.insert(surfaces.end(), message.surface.begin(),
                        message.surface.end());
      }
      payloads = quantizer_->quantize_batch(
          sslot.model->encoder().encode_batch(surfaces, chunk));
    }

    if (task.cross_edge) {
      std::vector<Rng> rngs;
      std::vector<std::uint64_t> slots;
      rngs.reserve(chunk);
      slots.reserve(chunk);
      // The slot is the same global message ordinal that keys the RNG
      // fork — channels with memory (Gilbert–Elliott) key their burst
      // weather on it, so waves stay byte-identical across threads/shards.
      for (std::size_t j = 0; j < chunk; ++j) {
        const std::uint64_t ordinal =
            task.base_message_index + indices[pos + j];
        rngs.push_back(rng_.fork(channel_fork_tag(ordinal)));
        slots.push_back(ordinal);
      }
      // The pipeline is const, so concurrent lanes share it.
      received = pipeline_->transmit_batch(payloads, rngs, slots);
    }
    // Intra-edge, the payloads arrive as sent.
    const std::vector<BitVec>& arrived = task.cross_edge ? received : payloads;

    // ---- Receiver decode. A frozen receiver looks up every position whose
    // code the table holds, and the table decodes the channel-corrupted
    // ones itself; a materialized receiver runs its replica. ----
    if (receiver_frozen) {
      table.decode(arrived, decoded);
    } else {
      decoded = rslot.model->decoder().decode(
          quantizer_->dequantize_batch(arrived));
    }

    // --- Mismatch calculation (③). With the decoder copy the sender
    // evaluates its own clean quantized features locally; without it, the
    // receiver must return its decoded output ("sending the output back
    // would defeat the purpose", §II-C). A frozen sender's decoder copy is
    // the general, so its mismatch reads the table's probability rows. A
    // materialized sender runs its decoder copy once over the chunk's
    // clean payloads, after the receiver's decode: intra-edge the two are
    // one decoder. ---
    const tensor::Tensor* copy_logits = nullptr;
    if (config_.decoder_copy_enabled && !sender_frozen) {
      copy_logits = &sslot.model->decoder().decode_logits_batch(
          quantizer_->dequantize_batch(payloads));
    }

    // ---- Per-message outcome, in arrival order within the chunk: report
    // fields, mismatch, buffer adds, stats. ----
    for (std::size_t j = 0; j < chunk; ++j) {
      const std::size_t idx = indices[pos + j];
      const text::Sentence& message = messages[idx];
      TransmitReport& report = reports[idx];

      report.decoded_meanings.assign(
          decoded.begin() + static_cast<std::ptrdiff_t>(j * length),
          decoded.begin() + static_cast<std::ptrdiff_t>((j + 1) * length));
      report.token_accuracy =
          metrics::token_accuracy(message.meanings, report.decoded_meanings);
      report.exact = (report.decoded_meanings == message.meanings);
      report.payload_bytes = (payloads[j].size() + 7) / 8 + kHeaderBytes;
      if (task.cross_edge) {
        report.airtime_bits =
            pipeline_->code().encoded_length(payloads[j].size());
      }

      if (!config_.decoder_copy_enabled) {
        report.output_return_bytes =
            kHeaderBytes + kTokenBytes * report.decoded_meanings.size();
        // Error-rate proxy computed from the returned output.
        report.mismatch = 1.0 - report.token_accuracy;
      } else if (sender_frozen) {
        report.mismatch = table.mismatch(message.surface, message.meanings);
      } else {
        report.mismatch = tensor::mean_cross_entropy(
            copy_logits->flat().subspan(j * block, block), vocab,
            message.meanings);
      }

      if (sslot.buffer != nullptr) {
        sslot.buffer->add({message.surface, message.meanings},
                          report.mismatch);
      }
      task.stats_delta.feature_bytes += report.payload_bytes;
      task.stats_delta.output_return_bytes += report.output_return_bytes;
    }

    // --- Update trigger (④): fires on the chunk's last message, exactly
    // where the sequential path fires it. ---
    if (sslot.buffer != nullptr && sslot.buffer->ready()) {
      run_update(task, m, sslot, reports[indices[pos + chunk - 1]]);
    }
    pos += chunk;
  }
}

void SemanticEdgeSystem::schedule_delivery(
    PairTask& task, std::size_t index,
    std::shared_ptr<const PairDone> on_done) {
  TransmitReport& report = task.reports[index];
  const bool cross_edge = task.cross_edge;
  const double start_time = sim_.now();
  const std::size_t up_bytes = raw_message_bytes(task.batch->messages[index]);
  const std::size_t down_bytes =
      kHeaderBytes + kTokenBytes * report.decoded_meanings.size();
  const std::size_t payload_bytes = report.payload_bytes;
  stats_.uplink_bytes += up_bytes;
  stats_.downlink_bytes += down_bytes;

  edge::Network& net = *topology_.net;
  const edge::NodeId s_dev = task.sprofile->device;
  const edge::NodeId r_dev = task.rprofile->device;
  const edge::NodeId s_edge = topology_.edges[task.sprofile->edge_index];
  const edge::NodeId r_edge = topology_.edges[task.rprofile->edge_index];
  auto done = [this, on_done = std::move(on_done), pair = task.pair_index,
               index, report = std::move(report), start_time]() mutable {
    report.latency_s = sim_.now() - start_time;
    (*on_done)(pair, index, std::move(report));
  };

  // Chain: uplink -> encode -> backbone -> decode -> downlink. Compute is
  // charged at 2 flops per weight of the half that runs (build() counts
  // them once; every codec shares config_.codec's shape).
  auto downlink = [this, &net, r_edge, r_dev, down_bytes,
                   done = std::move(done)]() mutable {
    net.link(r_edge, r_dev).send(sim_, down_bytes, std::move(done));
  };
  auto decode = [this, &net, r_edge, downlink = std::move(downlink)]() mutable {
    net.node(r_edge).submit_compute(sim_, decode_flops_, std::move(downlink));
  };
  auto backbone = [this, &net, cross_edge, s_edge, r_edge, payload_bytes,
                   decode = std::move(decode)]() mutable {
    if (cross_edge) {
      net.link(s_edge, r_edge).send(sim_, payload_bytes, std::move(decode));
    } else {
      decode();
    }
  };
  auto encode = [this, &net, s_edge,
                 backbone = std::move(backbone)]() mutable {
    net.node(s_edge).submit_compute(sim_, encode_flops_, std::move(backbone));
  };
  net.link(s_dev, s_edge).send(sim_, up_bytes, std::move(encode));
}

// ===================== the pair wave ======================

void SemanticEdgeSystem::validate_pair_batch(const PairBatch& batch) const {
  SEMCACHE_CHECK(!batch.messages.empty(), "transmit_pairs: empty pair batch");
  user(batch.sender);  // throws for unknown users
  user(batch.receiver);
  // Everything a message indexes is checked here, before prepare counts it
  // or touches a cache: the selector's count tables (surface ids), the
  // general models under oracle selection (domain), and the mismatch and
  // buffer targets (meanings).
  const auto ids_below = [](const std::vector<std::int32_t>& ids,
                            std::size_t vocab) {
    return std::all_of(ids.begin(), ids.end(), [vocab](std::int32_t id) {
      return id >= 0 && static_cast<std::size_t>(id) < vocab;
    });
  };
  for (const text::Sentence& message : batch.messages) {
    SEMCACHE_CHECK(message.surface.size() == config_.codec.sentence_length,
                   "transmit_pairs: message length must match codec window");
    SEMCACHE_CHECK(message.meanings.size() == message.surface.size(),
                   "transmit_pairs: one meaning per surface token");
    SEMCACHE_CHECK(message.domain < world_.num_domains(),
                   "transmit_pairs: unknown message domain");
    SEMCACHE_CHECK(ids_below(message.surface, config_.codec.surface_vocab),
                   "transmit_pairs: surface id outside the vocabulary");
    SEMCACHE_CHECK(ids_below(message.meanings, config_.codec.meaning_vocab),
                   "transmit_pairs: meaning id outside the vocabulary");
  }
}

void SemanticEdgeSystem::prepare_pair(PairTask& task) {
  task.sprofile = &user(task.batch->sender);
  task.rprofile = &user(task.batch->receiver);
  task.sstate = &edge_state(task.sprofile->edge_index);
  task.rstate = &edge_state(task.rprofile->edge_index);
  task.cross_edge = task.sprofile->edge_index != task.rprofile->edge_index;

  // Selection / caches / slots, strictly in arrival order (the selector
  // and the LRU caches are stateful).
  const std::size_t n = task.batch->messages.size();
  task.reports.resize(n);
  for (std::size_t i = 0; i < n; ++i) prepare_message(task, i);
  // Claim this pair's run of global message indices now, in pair order —
  // exactly the channel-noise forks n one-message waves would consume
  // (the counter's only other reader is the next prepare).
  // A batch with a PINNED noise base (the sharded front door assigns them
  // from its deployment-wide counter in first-enqueue order) uses that
  // instead, so a shard's noise streams match the single-system reference
  // no matter how pairs interleave across shards; the local message count
  // still advances either way.
  const std::uint64_t pinned = task.batch->noise_base;
  task.base_message_index =
      pinned == PairBatch::kAutoNoiseBase ? stats_.messages : pinned;
  stats_.messages += n;
  if (task.degraded) task.stats_delta.degraded_serves = n;

  // Group by selected domain (first-appearance order); within a group the
  // arrival order is preserved, and each message keeps the channel-noise
  // fork of its system-wide index.
  auto grouped = common::group_by_first_appearance(
      n, [&](std::size_t i) { return task.reports[i].domain_selected; });
  task.group_domains = std::move(grouped.keys);
  task.groups = std::move(grouped.groups);
}

void SemanticEdgeSystem::compute_pair(PairTask& task) {
  for (std::size_t g = 0; g < task.groups.size(); ++g) {
    const std::size_t m = task.group_domains[g];
    if (task.degraded) {
      // A stack-local slot that aliases the frozen general and has no
      // transaction buffer: the group is served as one chunk, nothing is
      // buffered and no update can trigger. It stands in for both ends,
      // so the replicas count as in sync.
      UserModelSlot frozen;
      frozen.model = general_models_[m];
      process_domain_group(task, g, frozen, frozen);
    } else {
      process_domain_group(task, g,
                           *task.sstate->find_slot(task.batch->sender, m),
                           *task.rstate->find_slot(task.batch->sender, m));
    }
  }
}

void SemanticEdgeSystem::commit_pair(
    PairTask& task, const std::shared_ptr<const PairDone>& on_done) {
  // Fold the pair-local accounting into the global sinks. The counters
  // the delta never carries — messages and selection_errors (prepare),
  // uplink/downlink bytes (schedule_delivery), the outage counters (the
  // links' sinks) and the sync-fault ladder (ship_sync) — are booked
  // straight into stats_, so they are zero here.
  stats_ += task.stats_delta;
  // Ship deferred gradient syncs in trigger order, exactly where the
  // sequential path would have sent them: after this pair's data plane,
  // before its delivery chains.
  for (PendingShip& ship : task.outbox) ship_sync(std::move(ship));
  task.outbox.clear();

  for (std::size_t i = 0; i < task.batch->messages.size(); ++i) {
    schedule_delivery(task, i, on_done);
  }
}

void SemanticEdgeSystem::transmit_pairs(const std::vector<PairBatch>& batches,
                                        PairDone on_done) {
  serve_wave(batches, std::move(on_done), /*degraded=*/false);
}

void SemanticEdgeSystem::serve_degraded(const std::vector<PairBatch>& batches,
                                        PairDone on_done) {
  // Availability mode: the same wave with every task flagged degraded
  // (selection only, frozen buffer-less slots). Lanes still fan out: a
  // degraded lane writes nothing but its own reports and sinks, and
  // serves from the read-only serving tables.
  serve_wave(batches, std::move(on_done), /*degraded=*/true);
}

void SemanticEdgeSystem::serve_wave(const std::vector<PairBatch>& batches,
                                    PairDone on_done, bool degraded) {
  SEMCACHE_CHECK(on_done != nullptr, "transmit_pairs: null completion");
  SEMCACHE_CHECK(!batches.empty(), "transmit_pairs: no pairs");
  // Validate the WHOLE wave before serving anything: prepare claims
  // global message indices and mutates caches/slots, so a mid-wave
  // rejection would leave earlier pairs prepared but later ones dropped,
  // with every later channel-noise fork shifted. Rejecting up front
  // keeps a failed call side-effect-free.
  // Fault injection needs no special casing here: every fault coin is
  // keyed by message identity (FaultPlane), so waves stay parallel — and
  // byte-identical — under active injection.
  for (const PairBatch& batch : batches) validate_pair_batch(batch);

  // Phase 1: sequential prepares in pair order.
  std::vector<PairTask> tasks(batches.size());
  for (std::size_t p = 0; p < batches.size(); ++p) {
    tasks[p].pair_index = p;
    tasks[p].batch = &batches[p];
    tasks[p].degraded = degraded;
    prepare_pair(tasks[p]);
  }

  // Phase 2: partition pairs into lanes by sending user — every mutable
  // serving object is keyed by (sender, domain), so pairs sharing a
  // sender share slots and must serialize (in pair order, within one
  // lane); distinct senders own disjoint state and fan out over the
  // pool. A single lane runs inline on the calling thread.
  const auto lanes = common::group_by_first_appearance(
      tasks.size(),
      [&](std::size_t p) -> const std::string& { return batches[p].sender; });
  const auto compute_lane = [&](std::size_t lane) {
    for (const std::size_t p : lanes.groups[lane]) compute_pair(tasks[p]);
  };
  if (pool_ != nullptr && lanes.groups.size() > 1) {
    pool_->parallel_for(lanes.groups.size(), compute_lane);
  } else {
    for (std::size_t lane = 0; lane < lanes.groups.size(); ++lane) {
      compute_lane(lane);
    }
  }

  // Phase 3: sequential commits in pair order. Every delivery chain of
  // the wave shares the one completion, which outlives this call.
  const auto done = std::make_shared<const PairDone>(std::move(on_done));
  for (PairTask& task : tasks) commit_pair(task, done);
}

}  // namespace semcache::core
