#include "core/dispatcher.hpp"

#include <algorithm>
#include <exception>
#include <thread>
#include <utility>

#include "common/check.hpp"
#include "common/log.hpp"

namespace semcache::core {

void ParallelDispatcher::enqueue(const std::string& sender,
                                 const std::string& receiver,
                                 std::vector<text::Sentence> messages) {
  // Fail fast: admit the batch NOW so flush() can never throw after the
  // queue has been moved into transmit_pairs — a rejected enqueue leaves
  // everything already queued intact and servable. In sharded mode the
  // OWNING shard validates (that is where the pair will be served; user
  // registration is replicated, so any shard would agree).
  {
    SemanticEdgeSystem::PairBatch probe;
    probe.sender = sender;
    probe.receiver = receiver;
    probe.messages = std::move(messages);
    SemanticEdgeSystem& owner =
        sharded_ != nullptr ? sharded_->owning_shard(sender) : *system_;
    owner.validate_pair_batch(probe);
    messages = std::move(probe.messages);
  }
  for (auto& batch : queue_) {
    if (batch.sender == sender && batch.receiver == receiver) {
      batch.messages.insert(batch.messages.end(),
                            std::make_move_iterator(messages.begin()),
                            std::make_move_iterator(messages.end()));
      return;
    }
  }
  SemanticEdgeSystem::PairBatch batch;
  batch.sender = sender;
  batch.receiver = receiver;
  batch.messages = std::move(messages);
  queue_.push_back(std::move(batch));
}

std::size_t ParallelDispatcher::flush(SemanticEdgeSystem::PairDone on_done) {
  if (queue_.empty()) return 0;
  // The only transmit_pairs precondition enqueue cannot vouch for; check
  // it before the queue moves out so a bad call cannot lose queued work.
  SEMCACHE_CHECK(on_done != nullptr, "dispatcher: flush with null completion");
  const std::size_t pairs = queue_.size();
  if (sharded_ != nullptr) {
    flush_sharded(on_done);
  } else {
    system_->transmit_pairs(std::move(queue_), std::move(on_done));
  }
  queue_.clear();  // moved-from: restore the well-defined empty state
  ++waves_;
  return pairs;
}

std::size_t ParallelDispatcher::flush_sharded(
    const SemanticEdgeSystem::PairDone& on_done) {
  const std::size_t num_shards = sharded_->num_shards();

  // Pin every batch's channel-noise base from the deployment-wide counter
  // in first-enqueue order — the coordinate that makes K independent
  // shards consume exactly the noise streams the single-system reference
  // would for this queue.
  for (auto& batch : queue_) {
    batch.noise_base = sharded_->claim_noise_bases(batch.messages.size());
  }

  // Partition by owning shard, remembering each batch's global pair index
  // (its first-enqueue position — what on_done reports).
  std::vector<std::vector<SemanticEdgeSystem::PairBatch>> shard_queues(
      num_shards);
  std::vector<std::vector<std::size_t>> global_pair(num_shards);
  for (std::size_t p = 0; p < queue_.size(); ++p) {
    const std::size_t s = sharded_->shard_of(queue_[p].sender);
    shard_queues[s].push_back(std::move(queue_[p]));
    global_pair[s].push_back(p);
  }

  // Degraded-service backup: a stalled or failed shard's pairs must
  // survive the std::move into its wave, so keep a copy of every busy
  // shard's queue (sentences are small next to the codec compute). The
  // fault config is replicated across shards; shard 0 always exists.
  const FaultPlane& fault_plane = sharded_->shard(0).fault_plane();
  std::vector<std::vector<SemanticEdgeSystem::PairBatch>> backup = shard_queues;
  std::vector<std::uint8_t> degraded(num_shards, 0);
  if (fault_plane.config().shard_stall > 0.0) {
    // Injected stall: the coin is keyed by (shard, wave ordinal), so a
    // given deployment stalls the same shards on the same waves no matter
    // the thread count. A stalled shard's thread is never spawned — its
    // wave "times out" and is served degraded below.
    for (std::size_t s = 0; s < num_shards; ++s) {
      if (!shard_queues[s].empty() && fault_plane.stall_shard(s, waves_)) {
        degraded[s] = 1;
      }
    }
  }

  // Fan the busy shards out, one thread per shard: each serves its wave
  // (the shard's own pool parallelizes across ITS pairs — the dispatcher
  // thread is not a pool worker, so shard-internal fan-out stays live)
  // and drains its simulator so delivery chains complete. Every
  // data-plane hop in that drain is a plain Link::send on the shard's own
  // event loop. Completions buffer per shard; everything shard threads
  // touch is shard-owned, so the threads share nothing.
  struct Completion {
    std::size_t pair;
    std::size_t index;
    TransmitReport report;
  };
  std::vector<std::vector<Completion>> collected(num_shards);
  std::vector<std::exception_ptr> errors(num_shards);
  std::vector<std::thread> threads;
  for (std::size_t s = 0; s < num_shards; ++s) {
    if (shard_queues[s].empty() || degraded[s]) continue;
    threads.emplace_back([this, s, &shard_queues, &global_pair, &collected,
                          &errors] {
      try {
        SemanticEdgeSystem& shard = sharded_->shard(s);
        const std::vector<std::size_t>& globals = global_pair[s];
        std::vector<Completion>& out = collected[s];
        shard.transmit_pairs(
            std::move(shard_queues[s]),
            [&globals, &out](std::size_t pair, std::size_t index,
                             TransmitReport report) {
              out.push_back({globals[pair], index, std::move(report)});
            });
        shard.simulator().run();
      } catch (...) {
        errors[s] = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // A shard whose wave threw mid-serve is degraded, not fatal: the flush
  // must never hang or propagate. Drain whatever delivery chains the dead
  // wave managed to schedule (their completions are discarded — the whole
  // wave is re-served below so every pair completes exactly once).
  for (std::size_t s = 0; s < num_shards; ++s) {
    if (!errors[s]) continue;
    degraded[s] = 1;
    try {
      sharded_->shard(s).simulator().run();
    } catch (...) {
      // A poisoned event queue must not kill the flush either.
    }
    collected[s].clear();
    common::log_once("shard-wave-failed",
                     "sharded flush: a shard's wave failed mid-serve; its "
                     "pairs were re-served degraded from the frozen generals "
                     "(see SystemStats::degraded_serves)");
  }

  // Graceful degradation: serve every stalled/failed shard's pairs from
  // its FROZEN general-model replicas on the calling thread. State on the
  // shard is left alone (no slots, no buffers, no syncs); reports come
  // back flagged `degraded`.
  for (std::size_t s = 0; s < num_shards; ++s) {
    if (!degraded[s] || backup[s].empty()) continue;
    common::log_once("shard-degraded",
                     "sharded flush: shard stalled; serving its pairs "
                     "degraded from the frozen general models (see "
                     "SystemStats::degraded_serves)");
    SemanticEdgeSystem& shard = sharded_->shard(s);
    std::vector<Completion>& out = collected[s];
    for (std::size_t j = 0; j < backup[s].size(); ++j) {
      const std::size_t g = global_pair[s][j];
      shard.serve_degraded(std::move(backup[s][j]),
                           [&out, g](std::size_t index, TransmitReport report) {
                             out.push_back({g, index, std::move(report)});
                           });
    }
    try {
      shard.simulator().run();
    } catch (...) {
      // Never let a delivery-chain throw escape the degraded path.
    }
  }

  // Deliver on the calling thread in (global pair, message) order — a
  // deterministic merge of the per-shard completion streams.
  std::vector<Completion> merged;
  std::size_t total = 0;
  for (const auto& c : collected) total += c.size();
  merged.reserve(total);
  for (auto& c : collected) {
    for (auto& done : c) merged.push_back(std::move(done));
  }
  std::sort(merged.begin(), merged.end(),
            [](const Completion& a, const Completion& b) {
              return a.pair != b.pair ? a.pair < b.pair : a.index < b.index;
            });
  for (Completion& done : merged) {
    on_done(done.pair, done.index, std::move(done.report));
  }
  return merged.size();
}

std::size_t ParallelDispatcher::queued_messages() const {
  std::size_t n = 0;
  for (const auto& batch : queue_) n += batch.messages.size();
  return n;
}

}  // namespace semcache::core
