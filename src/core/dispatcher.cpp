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
  SemanticEdgeSystem::PairBatch batch{sender, receiver, std::move(messages)};
  // Fail fast: admit the batch NOW so flush() never serves a wave that
  // could be refused — a rejected enqueue leaves everything already
  // queued intact and servable. In sharded mode the OWNING shard
  // validates (that is where the pair will be served; user registration
  // is replicated, so any shard would agree).
  SemanticEdgeSystem& owner =
      sharded_ != nullptr ? sharded_->owning_shard(sender) : *system_;
  owner.validate_pair_batch(batch);
  for (auto& queued : queue_) {
    if (queued.sender == sender && queued.receiver == receiver) {
      queued.messages.insert(queued.messages.end(),
                             std::make_move_iterator(batch.messages.begin()),
                             std::make_move_iterator(batch.messages.end()));
      return;
    }
  }
  queue_.push_back(std::move(batch));
}

std::size_t ParallelDispatcher::flush(SemanticEdgeSystem::PairDone on_done) {
  if (queue_.empty()) return 0;
  // The only wave precondition enqueue cannot vouch for; check it while
  // the queue is still intact so a bad call cannot lose queued work.
  SEMCACHE_CHECK(on_done != nullptr, "dispatcher: flush with null completion");
  // Take the queue first: whatever the wave or a completion throws, the
  // dispatcher is left empty and the next flush serves only what is
  // enqueued after this one.
  std::vector<SemanticEdgeSystem::PairBatch> wave = std::exchange(queue_, {});
  const std::size_t pairs = wave.size();
  const std::size_t ordinal = waves_++;
  if (sharded_ != nullptr) {
    flush_sharded(std::move(wave), ordinal, on_done);
  } else {
    system_->transmit_pairs(wave, std::move(on_done));
  }
  return pairs;
}

void ParallelDispatcher::flush_sharded(
    std::vector<SemanticEdgeSystem::PairBatch> wave, std::size_t ordinal,
    const SemanticEdgeSystem::PairDone& on_done) {
  const std::size_t num_shards = sharded_->num_shards();

  // Pin every batch's channel-noise base from the deployment-wide counter
  // in first-enqueue order — the coordinate that makes K independent
  // shards consume exactly the noise streams the single-system reference
  // would for this queue — and partition by owning shard, remembering
  // each batch's global pair index (its first-enqueue position — what
  // on_done reports).
  std::vector<std::vector<SemanticEdgeSystem::PairBatch>> shard_waves(
      num_shards);
  std::vector<std::vector<std::size_t>> global_pair(num_shards);
  for (std::size_t p = 0; p < wave.size(); ++p) {
    wave[p].noise_base = sharded_->claim_noise_bases(wave[p].messages.size());
    const std::size_t s = sharded_->shard_of(wave[p].sender);
    shard_waves[s].push_back(std::move(wave[p]));
    global_pair[s].push_back(p);
  }

  // Injected stall: the coin is keyed by (shard, wave ordinal), so a
  // given deployment stalls the same shards on the same waves no matter
  // the thread count. A stalled shard's thread is never spawned — its
  // wave "times out" and is served degraded below. The fault config is
  // replicated across shards; shard 0 always exists.
  const FaultPlane& fault_plane = sharded_->shard(0).fault_plane();
  std::vector<std::uint8_t> degraded(num_shards, 0);
  if (fault_plane.config().shard_stall > 0.0) {
    for (std::size_t s = 0; s < num_shards; ++s) {
      if (!shard_waves[s].empty() && fault_plane.stall_shard(s, ordinal)) {
        degraded[s] = 1;
      }
    }
  }

  // Completions buffer per shard, healthy or degraded alike, and are
  // delivered after every shard is done.
  struct Completion {
    std::size_t pair;
    std::size_t index;
    TransmitReport report;
  };
  std::vector<std::vector<Completion>> collected(num_shards);
  const auto collector = [&](std::size_t s) -> SemanticEdgeSystem::PairDone {
    return [&globals = global_pair[s], &out = collected[s]](
               std::size_t pair, std::size_t index, TransmitReport report) {
      out.push_back({globals[pair], index, std::move(report)});
    };
  };

  // Fan the busy shards out, one thread per shard: each serves its wave
  // (the shard's own pool parallelizes across ITS pairs — the dispatcher
  // thread is not a pool worker, so shard-internal fan-out stays live)
  // and drains its simulator so delivery chains complete. Every
  // data-plane hop in that drain is a plain Link::send on the shard's own
  // event loop. Everything shard threads touch is shard-owned, so the
  // threads share nothing.
  std::vector<std::exception_ptr> errors(num_shards);
  std::vector<std::thread> threads;
  for (std::size_t s = 0; s < num_shards; ++s) {
    if (shard_waves[s].empty() || degraded[s]) continue;
    threads.emplace_back([this, s, &shard_waves, &collector, &errors] {
      try {
        SemanticEdgeSystem& shard = sharded_->shard(s);
        shard.transmit_pairs(shard_waves[s], collector(s));
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

  // Graceful degradation: re-serve every stalled/failed shard's wave, as
  // one wave, from its FROZEN general models on the calling thread (the
  // shard's pool still runs its lanes). The wave was read in place, so it
  // is intact. State on the shard is left alone (no slots, no buffers, no
  // syncs); reports come back flagged `degraded`.
  for (std::size_t s = 0; s < num_shards; ++s) {
    if (!degraded[s]) continue;
    common::log_once("shard-degraded",
                     "sharded flush: shard stalled; serving its pairs "
                     "degraded from the frozen general models (see "
                     "SystemStats::degraded_serves)");
    SemanticEdgeSystem& shard = sharded_->shard(s);
    shard.serve_degraded(shard_waves[s], collector(s));
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
}

std::size_t ParallelDispatcher::queued_messages() const {
  std::size_t n = 0;
  for (const auto& batch : queue_) n += batch.messages.size();
  return n;
}

}  // namespace semcache::core
