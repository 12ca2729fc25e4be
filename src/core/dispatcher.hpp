// ParallelDispatcher — the front door for cross-pair parallel serving.
//
// The paper's data plane serves many independent user pairs per edge
// (Fig. 1); the dispatcher collects their ready-to-serve transmissions and
// hands them to the system as ONE wave, so pairs with distinct senders run
// their data planes concurrently on the system's lane workers while
// everything they share (selector, LRU caches, stats, the event loop)
// keeps its sequential order. enqueue() accumulates pair batches (merged
// per (sender, receiver) pair); flush() serves them immediately as one
// SemanticEdgeSystem::transmit_pairs wave.
//
// Constructed over a ShardedEdgeServing instead of a single system, the
// same front door scales OUT: enqueue routes each pair to
// shard_of(sender) (stable hash ownership), flush pins every batch's
// channel-noise base from the deployment-wide counter in first-enqueue
// order, fans the per-shard waves out concurrently (one thread per busy
// shard, each running its shard's transmit_pairs AND draining its shard's
// simulator), and delivers the merged completions on the calling thread
// in (global pair, message) order. A sharded flush is therefore
// synchronous-complete: when it returns, every delivery chain has run —
// there is no single simulator left for the caller to drive. A stalled or
// failed shard's wave is re-served as one serve_degraded wave, the same
// pair wave over the frozen general models, and its completions join the
// same merge.
//
// Determinism: a flush inherits transmit_pairs' contract — results are
// byte-identical to num_threads = 0 for any worker count, and to serving
// the pairs one at a time as one-pair waves in order. The sharded front
// door extends it across deployments: for the same enqueue stream, every
// K and every thread count produce byte-identical reports, weights, and
// merged stats (latency too once pairs do not contend across shards; see
// sharded.hpp). test_sharded pins the matrix.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/sharded.hpp"
#include "core/system.hpp"

namespace semcache::core {

class ParallelDispatcher {
 public:
  explicit ParallelDispatcher(SemanticEdgeSystem& system)
      : system_(&system) {}
  /// Sharded front door: route by sender hash, fan out per shard, merge.
  explicit ParallelDispatcher(ShardedEdgeServing& sharded)
      : sharded_(&sharded) {}
  ParallelDispatcher(const ParallelDispatcher&) = delete;
  ParallelDispatcher& operator=(const ParallelDispatcher&) = delete;

  /// Queue messages for (sender, receiver). Repeated enqueues for the
  /// same pair append to its batch (one pair, one lane, one completion
  /// index); the pair's index in the flush wave is its first-enqueue
  /// position.
  void enqueue(const std::string& sender, const std::string& receiver,
               std::vector<text::Sentence> messages);

  /// Serve everything queued as one cross-pair wave. The queue is taken
  /// before serving, so it is empty afterwards even when the wave or a
  /// completion throws. Single-system mode: one transmit_pairs wave;
  /// `on_done(pair, index, report)` fires per message as its delivery
  /// chain completes (drive system.simulator() to run the chains).
  /// Sharded mode: per-shard waves fan out concurrently, every shard's
  /// simulator is drained before returning, and on_done fires on THIS
  /// thread in (pair, index) order — no further driving needed. Returns
  /// the number of pairs served; a no-op returning 0 when nothing is
  /// queued.
  std::size_t flush(SemanticEdgeSystem::PairDone on_done);

  std::size_t queued_pairs() const { return queue_.size(); }
  std::size_t queued_messages() const;
  /// Waves served through flush() so far. A sharded flush counts as ONE
  /// wave however many shards it fanned out to.
  std::size_t waves_served() const { return waves_; }

 private:
  /// Serve `wave` across the shards; `ordinal` keys the stall coins.
  void flush_sharded(std::vector<SemanticEdgeSystem::PairBatch> wave,
                     std::size_t ordinal,
                     const SemanticEdgeSystem::PairDone& on_done);

  SemanticEdgeSystem* system_ = nullptr;    ///< single-system mode
  ShardedEdgeServing* sharded_ = nullptr;   ///< sharded mode (XOR system_)
  std::vector<SemanticEdgeSystem::PairBatch> queue_;
  std::size_t waves_ = 0;
};

}  // namespace semcache::core
