// Deterministic worker pool for the pair wave's sender lanes.
//
// parallel_for(count, body) fans body(index) out over a fixed set of
// worker threads and blocks until every index has run. A pool of N workers
// spawns N - 1 threads: the calling thread takes indices like any other
// worker before it waits, so a fan-out pays one hand-off fewer and a
// one-worker pool spawns nothing. The determinism contract that lets the
// threaded serving paths stay bit-identical to the sequential ones:
//
//  * body(i) may write only state owned by index i (its own output slot)
//    and thread-local scratch; everything else it reads stays unwritten
//    for the whole fan-out. Because output slots are disjoint, the
//    computed values are independent of scheduling and of the worker
//    count.
//  * Anything order-sensitive — stats accumulation, buffer mutation, RNG
//    stream consumption from a shared generator — happens on the calling
//    thread, either before the fan-out (e.g. forking one Rng per index in
//    index order) or after parallel_for returns (committing per-index
//    results in ascending index order).
//
// Exceptions thrown by body are captured per index; after the join the
// LOWEST-index exception is rethrown on the caller, matching what a
// sequential loop would have thrown first (later indices still run — the
// pool never short-circuits, so side-effect-free bodies stay deterministic
// even on the error path). Calling parallel_for from inside a pool worker
// (any pool, the caller running its own share included) throws instead of
// deadlocking.
//
// A pool built with zero workers spawns no threads: parallel_for degrades
// to an inline caller-thread loop, bit-identical to the threaded execution
// by the contract above. SystemConfig::num_threads = 0 rides this path, so
// the default build never touches std::thread.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace semcache::common {

class ThreadPool {
 public:
  using Body = std::function<void(std::size_t index)>;

  /// `workers` lanes: the caller plus workers - 1 spawned threads; 0 =
  /// inline mode (no threads, see above).
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t worker_count() const { return workers_; }

  /// Run body for every index in [0, count); returns after all complete.
  /// count <= 1 and worker_count() == 0 execute inline on the caller.
  void parallel_for(std::size_t count, const Body& body);

  /// True while the calling thread executes a fanned-out body as a pool
  /// worker, the caller's share included (the state parallel_for uses to
  /// reject nested fan-out).
  static bool on_worker_thread();

 private:
  /// One fan-out's shared state. Heap-anchored behind a shared_ptr so a
  /// worker that wakes late (after the caller already returned) still reads
  /// valid memory, finds no index left, and goes back to sleep. `body` is
  /// the caller's: only a worker that claimed an index calls it, and the
  /// caller waits for every claimed index to complete.
  struct Job {
    Job(const Body& b, std::size_t n) : body(&b), count(n) { errors.resize(n); }
    const Body* body;
    std::size_t count;
    std::mutex next_mu;            // index dispatch + error store
    std::size_t next = 0;
    std::size_t completed = 0;
    std::vector<std::exception_ptr> errors;
    std::mutex done_mu;
    std::condition_variable done_cv;
    bool done = false;
  };

  void worker_main();
  static void run_job(Job& job);

  std::size_t workers_;
  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::shared_ptr<Job> job_;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
};

/// Largest worker count resolve_thread_count accepts from the
/// environment; anything above it (or non-numeric, including negatives)
/// is ignored as garbage rather than spawning a runaway thread herd.
/// SemanticEdgeSystem::build refuses an explicit num_threads above it.
inline constexpr std::size_t kMaxEnvThreads = 256;

/// Resolve the effective worker count: when `configured` is 0 (the
/// sequential default) and the SEMCACHE_THREADS environment variable holds
/// a plain decimal integer in [0, kMaxEnvThreads], the env value wins —
/// benches and the sanitizer CI jobs use it to thread default-configured
/// systems without code changes. An explicit non-zero `configured` always
/// wins over the environment; unparseable env values are ignored.
std::size_t resolve_thread_count(std::size_t configured);

}  // namespace semcache::common
