#include "common/thread_pool.hpp"

#include <cstdlib>

#include "common/check.hpp"

namespace semcache::common {

namespace {
/// Set while a thread executes job bodies as a pool worker (the caller's
/// share included); parallel_for consults it to reject nested fan-out from
/// any pool.
thread_local bool tl_on_worker = false;
}  // namespace

bool ThreadPool::on_worker_thread() { return tl_on_worker; }

ThreadPool::ThreadPool(std::size_t workers) : workers_(workers) {
  // The thread that calls parallel_for is the remaining worker.
  if (workers > 1) threads_.reserve(workers - 1);
  for (std::size_t w = 1; w < workers; ++w) {
    threads_.emplace_back([this] { worker_main(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::run_job(Job& job) {
  for (;;) {
    std::size_t index;
    {
      std::lock_guard<std::mutex> lk(job.next_mu);
      if (job.next >= job.count) return;
      index = job.next++;
    }
    try {
      (*job.body)(index);
    } catch (...) {
      std::lock_guard<std::mutex> lk(job.next_mu);
      job.errors[index] = std::current_exception();
    }
    bool last;
    {
      std::lock_guard<std::mutex> lk(job.next_mu);
      last = (++job.completed == job.count);
    }
    if (last) {
      std::lock_guard<std::mutex> lk(job.done_mu);
      job.done = true;
      job.done_cv.notify_all();
    }
  }
}

void ThreadPool::worker_main() {
  std::uint64_t seen_generation = 0;
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [&] { return stop_ || generation_ != seen_generation; });
      if (stop_) return;
      seen_generation = generation_;
      job = job_;
    }
    tl_on_worker = true;
    run_job(*job);
    tl_on_worker = false;
  }
}

void ThreadPool::parallel_for(std::size_t count, const Body& body) {
  SEMCACHE_CHECK(!tl_on_worker,
                 "parallel_for: nested fan-out from a pool worker is not "
                 "supported (restructure so only the calling thread fans out)");
  if (count == 0) return;
  if (workers_ == 0 || count == 1) {
    // Inline mode: same results by the disjoint-writes contract; exceptions
    // propagate from the lowest throwing index exactly as on a pool (later
    // indices do not run, but a throwing fan-out yields no results either
    // way).
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }

  auto job = std::make_shared<Job>(body, count);
  if (!threads_.empty()) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      job_ = job;
      ++generation_;
    }
    cv_.notify_all();
  }
  // The caller's share. run_job keeps body exceptions in the job, so the
  // flag is always cleared before the wait.
  tl_on_worker = true;
  run_job(*job);
  tl_on_worker = false;
  {
    std::unique_lock<std::mutex> lk(job->done_mu);
    job->done_cv.wait(lk, [&] { return job->done; });
  }
  // Lowest-index exception wins — deterministic, and the same error a
  // sequential loop over the indices would have surfaced first.
  for (const std::exception_ptr& e : job->errors) {
    if (e) std::rethrow_exception(e);
  }
}

std::size_t resolve_thread_count(std::size_t configured) {
  if (configured != 0) return configured;
  const char* env = std::getenv("SEMCACHE_THREADS");
  if (env == nullptr || *env == '\0') return configured;
  // Digits only: strtoul would happily sign-wrap "-1" to 2^64-1, and a
  // typo'd huge count would try to spawn that many real threads — both
  // are garbage to ignore, like any other unparseable value.
  for (const char* p = env; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return configured;
  }
  char* end = nullptr;
  const unsigned long value = std::strtoul(env, &end, 10);
  if (end == env || *end != '\0' || value > kMaxEnvThreads) return configured;
  return static_cast<std::size_t>(value);
}

}  // namespace semcache::common
