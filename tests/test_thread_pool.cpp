// common::ThreadPool contract tests: full index coverage, determinism of
// results across worker counts (the property the threaded data plane's
// bit-identity rests on), index-ordered commit equivalence, lowest-index
// exception propagation, nested-call rejection, the caller's share of a
// fan-out, and the inline fallback.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <latch>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"

namespace semcache::common {
namespace {

/// An arbitrary index-determined value: if every worker-count produces the
/// same vector, scheduling never leaked into the results.
std::uint64_t value_for(std::size_t i) {
  std::uint64_t s = 0x9E3779B97F4A7C15ULL * (i + 1);
  return splitmix64(s);
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.worker_count(), 4u);
  const std::size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for(n, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ResultsBitIdenticalAcrossWorkerCounts) {
  // Disjoint-writes bodies must produce the same output vector for any
  // worker count, including the 0-worker inline pool; and an index-ordered
  // reduction AFTER the join (the "commit in index order" discipline the
  // pipeline stats use) must equal the plain sequential reduction.
  const std::size_t n = 257;  // not a multiple of any worker count
  std::vector<std::uint64_t> reference(n);
  for (std::size_t i = 0; i < n; ++i) reference[i] = value_for(i);
  const std::uint64_t reference_sum =
      std::accumulate(reference.begin(), reference.end(), std::uint64_t{0});

  for (const std::size_t workers : {0u, 1u, 2u, 4u, 7u}) {
    ThreadPool pool(workers);
    std::vector<std::uint64_t> out(n, 0);
    pool.parallel_for(n, [&](std::size_t i) { out[i] = value_for(i); });
    EXPECT_EQ(out, reference) << workers << " workers";
    std::uint64_t committed = 0;
    for (std::size_t i = 0; i < n; ++i) committed += out[i];
    EXPECT_EQ(committed, reference_sum) << workers << " workers";
  }
}

TEST(ThreadPool, CallerRunsOneBody) {
  // N bodies that each wait until all N run need N threads at once: the
  // N - 1 spawned workers and the caller, which takes its share before it
  // waits. So the N bodies ran on N distinct threads, the caller among
  // them.
  constexpr std::size_t kWorkers = 4;
  ThreadPool pool(kWorkers);
  const std::thread::id caller = std::this_thread::get_id();
  std::latch all_running(kWorkers);
  std::vector<std::thread::id> ran_on(kWorkers);
  pool.parallel_for(kWorkers, [&](std::size_t i) {
    ran_on[i] = std::this_thread::get_id();
    all_running.arrive_and_wait();
  });
  EXPECT_EQ(std::count(ran_on.begin(), ran_on.end(), caller), 1);
  std::sort(ran_on.begin(), ran_on.end());
  EXPECT_EQ(std::unique(ran_on.begin(), ran_on.end()), ran_on.end());
  EXPECT_FALSE(ThreadPool::on_worker_thread());
}

TEST(ThreadPool, InlineFallbackRunsOnCallerThread) {
  // 0 workers: no threads exist, so the body must run on the caller —
  // the num_threads = 0 "compiles out to sequential" path.
  ThreadPool pool(0);
  EXPECT_EQ(pool.worker_count(), 0u);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on(16);
  pool.parallel_for(ran_on.size(), [&](std::size_t i) {
    ran_on[i] = std::this_thread::get_id();
  });
  for (const auto& id : ran_on) EXPECT_EQ(id, caller);
}

TEST(ThreadPool, SingleIndexRunsInlineEvenWithWorkers) {
  // count <= 1 short-circuits to the caller: a one-message chunk must not
  // pay a pool round trip.
  ThreadPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on;
  pool.parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ran_on = std::this_thread::get_id();
  });
  EXPECT_EQ(ran_on, caller);
  pool.parallel_for(0, [&](std::size_t) { FAIL(); });
}

TEST(ThreadPool, LowestIndexExceptionWinsAndPoolSurvives) {
  ThreadPool pool(4);
  const std::size_t n = 64;
  for (int round = 0; round < 3; ++round) {  // pool stays usable after throws
    std::vector<std::atomic<int>> ran(n);
    try {
      pool.parallel_for(n, [&](std::size_t i) {
        ran[i].fetch_add(1, std::memory_order_relaxed);
        if (i == 7 || i == 3 || i == 50) {
          throw std::runtime_error("index " + std::to_string(i));
        }
      });
      FAIL() << "parallel_for swallowed the exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "index 3");  // lowest index, any scheduling
    }
    // No short-circuit: every index still ran, so side-effect-free bodies
    // leave deterministic state even on the error path.
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(ran[i].load(), 1);
  }
  std::atomic<int> after{0};
  pool.parallel_for(8, [&](std::size_t) { ++after; });
  EXPECT_EQ(after.load(), 8);
}

TEST(ThreadPool, NestedFanOutFromWorkerIsRejected) {
  ThreadPool outer(2);
  ThreadPool inner(2);
  std::atomic<int> rejected{0};
  outer.parallel_for(8, [&](std::size_t) {
    EXPECT_TRUE(ThreadPool::on_worker_thread());
    try {
      inner.parallel_for(4, [](std::size_t) {});
    } catch (const Error&) {
      rejected.fetch_add(1, std::memory_order_relaxed);
    }
  });
  EXPECT_EQ(rejected.load(), 8);  // every body's nested attempt threw
  EXPECT_FALSE(ThreadPool::on_worker_thread());
  // A top-level call on the inner pool still works afterwards.
  std::atomic<int> ok{0};
  inner.parallel_for(4, [&](std::size_t) { ++ok; });
  EXPECT_EQ(ok.load(), 4);
}

TEST(ThreadPool, ResolveThreadCountEnvOverridesDefaultOnly) {
  ASSERT_EQ(unsetenv("SEMCACHE_THREADS"), 0);
  EXPECT_EQ(resolve_thread_count(0), 0u);
  EXPECT_EQ(resolve_thread_count(3), 3u);
  ASSERT_EQ(setenv("SEMCACHE_THREADS", "4", 1), 0);
  EXPECT_EQ(resolve_thread_count(0), 4u);   // env fills in the default
  EXPECT_EQ(resolve_thread_count(2), 2u);   // explicit config wins
  ASSERT_EQ(setenv("SEMCACHE_THREADS", "garbage", 1), 0);
  EXPECT_EQ(resolve_thread_count(0), 0u);   // unparseable: ignored
  ASSERT_EQ(setenv("SEMCACHE_THREADS", "", 1), 0);
  EXPECT_EQ(resolve_thread_count(0), 0u);
  // strtoul would sign-wrap "-1" to 2^64-1; digits-only parsing must
  // reject it (and absurd counts) instead of spawning a thread herd.
  ASSERT_EQ(setenv("SEMCACHE_THREADS", "-1", 1), 0);
  EXPECT_EQ(resolve_thread_count(0), 0u);
  ASSERT_EQ(setenv("SEMCACHE_THREADS", "100000", 1), 0);
  EXPECT_EQ(resolve_thread_count(0), 0u);  // > kMaxEnvThreads: ignored
  ASSERT_EQ(setenv("SEMCACHE_THREADS",
                   std::to_string(kMaxEnvThreads).c_str(), 1), 0);
  EXPECT_EQ(resolve_thread_count(0), kMaxEnvThreads);
  ASSERT_EQ(unsetenv("SEMCACHE_THREADS"), 0);
}

}  // namespace
}  // namespace semcache::common
