// Randomized equivalence fuzz: edge::Simulator against an independent
// reference event queue (std::priority_queue ordered by (time, seq)).
// Random schedules of ordinary events mix duplicate timestamps,
// sub-microsecond spacings, times from 0 to past 5e12 s, re-entrant
// scheduling from handlers, and run_until boundaries including the
// past-target clamp — asserting identical execution order (the full
// trace) and identical processed()/pending() counts at every checkpoint.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <queue>
#include <random>
#include <vector>

#include "common/rng.hpp"
#include "edge/sim.hpp"
#include "test_util.hpp"

namespace semcache {
namespace {

// The reference event queue: a non-destructive priority_queue top (events
// COPY out), (t, seq) ordering — the contract spelled a second way.
class ReferenceSimulator {
 public:
  using Handler = std::function<void()>;

  double now() const { return now_; }

  void schedule_at(double t, Handler fn) {
    Event ev;
    ev.t = t;
    ev.seq = next_seq_++;
    ev.fn = std::move(fn);
    queue_.push(std::move(ev));
  }

  void schedule_after(double dt, Handler fn) {
    schedule_at(now_ + dt, std::move(fn));
  }

  void run() {
    while (step()) {
    }
  }

  void run_until(double t) {
    while (!queue_.empty() && queue_.top().t <= t) step();
    if (t > now_) now_ = t;
  }

  bool step() {
    if (queue_.empty()) return false;
    Event ev = queue_.top();
    queue_.pop();
    now_ = ev.t;
    ++processed_;
    ev.fn();
    return true;
  }

  std::size_t processed() const { return processed_; }
  std::size_t pending() const { return queue_.size(); }

 private:
  struct Event {
    double t;
    std::uint64_t seq;
    Handler fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return a.t != b.t ? a.t > b.t : a.seq > b.seq;
    }
  };

  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::size_t processed_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
};

struct Entry {
  char tag;  // 'o' event, 'C' processed / 'P' pending checkpoint
  long long id;
  double at;
  bool operator==(const Entry&) const = default;
};

// Drives one random program against either simulator and returns the full
// trace. All child-spawn decisions derive from splitmix64 of the PARENT
// EVENT ID (not a shared stream), so the decisions are a pure function of
// the event — any order divergence between the two simulators surfaces as
// a trace mismatch instead of silently re-synchronizing.
template <typename Sim>
class Driver {
 public:
  std::vector<Entry> drive(std::uint64_t seed) {
    seed_ = seed;
    std::mt19937_64 rng(seed);
    for (int i = 0; i < 40; ++i) {
      const std::uint64_t r = rng();
      schedule_op(i, root_time(r), 0);
    }
    checkpoint();
    sim_.run_until(0.5e-3);
    checkpoint();
    sim_.run_until(0.2e-3);  // past target: clamp, nothing may run or move
    checkpoint();
    sim_.run_until(2.0);
    checkpoint();
    for (int i = 100; i < 108; ++i) {  // late arrivals, relative to now
      const std::uint64_t r = rng();
      schedule_op(i, sim_.now() + root_time(r), 0);
    }
    sim_.run_until(1.5);  // past target again, now with a repopulated queue
    checkpoint();
    sim_.run();
    checkpoint();
    return std::move(trace_);
  }

 private:
  static double root_time(std::uint64_t r) {
    const std::uint64_t v = (r >> 8) % 5;
    switch (r % 7) {
      case 0:  // sub-microsecond spacings just after t = 0
        return static_cast<double>(v) * 1e-7;
      case 1:  // duplicate-heavy msec grid
        return static_cast<double>(v) * 1e-3;
      case 2:  // one shared instant
        return 0.25e-3;
      case 3:  // far future, 1e9 s: long jumps of the clock
        return 1e9 + static_cast<double>(v);
      case 4:  // 5e12 s and up, where adjacent doubles are ~1 ms apart
        return 5e12 + static_cast<double>(v) * 1e11;
      case 5:  // 63 us + k * 64 us: parents whose 27 us children (below)
               // land behind roots queued in between
        return 63e-6 + static_cast<double>(v) * 64e-6;
      default:
        return static_cast<double>(v) * 0.37e-4;
    }
  }

  void schedule_op(long long id, double t, int depth) {
    sim_.schedule_at(t, [this, id, depth] {
      trace_.push_back({'o', id, sim_.now()});
      spawn_children(id, depth);
    });
  }

  void spawn_children(long long parent, int depth) {
    if (depth >= 2) return;
    std::uint64_t s =
        seed_ ^ (0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(parent + 1));
    const int n = static_cast<int>(splitmix64(s) % 3);
    for (int c = 0; c < n; ++c) {
      const std::uint64_t r = splitmix64(s);
      // 27e-6 from a case-5 parent schedules a child behind older roots
      // already queued between the two (case 6's 74 us and 148 us): a
      // re-entrant event must not overtake queued work.
      static constexpr double kDts[] = {0.0,  1e-7, 2.5e-7, 27e-6,
                                        1e-3, 0.05, 1.0};
      const long long id = next_child_++;
      schedule_op(id, sim_.now() + kDts[r % 7], depth + 1);
    }
  }

  void checkpoint() {
    trace_.push_back(
        {'C', static_cast<long long>(sim_.processed()), sim_.now()});
    trace_.push_back(
        {'P', static_cast<long long>(sim_.pending()), sim_.now()});
  }

  Sim sim_;
  std::vector<Entry> trace_;
  std::uint64_t seed_ = 0;
  long long next_child_ = 1000000;
};

TEST(SimWheelFuzz, MatchesHeapReferenceAcrossSeeds) {
  // Nightly CI rotates the base (SEMCACHE_FUZZ_SEED_BASE = UTC date) so
  // the differential fuzz walks a fresh seed window every night; the base
  // is echoed into the log for reproduction.
  const std::uint64_t base = test::fuzz_seed_base();
  for (std::uint64_t seed = base + 1; seed <= base + 50; ++seed) {
    const auto wheel = Driver<edge::Simulator>{}.drive(seed);
    const auto heap = Driver<ReferenceSimulator>{}.drive(seed);
    ASSERT_EQ(wheel.size(), heap.size()) << "seed " << seed;
    for (std::size_t i = 0; i < wheel.size(); ++i) {
      ASSERT_TRUE(wheel[i] == heap[i])
          << "seed " << seed << " diverges at trace index " << i << ": wheel {"
          << wheel[i].tag << " " << wheel[i].id << " @" << wheel[i].at
          << "} vs heap {" << heap[i].tag << " " << heap[i].id << " @"
          << heap[i].at << "}";
    }
  }
}

// The simulator must also be exactly self-consistent under a dense
// many-timer load, 60x the largest pending set any workload reaches: 20k
// timers at random times over 11 orders of magnitude execute in
// nondecreasing time order with ties in scheduling order, and every one
// runs exactly once.
TEST(SimWheelFuzz, DenseRandomScheduleRunsInOrder) {
  edge::Simulator sim;
  std::mt19937_64 rng(7);
  const int n = 20000;
  std::vector<double> times(n);
  for (int i = 0; i < n; ++i) {
    const std::uint64_t r = rng();
    const double mag = static_cast<double>(r % 12);  // 1e-6 .. 1e5 seconds
    times[i] = static_cast<double>((r >> 8) % 1000) * 1e-9 *
               std::pow(10.0, mag);
  }
  std::vector<int> order;
  order.reserve(n);
  for (int i = 0; i < n; ++i) {
    sim.schedule_at(times[i], [&order, i] { order.push_back(i); });
  }
  sim.run();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(n));
  ASSERT_EQ(sim.processed(), static_cast<std::size_t>(n));
  ASSERT_EQ(sim.pending(), 0u);
  for (int k = 1; k < n; ++k) {
    const int a = order[k - 1];
    const int b = order[k];
    ASSERT_TRUE(times[a] < times[b] || (times[a] == times[b] && a < b))
        << "out of order at position " << k;
  }
}

// A handler (X at 63.5 us) schedules B at 90 us while A, scheduled
// earlier, waits at 74 us: the re-entrant B must run after A, not ahead
// of it. Handler-driven rescheduling is exactly Link's delivery-chain
// shape, so this ordering is load-bearing, not a corner case.
TEST(SimWheelFuzz, CarryIntoOccupiedHigherSlotCascadesBeforeLevel0) {
  edge::Simulator sim;
  std::vector<char> order;
  sim.schedule_at(74e-6, [&] { order.push_back('A'); });
  sim.schedule_at(63.5e-6, [&] {
    order.push_back('X');
    sim.schedule_at(90e-6, [&] { order.push_back('B'); });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<char>{'X', 'A', 'B'}));
  EXPECT_EQ(sim.processed(), 3u);
  EXPECT_EQ(sim.pending(), 0u);
}

}  // namespace
}  // namespace semcache
