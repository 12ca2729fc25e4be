// Deterministic discrete-event simulation core.
//
// Events are ordered by (time, insertion sequence), so two events at the
// same timestamp execute in scheduling order — simulations are bit-for-bit
// reproducible run to run.
//
// The queue is a binary min-heap in one vector. The largest pending set
// any workload or bench reaches is a few hundred events (README "Event
// loop"), where the heap's O(log n) sift is a handful of moves. Each event
// is moved out of the heap and popped before its handler runs, so a
// handler may schedule re-entrantly, at its own time included.
//
// The loop is single-threaded: every handler runs on the thread that
// drives run()/step(). Work that fans out (a pair wave's sender lanes)
// does so inside one handler and joins before it returns.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace semcache::edge {

/// Simulated seconds.
using SimTime = double;

class Simulator {
 public:
  using Handler = std::function<void()>;

  SimTime now() const { return now_; }

  /// Schedule a handler at an absolute time >= now.
  void schedule_at(SimTime t, Handler fn);
  /// Schedule a handler `dt >= 0` seconds from now.
  void schedule_after(SimTime dt, Handler fn);

  /// Run until the event queue drains.
  void run();
  /// Run events with time <= t, then advance now to t. A target in the
  /// past is clamped: time never moves backwards and no event is lost.
  void run_until(SimTime t);
  /// Execute only the next event (test hook); returns false when empty.
  bool step();

  std::size_t processed() const { return processed_; }
  std::size_t pending() const { return heap_.size(); }

 private:
  struct Event {
    SimTime t;
    std::uint64_t seq;
    Handler fn;
  };

  /// Heap order: `a` runs after `b`, so the heap's front is the earliest.
  static bool later(const Event& a, const Event& b) {
    return a.t != b.t ? a.t > b.t : a.seq > b.seq;
  }

  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::size_t processed_ = 0;
  std::vector<Event> heap_;  ///< std::push_heap / std::pop_heap on later()
};

}  // namespace semcache::edge
