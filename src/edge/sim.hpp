// Deterministic discrete-event simulation core.
//
// Events are ordered by (time, insertion sequence), so two events at the
// same timestamp execute in scheduling order — simulations are bit-for-bit
// reproducible run to run.
//
// Queue structure: a hierarchical timing wheel (kLevels levels of kSlots
// slots over a kTickSeconds quantum), the classic O(1)-amortized timer
// structure (osmocom's sched_gsmtime frame scheduler is the shape), chosen
// over a binary heap because city-scale topologies carry millions of
// concurrent timers — delivery chains, sync backoff ladders, flap
// schedules — and the heap's O(log n) sift (which COPIES std::function
// closures on every pop; priority_queue has no destructive top) dominated
// the serving profile (BM_SimulatorEventLoop/{1000,100000} pins the
// near-flat per-event cost).
//
//  * schedule: the event's quantized tick is radix-bucketed against the
//    wheel cursor — level = highest differing kSlotBits group, O(1).
//  * pop: per-level occupancy bitmaps skip empty slots with bit scans;
//    entering a higher-level slot cascades its events one level down
//    (each event cascades at most kLevels times — O(1) amortized). A
//    drained level-0 slot becomes the sorted READY RUN; events are MOVED
//    out, never copied.
//  * determinism: one level-0 slot holds exactly one tick; sorting the
//    ready run by (time, seq) reproduces the heap's total order exactly.
//    Quantization is a bucketing choice only — it never reorders events.
//  * horizon: events beyond the top level's reach (and times too large to
//    tick at all) wait in an overflow far list; when the wheels drain,
//    the cursor jumps to the far list's earliest tick and the newly
//    in-horizon events migrate in.
//
// The loop is single-threaded: every handler runs on the thread that
// drives run()/step(). Work that fans out (a pair wave's sender lanes)
// does so inside one handler and joins before it returns.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

namespace semcache::edge {

/// Simulated seconds.
using SimTime = double;

class Simulator {
 public:
  using Handler = std::function<void()>;

  /// Timing-wheel quantum in simulated seconds. A bucketing granularity
  /// only: event ORDER is always the exact (time, seq) contract, whatever
  /// the quantum; it merely sets how far apart two timers must be to land
  /// in different wheel slots.
  static constexpr SimTime kTickSeconds = 1e-6;

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
  std::size_t pending() const { return size_; }

 private:
  struct Event {
    SimTime t;
    std::uint64_t seq;
    Handler fn;
  };

  static constexpr int kSlotBits = 6;
  static constexpr std::size_t kSlots = 64;  // 1u << kSlotBits
  static constexpr int kLevels = 8;
  /// Ticks at/above 2^62 (and times whose tick overflows the double ->
  /// uint64 conversion) clamp into one far bucket; the exact (t, seq)
  /// sort on drain keeps even those ordered correctly.
  static constexpr std::uint64_t kClampTick = std::uint64_t{1} << 62;

  static bool earlier(const Event& a, const Event& b) {
    return a.t != b.t ? a.t < b.t : a.seq < b.seq;
  }

  std::uint64_t tick_of(SimTime t) const;
  void push_event(Event ev);
  void wheel_insert(Event ev, std::uint64_t tk);
  /// Ensure the ready run holds the next pending tick's events (sorted by
  /// (t, seq)); false when no events remain anywhere.
  bool fill_ready();

  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::size_t processed_ = 0;
  std::size_t size_ = 0;  ///< pending events, wherever they live

  /// Next tick the wheel scan has not yet swept. Every pending event with
  /// tick < cursor_ lives in ready_; everything else in wheel_ or far_.
  std::uint64_t cursor_ = 0;
  std::array<std::array<std::vector<Event>, kSlots>, kLevels> wheel_;
  std::array<std::uint64_t, kLevels> occupied_{};  ///< per-level slot bitmaps
  std::vector<Event> far_;  ///< out-of-horizon overflow, unordered
  /// Minimum tick on the far list (~0 when empty). Invariant: strictly
  /// greater than every wheel tick — push_event routes anything at/after
  /// it to far_, so a horizon reseed can never move the cursor backwards.
  std::uint64_t far_min_tick_ = ~std::uint64_t{0};

  /// The drained current tick, sorted by (t, seq), consumed from
  /// ready_head_. Re-entrant scheduling into an already-swept tick
  /// splices here, keeping the exact global order.
  std::vector<Event> ready_;
  std::size_t ready_head_ = 0;
};

}  // namespace semcache::edge
