#include "edge/sim.hpp"

#include <algorithm>
#include <bit>

#include "common/check.hpp"

namespace semcache::edge {

namespace {

// Highest differing kSlotBits-group between a tick and the cursor — the
// wheel level the tick belongs to. 0 when equal; may be >= kLevels (out
// of horizon), callers decide.
int level_of(std::uint64_t tick, std::uint64_t cursor) {
  const std::uint64_t x = tick ^ cursor;
  if (x == 0) return 0;
  return (63 - std::countl_zero(x)) / 6;
}

}  // namespace

void Simulator::schedule_at(SimTime t, Handler fn) {
  SEMCACHE_CHECK(t >= now_, "Simulator: cannot schedule in the past");
  SEMCACHE_CHECK(fn != nullptr, "Simulator: null handler");
  Event ev;
  ev.t = t;
  ev.seq = next_seq_++;
  ev.fn = std::move(fn);
  push_event(std::move(ev));
}

void Simulator::schedule_after(SimTime dt, Handler fn) {
  SEMCACHE_CHECK(dt >= 0.0, "Simulator: negative delay");
  schedule_at(now_ + dt, std::move(fn));
}

std::uint64_t Simulator::tick_of(SimTime t) const {
  // t >= 0 by the schedule checks; !(x < y) also routes inf (and any
  // value the uint64 conversion couldn't represent) into the clamp.
  const double ticks = t / kTickSeconds;
  if (!(ticks < static_cast<double>(kClampTick))) return kClampTick;
  return static_cast<std::uint64_t>(ticks);
}

void Simulator::push_event(Event ev) {
  ++size_;
  const std::uint64_t tk = tick_of(ev.t);
  if (tk < cursor_) {
    // The event's tick is already swept (re-entrant same-tick scheduling,
    // or run_until peeked past it): splice into the ready run at the
    // exact (t, seq) position. Consumed slots before ready_head_ hold
    // moved-out husks and are never compared.
    const auto it = std::upper_bound(
        ready_.begin() + static_cast<std::ptrdiff_t>(ready_head_),
        ready_.end(), ev,
        [](const Event& a, const Event& b) { return earlier(a, b); });
    ready_.insert(it, std::move(ev));
    return;
  }
  // Far-list invariant: every far tick is strictly greater than every
  // wheel tick, so a tick at/after the far minimum must join the far
  // list even when it would fit the wheel horizon.
  if (tk >= far_min_tick_) {
    far_.push_back(std::move(ev));
    return;
  }
  if (level_of(tk, cursor_) >= kLevels) {
    far_min_tick_ = tk;  // tk < far_min_tick_ here, see above
    far_.push_back(std::move(ev));
    return;
  }
  wheel_insert(std::move(ev), tk);
}

void Simulator::wheel_insert(Event ev, std::uint64_t tk) {
  const int level = level_of(tk, cursor_);  // callers guarantee < kLevels
  const std::size_t s = (tk >> (level * kSlotBits)) & (kSlots - 1);
  wheel_[static_cast<std::size_t>(level)][s].push_back(std::move(ev));
  occupied_[static_cast<std::size_t>(level)] |= std::uint64_t{1} << s;
}

bool Simulator::fill_ready() {
  if (ready_head_ < ready_.size()) return true;
  ready_.clear();
  ready_head_ = 0;
  if (size_ == 0) return false;
  for (;;) {
    // A level-0 drain's `cursor_ = tick + 1` can CARRY into a new
    // higher-level slot (…63 -> …64 flips a higher digit) without passing
    // through the cascade below, leaving events for the just-entered
    // window parked above level 0. Re-bucket the cursor's OWN slot at
    // those levels before trusting the scan — otherwise a later event
    // pushed into level 0 (e.g. re-entrantly from the carrying tick's
    // handler) would drain ahead of the earlier parked ones. A carry
    // into level l zeroes every digit below l, so level l needs checking
    // only while the cursor's lower digits are all zero — one test on
    // the hot path — and a re-bucketed event differs from the cursor in
    // its new level's digit, so it can never land in a cursor-own slot
    // and one pass suffices.
    for (int l = 1; l < kLevels; ++l) {
      if ((cursor_ & ((std::uint64_t{1} << (l * kSlotBits)) - 1)) != 0) break;
      const std::size_t cs = (cursor_ >> (l * kSlotBits)) & (kSlots - 1);
      if ((occupied_[static_cast<std::size_t>(l)] >> cs & 1) == 0) continue;
      std::vector<Event> batch;
      batch.swap(wheel_[static_cast<std::size_t>(l)][cs]);
      occupied_[static_cast<std::size_t>(l)] &= ~(std::uint64_t{1} << cs);
      for (Event& ev : batch) wheel_insert(std::move(ev), tick_of(ev.t));
    }
    // Lowest occupied slot at/after the cursor on the lowest level wins:
    // lower levels hold nearer ticks by construction.
    int level = -1;
    int s = 0;
    for (int l = 0; l < kLevels; ++l) {
      const int shift = l * kSlotBits;
      const std::uint64_t cslot = (cursor_ >> shift) & (kSlots - 1);
      const std::uint64_t mask =
          occupied_[static_cast<std::size_t>(l)] & (~std::uint64_t{0} << cslot);
      if (mask != 0) {
        level = l;
        s = std::countr_zero(mask);
        break;
      }
    }
    if (level < 0) {
      // Wheels empty; reseed the horizon from the far list. Jump the
      // cursor to the far minimum and migrate whatever now fits.
      SEMCACHE_CHECK(!far_.empty(), "Simulator: pending count out of sync");
      cursor_ = far_min_tick_;
      std::vector<Event> keep;
      std::uint64_t keep_min = ~std::uint64_t{0};
      for (Event& ev : far_) {
        const std::uint64_t tk = tick_of(ev.t);
        if (level_of(tk, cursor_) < kLevels) {
          wheel_insert(std::move(ev), tk);
        } else {
          keep_min = std::min(keep_min, tk);
          keep.push_back(std::move(ev));
        }
      }
      far_ = std::move(keep);
      far_min_tick_ = keep_min;
      continue;
    }
    const int shift = level * kSlotBits;
    if (level == 0) {
      // One level-0 slot is one exact tick: take its events (storage
      // swap, no copies), restore the (t, seq) total order, advance.
      auto& slot = wheel_[0][static_cast<std::size_t>(s)];
      ready_.swap(slot);
      occupied_[0] &= ~(std::uint64_t{1} << s);
      std::sort(ready_.begin(), ready_.end(),
                [](const Event& a, const Event& b) { return earlier(a, b); });
      const std::uint64_t tick =
          ((cursor_ >> kSlotBits) << kSlotBits) | static_cast<std::uint64_t>(s);
      cursor_ = tick + 1;
      return true;
    }
    // Cascade: enter the higher-level slot (s > the cursor's own slot —
    // the pre-pass above already emptied that one), zeroing the cursor's
    // lower digits, and re-bucket its events one or more levels down.
    // Each event cascades at most kLevels times.
    std::vector<Event> batch;
    batch.swap(wheel_[static_cast<std::size_t>(level)][static_cast<std::size_t>(s)]);
    occupied_[static_cast<std::size_t>(level)] &= ~(std::uint64_t{1} << s);
    const std::uint64_t slot_start =
        ((cursor_ >> (shift + kSlotBits)) << (shift + kSlotBits)) |
        (static_cast<std::uint64_t>(s) << shift);
    if (slot_start > cursor_) cursor_ = slot_start;
    for (Event& ev : batch) wheel_insert(std::move(ev), tick_of(ev.t));
  }
}

void Simulator::run() {
  while (step()) {
  }
}

void Simulator::run_until(SimTime t) {
  // Clamp semantics: a target earlier than now is a no-op — time never
  // moves backwards and pending events stay queued. (Previously a hard
  // error; drivers that poll "advance to max(t, now)" shouldn't have to
  // pre-clamp themselves. Pinned in test_edge.)
  while (fill_ready() && ready_[ready_head_].t <= t) step();
  if (t > now_) now_ = t;
}

bool Simulator::step() {
  if (!fill_ready()) return false;
  Event ev = std::move(ready_[ready_head_++]);
  --size_;
  now_ = ev.t;
  ++processed_;
  ev.fn();
  return true;
}

}  // namespace semcache::edge
