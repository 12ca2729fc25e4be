#include "edge/sim.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace semcache::edge {

void Simulator::schedule_at(SimTime t, Handler fn) {
  SEMCACHE_CHECK(t >= now_, "Simulator: cannot schedule in the past");
  SEMCACHE_CHECK(fn != nullptr, "Simulator: null handler");
  heap_.push_back(Event{t, next_seq_++, std::move(fn)});
  std::push_heap(heap_.begin(), heap_.end(), later);
}

void Simulator::schedule_after(SimTime dt, Handler fn) {
  SEMCACHE_CHECK(dt >= 0.0, "Simulator: negative delay");
  schedule_at(now_ + dt, std::move(fn));
}

void Simulator::run() {
  while (step()) {
  }
}

void Simulator::run_until(SimTime t) {
  // Clamp semantics: a target earlier than now is a no-op — time never
  // moves backwards and pending events stay queued, so drivers that poll
  // "advance to max(t, now)" need not pre-clamp. Pinned in test_edge.
  while (!heap_.empty() && heap_.front().t <= t) step();
  if (t > now_) now_ = t;
}

bool Simulator::step() {
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), later);
  Event ev = std::move(heap_.back());
  heap_.pop_back();
  now_ = ev.t;
  ++processed_;
  ev.fn();
  return true;
}

}  // namespace semcache::edge
