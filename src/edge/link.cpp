#include "edge/link.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace semcache::edge {

Link::Link(LinkId id, NodeId from, NodeId to, double bandwidth_bps,
           double propagation_s)
    : id_(id),
      from_(from),
      to_(to),
      bandwidth_(bandwidth_bps),
      propagation_(propagation_s) {
  SEMCACHE_CHECK(bandwidth_bps > 0.0, "Link: bandwidth must be positive");
  SEMCACHE_CHECK(propagation_s >= 0.0, "Link: negative propagation delay");
}

double Link::transfer_time(std::size_t bytes) const {
  return static_cast<double>(bytes) * 8.0 / bandwidth_ + propagation_;
}

void Link::set_flap_schedule(double period_s, double down_s, double phase_s) {
  if (period_s <= 0.0 || down_s <= 0.0) {
    flap_period_ = flap_down_ = flap_phase_ = 0.0;
    return;
  }
  SEMCACHE_CHECK(down_s <= period_s,
                 "Link: flap down time must not exceed the period");
  flap_period_ = period_s;
  flap_down_ = down_s;
  flap_phase_ = phase_s;
}

void Link::add_outage(SimTime start, SimTime end) {
  SEMCACHE_CHECK(start >= 0.0 && end > start,
                 "Link: outage window must satisfy 0 <= start < end");
  // Merge into the sorted, disjoint list. Every window whose end reaches
  // the new start and whose start doesn't pass the new end overlaps or
  // abuts [start, end) — absorb the whole contiguous run into one window
  // (adjacent windows coalesce too: the union is the same set of
  // instants, and one window per run is what keeps queries logarithmic).
  const auto lo = std::lower_bound(
      outages_.begin(), outages_.end(), start,
      [](const std::pair<SimTime, SimTime>& w, SimTime s) {
        return w.second < s;
      });
  auto hi = lo;
  while (hi != outages_.end() && hi->first <= end) {
    start = std::min(start, hi->first);
    end = std::max(end, hi->second);
    ++hi;
  }
  if (lo == hi) {
    outages_.insert(lo, {start, end});
  } else {
    lo->first = start;
    lo->second = end;
    outages_.erase(lo + 1, hi);
  }
}

std::vector<std::pair<SimTime, SimTime>>::const_iterator
Link::window_covering(SimTime t) const {
  auto it = std::upper_bound(
      outages_.begin(), outages_.end(), t,
      [](SimTime tt, const std::pair<SimTime, SimTime>& w) {
        return tt < w.first;
      });
  if (it == outages_.begin()) return outages_.end();
  --it;
  return t < it->second ? it : outages_.end();
}

bool Link::is_down(SimTime t) const {
  if (window_covering(t) != outages_.end()) return true;
  if (flap_period_ > 0.0) {
    double pos = std::fmod(t - flap_phase_, flap_period_);
    if (pos < 0.0) pos += flap_period_;
    if (pos < flap_down_) return true;
  }
  return false;
}

SimTime Link::next_up(SimTime t) const {
  // A flap that never comes up (down == period) has no next-up time; the
  // explicit windows can't be unbounded — they're finitely many, sorted
  // and disjoint, so each window is jumped at most once and a flap
  // down-phase can't cover the instant it just jumped past, which bounds
  // the walk without an iteration cap.
  SEMCACHE_CHECK(flap_period_ <= 0.0 || flap_down_ < flap_period_,
                 "Link::next_up: flap schedule is never up");
  for (;;) {
    SimTime up = t;
    const auto w = window_covering(t);
    if (w != outages_.end()) {
      up = w->second;
    } else if (flap_period_ > 0.0) {
      double pos = std::fmod(t - flap_phase_, flap_period_);
      if (pos < 0.0) pos += flap_period_;
      if (pos < flap_down_) up = t + (flap_down_ - pos);
    }
    // When t sits within one ulp of a window's end, the remaining down
    // time underflows and up rounds back onto t. The link is up for any
    // practical purpose — returning t keeps the walk terminating and the
    // result a pure function of t.
    if (up <= t) return t;
    t = up;
  }
}

SimTime Link::send(Simulator& sim, std::size_t bytes,
                   Simulator::Handler on_delivered) {
  const double serialization = static_cast<double>(bytes) * 8.0 / bandwidth_;
  SimTime start = std::max(sim.now(), busy_until_);
  if (is_down(start)) {
    if (outage_policy_ == OutagePolicy::kDrop) {
      ++outage_drops_;
      if (drop_sink_ != nullptr) ++*drop_sink_;
      return kDropped;
    }
    start = next_up(start);
    ++outage_queued_;
    if (queue_sink_ != nullptr) ++*queue_sink_;
  }
  busy_until_ = start + serialization;
  const SimTime delivered = start + serialization + propagation_;
  bytes_carried_ += bytes;
  ++transfers_;
  sim.schedule_at(delivered, std::move(on_delivered));
  return delivered;
}

}  // namespace semcache::edge
