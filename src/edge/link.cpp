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

double Link::down_remaining(SimTime t) const {
  if (flap_period_ <= 0.0) return 0.0;
  double pos = std::fmod(t - flap_phase_, flap_period_);
  if (pos < 0.0) pos += flap_period_;
  return pos < flap_down_ ? flap_down_ - pos : 0.0;
}

bool Link::is_down(SimTime t) const { return down_remaining(t) > 0.0; }

SimTime Link::next_up(SimTime t) const {
  // A flap that never comes up (down == period) has no next-up time.
  SEMCACHE_CHECK(flap_period_ <= 0.0 || flap_down_ < flap_period_,
                 "Link::next_up: flap schedule is never up");
  for (;;) {
    const SimTime up = t + down_remaining(t);
    // When t sits within one ulp of a down phase's end, the remaining down
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
