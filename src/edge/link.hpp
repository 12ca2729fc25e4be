// Point-to-point links with finite bandwidth and propagation delay.
// Transfers serialize FIFO on the link, so large model fetches delay the
// small feature messages queued behind them — the contention that makes
// caching pay off (E5).
//
// Outage model (the fault plane's link layer): a link can be DOWN on a
// periodic flap schedule (down for `down_s` at the start of every
// `period_s` window, phase-shifted per link). Admission is checked at the
// moment a transfer WOULD start (after FIFO queueing): kQueue shifts the
// start to the end of the outage and counts it queued; kDrop refuses the
// send — the handler is never scheduled, nothing is charged, and
// kDropped is returned.
#pragma once

#include <cstdint>
#include <limits>

#include "edge/node.hpp"
#include "edge/sim.hpp"

namespace semcache::edge {

using LinkId = std::size_t;

/// What a link does with a transfer that starts inside an outage window.
enum class OutagePolicy {
  kQueue,  ///< hold it; it starts (FIFO order preserved) when the link is up
  kDrop,   ///< refuse it; the delivery handler never fires
};

class Link {
 public:
  /// send() return value for a transfer refused under OutagePolicy::kDrop.
  static constexpr SimTime kDropped = std::numeric_limits<SimTime>::infinity();

  Link(LinkId id, NodeId from, NodeId to, double bandwidth_bps,
       double propagation_s);

  LinkId id() const { return id_; }
  NodeId from() const { return from_; }
  NodeId to() const { return to_; }
  double bandwidth_bps() const { return bandwidth_; }
  double propagation_s() const { return propagation_; }

  /// Queue `bytes` on the link; `on_delivered` fires at arrival. Returns the
  /// delivery time — or kDropped (handler NOT scheduled, nothing charged)
  /// when the transfer would start inside an outage under kDrop policy.
  SimTime send(Simulator& sim, std::size_t bytes,
               Simulator::Handler on_delivered);

  /// Idle-link transfer latency for `bytes` (serialization + propagation).
  double transfer_time(std::size_t bytes) const;

  // --- outage schedule -------------------------------------------------
  /// Periodic flap: down for `down_s` at the start of every `period_s`
  /// window, the whole schedule shifted by `phase_s`. period_s <= 0 or
  /// down_s <= 0 clears the schedule.
  void set_flap_schedule(double period_s, double down_s, double phase_s);
  void set_outage_policy(OutagePolicy policy) { outage_policy_ = policy; }
  OutagePolicy outage_policy() const { return outage_policy_; }
  bool is_down(SimTime t) const;
  /// Earliest time >= t at which the link is up.
  SimTime next_up(SimTime t) const;

  /// Mirror the outage counters into external sinks (the system wires
  /// SystemStats here; edge:: must not depend on core::). Null clears.
  void set_outage_sinks(std::size_t* drops, std::size_t* queued) {
    drop_sink_ = drops;
    queue_sink_ = queued;
  }

  std::uint64_t bytes_carried() const { return bytes_carried_; }
  std::size_t transfers() const { return transfers_; }
  std::size_t outage_drops() const { return outage_drops_; }
  std::size_t outage_queued() const { return outage_queued_; }

 private:
  /// Down time left at t on the flap schedule (0 while the link is up).
  double down_remaining(SimTime t) const;

  LinkId id_;
  NodeId from_;
  NodeId to_;
  double bandwidth_;
  double propagation_;
  SimTime busy_until_ = 0.0;
  std::uint64_t bytes_carried_ = 0;
  std::size_t transfers_ = 0;

  double flap_period_ = 0.0;
  double flap_down_ = 0.0;
  double flap_phase_ = 0.0;
  OutagePolicy outage_policy_ = OutagePolicy::kQueue;
  std::size_t outage_drops_ = 0;
  std::size_t outage_queued_ = 0;
  std::size_t* drop_sink_ = nullptr;
  std::size_t* queue_sink_ = nullptr;
};

}  // namespace semcache::edge
