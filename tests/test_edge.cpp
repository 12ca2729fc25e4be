// Unit tests for semcache::edge — event ordering and determinism, FIFO
// compute queueing, link serialization/propagation, topology construction.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/check.hpp"
#include "edge/network.hpp"
#include "edge/sim.hpp"

namespace semcache::edge {
namespace {

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
  EXPECT_EQ(sim.processed(), 3u);
}

TEST(Simulator, TiesBreakByScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule_at(1.0, [&, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, ReentrantScheduling) {
  Simulator sim;
  std::vector<double> times;
  sim.schedule_at(1.0, [&] {
    times.push_back(sim.now());
    sim.schedule_after(0.5, [&] { times.push_back(sim.now()); });
  });
  sim.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[1], 1.5);
}

TEST(Simulator, PastSchedulingRejected) {
  Simulator sim;
  sim.schedule_at(2.0, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(1.0, [] {}), Error);
  EXPECT_THROW(sim.schedule_after(-1.0, [] {}), Error);
}

TEST(Simulator, RunUntilAdvancesClockOnly) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(5.0, [&] { ++fired; });
  sim.run_until(3.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, StepReturnsFalseWhenEmpty) {
  Simulator sim;
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, RunUntilPastTargetClampsInsteadOfRewinding) {
  // run_until(t) with t < now is clamped to a no-op: the clock must
  // never move backwards (a rewound now_ would corrupt every later
  // schedule_after delay) and pending events must survive. Guards the
  // clamp semantics that replaced the old hard error.
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(5.0, [&] { ++fired; });
  sim.run_until(3.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
  sim.run_until(2.0);  // in the past: clamped, nothing happens
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
  EXPECT_EQ(sim.pending(), 1u);  // the t=5 event is not lost
  sim.schedule_after(0.5, [&] { ++fired; });  // 3.5, not 2.5
  sim.run();
  EXPECT_EQ(fired, 3);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(Node, ServiceTimeScalesWithCapacity) {
  Node fast(0, "fast", NodeKind::kEdgeServer, 2e9);
  Node slow(1, "slow", NodeKind::kDevice, 1e9);
  EXPECT_DOUBLE_EQ(fast.service_time(2e9), 1.0);
  EXPECT_DOUBLE_EQ(slow.service_time(2e9), 2.0);
}

TEST(Node, FifoQueueing) {
  Simulator sim;
  Node node(0, "n", NodeKind::kEdgeServer, 1e9);  // 1 GFLOP/s
  std::vector<double> finish;
  // Two 1-second jobs submitted at t=0 must finish at 1s and 2s.
  node.submit_compute(sim, 1e9, [&] { finish.push_back(sim.now()); });
  node.submit_compute(sim, 1e9, [&] { finish.push_back(sim.now()); });
  sim.run();
  ASSERT_EQ(finish.size(), 2u);
  EXPECT_DOUBLE_EQ(finish[0], 1.0);
  EXPECT_DOUBLE_EQ(finish[1], 2.0);
  EXPECT_DOUBLE_EQ(node.busy_seconds(), 2.0);
  EXPECT_EQ(node.jobs_completed(), 2u);
}

TEST(Node, IdleGapResetsQueue) {
  Simulator sim;
  Node node(0, "n", NodeKind::kEdgeServer, 1e9);
  std::vector<double> finish;
  node.submit_compute(sim, 1e9, [&] { finish.push_back(sim.now()); });
  sim.run();
  // Now idle at t=1; next job at t=5 finishes at 6, no queueing carryover.
  sim.schedule_at(5.0, [&] {
    node.submit_compute(sim, 1e9, [&] { finish.push_back(sim.now()); });
  });
  sim.run();
  ASSERT_EQ(finish.size(), 2u);
  EXPECT_DOUBLE_EQ(finish[1], 6.0);
}

TEST(Node, RejectsBadArguments) {
  EXPECT_THROW(Node(0, "x", NodeKind::kCloud, 0.0), Error);
  Node n(0, "n", NodeKind::kCloud, 1.0);
  EXPECT_THROW(n.service_time(-1.0), Error);
}

TEST(Link, TransferTimeComponents) {
  Link link(0, 0, 1, 8e6, 0.01);  // 8 Mbit/s, 10 ms propagation
  // 1000 bytes = 8000 bits -> 1 ms serialization + 10 ms propagation.
  EXPECT_NEAR(link.transfer_time(1000), 0.011, 1e-12);
}

TEST(Link, SerializesTransfersFifo) {
  Simulator sim;
  Link link(0, 0, 1, 8e6, 0.0);
  std::vector<double> arrivals;
  link.send(sim, 1000, [&] { arrivals.push_back(sim.now()); });
  link.send(sim, 1000, [&] { arrivals.push_back(sim.now()); });
  sim.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_NEAR(arrivals[0], 0.001, 1e-12);
  EXPECT_NEAR(arrivals[1], 0.002, 1e-12);  // queued behind the first
  EXPECT_EQ(link.bytes_carried(), 2000u);
  EXPECT_EQ(link.transfers(), 2u);
}

TEST(Link, PropagationOverlapsPipelined) {
  // With propagation, the second transfer's delivery is serialization-
  // limited, not propagation-limited: delivery2 = 2*ser + prop.
  Simulator sim;
  Link link(0, 0, 1, 8e6, 0.5);
  std::vector<double> arrivals;
  link.send(sim, 1000, [&] { arrivals.push_back(sim.now()); });
  link.send(sim, 1000, [&] { arrivals.push_back(sim.now()); });
  sim.run();
  EXPECT_NEAR(arrivals[0], 0.501, 1e-9);
  EXPECT_NEAR(arrivals[1], 0.502, 1e-9);
}

TEST(Network, ConnectAndLookup) {
  Network net;
  const NodeId a = net.add_node("a", NodeKind::kEdgeServer, 1e9);
  const NodeId b = net.add_node("b", NodeKind::kEdgeServer, 1e9);
  net.connect(a, b, 1e6, 0.001);
  EXPECT_EQ(net.node_count(), 2u);
  EXPECT_EQ(net.link_count(), 2u);  // bidirectional pair
  EXPECT_EQ(net.link(a, b).from(), a);
  EXPECT_EQ(net.link(b, a).from(), b);
  EXPECT_TRUE(net.find_link(a, b).has_value());
}

TEST(Network, RejectsBadTopology) {
  Network net;
  const NodeId a = net.add_node("a", NodeKind::kCloud, 1e9);
  const NodeId b = net.add_node("b", NodeKind::kCloud, 1e9);
  EXPECT_THROW(net.connect(a, a, 1e6, 0.0), Error);
  net.connect(a, b, 1e6, 0.0);
  EXPECT_THROW(net.connect(a, b, 1e6, 0.0), Error);  // duplicate
  EXPECT_THROW(net.connect(a, 9, 1e6, 0.0), Error);  // unknown node
  const NodeId c = net.add_node("c", NodeKind::kCloud, 1e9);
  EXPECT_THROW(net.link(a, c), Error);  // not adjacent
  EXPECT_FALSE(net.find_link(a, c).has_value());
}

TEST(Network, BytesAccounting) {
  Simulator sim;
  Network net;
  const NodeId a = net.add_node("a", NodeKind::kEdgeServer, 1e9);
  const NodeId b = net.add_node("b", NodeKind::kEdgeServer, 1e9);
  net.connect(a, b, 1e6, 0.0);
  net.link(a, b).send(sim, 500, [] {});
  net.link(b, a).send(sim, 300, [] {});
  sim.run();
  EXPECT_EQ(net.total_bytes_carried(), 800u);
}

TEST(Topology, StandardShape) {
  const StandardTopology topo = build_standard_topology(3, 2);
  // 1 cloud + 3 edges + 6 devices.
  EXPECT_EQ(topo.net->node_count(), 10u);
  EXPECT_EQ(topo.edges.size(), 3u);
  EXPECT_EQ(topo.devices.size(), 3u);
  EXPECT_EQ(topo.devices[0].size(), 2u);
  // Every edge reaches the cloud and every other edge.
  for (std::size_t e = 0; e < 3; ++e) {
    EXPECT_TRUE(topo.net->find_link(topo.edges[e], topo.cloud).has_value());
    for (std::size_t f = 0; f < 3; ++f) {
      if (e != f) {
        EXPECT_TRUE(
            topo.net->find_link(topo.edges[e], topo.edges[f]).has_value());
      }
    }
  }
  // Devices attach to their own edge only.
  EXPECT_TRUE(
      topo.net->find_link(topo.devices[1][0], topo.edges[1]).has_value());
  EXPECT_FALSE(
      topo.net->find_link(topo.devices[1][0], topo.edges[0]).has_value());
}

TEST(Topology, NodeKindsAndCapacities) {
  TopologyConfig cfg;
  cfg.device_flops = 1e9;
  cfg.edge_flops = 2e9;
  cfg.cloud_flops = 3e9;
  const StandardTopology topo = build_standard_topology(1, 1, cfg);
  EXPECT_EQ(topo.net->node(topo.cloud).kind(), NodeKind::kCloud);
  EXPECT_DOUBLE_EQ(topo.net->node(topo.cloud).capacity(), 3e9);
  EXPECT_EQ(topo.net->node(topo.edges[0]).kind(), NodeKind::kEdgeServer);
  EXPECT_DOUBLE_EQ(topo.net->node(topo.devices[0][0]).capacity(), 1e9);
}

TEST(Topology, DeterministicAcrossBuilds) {
  Simulator sim1, sim2;
  const StandardTopology t1 = build_standard_topology(2, 2);
  const StandardTopology t2 = build_standard_topology(2, 2);
  // Same structure: identical ids for the same roles.
  EXPECT_EQ(t1.cloud, t2.cloud);
  EXPECT_EQ(t1.edges, t2.edges);
  EXPECT_EQ(t1.devices, t2.devices);
}

TEST(NodeKindName, AllNamed) {
  EXPECT_EQ(node_kind_name(NodeKind::kDevice), "device");
  EXPECT_EQ(node_kind_name(NodeKind::kEdgeServer), "edge");
  EXPECT_EQ(node_kind_name(NodeKind::kCloud), "cloud");
}

// Property: a chain of N sequential link hops accumulates latency linearly.
class LinkChain : public ::testing::TestWithParam<int> {};

TEST_P(LinkChain, LatencyAccumulates) {
  const int hops = GetParam();
  Simulator sim;
  Network net;
  std::vector<NodeId> nodes;
  for (int i = 0; i <= hops; ++i) {
    nodes.push_back(net.add_node("n" + std::to_string(i),
                                 NodeKind::kEdgeServer, 1e9));
  }
  for (int i = 0; i < hops; ++i) {
    net.connect(nodes[static_cast<std::size_t>(i)],
                nodes[static_cast<std::size_t>(i) + 1], 8e6, 0.002);
  }
  double arrival = -1.0;
  // Relay 1000 bytes along the chain.
  std::function<void(int)> hop = [&](int i) {
    if (i == hops) {
      arrival = sim.now();
      return;
    }
    net.link(nodes[static_cast<std::size_t>(i)],
             nodes[static_cast<std::size_t>(i) + 1])
        .send(sim, 1000, [&, i] { hop(i + 1); });
  };
  hop(0);
  sim.run();
  EXPECT_NEAR(arrival, hops * (0.001 + 0.002), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sweep, LinkChain, ::testing::Values(1, 2, 4, 8));

// ---------------- outage model (the fault plane's link layer) -----------

namespace {
/// A two-node net with one 8 Mbps / 1 ms link; returns the forward link.
struct OutageRig {
  Simulator sim;
  Network net;
  Link* link = nullptr;
  OutageRig() {
    const NodeId a = net.add_node("a", NodeKind::kEdgeServer, 1e9);
    const NodeId b = net.add_node("b", NodeKind::kEdgeServer, 1e9);
    net.connect(a, b, 8e6, 0.001);
    link = &net.link(a, b);
  }
};
}  // namespace

TEST(LinkOutage, QueuePolicyDrainsAfterWindowInFifoOrder) {
  OutageRig rig;
  rig.link->add_outage(0.0, 0.5);
  std::vector<double> arrivals;
  // Two transfers submitted during the outage: both held, then drained in
  // submission order starting exactly at the window's end.
  rig.link->send(rig.sim, 1000, [&] { arrivals.push_back(rig.sim.now()); });
  rig.link->send(rig.sim, 1000, [&] { arrivals.push_back(rig.sim.now()); });
  rig.sim.run();
  ASSERT_EQ(arrivals.size(), 2u);
  // 1000 bytes at 8 Mbps = 1 ms serialization + 1 ms propagation.
  EXPECT_NEAR(arrivals[0], 0.5 + 0.001 + 0.001, 1e-9);
  EXPECT_NEAR(arrivals[1], 0.5 + 0.002 + 0.001, 1e-9);
  // Only the first transfer started inside the window; the second queued
  // behind it on ordinary FIFO grounds, after the link was back up.
  EXPECT_EQ(rig.link->outage_queued(), 1u);
  EXPECT_EQ(rig.link->outage_drops(), 0u);
  EXPECT_EQ(rig.link->transfers(), 2u);
  EXPECT_EQ(rig.link->bytes_carried(), 2000u);
}

TEST(LinkOutage, DropPolicyRefusesAndChargesNothing) {
  OutageRig rig;
  rig.link->add_outage(0.0, 0.5);
  rig.link->set_outage_policy(OutagePolicy::kDrop);
  bool delivered = false;
  const SimTime t = rig.link->send(rig.sim, 1000, [&] { delivered = true; });
  rig.sim.run();
  EXPECT_EQ(t, Link::kDropped);
  EXPECT_FALSE(delivered);  // the handler was never scheduled
  EXPECT_EQ(rig.link->outage_drops(), 1u);
  EXPECT_EQ(rig.link->transfers(), 0u);
  EXPECT_EQ(rig.link->bytes_carried(), 0u);
}

TEST(LinkOutage, AdmissionCheckedAfterFifoQueueing) {
  // A transfer submitted while the link is UP but whose FIFO start time
  // falls inside a later outage window is still subject to the outage:
  // admission is checked at the moment the transfer WOULD start.
  OutageRig rig;
  rig.link->add_outage(0.0005, 0.5);  // opens mid-first-transfer
  std::vector<double> arrivals;
  rig.link->send(rig.sim, 1000, [&] { arrivals.push_back(rig.sim.now()); });
  rig.link->send(rig.sim, 1000, [&] { arrivals.push_back(rig.sim.now()); });
  rig.sim.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_NEAR(arrivals[0], 0.001 + 0.001, 1e-9);  // admitted at t=0, unaffected
  EXPECT_NEAR(arrivals[1], 0.5 + 0.001 + 0.001, 1e-9);  // held to window end
  EXPECT_EQ(rig.link->outage_queued(), 1u);
}

TEST(LinkOutage, FlapScheduleIsPeriodicWithPhase) {
  OutageRig rig;
  rig.link->set_flap_schedule(1.0, 0.25, 0.5);  // down on [0.5, 0.75) mod 1
  EXPECT_FALSE(rig.link->is_down(0.0));
  EXPECT_TRUE(rig.link->is_down(0.5));
  EXPECT_TRUE(rig.link->is_down(0.74));
  EXPECT_FALSE(rig.link->is_down(0.75));
  EXPECT_TRUE(rig.link->is_down(1.6));  // next period
  EXPECT_NEAR(rig.link->next_up(0.6), 0.75, 1e-12);
  EXPECT_NEAR(rig.link->next_up(0.2), 0.2, 1e-12);  // already up
  // Clearing the schedule restores an always-up link.
  rig.link->set_flap_schedule(0.0, 0.0, 0.0);
  EXPECT_FALSE(rig.link->is_down(0.5));
}

TEST(LinkOutage, SinksMirrorCountersForSystemStats) {
  OutageRig rig;
  std::size_t drops = 0;
  std::size_t queued = 0;
  rig.link->set_outage_sinks(&drops, &queued);
  rig.link->add_outage(0.0, 0.1);
  // A refused transfer leaves the link idle, so the second send still
  // starts inside the window and exercises the queue path.
  rig.link->set_outage_policy(OutagePolicy::kDrop);
  rig.link->send(rig.sim, 100, [] {});
  rig.link->set_outage_policy(OutagePolicy::kQueue);
  rig.link->send(rig.sim, 100, [] {});
  rig.sim.run();
  EXPECT_EQ(queued, 1u);
  EXPECT_EQ(drops, 1u);
  EXPECT_EQ(rig.link->outage_queued(), 1u);
  EXPECT_EQ(rig.link->outage_drops(), 1u);
}

TEST(Network, LinkAtWalksEveryLink) {
  Network net;
  const NodeId a = net.add_node("a", NodeKind::kEdgeServer, 1e9);
  const NodeId b = net.add_node("b", NodeKind::kEdgeServer, 1e9);
  const NodeId c = net.add_node("c", NodeKind::kDevice, 1e9);
  net.connect(a, b, 8e6, 0.001);
  net.connect(b, c, 8e6, 0.001);
  ASSERT_EQ(net.link_count(), 4u);  // two connects, forward + reverse each
  for (LinkId id = 0; id < net.link_count(); ++id) {
    EXPECT_EQ(net.link_at(id).id(), id);
  }
  EXPECT_THROW(net.link_at(net.link_count()), Error);
}

TEST(LinkOutage, AdjacentWindowsCoalesceAndNextUpHasNoIterationCap) {
  // Regression: next_up used to walk outage windows one jump per window
  // under a 1000-iteration cap, so >= 1000 ADJACENT windows (a scripted
  // storm emitted per-tick) spuriously tripped the "unbounded schedule"
  // check. add_outage now coalesces adjacent/overlapping windows, so the
  // whole pile-up is one window and one jump.
  OutageRig rig;
  for (int i = 0; i < 1500; ++i) {
    rig.link->add_outage(static_cast<double>(i) * 0.001,
                         static_cast<double>(i + 1) * 0.001);
  }
  EXPECT_EQ(rig.link->outage_window_count(), 1u);
  EXPECT_TRUE(rig.link->is_down(0.0));
  EXPECT_TRUE(rig.link->is_down(1.4999));
  EXPECT_FALSE(rig.link->is_down(1.5));
  EXPECT_NEAR(rig.link->next_up(0.0), 1.5, 1e-12);
  EXPECT_NEAR(rig.link->next_up(0.7321), 1.5, 1e-12);
}

TEST(LinkOutage, ShuffledOverlappingWindowsMatchBruteForceUnion) {
  // Windows inserted out of order, overlapping and nested, must answer
  // is_down/next_up for the exact UNION of the inserted intervals.
  OutageRig rig;
  const std::pair<double, double> windows[] = {
      {5.0, 6.0}, {1.0, 2.0}, {1.5, 3.0}, {0.25, 0.5},
      {2.9, 3.1}, {5.5, 5.6}, {8.0, 8.5}, {3.1, 3.2},
  };
  for (const auto& [s, e] : windows) rig.link->add_outage(s, e);
  // Union: [0.25,0.5) [1,3.2) [5,6) [8,8.5) -> 4 disjoint windows.
  EXPECT_EQ(rig.link->outage_window_count(), 4u);
  for (int k = 0; k < 900; ++k) {
    const double t = static_cast<double>(k) * 0.01;
    bool expect_down = false;
    for (const auto& [s, e] : windows) {
      if (t >= s && t < e) expect_down = true;
    }
    ASSERT_EQ(rig.link->is_down(t), expect_down) << "t=" << t;
  }
  EXPECT_NEAR(rig.link->next_up(1.2), 3.2, 1e-12);
  EXPECT_NEAR(rig.link->next_up(5.5), 6.0, 1e-12);
  EXPECT_NEAR(rig.link->next_up(7.0), 7.0, 1e-12);
}

TEST(Simulator, FarHorizonAndClampedTimersRunInOrder) {
  // Timers far in the future (1e9 s) and farther still (5e12 s, where
  // adjacent doubles are ~1 ms apart) must still execute in exact
  // (time, seq) order, interleaved with near-term work and with
  // re-entrant scheduling at the current instant.
  Simulator sim;
  std::vector<int> order;
  const auto mark = [&order](int id) { return [&order, id] { order.push_back(id); }; };
  sim.schedule_at(5e12 + 2.0, mark(7));  // farthest: runs last
  sim.schedule_at(1e-3, mark(1));
  sim.schedule_at(1e9, mark(4));  // far future, ahead of the 5e12 pair
  sim.schedule_at(5e12 + 1.0, mark(6));
  sim.schedule_at(1e9, mark(5));  // same far instant: scheduling order
  sim.schedule_at(0.0, mark(0));
  sim.schedule_at(2e-3, [&] {
    order.push_back(2);
    sim.schedule_at(2e-3, mark(3));  // re-entrant, same instant
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(sim.processed(), 8u);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.now(), 5e12 + 2.0);
}

}  // namespace
}  // namespace semcache::edge
