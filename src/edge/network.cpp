#include "edge/network.hpp"

#include "common/check.hpp"

namespace semcache::edge {

namespace {
std::uint64_t key(NodeId a, NodeId b) {
  return (static_cast<std::uint64_t>(a) << 32) | static_cast<std::uint64_t>(b);
}
}  // namespace

NodeId Network::add_node(std::string name, NodeKind kind, double flops) {
  const NodeId id = nodes_.size();
  nodes_.push_back(std::make_unique<Node>(id, std::move(name), kind, flops));
  return id;
}

LinkId Network::connect(NodeId a, NodeId b, double bandwidth_bps,
                        double propagation_s) {
  SEMCACHE_CHECK(a < nodes_.size() && b < nodes_.size(),
                 "Network::connect: unknown node");
  SEMCACHE_CHECK(a != b, "Network::connect: self-link");
  SEMCACHE_CHECK(!adjacency_.contains(key(a, b)),
                 "Network::connect: duplicate link");
  const LinkId forward = links_.size();
  links_.push_back(
      std::make_unique<Link>(forward, a, b, bandwidth_bps, propagation_s));
  adjacency_.emplace(key(a, b), forward);
  const LinkId reverse = links_.size();
  links_.push_back(
      std::make_unique<Link>(reverse, b, a, bandwidth_bps, propagation_s));
  adjacency_.emplace(key(b, a), reverse);
  return forward;
}

Node& Network::node(NodeId id) {
  SEMCACHE_CHECK(id < nodes_.size(), "Network::node: unknown id");
  return *nodes_[id];
}

const Node& Network::node(NodeId id) const {
  SEMCACHE_CHECK(id < nodes_.size(), "Network::node: unknown id");
  return *nodes_[id];
}

Link& Network::link(NodeId a, NodeId b) {
  const auto it = adjacency_.find(key(a, b));
  SEMCACHE_CHECK(it != adjacency_.end(),
                 "Network::link: nodes are not adjacent");
  return *links_[it->second];
}

Link& Network::link_at(LinkId id) {
  SEMCACHE_CHECK(id < links_.size(), "Network::link_at: unknown id");
  return *links_[id];
}

std::optional<LinkId> Network::find_link(NodeId a, NodeId b) const {
  const auto it = adjacency_.find(key(a, b));
  if (it == adjacency_.end()) return std::nullopt;
  return it->second;
}

std::uint64_t Network::total_bytes_carried() const {
  std::uint64_t total = 0;
  for (const auto& l : links_) total += l->bytes_carried();
  return total;
}

std::size_t Network::approx_byte_size() const {
  std::size_t total = nodes_.capacity() * sizeof(nodes_[0]) +
                      links_.capacity() * sizeof(links_[0]);
  for (const auto& n : nodes_) total += sizeof(Node) + n->name().capacity();
  total += links_.size() * sizeof(Link);
  // Hash map entry: key + value + a node pointer / bucket slot of overhead.
  total += adjacency_.size() *
           (sizeof(std::uint64_t) + sizeof(LinkId) + 2 * sizeof(void*));
  return total;
}

StandardTopology build_standard_topology(std::size_t num_edges,
                                         std::size_t devices_per_edge,
                                         const TopologyConfig& config) {
  SEMCACHE_CHECK(num_edges >= 1, "topology: need at least one edge server");
  StandardTopology topo;
  topo.net = std::make_unique<Network>();
  topo.cloud =
      topo.net->add_node("cloud", NodeKind::kCloud, config.cloud_flops);
  for (std::size_t e = 0; e < num_edges; ++e) {
    const NodeId edge = topo.net->add_node("edge" + std::to_string(e),
                                           NodeKind::kEdgeServer,
                                           config.edge_flops);
    topo.edges.push_back(edge);
    topo.net->connect(edge, topo.cloud, config.cloud_bandwidth_bps,
                      config.cloud_propagation_s);
    for (std::size_t prev = 0; prev < e; ++prev) {
      topo.net->connect(edge, topo.edges[prev], config.backbone_bandwidth_bps,
                        config.backbone_propagation_s);
    }
    topo.devices.emplace_back();
    for (std::size_t d = 0; d < devices_per_edge; ++d) {
      const NodeId dev = topo.net->add_node(
          "dev" + std::to_string(e) + "_" + std::to_string(d),
          NodeKind::kDevice, config.device_flops);
      topo.net->connect(dev, edge, config.access_bandwidth_bps,
                        config.access_propagation_s);
      topo.devices.back().push_back(dev);
    }
  }
  return topo;
}

}  // namespace semcache::edge
