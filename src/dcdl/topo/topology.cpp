#include "dcdl/topo/topology.hpp"

#include <cstdio>

#include "dcdl/common/contract.hpp"

namespace dcdl {

NodeId Topology::add_switch(std::string name, int tier) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  if (name.empty()) name = "sw" + std::to_string(id);
  nodes_.push_back(NodeSpec{NodeKind::kSwitch, std::move(name), tier});
  ports_.emplace_back();
  return id;
}

NodeId Topology::add_host(std::string name) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  if (name.empty()) name = "h" + std::to_string(id);
  nodes_.push_back(NodeSpec{NodeKind::kHost, std::move(name), 0});
  ports_.emplace_back();
  return id;
}

std::uint32_t Topology::add_link(NodeId a, NodeId b, Rate rate, Time delay) {
  DCDL_EXPECTS(a < nodes_.size() && b < nodes_.size());
  DCDL_EXPECTS(a != b);
  DCDL_EXPECTS(rate.bps() > 0);
  const std::uint32_t idx = static_cast<std::uint32_t>(links_.size());
  const PortId pa = static_cast<PortId>(ports_[a].size());
  const PortId pb = static_cast<PortId>(ports_[b].size());
  links_.push_back(LinkSpec{a, b, pa, pb, rate, delay});
  ports_[a].push_back(PortPeer{b, pb, idx});
  ports_[b].push_back(PortPeer{a, pa, idx});
  return idx;
}

std::optional<PortId> Topology::port_towards(NodeId from, NodeId to) const {
  const auto& plist = ports_.at(from);
  for (PortId p = 0; p < plist.size(); ++p) {
    if (plist[p].peer_node == to) return p;
  }
  return std::nullopt;
}

std::vector<NodeId> Topology::hosts() const {
  std::vector<NodeId> out;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    if (is_host(id)) out.push_back(id);
  }
  return out;
}

std::vector<NodeId> Topology::switches() const {
  std::vector<NodeId> out;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    if (is_switch(id)) out.push_back(id);
  }
  return out;
}

std::optional<NodeId> Topology::first_host_of(NodeId sw) const {
  for (const auto& pp : ports_.at(sw)) {
    if (is_host(pp.peer_node)) return pp.peer_node;
  }
  return std::nullopt;
}

std::string Topology::describe() const {
  std::string out;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "topology: %zu nodes, %zu links\n",
                nodes_.size(), links_.size());
  out += buf;
  for (std::uint32_t i = 0; i < links_.size(); ++i) {
    const auto& l = links_[i];
    std::snprintf(buf, sizeof(buf), "  link %u: %s[p%u] <-> %s[p%u] %s %s\n",
                  i, nodes_[l.a].name.c_str(), l.port_a,
                  nodes_[l.b].name.c_str(), l.port_b,
                  l.rate.to_string().c_str(), l.delay.to_string().c_str());
    out += buf;
  }
  return out;
}

}  // namespace dcdl
