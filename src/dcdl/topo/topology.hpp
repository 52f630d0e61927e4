// Static description of a network: switches, hosts, and full-duplex links.
//
// A link between nodes a and b creates one port on each node; ports are
// numbered per node in the order links are added. The Topology is a pure
// description — the runtime network (devices, queues, wires) is built from
// it by device/Network.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dcdl/common/units.hpp"
#include "dcdl/net/packet.hpp"

namespace dcdl {

enum class NodeKind : std::uint8_t { kSwitch, kHost };

struct NodeSpec {
  NodeKind kind = NodeKind::kSwitch;
  std::string name;
  int tier = 0;  ///< topology tier (e.g. 0=host, 1=ToR/leaf, 2=agg, 3=spine)
};

struct LinkSpec {
  NodeId a = kInvalidNode;
  NodeId b = kInvalidNode;
  PortId port_a = kInvalidPort;  ///< port index on a facing b
  PortId port_b = kInvalidPort;  ///< port index on b facing a
  Rate rate = Rate::gbps(40);
  Time delay = Time{1'000'000};  ///< one-way propagation, default 1 us
};

/// One endpoint's view of an attachment: the local port and the peer.
struct PortPeer {
  NodeId peer_node = kInvalidNode;
  PortId peer_port = kInvalidPort;
  std::uint32_t link = 0;  ///< index into links()
};

class Topology {
 public:
  NodeId add_switch(std::string name = {}, int tier = 1);
  NodeId add_host(std::string name = {});

  /// Adds a full-duplex link; returns its index. Port numbers on each side
  /// are assigned sequentially.
  std::uint32_t add_link(NodeId a, NodeId b, Rate rate = Rate::gbps(40),
                         Time delay = Time{1'000'000});

  std::size_t node_count() const { return nodes_.size(); }
  std::size_t link_count() const { return links_.size(); }
  const NodeSpec& node(NodeId id) const { return nodes_.at(id); }
  NodeSpec& node(NodeId id) { return nodes_.at(id); }
  const LinkSpec& link(std::uint32_t idx) const { return links_.at(idx); }
  bool is_switch(NodeId id) const { return node(id).kind == NodeKind::kSwitch; }
  bool is_host(NodeId id) const { return node(id).kind == NodeKind::kHost; }

  /// Number of ports on a node.
  std::size_t degree(NodeId id) const { return ports_.at(id).size(); }

  /// Peer of (node, port).
  const PortPeer& peer(NodeId id, PortId port) const {
    return ports_.at(id).at(port);
  }

  /// All attachments of a node.
  const std::vector<PortPeer>& ports(NodeId id) const { return ports_.at(id); }

  /// First port on `from` whose peer is `to`, if any.
  std::optional<PortId> port_towards(NodeId from, NodeId to) const;

  /// All host node ids / switch node ids.
  std::vector<NodeId> hosts() const;
  std::vector<NodeId> switches() const;

  /// The unique host attached to a switch port, scanning ports; nullopt if
  /// the switch has no host.
  std::optional<NodeId> first_host_of(NodeId sw) const;

  std::string describe() const;

 private:
  std::vector<NodeSpec> nodes_;
  std::vector<LinkSpec> links_;
  std::vector<std::vector<PortPeer>> ports_;
};

}  // namespace dcdl
