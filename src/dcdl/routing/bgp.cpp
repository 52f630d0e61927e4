#include "dcdl/routing/bgp.hpp"

#include <algorithm>

#include "dcdl/common/contract.hpp"
#include "dcdl/device/switch.hpp"

namespace dcdl::routing {

BgpFabric::BgpFabric(Network& net, Params params)
    : net_(net), params_(params), rng_(params.seed) {
  rib_.resize(net.topo().node_count());
  best_.resize(net.topo().node_count());
}

void BgpFabric::start() {
  const Topology& topo = net_.topo();
  for (const NodeId sw : topo.switches()) {
    const auto& ports = topo.ports(sw);
    for (PortId p = 0; p < ports.size(); ++p) {
      const NodeId peer = ports[p].peer_node;
      if (!topo.is_host(peer)) continue;
      best_[sw][peer] = std::vector<NodeId>{};  // directly attached
      net_.switch_at(sw).routes().set_dst_route(peer, p);
      advertise(sw, peer);
    }
  }
}

void BgpFabric::send(NodeId from, PortId port, Advertisement adv) {
  const Topology& topo = net_.topo();
  const PortPeer& pp = topo.peer(from, port);
  if (!topo.is_switch(pp.peer_node)) return;
  const std::uint32_t link = pp.link;
  if (link_failed(link)) return;
  ++messages_sent_;
  ++pending_messages_;
  const Time latency =
      topo.link(link).delay + params_.processing_delay +
      Time{static_cast<std::int64_t>(rng_.uniform(
          static_cast<std::uint64_t>(params_.processing_jitter.ps()) + 1))};
  const NodeId to = pp.peer_node;
  const PortId in_port = pp.peer_port;
  net_.sim().schedule_in(latency, [this, to, in_port, link, adv] {
    --pending_messages_;
    if (link_failed(link)) return;  // lost with the adjacency
    deliver(to, in_port, adv);
  });
}

void BgpFabric::advertise(NodeId sw, NodeId dst) {
  const Topology& topo = net_.topo();
  const auto& best = best_[sw][dst];
  Advertisement adv;
  adv.dst = dst;
  adv.withdraw = !best.has_value();
  if (best) {
    adv.as_path.reserve(best->size() + 1);
    adv.as_path.push_back(sw);
    adv.as_path.insert(adv.as_path.end(), best->begin(), best->end());
  }
  const auto& ports = topo.ports(sw);
  for (PortId p = 0; p < ports.size(); ++p) {
    if (topo.is_switch(ports[p].peer_node)) send(sw, p, adv);
  }
}

void BgpFabric::deliver(NodeId to, PortId in_port, Advertisement adv) {
  auto& per_dst = rib_[to][adv.dst];
  if (adv.withdraw) {
    per_dst.erase(in_port);
  } else {
    per_dst[in_port] = adv.as_path;
  }
  reselect(to, adv.dst);
}

void BgpFabric::reselect(NodeId sw, NodeId dst) {
  // Direct attachment always wins and never changes; skip reselection.
  if (const auto it = best_[sw].find(dst);
      it != best_[sw].end() && it->second && it->second->empty()) {
    return;
  }

  const auto& per_dst = rib_[sw][dst];
  std::optional<std::vector<NodeId>> new_best;
  PortId new_port = kInvalidPort;
  for (const auto& [port, path] : per_dst) {
    // AS-path loop prevention.
    if (std::find(path.begin(), path.end(), sw) != path.end()) continue;
    if (!new_best || path.size() < new_best->size() ||
        (path.size() == new_best->size() && port < new_port)) {
      new_best = path;
      new_port = port;
    }
  }

  auto& cur = best_[sw][dst];
  if (cur == new_best && (!new_best || cur == new_best)) {
    // Same path selection; still make sure the egress matches (same path
    // length via a different neighbour counts as a change below).
  }
  const bool changed = cur != new_best;
  if (!changed) return;
  cur = new_best;
  if (new_best) {
    net_.switch_at(sw).routes().set_dst_route(dst, new_port);
  } else {
    net_.switch_at(sw).routes().clear_dst_route(dst);
  }
  net_.notify_routes_changed(sw);
  advertise(sw, dst);
}

void BgpFabric::fail_link(std::uint32_t link) {
  DCDL_EXPECTS(!link_failed(link));
  failed_links_.insert(link);
  const LinkSpec& l = net_.topo().link(link);
  for (const auto& [sw, port] :
       {std::pair{l.a, l.port_a}, std::pair{l.b, l.port_b}}) {
    if (!net_.topo().is_switch(sw)) continue;
    const NodeId peer = net_.topo().peer(sw, port).peer_node;
    if (net_.topo().is_host(peer)) {
      // Lost a directly attached host: withdraw it.
      best_[sw][peer] = std::nullopt;
      net_.switch_at(sw).routes().clear_dst_route(peer);
      advertise(sw, peer);
      continue;
    }
    // Drop every path learned over this port and reselect.
    std::vector<NodeId> affected;
    for (auto& [dst, paths] : rib_[sw]) {
      if (paths.erase(port) > 0) affected.push_back(dst);
    }
    for (const NodeId dst : affected) reselect(sw, dst);
  }
}

void BgpFabric::restore_link(std::uint32_t link) {
  DCDL_EXPECTS(link_failed(link));
  failed_links_.erase(link);
  const LinkSpec& l = net_.topo().link(link);
  for (const auto& [sw, port] :
       {std::pair{l.a, l.port_a}, std::pair{l.b, l.port_b}}) {
    if (!net_.topo().is_switch(sw)) continue;
    const NodeId peer = net_.topo().peer(sw, port).peer_node;
    if (net_.topo().is_host(peer)) {
      best_[sw][peer] = std::vector<NodeId>{};
      net_.switch_at(sw).routes().set_dst_route(peer, port);
      advertise(sw, peer);
      continue;
    }
    // Full-table exchange over the restored adjacency.
    for (const auto& [dst, best] : best_[sw]) {
      if (!best) continue;
      Advertisement adv;
      adv.dst = dst;
      adv.withdraw = false;
      adv.as_path.push_back(sw);
      adv.as_path.insert(adv.as_path.end(), best->begin(), best->end());
      send(sw, port, adv);
    }
  }
}

}  // namespace dcdl::routing
