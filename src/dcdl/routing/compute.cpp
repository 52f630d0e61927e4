#include "dcdl/routing/compute.hpp"

#include <algorithm>
#include <deque>
#include <limits>

#include "dcdl/common/contract.hpp"
#include "dcdl/device/switch.hpp"

namespace dcdl::routing {

namespace {
constexpr int kInf = std::numeric_limits<int>::max() / 2;
}  // namespace

std::vector<int> hop_distances(const Topology& topo, NodeId dst) {
  std::vector<int> dist(topo.node_count(), kInf);
  std::deque<NodeId> frontier{dst};
  dist[dst] = 0;
  while (!frontier.empty()) {
    const NodeId cur = frontier.front();
    frontier.pop_front();
    // Hosts other than dst never relay traffic.
    if (topo.is_host(cur) && cur != dst) continue;
    for (const auto& pp : topo.ports(cur)) {
      if (dist[pp.peer_node] > dist[cur] + 1) {
        dist[pp.peer_node] = dist[cur] + 1;
        frontier.push_back(pp.peer_node);
      }
    }
  }
  return dist;
}

void install_shortest_paths(Network& net, bool ecmp) {
  const Topology& topo = net.topo();
  // Hosts are single-homed and never relay, so every other switch reaches
  // a host exactly as it reaches the host's attachment switch, and that
  // switch delivers on the host's port: one BFS per attachment switch
  // serves all of its hosts (and they share one interned ECMP group).
  std::vector<std::vector<NodeId>> hosts_at(topo.node_count());
  for (const NodeId h : topo.hosts()) {
    const NodeId attach = topo.peer(h, 0).peer_node;
    if (topo.is_switch(attach)) hosts_at[attach].push_back(h);
  }
  std::vector<PortId> next;
  for (const NodeId attach : topo.switches()) {
    const std::vector<NodeId>& dsts = hosts_at[attach];
    if (dsts.empty()) continue;
    for (const NodeId h : dsts) {
      net.switch_at(attach).routes().set_dst_route(h,
                                                   topo.peer(h, 0).peer_port);
    }
    const std::vector<int> dist = hop_distances(topo, attach);
    for (const NodeId sw : topo.switches()) {
      if (sw == attach || dist[sw] >= kInf) continue;
      next.clear();
      const auto& ports = topo.ports(sw);
      for (PortId p = 0; p < ports.size(); ++p) {
        const NodeId peer = ports[p].peer_node;
        if (topo.is_host(peer)) continue;
        if (dist[peer] == dist[sw] - 1) {
          next.push_back(p);
          if (!ecmp) break;
        }
      }
      if (next.empty()) continue;
      RouteTable& routes = net.switch_at(sw).routes();
      for (const NodeId h : dsts) routes.set_dst_ecmp(h, next);
    }
  }
}

void install_flow_path(Network& net, FlowId flow,
                       const std::vector<NodeId>& path) {
  const Topology& topo = net.topo();
  DCDL_EXPECTS(path.size() >= 2);
  DCDL_EXPECTS(topo.is_host(path.front()));
  DCDL_EXPECTS(topo.is_host(path.back()));
  for (std::size_t i = 1; i + 1 < path.size(); ++i) {
    DCDL_EXPECTS(topo.is_switch(path[i]));
    const auto egress = topo.port_towards(path[i], path[i + 1]);
    DCDL_EXPECTS(egress.has_value());
    net.switch_at(path[i]).routes().set_flow_route(flow, *egress);
  }
}

void install_loop_route(Network& net, NodeId dst,
                        const std::vector<NodeId>& cycle) {
  const Topology& topo = net.topo();
  DCDL_EXPECTS(cycle.size() >= 2);
  for (std::size_t i = 0; i < cycle.size(); ++i) {
    const NodeId cur = cycle[i];
    const NodeId nxt = cycle[(i + 1) % cycle.size()];
    DCDL_EXPECTS(topo.is_switch(cur));
    const auto egress = topo.port_towards(cur, nxt);
    DCDL_EXPECTS(egress.has_value());
    net.switch_at(cur).routes().set_dst_route(dst, *egress);
  }
}

std::vector<int> up_down_levels(const Topology& topo) {
  // Classic up*/down*: orient every link by a BFS spanning order from a
  // root switch ("up" = toward the root). The root is the highest-tier
  // switch (ties: largest id), so on fat-trees the orientation agrees with
  // the tier structure, and on flat topologies (Jellyfish) the BFS order
  // still guarantees every pair is connected by an up*down* path (up to
  // the root, down from it, or shorter).
  NodeId root = kInvalidNode;
  for (const NodeId sw : topo.switches()) {
    if (root == kInvalidNode ||
        std::pair(topo.node(sw).tier, sw) >
            std::pair(topo.node(root).tier, root)) {
      root = sw;
    }
  }
  DCDL_EXPECTS(root != kInvalidNode);
  std::vector<int> level(topo.node_count(), kInf);
  std::deque<NodeId> frontier{root};
  level[root] = 0;
  while (!frontier.empty()) {
    const NodeId cur = frontier.front();
    frontier.pop_front();
    for (const auto& pp : topo.ports(cur)) {
      if (!topo.is_switch(pp.peer_node)) continue;
      if (level[pp.peer_node] > level[cur] + 1) {
        level[pp.peer_node] = level[cur] + 1;
        frontier.push_back(pp.peer_node);
      }
    }
  }
  // Hosts sit strictly below their switch.
  for (const NodeId h : topo.hosts()) {
    level[h] = level[topo.peer(h, 0).peer_node] + 1;
  }
  return level;
}

void install_up_down(Network& net, bool ecmp) {
  const Topology& topo = net.topo();
  const std::vector<int> level = up_down_levels(topo);
  const auto is_up = [&](NodeId from, NodeId to) {
    if (level[to] != level[from]) return level[to] < level[from];
    return to < from;
  };

  for (const NodeId dst : topo.hosts()) {
    // D[x]: shortest distance from x to dst using only down moves.
    // Computed by BFS from dst along reverse-down (i.e. up) edges.
    std::vector<int> down_dist(topo.node_count(), kInf);
    down_dist[dst] = 0;
    std::deque<NodeId> frontier{dst};
    while (!frontier.empty()) {
      const NodeId cur = frontier.front();
      frontier.pop_front();
      if (topo.is_host(cur) && cur != dst) continue;
      for (const auto& pp : topo.ports(cur)) {
        const NodeId up_node = pp.peer_node;
        if (!is_up(cur, up_node)) continue;  // need up edge cur -> up_node
        if (down_dist[up_node] > down_dist[cur] + 1) {
          down_dist[up_node] = down_dist[cur] + 1;
          frontier.push_back(up_node);
        }
      }
    }
    // C[x]: shortest up*down* distance. Seed with D, relax up edges to a
    // fixpoint (Bellman-Ford; the up relation is acyclic so this is cheap).
    std::vector<int> cost = down_dist;
    bool changed = true;
    while (changed) {
      changed = false;
      for (const NodeId sw : topo.switches()) {
        for (const auto& pp : topo.ports(sw)) {
          if (!topo.is_switch(pp.peer_node)) continue;
          if (!is_up(sw, pp.peer_node)) continue;
          if (cost[pp.peer_node] < kInf &&
              cost[sw] > cost[pp.peer_node] + 1) {
            cost[sw] = cost[pp.peer_node] + 1;
            changed = true;
          }
        }
      }
    }

    for (const NodeId sw : topo.switches()) {
      std::vector<PortId> next;
      const auto& ports = topo.ports(sw);
      if (down_dist[sw] < kInf) {
        // Destination lies below: go down along shortest down paths.
        for (PortId p = 0; p < ports.size(); ++p) {
          const NodeId peer = ports[p].peer_node;
          if (topo.is_host(peer) && peer != dst) continue;
          if (is_up(sw, peer)) continue;
          if (down_dist[peer] == down_dist[sw] - 1) next.push_back(p);
        }
      } else if (cost[sw] < kInf) {
        // Go up toward the cheapest up neighbour.
        int best = kInf;
        for (PortId p = 0; p < ports.size(); ++p) {
          const NodeId peer = ports[p].peer_node;
          if (!topo.is_switch(peer) || !is_up(sw, peer)) continue;
          best = std::min(best, cost[peer]);
        }
        for (PortId p = 0; p < ports.size(); ++p) {
          const NodeId peer = ports[p].peer_node;
          if (!topo.is_switch(peer) || !is_up(sw, peer)) continue;
          if (cost[peer] == best) next.push_back(p);
        }
      }
      if (!next.empty()) {
        if (!ecmp) next.resize(1);
        net.switch_at(sw).routes().set_dst_ecmp(dst, next);
      }
    }
  }
}

std::vector<NodeId> shortest_path(const Topology& topo, NodeId src_host,
                                  NodeId dst_host) {
  const std::vector<int> dist = hop_distances(topo, dst_host);
  if (dist[src_host] >= kInf) return {};
  std::vector<NodeId> path{src_host};
  NodeId cur = src_host;
  while (cur != dst_host) {
    NodeId best = kInvalidNode;
    for (const auto& pp : topo.ports(cur)) {
      if (topo.is_host(pp.peer_node) && pp.peer_node != dst_host) continue;
      if (dist[pp.peer_node] == dist[cur] - 1) {
        best = pp.peer_node;
        break;
      }
    }
    DCDL_ASSERT(best != kInvalidNode);
    path.push_back(best);
    cur = best;
  }
  return path;
}

std::optional<std::vector<NodeId>> find_forwarding_loop(const Network& net,
                                                        NodeId dst) {
  const Topology& topo = net.topo();
  // 0 = unvisited, 1 = on current walk, 2 = known loop-free.
  std::vector<int> color(topo.node_count(), 0);
  for (const NodeId start : topo.switches()) {
    if (color[start] != 0) continue;
    std::vector<NodeId> trail;
    NodeId cur = start;
    while (true) {
      if (!topo.is_switch(cur)) break;  // reached a host: done
      if (color[cur] == 1) {
        const auto begin = std::find(trail.begin(), trail.end(), cur);
        return std::vector<NodeId>(begin, trail.end());
      }
      if (color[cur] == 2) break;
      color[cur] = 1;
      trail.push_back(cur);
      const auto egress = net.switch_at(cur).routes().lookup(0, dst);
      if (!egress) break;  // blackhole: no loop this way
      cur = topo.peer(cur, *egress).peer_node;
    }
    for (const NodeId n : trail) color[n] = 2;
  }
  return std::nullopt;
}

}  // namespace dcdl::routing
