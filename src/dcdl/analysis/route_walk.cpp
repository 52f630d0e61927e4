#include "dcdl/analysis/route_walk.hpp"

#include <algorithm>

#include "dcdl/common/contract.hpp"
#include "dcdl/device/switch.hpp"

namespace dcdl::analysis {

std::vector<FlowId> RouteWalk::looping_flows() const {
  std::vector<FlowId> out;
  for (const Route& r : routes_) {
    if (r.looping) out.push_back(r.flow);
  }
  return out;
}

RouteWalk walk_routes(const Network& net, const std::vector<FlowSpec>& flows) {
  const Topology& topo = net.topo();
  const NetConfig& cfg = net.config();
  RouteWalk walk;
  walk.routes_.reserve(flows.size());
  for (const FlowSpec& flow : flows) {
    const auto first = static_cast<std::uint32_t>(walk.hops_.size());
    RouteWalk::Route route{flow.id, first, 0, 0, 0, false};
    bool repeat = false;  // some channel crossed twice
    Packet pkt{.flow = flow.id, .src = flow.src_host, .dst = flow.dst_host,
               .ttl = flow.ttl, .prio = flow.prio};
    NodeId node = flow.src_host;
    PortId port = 0;  // hosts transmit on their single port
    while (true) {
      const auto channel =
          static_cast<std::uint32_t>(net.channel_id(node, port));
      // A route ends within TTL hops: scanning its own hops finds a repeat.
      const auto begin = walk.hops_.begin() + first;
      const auto seen =
          std::find_if(begin, walk.hops_.end(),
                       [&](const Hop& h) { return h.channel == channel; });
      if (seen != walk.hops_.end()) {
        if (!repeat) {
          repeat = true;
          route.path = static_cast<std::uint32_t>(walk.hops_.size() - first);
          route.loop = static_cast<std::uint32_t>(seen - begin);
        }
        route.looping = std::any_of(seen, walk.hops_.end(), [&](const Hop& h) {
          return h.channel == channel && h.cls == pkt.prio;
        });
      }
      walk.hops_.push_back(Hop{channel, node, port, pkt.prio, pkt.ttl});
      if (route.looping) break;
      const NodeId next = topo.peer(node, port).peer_node;
      if (!topo.is_switch(next)) break;  // delivered
      const auto egress =
          net.switch_at(next).routes().lookup(flow.id, flow.dst_host);
      if (!egress) break;  // blackhole
      if (topo.is_switch(topo.peer(next, *egress).peer_node)) {
        if (pkt.ttl == 0) break;  // dropped for TTL
        pkt.ttl -= 1;
        pkt.hops += 1;
      }
      if (cfg.reclass) {
        pkt.prio = cfg.reclass(pkt, next);
        DCDL_ASSERT(pkt.prio < cfg.num_classes);
      }
      node = next;
      port = *egress;
    }
    route.count = static_cast<std::uint32_t>(walk.hops_.size() - first);
    if (!repeat) route.path = route.loop = route.count;
    walk.routes_.push_back(route);
  }
  return walk;
}

}  // namespace dcdl::analysis
