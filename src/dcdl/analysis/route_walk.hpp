// The route walk: each flow's installed route, walked once and read by
// every analysis of paths — the buffer dependency graph, the stable-rate
// filling and offered load, the hybrid zoom's geometry, the rate-limit
// planner.
//
// A walk forwards like Switch::route_and_enqueue: lookup (a blackhole ends
// the route), on a switch-to-switch hop the TTL check (0 drops) and
// decrement, then the reclass hook. Each hop records the channel it
// crosses, the class it travels in and the TTL it carries. A route also
// ends when the packet re-enters an ingress queue (channel and class) it
// occupied: the flow is *looping*, and that last hop is recorded.
//
// Routes ignore the class, so a channel crossed twice starts a repeat: the
// hops between its two crossings are the forwarding loop Eq. 2 loads. A
// looping flow has one; under class-changing reclass hooks (TTL bands) a
// packet can also circulate it in several classes and drain by TTL
// without re-entering a queue.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dcdl/device/network.hpp"
#include "dcdl/traffic/flow.hpp"

namespace dcdl::analysis {

/// One hop of a walked route: `node` transmits on `port`.
struct Hop {
  std::uint32_t channel;  ///< Network::channel_id(node, port)
  NodeId node;
  PortId port;
  ClassId cls;
  std::uint8_t ttl;
};

class RouteWalk {
 public:
  std::size_t flows() const { return routes_.size(); }
  /// Every hop of flow i's route, from its source host.
  std::span<const Hop> hops(std::size_t i) const {
    return {hops_.data() + routes_[i].first, routes_[i].count};
  }
  /// The hops before a channel's second crossing: each channel the flow
  /// loads once, its forwarding loop (if any) last.
  std::span<const Hop> path(std::size_t i) const {
    return {hops_.data() + routes_[i].first, routes_[i].path};
  }
  /// Where path(i)'s forwarding loop starts; path(i).size() if none.
  std::size_t loop_begin(std::size_t i) const { return routes_[i].loop; }
  bool looping(std::size_t i) const { return routes_[i].looping; }
  /// The looping flows' ids, in input order.
  std::vector<FlowId> looping_flows() const;

 private:
  friend RouteWalk walk_routes(const Network& net,
                               const std::vector<FlowSpec>& flows);
  struct Route {
    FlowId flow;
    std::uint32_t first, count, path, loop;
    bool looping;
  };
  std::vector<Hop> hops_;
  std::vector<Route> routes_;
};

/// Walks every flow over the network's current route tables.
RouteWalk walk_routes(const Network& net, const std::vector<FlowSpec>& flows);

}  // namespace dcdl::analysis
