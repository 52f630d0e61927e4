// Edge cases of the risk analyzer's path walking and rate allocation:
// blackholes, unreachable destinations, empty flow sets, demand vectors.
#include <gtest/gtest.h>

#include <set>

#include "dcdl/analysis/risk.hpp"
#include "dcdl/device/switch.hpp"
#include "dcdl/routing/compute.hpp"
#include "dcdl/topo/generators.hpp"

namespace dcdl::analysis {
namespace {

using namespace dcdl::topo;

TEST(RiskEdges, EmptyFlowSet) {
  Simulator sim;
  const RingTopo line = make_line(2, 1);
  Topology topo = line.topo;
  Network net(sim, topo, NetConfig{});
  routing::install_shortest_paths(net);
  const RiskReport r = assess_deadlock_risk(net, {});
  EXPECT_FALSE(r.cbd_present);
  EXPECT_EQ(r.max_risk, 0.0);
  EXPECT_TRUE(stable_flow_rates(net, {}).empty());
}

TEST(RiskEdges, BlackholedFlowGetsAPrefixOnly) {
  Simulator sim;
  const RingTopo line = make_line(3, 1);
  Topology topo = line.topo;
  Network net(sim, topo, NetConfig{});
  routing::install_shortest_paths(net);
  // Remove the middle switch's route: the flow blackholes there.
  FlowSpec f;
  f.id = 1;
  f.src_host = line.hosts[0][0];
  f.dst_host = line.hosts[2][0];
  net.switch_at(line.switches[1]).routes().clear();
  const RouteWalk walk = walk_routes(net, {f});
  ASSERT_EQ(walk.flows(), 1u);
  // host->S0 and S0->S1; nothing beyond the blackhole.
  EXPECT_EQ(walk.path(0).size(), 2u);
  // Rates still computable (the truncated path is what loads links).
  const auto rates = stable_flow_rates(net, {f});
  EXPECT_EQ(rates.size(), 1u);
}

TEST(RiskEdges, UnreachableDestination) {
  Simulator sim;
  const RingTopo line = make_line(2, 1);
  Topology topo = line.topo;
  Network net(sim, topo, NetConfig{});
  // No routes installed at all.
  FlowSpec f;
  f.id = 1;
  f.src_host = line.hosts[0][0];
  f.dst_host = line.hosts[1][0];
  const RiskReport r = assess_deadlock_risk(net, {f});
  EXPECT_FALSE(r.cbd_present);
}

TEST(RiskEdges, DemandVectorShorterThanFlows) {
  Simulator sim;
  const RingTopo line = make_line(2, 2);
  Topology topo = line.topo;
  Network net(sim, topo, NetConfig{});
  routing::install_shortest_paths(net);
  std::vector<FlowSpec> flows;
  for (FlowId id : {1u, 2u}) {
    FlowSpec f;
    f.id = id;
    f.src_host = line.hosts[0][id - 1];
    f.dst_host = line.hosts[1][id - 1];
    flows.push_back(f);
  }
  // Only flow 1 capped; flow 2 takes what max-min leaves.
  const auto rates = stable_flow_rates(net, flows, {Rate::gbps(4)});
  ASSERT_EQ(rates.size(), 2u);
  EXPECT_NEAR(rates[0].as_gbps(), 4.0, 0.1);
  EXPECT_NEAR(rates[1].as_gbps(), 36.0, 0.5);  // leftover of the S0->S1 link
}

TEST(RiskEdges, StableRatesRespectSharedBottleneck) {
  // Three flows over one 40G link: 13.33 each.
  Simulator sim;
  const RingTopo line = make_line(2, 3);
  Topology topo = line.topo;
  Network net(sim, topo, NetConfig{});
  routing::install_shortest_paths(net);
  std::vector<FlowSpec> flows;
  for (FlowId id : {1u, 2u, 3u}) {
    FlowSpec f;
    f.id = id;
    f.src_host = line.hosts[0][id - 1];
    f.dst_host = line.hosts[1][id - 1];
    flows.push_back(f);
  }
  const auto rates = stable_flow_rates(net, flows);
  for (const Rate r : rates) EXPECT_NEAR(r.as_gbps(), 40.0 / 3, 0.2);
}

TEST(RiskEdges, LoopChannelsAppearOnce) {
  Simulator sim;
  const RingTopo ring = make_ring(3, 1);
  Topology topo = ring.topo;
  Network net(sim, topo, NetConfig{});
  routing::install_loop_route(net, ring.hosts[1][0], ring.switches);
  FlowSpec f;
  f.id = 1;
  f.src_host = ring.hosts[0][0];
  f.dst_host = ring.hosts[1][0];
  f.ttl = 30;
  const RouteWalk walk = walk_routes(net, {f});
  ASSERT_EQ(walk.flows(), 1u);
  // host->S0 plus the 3 distinct loop channels, each exactly once.
  EXPECT_EQ(walk.path(0).size(), 4u);
  std::set<std::uint32_t> uniq;
  for (const Hop& h : walk.path(0)) uniq.insert(h.channel);
  EXPECT_EQ(uniq.size(), walk.path(0).size());
}

/// A flow from S0's host into a 2-switch routing loop, at 6 Gbps.
struct TwoSwitchLoop {
  explicit TwoSwitchLoop(std::uint8_t ttl)
      : ring(make_ring(2, 1)), net(sim, ring.topo, NetConfig{}) {
    routing::install_loop_route(net, ring.hosts[1][0], ring.switches);
    flow.id = 1;
    flow.src_host = ring.hosts[0][0];
    flow.dst_host = ring.hosts[1][0];
    flow.ttl = ttl;
  }
  /// Stable utilization of the channel from switch `a` to switch `b`.
  double util(const RiskReport& r, int a, int b) const {
    const NodeId from = ring.switches[static_cast<std::size_t>(a)];
    const NodeId to = ring.switches[static_cast<std::size_t>(b)];
    return r.utilization[net.channel_id(
        from, *ring.topo.port_towards(from, to))];
  }
  Simulator sim;
  RingTopo ring;
  Network net;
  FlowSpec flow;
};

TEST(RiskEdges, TtlExpiryLoadsOnlyWhatTheSwitchTransmits) {
  // TTL 1: S0 forwards with TTL 0 and S1 drops the packet, so S1->S0
  // carries nothing.
  TwoSwitchLoop loop(1);
  const RiskReport r =
      assess_deadlock_risk(loop.net, {loop.flow}, {Rate::gbps(6)});
  EXPECT_FALSE(r.cbd_present);
  EXPECT_DOUBLE_EQ(loop.util(r, 0, 1), 0.15);
  EXPECT_EQ(loop.util(r, 1, 0), 0.0);
  EXPECT_EQ(r.walk.path(0).size(), 2u);
}

TEST(RiskEdges, LoopFluxAndLoopingFlowAgreeAtSmallTtl) {
  // TTL 3: S0->S1, S1->S0, S0->S1 again — the packet re-enters S1's
  // ingress before S1 drops it for TTL. The flow is looping, and Eq. 2's
  // flux r*TTL/n = 6*3/2 Gbps loads both loop channels at 0.225.
  TwoSwitchLoop loop(3);
  const RiskReport r =
      assess_deadlock_risk(loop.net, {loop.flow}, {Rate::gbps(6)});
  EXPECT_TRUE(r.cbd_present);
  EXPECT_EQ(r.looping_flows, std::vector<FlowId>{1});
  EXPECT_DOUBLE_EQ(loop.util(r, 0, 1), 0.225);
  EXPECT_DOUBLE_EQ(loop.util(r, 1, 0), 0.225);
  ASSERT_EQ(r.cycles.size(), 1u);
  EXPECT_DOUBLE_EQ(r.cycles[0].min_utilization, 0.225);
}

}  // namespace
}  // namespace dcdl::analysis
