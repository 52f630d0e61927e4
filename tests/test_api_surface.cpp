// Coverage of small public API surfaces: clear/reset paths, describe
// helpers, and accessor contracts.
#include <gtest/gtest.h>

#include "dcdl/dcdl.hpp"

namespace dcdl {
namespace {

using namespace dcdl::literals;
using namespace dcdl::topo;

TEST(ApiSurface, TopologyDescribeListsLinks) {
  Topology t;
  const NodeId a = t.add_switch("alpha");
  const NodeId h = t.add_host("beta");
  t.add_link(a, h, Rate::gbps(10), 2_us);
  const std::string desc = t.describe();
  EXPECT_NE(desc.find("alpha"), std::string::npos);
  EXPECT_NE(desc.find("beta"), std::string::npos);
  EXPECT_NE(desc.find("10.000Gbps"), std::string::npos);
  EXPECT_NE(desc.find("1 links"), std::string::npos);
}

TEST(ApiSurface, ClearIngressShaperReleasesHeldTraffic) {
  Simulator sim;
  const RingTopo line = make_line(2, 1);
  Topology topo = line.topo;
  Network net(sim, topo, NetConfig{});
  routing::install_shortest_paths(net);
  FlowSpec f;
  f.id = 1;
  f.src_host = line.hosts[0][0];
  f.dst_host = line.hosts[1][0];
  f.packet_bytes = 1000;
  net.host_at(f.src_host).add_flow(f);
  const NodeId s0 = line.switches[0];
  const PortId from_h = *topo.port_towards(s0, line.hosts[0][0]);
  net.switch_at(s0).set_ingress_shaper(from_h, Rate::gbps(1), 1000);
  sim.run_until(200_us);
  ASSERT_GT(net.switch_at(s0).shaper_held_bytes(from_h), 0);
  net.switch_at(s0).clear_ingress_shaper(from_h);
  EXPECT_EQ(net.switch_at(s0).shaper_held_bytes(from_h), 0);
  const auto before = net.host_at(f.dst_host).delivered_bytes(1);
  sim.run_until(400_us);
  // Unshaped now: ~40 Gbps instead of 1.
  EXPECT_GT(net.host_at(f.dst_host).delivered_bytes(1) - before, 800'000);
}

TEST(ApiSurface, ClearFlowShaperReleasesHeldTraffic) {
  Simulator sim;
  const RingTopo line = make_line(2, 1);
  Topology topo = line.topo;
  Network net(sim, topo, NetConfig{});
  routing::install_shortest_paths(net);
  FlowSpec f;
  f.id = 7;
  f.src_host = line.hosts[0][0];
  f.dst_host = line.hosts[1][0];
  f.packet_bytes = 1000;
  net.host_at(f.src_host).add_flow(f);
  const NodeId s0 = line.switches[0];
  net.switch_at(s0).set_flow_shaper(7, Rate::gbps(1), 1000);
  sim.run_until(200_us);
  net.switch_at(s0).clear_flow_shaper(7);
  const auto before = net.host_at(f.dst_host).delivered_bytes(7);
  sim.run_until(400_us);
  EXPECT_GT(net.host_at(f.dst_host).delivered_bytes(7) - before, 800'000);
}

TEST(ApiSurface, BdgVerticesAndEdgesAccessors) {
  scenarios::Scenario s =
      scenarios::make_four_switch(scenarios::FourSwitchParams{});
  const auto bdg = analysis::BufferDependencyGraph::build(*s.net, s.flows);
  EXPECT_GE(bdg.vertices().size(), 6u);  // 4 ring RX1 + 2 host ingresses
  std::size_t edge_count = 0;
  for (std::size_t v = 0; v < bdg.vertices().size(); ++v) {
    edge_count += bdg.successors(v).size();
  }
  EXPECT_EQ(edge_count, 6u);  // 4 cycle edges + 2 host-entry edges
}

TEST(ApiSurface, RouteTableIntrospection) {
  RouteTable rt;
  rt.set_flow_route(4, 2);
  rt.set_dst_ecmp(9, std::vector<PortId>{0, 1});
  EXPECT_EQ(rt.dst_candidates(9).size(), 2u);
  EXPECT_EQ(rt.flow_route(4), PortId{2});
  EXPECT_FALSE(rt.flow_route(5).has_value());
  rt.clear();
  EXPECT_FALSE(rt.flow_route(4).has_value());
  EXPECT_TRUE(rt.dst_candidates(9).empty());
}

TEST(ApiSurface, DropReasonNames) {
  EXPECT_STREQ(to_string(DropReason::kTtlExpired), "ttl_expired");
  EXPECT_STREQ(to_string(DropReason::kNoRoute), "no_route");
  EXPECT_STREQ(to_string(DropReason::kBufferOverflow), "buffer_overflow");
  EXPECT_STREQ(to_string(DropReason::kWatchdogReset), "watchdog_reset");
}

TEST(ApiSurface, HostStopFlowIsSelective) {
  Simulator sim;
  const RingTopo line = make_line(2, 1);
  Topology topo = line.topo;
  Network net(sim, topo, NetConfig{});
  routing::install_shortest_paths(net);
  for (const FlowId id : {1u, 2u}) {
    FlowSpec f;
    f.id = id;
    f.src_host = line.hosts[0][0];
    f.dst_host = line.hosts[1][0];
    f.packet_bytes = 1000;
    net.host_at(f.src_host).add_flow(
        f, std::make_unique<TokenBucketPacer>(Rate::gbps(2), 1000));
  }
  sim.run_until(100_us);
  net.host_at(line.hosts[0][0]).stop_flow(1);
  const auto s1 = net.host_at(line.hosts[0][0]).sent_packets(1);
  sim.run_until(300_us);
  EXPECT_EQ(net.host_at(line.hosts[0][0]).sent_packets(1), s1);
  EXPECT_GT(net.host_at(line.hosts[0][0]).sent_packets(2),
            net.host_at(line.hosts[0][0]).sent_packets(1));
}

}  // namespace
}  // namespace dcdl
