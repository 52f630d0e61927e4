// Deadlock risk analyzer: the tighter-than-CBD condition. The score must
// separate the paper's Figure-3 (cycle, util 0.5, safe) from Figure-4
// (cycle, util 1.0, deadlocks) and reduce to the boundary model on loops.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "dcdl/analysis/risk.hpp"
#include "dcdl/device/switch.hpp"
#include "dcdl/routing/compute.hpp"
#include "dcdl/scenarios/scenario.hpp"
#include "dcdl/topo/generators.hpp"

namespace dcdl::analysis {
namespace {

using namespace dcdl::literals;
using namespace dcdl::scenarios;

TEST(StableRates, FourSwitchSharesAreTwenty) {
  Scenario s = make_four_switch(FourSwitchParams{});
  const auto rates = stable_flow_rates(*s.net, s.flows);
  ASSERT_EQ(rates.size(), 2u);
  EXPECT_NEAR(rates[0].as_gbps(), 20.0, 0.5);
  EXPECT_NEAR(rates[1].as_gbps(), 20.0, 0.5);
}

TEST(StableRates, ThreeFlowsStillTwenty) {
  // The paper: "it is easy to see that all flows should have 20Gbps
  // throughput" — the analyzer's fair shares agree.
  FourSwitchParams p;
  p.with_flow3 = true;
  Scenario s = make_four_switch(p);
  const auto rates = stable_flow_rates(*s.net, s.flows);
  ASSERT_EQ(rates.size(), 3u);
  for (const Rate r : rates) EXPECT_NEAR(r.as_gbps(), 20.0, 0.5);
}

TEST(StableRates, DemandCapsBind) {
  FourSwitchParams p;
  p.with_flow3 = true;
  Scenario s = make_four_switch(p);
  const auto rates =
      stable_flow_rates(*s.net, s.flows,
                        {Rate::zero(), Rate::zero(), Rate::gbps(2)});
  EXPECT_NEAR(rates[2].as_gbps(), 2.0, 0.1);
  // Flow 1 inherits the slack on B->C but stays bottlenecked at 20 by the
  // shared links elsewhere.
  EXPECT_NEAR(rates[0].as_gbps(), 20.0, 0.5);
}

TEST(Risk, Figure3CycleHasTwoSlackLinks) {
  Scenario s = make_four_switch(FourSwitchParams{});
  const RiskReport r = assess_deadlock_risk(*s.net, s.flows);
  EXPECT_TRUE(r.cbd_present);
  ASSERT_EQ(r.cycles.size(), 1u);
  // B->C carries only flow 1 and D->A only flow 2: two slack links at
  // utilization 0.5 interleave with the two saturated ones.
  EXPECT_EQ(r.cycles[0].slack_links, 2);
  EXPECT_NEAR(r.cycles[0].min_utilization, 0.5, 0.05);
  EXPECT_FALSE(r.deadlock_reachable());
}

TEST(Risk, Figure4LeavesOneSlackLink) {
  // Flow 3 saturates B->C; only D->A (0.5) remains slack, and one slack
  // link cannot stop the pause-compounding cascade: reachable.
  FourSwitchParams p;
  p.with_flow3 = true;
  Scenario s = make_four_switch(p);
  const RiskReport r = assess_deadlock_risk(*s.net, s.flows);
  EXPECT_TRUE(r.cbd_present);
  ASSERT_EQ(r.cycles.size(), 1u);
  EXPECT_EQ(r.cycles[0].slack_links, 1);
  EXPECT_TRUE(r.deadlock_reachable());
}

TEST(Risk, Figure5LimiterLowersTheScore) {
  FourSwitchParams p;
  p.with_flow3 = true;
  Scenario s = make_four_switch(p);
  const RiskReport at2 = assess_deadlock_risk(
      *s.net, s.flows, {Rate::zero(), Rate::zero(), Rate::gbps(2)});
  // B->C now carries 20 + 2 of 40: back to two slack links.
  ASSERT_EQ(at2.cycles.size(), 1u);
  EXPECT_EQ(at2.cycles[0].slack_links, 2);
  EXPECT_NEAR(at2.cycles[0].min_utilization, 0.5, 0.05);
  EXPECT_FALSE(at2.deadlock_reachable());
}

TEST(Risk, WeakestHopIsTheRateLimitingTarget) {
  // §4 "intelligent rate limiting": the analyzer names the hop to shape.
  Scenario s = make_four_switch(FourSwitchParams{});
  const RiskReport r = assess_deadlock_risk(*s.net, s.flows);
  ASSERT_EQ(r.cycles.size(), 1u);
  const CycleRisk& cycle = r.cycles[0];
  // The weakest link enters B's or A's RX1 (the two 0.5-utilization hops
  // B->C and D->A feed C.RX1 and A.RX1; weakest_hop picks the first).
  const QueueKey into =
      cycle.cycle[(cycle.weakest_hop + 1) % cycle.cycle.size()];
  EXPECT_TRUE(into.node == s.node("C") || into.node == s.node("A"));
}

TEST(Risk, LoopRiskEqualsBoundaryRatio) {
  // Loop risk = r / (n*B/TTL): 4 Gbps of 5 -> 0.8; 10 of 5 -> capped 1.0.
  {
    RoutingLoopParams p;
    p.inject = Rate::gbps(4);
    Scenario s = make_routing_loop(p);
    const RiskReport r =
        assess_deadlock_risk(*s.net, s.flows, {Rate::gbps(4)});
    EXPECT_TRUE(r.cbd_present);
    EXPECT_NEAR(r.max_risk, 0.8, 0.05);
    EXPECT_FALSE(r.deadlock_reachable());  // every loop link slack at 0.8
  }
  {
    RoutingLoopParams p;
    p.inject = Rate::gbps(10);
    Scenario s = make_routing_loop(p);
    const RiskReport r =
        assess_deadlock_risk(*s.net, s.flows, {Rate::gbps(10)});
    EXPECT_NEAR(r.max_risk, 1.0, 0.01);
    EXPECT_TRUE(r.deadlock_reachable());  // all loop links saturated
  }
}

TEST(Risk, RingDeadlockScenarioSaturates) {
  Scenario s = make_ring_deadlock(RingDeadlockParams{});
  const RiskReport r = assess_deadlock_risk(*s.net, s.flows);
  EXPECT_TRUE(r.cbd_present);
  EXPECT_NEAR(r.max_risk, 1.0, 0.01);
}

TEST(Risk, NoCycleMeansZeroRisk) {
  Scenario s = make_incast(IncastParams{});
  const RiskReport r = assess_deadlock_risk(*s.net, s.flows);
  EXPECT_FALSE(r.cbd_present);
  EXPECT_EQ(r.max_risk, 0.0);
  EXPECT_FALSE(r.deadlock_reachable());
}

TEST(Risk, PredictionsMatchSimulationOutcomes) {
  // The headline property: across the canonical scenarios, a reachable
  // score (>= 0.99) coincides with observed deadlock and an unsaturable
  // score (< 0.9) with survival. (The stochastic 0.9-1.0 band is reported
  // honestly by bench_risk_score.)
  struct Case {
    const char* name;
    bool expect_deadlock;
  };
  // fig3: two slack links, predicted safe, observed safe.
  {
    Scenario s = make_four_switch(FourSwitchParams{});
    const bool reachable =
        assess_deadlock_risk(*s.net, s.flows).deadlock_reachable();
    const bool deadlocked = run_and_check(s, 15_ms, 10_ms).deadlocked;
    EXPECT_FALSE(reachable);
    EXPECT_FALSE(deadlocked);
  }
  // fig4: one slack link, predicted reachable, observed deadlock.
  {
    FourSwitchParams p;
    p.with_flow3 = true;
    Scenario s = make_four_switch(p);
    const bool reachable =
        assess_deadlock_risk(*s.net, s.flows).deadlock_reachable();
    const bool deadlocked = run_and_check(s, 15_ms, 10_ms).deadlocked;
    EXPECT_TRUE(reachable);
    EXPECT_TRUE(deadlocked);
  }
}

// ---------------------------------------------------------------------------
// Exact pins of the stable-state analysis on a realistic fabric: every
// stable rate in bps and the bits of every nonzero channel utilization.

/// Order-sensitive FNV-1a over 64-bit words.
struct Fnv {
  std::uint64_t h = 14695981039346656037ULL;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFFu;
      h *= 1099511628211ULL;
    }
  }
};

TEST(StableRates, FatTreeRatesAndUtilizationPinned) {
  // k=8 fat-tree on ECMP shortest paths; 96 flows with demands cycling
  // through greedy and 1..12 Gbps, plus a flow caught in a two-switch
  // edge<->agg loop and a flow blackholed at its edge switch.
  Simulator sim;
  const topo::FatTreeTopo ft = topo::make_fat_tree(8);
  Network net(sim, ft.topo, NetConfig{});
  routing::install_shortest_paths(net);
  const std::size_t n = ft.all_hosts.size();
  const NodeId loop_dst = ft.all_hosts[n - 1];
  const NodeId hole_dst = ft.all_hosts[n - 2];
  std::vector<FlowSpec> flows;
  std::vector<Rate> demands;
  for (std::size_t i = 0; i < 96; ++i) {
    std::size_t dst = (i * 37 + 11) % n;
    if (dst == i || dst >= n - 2) dst = (dst + 5) % (n - 2);
    FlowSpec f;
    f.id = static_cast<FlowId>(i + 1);
    f.src_host = ft.all_hosts[i];
    f.dst_host = ft.all_hosts[dst];
    flows.push_back(f);
    demands.push_back(i % 3 == 0 ? Rate::zero()
                                 : Rate::gbps(static_cast<double>(1 + i % 12)));
  }
  FlowSpec looper;
  looper.id = 97;
  looper.src_host = ft.all_hosts[1];
  looper.dst_host = loop_dst;
  looper.ttl = 16;
  flows.push_back(looper);
  demands.push_back(Rate::gbps(6));
  routing::install_loop_route(net, loop_dst, {ft.edge[0][0], ft.agg[0][0]});
  FlowSpec holed;
  holed.id = 98;
  holed.src_host = ft.all_hosts[2];
  holed.dst_host = hole_dst;
  flows.push_back(holed);
  demands.push_back(Rate::zero());
  net.switch_at(ft.edge[0][0]).routes().clear_dst_route(hole_dst);

  const std::vector<Rate> rates = stable_flow_rates(net, flows, demands);
  const RiskReport report = assess_deadlock_risk(net, flows, demands);
  ASSERT_EQ(report.stable_rates, rates);
  EXPECT_TRUE(report.cbd_present);
  EXPECT_EQ(report.looping_flows, std::vector<FlowId>{97});
  EXPECT_EQ(walk_routes(net, {holed}).path(0).size(), 1u);
  Fnv rd;
  for (const Rate r : rates) rd.mix(static_cast<std::uint64_t>(r.bps()));
  EXPECT_EQ(rd.h, 16797723390366985624ULL);

  // Utilization of the same demands, from the report's stable rates.
  const std::vector<double>& util = report.utilization;
  ASSERT_EQ(util.size(), net.channel_count());
  Fnv ud;
  std::size_t nonzero = 0;
  for (NodeId node = 0; node < ft.topo.node_count(); ++node) {
    for (PortId port = 0; port < ft.topo.degree(node); ++port) {
      const double u = util[net.channel_id(node, port)];
      if (u == 0.0) continue;
      ++nonzero;
      ud.mix(node);
      ud.mix(port);
      ud.mix(std::bit_cast<std::uint64_t>(u));
    }
  }
  EXPECT_EQ(nonzero, 443u);
  EXPECT_EQ(ud.h, 15914452979974475609ULL);
}

}  // namespace
}  // namespace dcdl::analysis
