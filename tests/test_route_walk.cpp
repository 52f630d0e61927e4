// The route walk and its readers — the buffer dependency graph, the risk
// report, the per-channel utilization and the paths — pinned as FNV-1a
// digests over a battery of networks: every registry scenario, the paper's
// figures, TTL-expiring loops, class-remapping mitigations, two fabrics and
// a blackholed and a misrouted flow.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "dcdl/analysis/bdg.hpp"
#include "dcdl/analysis/risk.hpp"
#include "dcdl/analysis/route_walk.hpp"
#include "dcdl/campaign/registry.hpp"
#include "dcdl/device/switch.hpp"
#include "dcdl/routing/compute.hpp"
#include "dcdl/scenarios/scenario.hpp"
#include "dcdl/topo/generators.hpp"

namespace dcdl::analysis {
namespace {

/// Order-sensitive FNV-1a over 64-bit words.
struct Fnv {
  std::uint64_t h = 14695981039346656037ULL;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFFu;
      h *= 1099511628211ULL;
    }
  }
  void key(const QueueKey& q) {
    mix(q.node);
    mix(q.port);
    mix(q.cls);
  }
  void bits(double d) { mix(std::bit_cast<std::uint64_t>(d)); }
};

struct Digests {
  std::uint64_t graph;  ///< vertex count, every edge in order, cycles, loops
  std::uint64_t risk;   ///< the whole RiskReport but its walk
  std::uint64_t util;   ///< every channel's utilization bits
  std::uint64_t paths;  ///< each flow's path as (node, port) channels
};

Digests digest(const Network& net, const std::vector<FlowSpec>& flows,
               const std::vector<Rate>& demands) {
  Digests out{};
  const auto g = BufferDependencyGraph::build(net, flows);
  Fnv gd;
  gd.mix(g.vertices().size());
  std::size_t edges = 0;
  for (std::size_t v = 0; v < g.vertices().size(); ++v) {
    for (const std::uint32_t t : g.successors(v)) {
      gd.key(g.vertices()[v]);
      gd.key(g.vertices()[t]);
      ++edges;
    }
  }
  gd.mix(edges);
  const auto cycles = g.cycles();
  gd.mix(cycles.size());
  for (const auto& c : cycles) {
    gd.mix(c.size());
    for (const QueueKey& q : c) gd.key(q);
  }
  gd.mix(g.looping_flows().size());
  for (const FlowId f : g.looping_flows()) gd.mix(f);
  out.graph = gd.h;

  const RiskReport r = assess_deadlock_risk(net, flows, demands);
  Fnv rd;
  rd.mix(r.cbd_present);
  rd.mix(r.cycles.size());
  for (const CycleRisk& c : r.cycles) {
    rd.mix(c.cycle.size());
    for (const QueueKey& q : c.cycle) rd.key(q);
    for (const double u : c.link_utilization) rd.bits(u);
    rd.bits(c.min_utilization);
    rd.mix(static_cast<std::uint64_t>(c.slack_links));
    rd.mix(c.weakest_hop);
  }
  rd.bits(r.max_risk);
  rd.mix(r.stable_rates.size());
  for (const Rate x : r.stable_rates) {
    rd.mix(static_cast<std::uint64_t>(x.bps()));
  }
  rd.mix(r.looping_flows.size());
  for (const FlowId f : r.looping_flows) rd.mix(f);
  out.risk = rd.h;

  Fnv ud;
  ud.mix(r.utilization.size());
  for (const double u : r.utilization) ud.bits(u);
  out.util = ud.h;

  Fnv pd;
  for (std::size_t i = 0; i < r.walk.flows(); ++i) {
    pd.mix(r.walk.path(i).size());
    for (const Hop& h : r.walk.path(i)) {
      pd.mix(h.node);
      pd.mix(h.port);
    }
  }
  out.paths = pd.h;
  return out;
}

void expect_pinned(const std::string& name, const scenarios::Scenario& s,
                   const std::vector<Rate>& demands, const Digests& want) {
  SCOPED_TRACE(name);
  const Digests got = digest(*s.net, s.flows, demands);
  EXPECT_EQ(got.graph, want.graph);
  EXPECT_EQ(got.risk, want.risk);
  EXPECT_EQ(got.util, want.util);
  EXPECT_EQ(got.paths, want.paths);
}

TEST(RouteWalkPins, RegistryScenarioDefaults) {
  const std::vector<std::pair<std::string, Digests>> pins = {
      {"fluid_gap",
       {0x792AF7E8AB263D07ULL, 0xABEC1AF1895B3789ULL, 0x90AC9911661D1C7AULL,
        0x62542A1BEAD06725ULL}},
      {"four_switch",
       {0x4DB681C18A4A1021ULL, 0x2E432A0F41F9960CULL, 0xFF9B56CA7A7870B5ULL,
        0xA862043C3BBD8A07ULL}},
      {"incast",
       {0x73FCBFAEB29F2B20ULL, 0x4528EF0D3DFC3E4DULL, 0xFAFF9B54B84C3DE8ULL,
        0x87FA90AFFD6CE025ULL}},
      {"ring",
       {0x68CDEC1414DB0186ULL, 0x6CDED57084B19A61ULL, 0x11285F08516D0134ULL,
        0xACC5531707534DA2ULL}},
      {"risk_probe",
       {0x4DB681C18A4A1021ULL, 0x2E432A0F41F9960CULL, 0xFF9B56CA7A7870B5ULL,
        0xA862043C3BBD8A07ULL}},
      {"routing_loop",
       {0x792AF7E8AB263D07ULL, 0xABEC1AF1895B3789ULL, 0x90AC9911661D1C7AULL,
        0x62542A1BEAD06725ULL}},
      {"transient_loop",
       {0x887E4DE356B08946ULL, 0x737623CD9575F60AULL, 0xD5DADD620211CADAULL,
        0x43596312DFE11D04ULL}},
      {"valley",
       {0x75174EF1B40B0386ULL, 0xDAEC4F28D7ACD9D2ULL, 0x56376B41C7BFE625ULL,
        0xDBF7771C7506610BULL}},
  };
  const auto& registry = campaign::ScenarioRegistry::global();
  ASSERT_EQ(registry.names().size(), pins.size());
  for (const auto& [name, want] : pins) {
    const scenarios::Scenario s =
        registry.at(name).make(campaign::ParamMap{});
    expect_pinned(name, s, {}, want);
  }
}

TEST(RouteWalkPins, Figure5Demands) {
  scenarios::FourSwitchParams p;
  p.with_flow3 = true;
  const scenarios::Scenario s = scenarios::make_four_switch(p);
  expect_pinned("2 Gbps", s, {Rate::zero(), Rate::zero(), Rate::gbps(2)},
                {0x90D4F272C0DA0061ULL, 0xB5C35B54CCB348A1ULL,
                 0x6A7DC0A6CE225D3DULL, 0x6D506F6D28D2B80DULL});
  expect_pinned("3 Gbps", s, {Rate::zero(), Rate::zero(), Rate::gbps(3)},
                {0x90D4F272C0DA0061ULL, 0xE24FA1C531767A1FULL,
                 0x23A1F2344C19240BULL, 0x6D506F6D28D2B80DULL});
}

TEST(RouteWalkPins, RoutingLoopAcrossTtls) {
  // The 2-switch loop at 6 Gbps. At TTL 1 S1 drops the packet for TTL, so
  // S1->S0 carries nothing and is not on the path. At TTL 2 S0 drops it
  // on its return: no channel repeats. At TTL 3 the packet re-enters S1's
  // ingress before S1 drops it, so the flow is looping (the graph equals
  // TTL 4's) and both loop channels carry Eq. 2's flux.
  const std::vector<std::pair<int, Digests>> pins = {
      {1,
       {0x887E4DE356B08946ULL, 0x8286D399450E97AEULL, 0xC559C92A47B10B83ULL,
        0x735D49D490AF1085ULL}},
      {2,
       {0x12D37C70E69B3DC5ULL, 0x8286D399450E97AEULL, 0x1B6062F16DF57F8FULL,
        0x62542A1BEAD06725ULL}},
      {3,
       {0x792AF7E8AB263D07ULL, 0x8AC3BC2B5ECB0A8FULL, 0x1FC73DB9061C38F7ULL,
        0x62542A1BEAD06725ULL}},
      {4,
       {0x792AF7E8AB263D07ULL, 0x7A5DB3F55A59DF73ULL, 0xB1DB0C5502E1430FULL,
        0x62542A1BEAD06725ULL}},
      {16,
       {0x792AF7E8AB263D07ULL, 0x804C9F6D65D47DBDULL, 0x66D1AD3815D0858FULL,
        0x62542A1BEAD06725ULL}},
      {64,
       {0x792AF7E8AB263D07ULL, 0x804C9F6D65D47DBDULL, 0x66D1AD3815D0858FULL,
        0x62542A1BEAD06725ULL}},
  };
  for (const auto& [ttl, want] : pins) {
    scenarios::RoutingLoopParams p;
    p.ttl = ttl;
    expect_pinned("ttl " + std::to_string(ttl),
                  scenarios::make_routing_loop(p), {Rate::gbps(6)}, want);
  }
}

TEST(RouteWalkPins, ClassRemappingMitigations) {
  for (const auto& [classes, want] :
       std::vector<std::pair<int, Digests>>{
           {2,
            {0xD09D3B90B5F5D686ULL, 0xDAFCC38D3C3C36C0ULL,
             0x11285F08516D0134ULL, 0xACC5531707534DA2ULL}},
           {4,
            {0xA3B0B6BDB8BAFA8BULL, 0x8EA480D39A9830DDULL,
             0x11285F08516D0134ULL, 0xACC5531707534DA2ULL}}}) {
    scenarios::RingDeadlockParams p;
    p.num_classes = classes;
    p.hop_classes = true;
    expect_pinned("ring, hop classes " + std::to_string(classes),
                  scenarios::make_ring_deadlock(p), {}, want);
  }
  // TTL bands over 8 classes: band 1 still closes a queue loop in the top
  // class; band 2 circulates the forwarding loop through 8 classes and
  // drains without re-entering a queue (no cycle, not looping), yet loads
  // the loop with Eq. 2's flux.
  for (const auto& [band, want] :
       std::vector<std::pair<int, Digests>>{
           {1,
            {0x891840CA29D873C7ULL, 0x951B77D66603589DULL,
             0x66D1AD3815D0858FULL, 0x62542A1BEAD06725ULL}},
           {2,
            {0x52B7F1B58575EB02ULL, 0x8286D399450E97AEULL,
             0x66D1AD3815D0858FULL, 0x62542A1BEAD06725ULL}}}) {
    scenarios::RoutingLoopParams p;
    p.num_classes = 8;
    p.ttl_class_band = band;
    expect_pinned("loop, TTL band " + std::to_string(band),
                  scenarios::make_routing_loop(p), {Rate::gbps(6)}, want);
  }
}

TEST(RouteWalkPins, JellyfishShortestPaths) {
  Simulator sim;
  const topo::JellyfishTopo jf = topo::make_jellyfish(24, 5, 2, 7);
  Network net(sim, jf.topo, NetConfig{});
  routing::install_shortest_paths(net);
  std::vector<NodeId> hosts;
  for (const auto& hs : jf.hosts) {
    hosts.insert(hosts.end(), hs.begin(), hs.end());
  }
  std::vector<FlowSpec> flows;
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    FlowSpec f;
    f.id = static_cast<FlowId>(i + 1);
    f.src_host = hosts[i];
    f.dst_host = hosts[(i * 7 + 5) % hosts.size()];
    if (f.dst_host != f.src_host) flows.push_back(f);
  }
  const Digests got = digest(net, flows, {});
  EXPECT_EQ(got.graph, 0x22E1D8B325B0DC82ULL);
  EXPECT_EQ(got.risk, 0xABC30128FB31528BULL);
  EXPECT_EQ(got.util, 0x759140B0A18AEEC5ULL);
  EXPECT_EQ(got.paths, 0x56C4898C81D70DBBULL);
}

TEST(RouteWalkPins, FatTreeEcmpPermutation) {
  Simulator sim;
  const topo::FatTreeTopo ft = topo::make_fat_tree(8);
  Network net(sim, ft.topo, NetConfig{});
  routing::install_shortest_paths(net, /*ecmp=*/true);
  const std::size_t n = ft.all_hosts.size();
  std::vector<FlowSpec> flows;
  std::vector<Rate> demands;
  for (std::size_t i = 0; i < n; ++i) {
    FlowSpec f;
    f.id = static_cast<FlowId>(i + 1);
    f.src_host = ft.all_hosts[i];
    f.dst_host = ft.all_hosts[(i * 37 + 11) % n];
    flows.push_back(f);
    demands.push_back(i % 3 == 0
                          ? Rate::zero()
                          : Rate::gbps(static_cast<double>(1 + i % 12)));
  }
  const Digests got = digest(net, flows, demands);
  EXPECT_EQ(got.graph, 0x4063CAE2AD1F9938ULL);
  EXPECT_EQ(got.risk, 0x5AE392217ABB969EULL);
  EXPECT_EQ(got.util, 0x3BC2D6198A8B65B3ULL);
  EXPECT_EQ(got.paths, 0x1E7281F2483154AAULL);
}

TEST(RouteWalkPins, BlackholedAndMisroutedFlows) {
  // On a 3-switch line: flow 1 blackholes at the middle switch, flow 2 is
  // delivered to the wrong host by the last switch, flow 3 is routed
  // normally.
  Simulator sim;
  const topo::RingTopo line = topo::make_line(3, 2);
  Network net(sim, line.topo, NetConfig{});
  routing::install_shortest_paths(net);
  const NodeId far = line.hosts[2][0];
  const NodeId far2 = line.hosts[2][1];
  net.switch_at(line.switches[1]).routes().clear_dst_route(far);
  net.switch_at(line.switches[2])
      .routes()
      .set_dst_route(far2, *line.topo.port_towards(line.switches[2], far));
  std::vector<FlowSpec> flows(3);
  flows[0].id = 1;
  flows[0].src_host = line.hosts[0][0];
  flows[0].dst_host = far;
  flows[1].id = 2;
  flows[1].src_host = line.hosts[0][1];
  flows[1].dst_host = far2;
  flows[2].id = 3;
  flows[2].src_host = line.hosts[1][0];
  flows[2].dst_host = line.hosts[0][0];
  const Digests got =
      digest(net, flows, {Rate::gbps(10), Rate::zero(), Rate::gbps(25)});
  EXPECT_EQ(got.graph, 0x6057EB97FC02A164ULL);
  EXPECT_EQ(got.risk, 0x3AC84D22EC5BB37EULL);
  EXPECT_EQ(got.util, 0xA382478C9A918199ULL);
  EXPECT_EQ(got.paths, 0x6FA67C8DC92F57A1ULL);
}

// ---------------------------------------------------------------------------
// The walk itself.

TEST(RouteWalk, HopsFollowTheSwitchUntilTtlDrops) {
  // TTL 2 on the 2-switch loop: host->S0, S0->S1 (TTL 1), S1->S0 (TTL 0);
  // S0 then drops the packet, so no channel repeats and nothing loops.
  scenarios::RoutingLoopParams p;
  p.ttl = 2;
  const scenarios::Scenario s = scenarios::make_routing_loop(p);
  const RouteWalk walk = walk_routes(*s.net, s.flows);
  ASSERT_EQ(walk.flows(), 1u);
  const auto hops = walk.hops(0);
  ASSERT_EQ(hops.size(), 3u);
  EXPECT_EQ(hops[0].node, s.flows[0].src_host);
  EXPECT_EQ(hops[0].ttl, 2);
  EXPECT_EQ(hops[1].ttl, 1);
  EXPECT_EQ(hops[2].ttl, 0);
  for (const Hop& h : hops) {
    EXPECT_EQ(h.channel, s.net->channel_id(h.node, h.port));
  }
  EXPECT_EQ(walk.path(0).size(), 3u);
  EXPECT_EQ(walk.loop_begin(0), 3u);
  EXPECT_FALSE(walk.looping(0));
  EXPECT_TRUE(walk.looping_flows().empty());
}

TEST(RouteWalk, ReenteringAQueueEndsTheWalk) {
  // TTL 16: the fourth hop re-enters S1's ingress in the same class; it is
  // recorded, the path stops before it, and the loop is the two switch
  // hops.
  const scenarios::Scenario s =
      scenarios::make_routing_loop(scenarios::RoutingLoopParams{});
  const RouteWalk walk = walk_routes(*s.net, s.flows);
  const auto hops = walk.hops(0);
  ASSERT_EQ(hops.size(), 4u);
  EXPECT_EQ(hops[3].channel, hops[1].channel);
  EXPECT_EQ(walk.path(0).size(), 3u);
  EXPECT_EQ(walk.loop_begin(0), 1u);
  EXPECT_TRUE(walk.looping(0));
  EXPECT_EQ(walk.looping_flows(), std::vector<FlowId>{1});
}

TEST(RouteWalk, TtlBandsCirculateWithoutReenteringAQueue) {
  // Band 2 over 8 classes at TTL 16: the packet crosses each loop channel
  // eight times, one class per TTL band, and drains at TTL 0.
  scenarios::RoutingLoopParams p;
  p.num_classes = 8;
  p.ttl_class_band = 2;
  const scenarios::Scenario s = scenarios::make_routing_loop(p);
  const RouteWalk walk = walk_routes(*s.net, s.flows);
  EXPECT_EQ(walk.hops(0).size(), 17u);
  EXPECT_EQ(walk.path(0).size(), 3u);
  EXPECT_EQ(walk.loop_begin(0), 1u);
  EXPECT_FALSE(walk.looping(0));
  EXPECT_EQ(walk.hops(0)[1].cls, 7);
  EXPECT_EQ(walk.hops(0)[16].cls, 0);
}

}  // namespace
}  // namespace dcdl::analysis
