// Hybrid fluid/packet engine: verdict-equivalence guarantees and the
// risk-guided zoom.
//
// The contract under test (ISSUE: "hard bar"): on every campaign-suite
// deadlock scenario the hybrid engine reports the same deadlock verdict,
// the same detection time, and the same forensics trigger attribution as
// the pure packet run — by construction, because nothing in a congested
// cyclic-dependency workload is fluidization-eligible. And on a fabric
// with genuinely steady unsaturated traffic the engine must actually
// fluidize (otherwise the zoom is dead weight) while delivering the same
// bytes the packet level would.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dcdl/analysis/fluid.hpp"
#include "dcdl/campaign/campaign.hpp"
#include "dcdl/device/host.hpp"
#include "dcdl/device/network.hpp"
#include "dcdl/hybrid/hybrid.hpp"
#include "dcdl/routing/compute.hpp"
#include "dcdl/scenarios/scenario.hpp"
#include "dcdl/sim/sharded.hpp"
#include "dcdl/topo/generators.hpp"
#include "dcdl/traffic/flow.hpp"

namespace dcdl {
namespace {

using namespace dcdl::literals;
using namespace dcdl::campaign;

/// Runs one registry scenario cell standalone under the given hybrid mode.
RunRecord run_one(const std::string& scenario, const ParamMap& base,
                  hybrid::Mode mode, Time run_for = 6_ms,
                  Time drain = 16_ms) {
  ScenarioRegistry reg;
  register_builtin_scenarios(reg);
  SweepSpec spec;
  spec.scenario = scenario;
  spec.base = base;
  spec.seeds_per_cell = 1;
  spec.root_seed = 7;
  spec.run_for = run_for;
  spec.drain_grace = drain;
  spec.monitor_dwell = 1_ms;
  const std::vector<RunSpec> runs = expand(spec);
  ExecutorOptions opts;
  opts.hybrid.mode = mode;
  return execute_run(reg, runs[0], nullptr, opts);
}

std::vector<std::pair<std::string, double>> forensics_of(
    const RunRecord& r) {
  std::vector<std::pair<std::string, double>> out;
  for (const auto& kv : r.telemetry) {
    if (kv.first.rfind("forensics.", 0) == 0) out.push_back(kv);
  }
  return out;
}

/// The hard bar: same verdict, same detection time, same trapped bytes,
/// same per-flow delivered stream, same forensics trigger attribution.
/// On these congested workloads nothing is eligible to fluidize, so the
/// equivalence is exact, not approximate.
void expect_equivalent(const RunRecord& off, const RunRecord& hy,
                       const char* label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(off.status, RunStatus::kOk);
  ASSERT_EQ(hy.status, RunStatus::kOk);
  EXPECT_EQ(off.deadlocked, hy.deadlocked);
  EXPECT_DOUBLE_EQ(off.detect_ms, hy.detect_ms);
  EXPECT_EQ(off.trapped_bytes, hy.trapped_bytes);
  EXPECT_DOUBLE_EQ(off.goodput_gbps, hy.goodput_gbps);
  EXPECT_EQ(off.pause_assertions, hy.pause_assertions);
  EXPECT_EQ(off.delivered, hy.delivered);
  EXPECT_EQ(forensics_of(off), forensics_of(hy));
  EXPECT_EQ(off.hybrid_mode, "off");
  EXPECT_EQ(hy.hybrid_mode, "risk");
  EXPECT_EQ(hy.fluid_fraction, 0.0);
}

TEST(HybridEquivalence, Fig2LoopAcrossEq3Boundary) {
  for (const double inject : {4.0, 6.0}) {
    ParamMap base;
    base.set("inject", ParamValue::of_double(inject));
    const RunRecord off = run_one("routing_loop", base, hybrid::Mode::kOff);
    const RunRecord hy = run_one("routing_loop", base, hybrid::Mode::kRisk);
    expect_equivalent(off, hy,
                      inject < 5 ? "loop below threshold"
                                 : "loop above threshold");
    EXPECT_EQ(off.deadlocked, inject > 5.0);
  }
}

TEST(HybridEquivalence, FourSwitchFig3NoThirdFlow) {
  ParamMap base;
  base.set("with_flow3", ParamValue::of_bool(false));
  const RunRecord off =
      run_one("four_switch", base, hybrid::Mode::kOff, 6_ms, 16_ms);
  const RunRecord hy =
      run_one("four_switch", base, hybrid::Mode::kRisk, 6_ms, 16_ms);
  expect_equivalent(off, hy, "fig3 two flows");
  EXPECT_FALSE(off.deadlocked);
}

TEST(HybridEquivalence, FourSwitchFig4GreedyThirdFlow) {
  ParamMap base;
  base.set("with_flow3", ParamValue::of_bool(true));
  const RunRecord off =
      run_one("four_switch", base, hybrid::Mode::kOff, 20_ms, 10_ms);
  const RunRecord hy =
      run_one("four_switch", base, hybrid::Mode::kRisk, 20_ms, 10_ms);
  expect_equivalent(off, hy, "fig4 greedy flow 3");
  EXPECT_TRUE(off.deadlocked);

  // The fluid twin of the same workload lands on the *wrong* side — the
  // paper's §3.2 gap. The hybrid engine must not inherit the blind spot:
  // flow 3 is greedy and the fabric is saturated, so nothing fluidizes and
  // the verdict above came from packet-level ground truth.
  analysis::FluidFourSwitch twin =
      analysis::make_fluid_four_switch(true, Rate::gbps(40));
  EXPECT_FALSE(twin.model.run(10_ms).deadlocked);
}

TEST(HybridEquivalence, FourSwitchFig5RateLimitBoundary) {
  // Table 1 / Fig. 5: a 2 Gbps ingress limit on flow 3 keeps the fabric
  // safe; relaxing it far enough re-arms the Fig. 4 deadlock. Hybrid must
  // agree with the packet engine on both sides of the boundary.
  for (const double limit : {2.0, 8.0}) {
    ParamMap base;
    base.set("with_flow3", ParamValue::of_bool(true));
    base.set("flow3_limit", ParamValue::of_double(limit));
    const RunRecord off =
        run_one("four_switch", base, hybrid::Mode::kOff, 20_ms, 10_ms);
    const RunRecord hy =
        run_one("four_switch", base, hybrid::Mode::kRisk, 20_ms, 10_ms);
    expect_equivalent(off, hy, "fig5 rate-limit boundary");
    EXPECT_EQ(off.deadlocked, hy.deadlocked);
  }
}

TEST(HybridEquivalence, ValleyCascade) {
  ParamMap base;
  const RunRecord off =
      run_one("valley", base, hybrid::Mode::kOff, 6_ms, 16_ms);
  const RunRecord hy =
      run_one("valley", base, hybrid::Mode::kRisk, 6_ms, 16_ms);
  expect_equivalent(off, hy, "valley cascade");
}

TEST(HybridEquivalence, StaticModeMatchesToo) {
  // Static mode never de-escalates and reassesses no risk, but the
  // eligibility rules are the same — the loop still packetizes entirely.
  ParamMap base;
  base.set("inject", ParamValue::of_double(6.0));
  const RunRecord off = run_one("routing_loop", base, hybrid::Mode::kOff);
  const RunRecord hy = run_one("routing_loop", base, hybrid::Mode::kStatic);
  ASSERT_EQ(hy.status, RunStatus::kOk);
  EXPECT_EQ(off.deadlocked, hy.deadlocked);
  EXPECT_DOUBLE_EQ(off.detect_ms, hy.detect_ms);
  EXPECT_EQ(off.delivered, hy.delivered);
  EXPECT_EQ(hy.hybrid_mode, "static");
}

TEST(HybridExecutor, ArtifactsByteIdenticalAcrossJobsAndShards) {
  ScenarioRegistry reg;
  register_builtin_scenarios(reg);
  SweepSpec spec;
  spec.scenario = "routing_loop";
  spec.axes = parse_grid("inject=4..6gbps:2");
  spec.seeds_per_cell = 2;
  spec.root_seed = 11;
  spec.run_for = 2_ms;
  spec.drain_grace = 6_ms;
  const std::vector<RunSpec> runs = expand(spec);

  // The engine's byte-identity contract holds across every --shards.
  ExecutorOptions serial;
  serial.jobs = 1;
  serial.shards = 1;
  serial.hybrid.mode = hybrid::Mode::kRisk;
  const CampaignResult r1 =
      CampaignExecutor(reg, serial).run(runs, spec.root_seed);
  ExecutorOptions wide;
  wide.jobs = 4;
  wide.shards = 2;
  wide.hybrid.mode = hybrid::Mode::kRisk;
  const CampaignResult r4 =
      CampaignExecutor(reg, wide).run(runs, spec.root_seed);

  ASSERT_EQ(r1.count(RunStatus::kOk), runs.size());
  EXPECT_EQ(to_json(r1), to_json(r4));
  EXPECT_EQ(to_csv(r1), to_csv(r4));
  for (const RunRecord& rec : r1.records) {
    EXPECT_EQ(rec.hybrid_mode, "risk");
  }
}

// ---------------------------------------------------------------------------
// The zoom must actually engage where it is supposed to.

TEST(HybridZoom, SteadyFabricFluidizesAndDeliversTheSameBytes) {
  // k=4 fat-tree, every pod runs an intra-pod CBR permutation at 10% line
  // rate: steady, unsaturated, loop-free — prime fluidization territory.
  auto build = [](Simulator& sim, topo::FatTreeTopo& ft,
                  std::optional<Network>& net,
                  std::vector<FlowSpec>& flows) {
    ft = topo::make_fat_tree(4);
    net.emplace(sim, ft.topo, NetConfig{});
    routing::install_shortest_paths(*net);
    const int half = 2, hp = 4;
    FlowId id = 1;
    for (int pod = 0; pod < 4; ++pod) {
      for (int i = 0; i < hp; ++i) {
        FlowSpec f;
        f.id = id++;
        f.src_host = ft.all_hosts[static_cast<std::size_t>(pod * hp + i)];
        f.dst_host = ft.all_hosts[static_cast<std::size_t>(
            pod * hp + (i + half) % hp)];
        f.packet_bytes = 1000;
        net->host_at(f.src_host).add_flow(
            f, std::make_unique<TokenBucketPacer>(Rate::gbps(4),
                                                  2 * f.packet_bytes));
        flows.push_back(f);
      }
    }
  };

  // Packet-level reference run.
  Simulator ref_sim;
  topo::FatTreeTopo ref_ft;
  std::optional<Network> ref_net;
  std::vector<FlowSpec> ref_flows;
  build(ref_sim, ref_ft, ref_net, ref_flows);
  ref_sim.run_until(1_ms);

  // Hybrid risk run of the identical workload.
  Simulator sim;
  topo::FatTreeTopo ft;
  std::optional<Network> net;
  std::vector<FlowSpec> flows;
  build(sim, ft, net, flows);
  hybrid::HybridConfig hc;
  hc.mode = hybrid::Mode::kRisk;
  hybrid::HybridController ctl(*net, flows, hc);
  sim.run_until(1_ms);
  ctl.finalize();

  // Everything is eligible and nothing ever escalates.
  EXPECT_GT(ctl.stats().fluid_fraction, 0.9);
  EXPECT_EQ(ctl.stats().escalations, 0u);
  EXPECT_GT(ctl.stats().credited_packets, 0u);
  for (const FlowSpec& f : flows) EXPECT_TRUE(ctl.flow_fluid(f.id));

  // Delivered bytes match the packet level per flow to within a handful of
  // packets (fluid credits land in whole packets at 100 us steps; the
  // packet level has a path's worth of in-flight bytes at the cutoff).
  for (const FlowSpec& f : flows) {
    const std::int64_t ref =
        ref_net->host_at(f.dst_host).delivered_bytes(f.id);
    const std::int64_t hyb = net->host_at(f.dst_host).delivered_bytes(f.id);
    EXPECT_NEAR(static_cast<double>(hyb), static_cast<double>(ref),
                10.0 * f.packet_bytes)
        << "flow " << f.id;
    // ~4 Gbps * 1 ms = 500 KB; both engines must be in that ballpark.
    EXPECT_GT(hyb, 450'000);
    EXPECT_LT(hyb, 550'000);
  }
}

TEST(HybridZoom, LocalizedIncastEscalatesOnlyTheHotPod) {
  // Pod 0: greedy incast onto host 0 (packet forever — greedy flows are
  // ineligible). Pods 1..3: the steady CBR permutation. The zoom must
  // escalate pod 0's region and leave the background fluid.
  Simulator sim;
  topo::FatTreeTopo ft = topo::make_fat_tree(4);
  Network net(sim, ft.topo, NetConfig{});
  routing::install_shortest_paths(net);
  const int half = 2, hp = 4;
  std::vector<FlowSpec> flows;
  FlowId id = 1;
  for (int i = 1; i < hp; ++i) {
    FlowSpec f;
    f.id = id++;
    f.src_host = ft.all_hosts[static_cast<std::size_t>(i)];
    f.dst_host = ft.all_hosts[0];
    f.packet_bytes = 1000;
    net.host_at(f.src_host).add_flow(f);
    flows.push_back(f);
  }
  for (int pod = 1; pod < 4; ++pod) {
    for (int i = 0; i < hp; ++i) {
      FlowSpec f;
      f.id = id++;
      f.src_host = ft.all_hosts[static_cast<std::size_t>(pod * hp + i)];
      f.dst_host = ft.all_hosts[static_cast<std::size_t>(
          pod * hp + (i + half) % hp)];
      f.packet_bytes = 1000;
      net.host_at(f.src_host).add_flow(
          f, std::make_unique<TokenBucketPacer>(Rate::gbps(4),
                                                2 * f.packet_bytes));
      flows.push_back(f);
    }
  }

  hybrid::HybridConfig hc;
  hc.mode = hybrid::Mode::kRisk;
  hybrid::HybridController ctl(net, flows, hc);
  sim.run_until(1_ms);
  ctl.finalize();

  EXPECT_GE(ctl.stats().escalations, 1u);
  EXPECT_TRUE(ctl.region_packet(ctl.region_of(ft.edge[0][0])));
  // Background pods stay fluid: 12 of 15 flows.
  std::size_t fluid = 0;
  for (const FlowSpec& f : flows) fluid += ctl.flow_fluid(f.id) ? 1 : 0;
  EXPECT_EQ(fluid, 12u);
  EXPECT_GT(ctl.stats().fluid_fraction, 0.5);
}

// ---------------------------------------------------------------------------
// The fluid path under the sharded engine: the controller's steps run at
// window barriers, so fluid integration, credits and zoom decisions must
// not depend on the shard count. Both fabrics fluidize most flows.

struct FluidPathOutcome {
  std::uint64_t digest = 0;
  double fluid_fraction = 0;
  std::uint64_t credited_packets = 0;
};

/// k-ary fat-tree at `shards` shards: pod 0's hosts send greedy to host 0
/// (packet forever), every other pod runs host i -> host (i + k/2) of the
/// pod through a token bucket (4 Gbps for the pod's first host, 5 Gbps for
/// the rest). The digest folds each flow's delivered bytes, then credited
/// packets, the fluid fraction's bits and the zoom event count.
FluidPathOutcome localized_fluid_path(int k, int shards, Time run_for) {
  Simulator sim;
  const topo::FatTreeTopo ft = topo::make_fat_tree(k);
  std::optional<ScopedShardRequest> req{std::in_place, shards};
  Network net(sim, ft.topo, NetConfig{});
  req.reset();
  routing::install_shortest_paths(net);
  const int half = k / 2;
  const int hp = half * half;
  std::vector<FlowSpec> flows;
  FlowId id = 1;
  for (int i = 1; i < hp; ++i) {
    FlowSpec f;
    f.id = id++;
    f.src_host = ft.all_hosts[static_cast<std::size_t>(i)];
    f.dst_host = ft.all_hosts[0];
    f.packet_bytes = 1000;
    net.host_at(f.src_host).add_flow(f);
    flows.push_back(f);
  }
  for (int pod = 1; pod < k; ++pod) {
    for (int i = 0; i < hp; ++i) {
      FlowSpec f;
      f.id = id++;
      f.src_host = ft.all_hosts[static_cast<std::size_t>(pod * hp + i)];
      f.dst_host = ft.all_hosts[static_cast<std::size_t>(
          pod * hp + (i + half) % hp)];
      f.packet_bytes = 1000;
      net.host_at(f.src_host).add_flow(
          f, std::make_unique<TokenBucketPacer>(Rate::gbps(i == 0 ? 4 : 5),
                                                2 * f.packet_bytes));
      flows.push_back(f);
    }
  }
  hybrid::HybridConfig hc;
  hc.mode = hybrid::Mode::kRisk;
  hybrid::HybridController ctl(net, flows, hc);
  sim.run_until(run_for);
  ctl.finalize();

  std::uint64_t h = 14695981039346656037ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFFu;
      h *= 1099511628211ULL;
    }
  };
  for (const FlowSpec& f : flows) {
    mix(static_cast<std::uint64_t>(
        net.host_at(f.dst_host).delivered_bytes(f.id)));
  }
  const hybrid::HybridStats& st = ctl.stats();
  mix(st.credited_packets);
  mix(std::bit_cast<std::uint64_t>(st.fluid_fraction));
  mix(st.zoom_events);
  return {h, st.fluid_fraction, st.credited_packets};
}

TEST(HybridShards, FluidPathDigestPinnedAcrossShardCounts) {
  struct Case {
    int k;
    Time run_for;
    std::uint64_t digest;
    double fluid_fraction;
    std::uint64_t credited_packets;
  };
  // Literals recorded at one shard; every shard count must reproduce them.
  for (const Case& c : {Case{4, 3_ms, 7365026153206274021ULL, 0.8, 21'375u},
                        Case{8, 2_ms, 2131996070562297185ULL, 0.881889764,
                             138'250u}}) {
    for (const int shards : {1, 2, 4}) {
      SCOPED_TRACE("k=" + std::to_string(c.k) + " shards=" +
                   std::to_string(shards));
      const FluidPathOutcome o = localized_fluid_path(c.k, shards, c.run_for);
      EXPECT_EQ(o.digest, c.digest);
      EXPECT_NEAR(o.fluid_fraction, c.fluid_fraction, 5e-10);
      EXPECT_EQ(o.credited_packets, c.credited_packets);
    }
  }
}

// ---------------------------------------------------------------------------
// FluidResult cycle membership (satellite: the fluid verdict now names the
// queues that froze).

TEST(HybridFluidVerdict, DeadlockedLoopReportsItsCycleQueues) {
  analysis::FluidModel m = analysis::make_fluid_routing_loop(
      3, Rate::gbps(40), 16, Rate::gbps(8));
  const analysis::FluidResult r = m.run(10_ms);
  ASSERT_TRUE(r.deadlocked);
  // All three loop ingress queues freeze together.
  EXPECT_GE(r.deadlock_queues.size(), 3u);

  analysis::FluidModel quiet = analysis::make_fluid_routing_loop(
      3, Rate::gbps(40), 16, Rate::gbps(2));
  const analysis::FluidResult q = quiet.run(10_ms);
  EXPECT_FALSE(q.deadlocked);
  EXPECT_TRUE(q.deadlock_queues.empty());
}

}  // namespace
}  // namespace dcdl
