// Pause-cascade depth on whole scenarios: origins vs propagated pauses, and
// the §4 claim that threshold policies shrink cascade depth, measured with
// the forensic causality DAG (forensics::analyze) over a pause log. The
// hand-built attribution cases live in test_forensics.cpp (CausalityTest).
#include <gtest/gtest.h>

#include <algorithm>

#include "dcdl/forensics/causality.hpp"
#include "dcdl/mitigation/thresholds.hpp"
#include "dcdl/routing/compute.hpp"
#include "dcdl/scenarios/scenario.hpp"
#include "dcdl/topo/generators.hpp"

namespace dcdl::forensics {
namespace {

using namespace dcdl::literals;
using namespace dcdl::scenarios;
using namespace dcdl::topo;
using stats::PauseEventLog;

CascadeReport analyze_log(Network& net, const PauseEventLog& log) {
  return analyze(input_from_pause_log(net.topo(), log, net.sim().now()));
}

int max_depth(const CascadeReport& r) {
  int depth = 0;
  for (const PauseSpan& s : r.spans) depth = std::max(depth, s.depth);
  return depth;
}

double mean_depth(const CascadeReport& r) {
  if (r.spans.empty()) return 0;
  double sum = 0;
  for (const PauseSpan& s : r.spans) sum += s.depth;
  return sum / static_cast<double>(r.spans.size());
}

TEST(Cascade, SingleBottleneckPausesAreAllOrigins) {
  // One congested switch pausing its hosts: no switch-to-switch
  // propagation, every pause is depth 0.
  Scenario s = make_incast(IncastParams{});
  PauseEventLog log(*s.net);
  s.sim->run_until(5_ms);
  const CascadeReport r = analyze_log(*s.net, log);
  ASSERT_GT(r.spans.size(), 0u);
  // The receiving leaf pauses the spines, which pause the sending leaves,
  // which pause the hosts: depth reaches 2 in a 2-tier fabric but no more.
  EXPECT_LE(max_depth(r), 2);
}

TEST(Cascade, DeadlockCycleShowsDeepPropagation) {
  FourSwitchParams p;
  p.with_flow3 = true;
  Scenario s = make_four_switch(p);
  PauseEventLog log(*s.net);
  s.sim->run_until(20_ms);
  const CascadeReport r = analyze_log(*s.net, log);
  EXPECT_GE(max_depth(r), 2)
      << "the pause chain must propagate around the ring";
  EXPECT_GT(mean_depth(r), 0.0);
}

TEST(Cascade, CountsSumToTotal) {
  // Every Xoff opens exactly one span, and every span belongs to exactly
  // one cascade.
  Scenario s = make_four_switch(FourSwitchParams{});
  PauseEventLog log(*s.net);
  s.sim->run_until(10_ms);
  const CascadeReport r = analyze_log(*s.net, log);
  std::size_t xoffs = 0;
  for (const stats::PauseEvent& e : log.events()) xoffs += e.paused ? 1 : 0;
  EXPECT_EQ(r.spans.size(), xoffs);
  std::size_t sum = 0;
  for (const CascadeComponent& c : r.components) sum += c.span_count;
  EXPECT_EQ(sum, r.spans.size());
}

TEST(Cascade, BurstAbsorbingThresholdsShrinkTheCascade) {
  // §4: larger upstream thresholds absorb bursts instead of propagating
  // pauses. Mean cascade depth must drop under the tiered policy.
  double depth_uniform = 0, depth_tiered = 0;
  for (const bool tiered : {false, true}) {
    Simulator sim;
    const LeafSpineTopo ls = make_leaf_spine(3, 2, 4);
    Topology topo = ls.topo;
    Network net(sim, topo, NetConfig{});
    routing::install_shortest_paths(net);
    if (tiered) {
      mitigation::apply_tier_thresholds(
          net, {8 * 1024, 8 * 1024, 160 * 1024}, 2000);
    } else {
      mitigation::apply_tier_thresholds(
          net, {8 * 1024, 8 * 1024, 8 * 1024}, 2000);
    }
    int made = 0;
    for (int leaf = 1; leaf < 3; ++leaf) {
      for (int h = 0; h < 3; ++h) {
        FlowSpec f;
        f.id = static_cast<FlowId>(++made);
        f.src_host = ls.hosts[static_cast<std::size_t>(leaf)]
                             [static_cast<std::size_t>(h)];
        f.dst_host = ls.hosts[0][0];
        f.packet_bytes = 1000;
        net.host_at(f.src_host).add_flow(
            f, std::make_unique<OnOffPacer>(10_us, 50_us, 31 * made, true));
      }
    }
    PauseEventLog log(net);
    sim.run_until(10_ms);
    (tiered ? depth_tiered : depth_uniform) = mean_depth(analyze_log(net, log));
  }
  EXPECT_LT(depth_tiered, depth_uniform);
}

}  // namespace
}  // namespace dcdl::forensics
