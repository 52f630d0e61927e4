// Fluid (rate-based) PFC model — the paper's §3.3 "future work" analysis
// tool. Validated where flow-level analysis is exact (Eq. 3, stable
// shares) and pinned to its known blind spot (Figure 4).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>

#include "dcdl/analysis/boundary.hpp"
#include "dcdl/analysis/fluid.hpp"
#include "dcdl/scenarios/scenario.hpp"

namespace dcdl::analysis {
namespace {

using namespace dcdl::literals;

TEST(Fluid, LoopReproducesEq3Threshold) {
  // n=2, B=40G, TTL=16 -> 5 Gbps, same as BoundaryModel and the packet sim.
  for (const double g : {3.0, 4.0, 4.5}) {
    FluidModel m =
        make_fluid_routing_loop(2, Rate::gbps(40), 16, Rate::gbps(g));
    EXPECT_FALSE(m.run(10_ms).deadlocked) << g << " Gbps";
  }
  for (const double g : {5.5, 6.0, 9.0}) {
    FluidModel m =
        make_fluid_routing_loop(2, Rate::gbps(40), 16, Rate::gbps(g));
    EXPECT_TRUE(m.run(10_ms).deadlocked) << g << " Gbps";
  }
}

TEST(Fluid, LoopThresholdMatchesBoundaryModelAcrossGrid) {
  for (const int n : {2, 3, 4}) {
    for (const int ttl : {8, 16, 32}) {
      const Rate thr =
          BoundaryModel::deadlock_threshold(n, Rate::gbps(40), ttl);
      FluidModel below = make_fluid_routing_loop(
          n, Rate::gbps(40), ttl,
          Rate{static_cast<std::int64_t>(thr.bps() * 0.8)});
      EXPECT_FALSE(below.run(10_ms).deadlocked) << "n=" << n << " ttl=" << ttl;
      // Eq. 3's premise is a sustained injection of r. At the loop's entry
      // switch the injector fair-shares the egress with the circulating
      // stream, capping the sustainable r at B/2 — when the threshold
      // itself reaches that cap, the above-threshold probe is unreachable
      // (and indeed neither fluid nor packet simulation deadlocks there;
      // see LoopEntryShareCapsInjection).
      if (thr.bps() * 1.2 >= Rate::gbps(40).bps() / 2) continue;
      FluidModel above = make_fluid_routing_loop(
          n, Rate::gbps(40), ttl,
          Rate{static_cast<std::int64_t>(thr.bps() * 1.2)});
      EXPECT_TRUE(above.run(10_ms).deadlocked) << "n=" << n << " ttl=" << ttl;
    }
  }
}

TEST(Fluid, LoopEntryShareCapsInjection) {
  // n=4, TTL=8: threshold 20 Gbps == the entry-link fair share. A 24 Gbps
  // demand is admitted at only ~20 Gbps, so no deadlock — in the fluid
  // model AND in the packet-level simulator (which only deadlocks once
  // pause-release bursts let the injector transiently exceed the share,
  // around 30 Gbps demand).
  FluidModel fm =
      make_fluid_routing_loop(4, Rate::gbps(40), 8, Rate::gbps(24));
  EXPECT_FALSE(fm.run(10_ms).deadlocked);

  scenarios::RoutingLoopParams p;
  p.loop_len = 4;
  p.ttl = 8;
  p.inject = Rate::gbps(24);
  scenarios::Scenario s = scenarios::make_routing_loop(p);
  EXPECT_FALSE(scenarios::run_and_check(s, 8_ms, 15_ms).deadlocked);
}

TEST(Fluid, LoopDeadlockTimeShrinksWithRate) {
  FluidModel slow =
      make_fluid_routing_loop(2, Rate::gbps(40), 16, Rate::gbps(6));
  FluidModel fast =
      make_fluid_routing_loop(2, Rate::gbps(40), 16, Rate::gbps(12));
  const auto rs = slow.run(10_ms);
  const auto rf = fast.run(10_ms);
  ASSERT_TRUE(rs.deadlocked);
  ASSERT_TRUE(rf.deadlocked);
  EXPECT_LT(rf.deadlock_at, rs.deadlock_at);
}

TEST(Fluid, FourSwitchTwoFlowsStableState) {
  // The paper's own flow-level analysis: both flows get B/2 and there is
  // no deadlock. The host-facing ingress queues duty-cycle around the PFC
  // threshold; the ring queues stay empty in the fluid limit.
  FluidFourSwitch fs = make_fluid_four_switch(false);
  const FluidResult r = fs.model.run(10_ms);
  EXPECT_FALSE(r.deadlocked);
  ASSERT_EQ(r.mean_goodput_bps.size(), 2u);
  EXPECT_NEAR(r.mean_goodput_bps[0] / 1e9, 20.0, 1.0);
  EXPECT_NEAR(r.mean_goodput_bps[1] / 1e9, 20.0, 1.0);
  // Host ingress queues oscillate around 40 KB, paused about half the time.
  EXPECT_NEAR(r.paused_fraction[0], 0.5, 0.1);
  EXPECT_GT(r.max_bytes[0], 40 * 1024 - 2048);
  // Ring ingress queues carry no standing fluid (the blind spot).
  EXPECT_EQ(r.max_bytes[static_cast<std::size_t>(fs.rx1_A)], 0);
}

TEST(Fluid, FourSwitchSawtoothAmplitudeTracksControlDelay) {
  // The overshoot above Xoff is arrival_rate x control RTT: doubling the
  // delay roughly doubles the band above the threshold.
  FluidFourSwitch small = make_fluid_four_switch(false, Rate::zero(), 1_us);
  FluidFourSwitch large = make_fluid_four_switch(false, Rate::zero(), 4_us);
  const auto rs = small.model.run(10_ms);
  const auto rl = large.model.run(10_ms);
  const std::int64_t over_s = rs.max_bytes[0] - 40 * 1024;
  const std::int64_t over_l = rl.max_bytes[0] - 40 * 1024;
  EXPECT_GT(over_l, 2 * over_s);
}

TEST(Fluid, Figure4BlindSpot) {
  // "The stable state flow analysis based on PFC fairness [shows] all
  // flows should have 20Gbps throughput" — and hence no deadlock. The
  // packet-level simulation deadlocks (§3.2). The fluid model must land on
  // the flow-level side of that gap: this test pins the *model contrast*
  // that the paper's argument rests on.
  FluidFourSwitch fs = make_fluid_four_switch(true, Rate::gbps(40));
  const FluidResult fluid = fs.model.run(10_ms);
  EXPECT_FALSE(fluid.deadlocked);
  for (const double bps : fluid.mean_goodput_bps) {
    EXPECT_NEAR(bps / 1e9, 20.0, 1.5);
  }
  // The packet-level ground truth disagrees:
  scenarios::FourSwitchParams p;
  p.with_flow3 = true;
  scenarios::Scenario s = scenarios::make_four_switch(p);
  EXPECT_TRUE(scenarios::run_and_check(s, 20_ms, 10_ms).deadlocked);
}

TEST(Fluid, Flow3RateLimitKeepsSharesFeasible) {
  // With flow 3 shaped to 2 Gbps the fluid shares become 20/20/2 — the
  // feasibility the paper's §3.3 analysis starts from.
  FluidFourSwitch fs = make_fluid_four_switch(true, Rate::gbps(2));
  const FluidResult r = fs.model.run(10_ms);
  EXPECT_FALSE(r.deadlocked);
  EXPECT_NEAR(r.mean_goodput_bps[0] / 1e9, 20.0, 1.5);
  EXPECT_NEAR(r.mean_goodput_bps[1] / 1e9, 20.0, 1.5);
  EXPECT_NEAR(r.mean_goodput_bps[2] / 1e9, 2.0, 0.3);
}

TEST(Fluid, GreedySingleFlowRunsAtLineRate) {
  FluidModel m;
  const int link0 = m.add_link(FluidLink{"src", Rate::gbps(40), 1_us});
  const int link1 = m.add_link(FluidLink{"mid", Rate::gbps(40), 1_us});
  const int q0 = m.add_queue(FluidQueue{"q0", 40 * 1024, 38 * 1024, link0});
  const int q1 = m.add_queue(FluidQueue{"q1", 40 * 1024, 38 * 1024, link1});
  FluidFlow f;
  f.queues = {q0, q1};
  m.add_flow(f);
  const FluidResult r = m.run(5_ms);
  EXPECT_FALSE(r.deadlocked);
  EXPECT_NEAR(r.mean_goodput_bps[0] / 1e9, 40.0, 1.0);
  EXPECT_EQ(r.max_bytes[0], 0);  // rate-matched: no standing queue
}

TEST(Fluid, DemandLimitedFlowDeliversItsDemand) {
  FluidModel m;
  const int link0 = m.add_link(FluidLink{"src", Rate::gbps(40), 1_us});
  const int link1 = m.add_link(FluidLink{"mid", Rate::gbps(40), 1_us});
  const int q0 = m.add_queue(FluidQueue{"q0", 40 * 1024, 38 * 1024, link0});
  const int q1 = m.add_queue(FluidQueue{"q1", 40 * 1024, 38 * 1024, link1});
  FluidFlow f;
  f.demand = Rate::gbps(7);
  f.queues = {q0, q1};
  m.add_flow(f);
  const FluidResult r = m.run(5_ms);
  EXPECT_NEAR(r.mean_goodput_bps[0] / 1e9, 7.0, 0.3);
}

// ---------------------------------------------------------------------------
// Step-level pins: every double the incremental integration exposes, after
// every step, folded into one FNV-1a digest per model. Any change to the
// order of the water-filling arithmetic moves these.

/// Order-sensitive FNV-1a over the raw bits of every occupancy,
/// step_delivered, total_fluid and total_motion after each of `steps`
/// steps at 100 ns.
std::uint64_t step_digest(FluidModel& m, int steps) {
  std::uint64_t h = 14695981039346656037ULL;
  const auto mix = [&h](double v) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xFFu;
      h *= 1099511628211ULL;
    }
  };
  m.begin(Time{100'000});
  for (int s = 0; s < steps; ++s) {
    m.step();
    for (std::size_t q = 0; q < m.queues().size(); ++q) {
      mix(m.occupancy(static_cast<int>(q)));
    }
    for (std::size_t f = 0; f < m.flows().size(); ++f) {
      mix(m.step_delivered(static_cast<int>(f)));
    }
    mix(m.total_fluid());
    mix(m.total_motion());
  }
  return h;
}

/// Two disconnected components in one model, their queues and links added
/// interleaved: a 25 Gbps bottleneck shared by a greedy and a 15 Gbps flow
/// (PFC sawtooth on both feeder queues), and a 10 Gbps access link feeding
/// a link that an 8 Gbps flow shares with a greedy one-hop flow.
FluidModel make_two_component_model() {
  FluidModel m;
  const int a0 = m.add_link(FluidLink{"a0", Rate::gbps(40), 1_us});
  const int b0 = m.add_link(FluidLink{"b0", Rate::gbps(10), 1_us});
  const int a1 = m.add_link(FluidLink{"a1", Rate::gbps(40), 1_us});
  const int b1 = m.add_link(FluidLink{"b1", Rate::gbps(40), 1_us});
  const int a2 = m.add_link(FluidLink{"a2", Rate::gbps(25), 1_us});
  const int qb0 = m.add_queue(FluidQueue{"qb0", 40 * 1024, 38 * 1024, b0});
  const int qa0 = m.add_queue(FluidQueue{"qa0", 40 * 1024, 38 * 1024, a0});
  const int qa2 = m.add_queue(FluidQueue{"qa2", 30 * 1024, 28 * 1024, a2});
  const int qb1 = m.add_queue(FluidQueue{"qb1", 40 * 1024, 38 * 1024, b1});
  const int qa1 = m.add_queue(FluidQueue{"qa1", 40 * 1024, 38 * 1024, a1});
  FluidFlow g;
  g.queues = {qa0, qa2};
  m.add_flow(g);
  FluidFlow b;
  b.demand = Rate::gbps(8);
  b.queues = {qb0, qb1};
  m.add_flow(b);
  FluidFlow c;
  c.demand = Rate::gbps(15);
  c.queues = {qa1, qa2};
  m.add_flow(c);
  FluidFlow d;
  d.queues = {qb1};
  m.add_flow(d);
  return m;
}

TEST(FluidStep, DigestsPinned) {
  FluidModel loop =
      make_fluid_routing_loop(3, Rate::gbps(40), 16, Rate::gbps(8));
  EXPECT_EQ(step_digest(loop, 4000), 4916726843116689101ULL);
  FluidFourSwitch fs = make_fluid_four_switch(true, Rate::gbps(40));
  EXPECT_EQ(step_digest(fs.model, 4000), 9643904165984049577ULL);
  FluidModel two = make_two_component_model();
  EXPECT_EQ(step_digest(two, 4000), 2721376591171368458ULL);
}

TEST(FluidStep, TransitionsApplyInDueOrder) {
  // Two independent flows, each 40 Gbps into a 40 KiB-Xoff queue and then
  // a 10 Gbps bottleneck; the feeder links differ only in control delay
  // (5 us for a, 1 us for b). Both queues cross Xoff at 11 us, a first:
  // b's pause is due at 12 us and must not wait behind a's, due at 16 us.
  FluidModel m;
  const int la = m.add_link(FluidLink{"a.in", Rate::gbps(40), 5_us});
  const int la_bn = m.add_link(FluidLink{"a.bn", Rate::gbps(10), 5_us});
  const int lb = m.add_link(FluidLink{"b.in", Rate::gbps(40), 1_us});
  const int lb_bn = m.add_link(FluidLink{"b.bn", Rate::gbps(10), 1_us});
  const int qa = m.add_queue(FluidQueue{"qa", 40 * 1024, 38 * 1024, la});
  const int qb = m.add_queue(FluidQueue{"qb", 40 * 1024, 38 * 1024, lb});
  FluidFlow fa;
  fa.queues = {qa, m.add_queue(FluidQueue{"qa.out", 40 * 1024, 38 * 1024,
                                          la_bn})};
  m.add_flow(fa);
  FluidFlow fb;
  fb.queues = {qb, m.add_queue(FluidQueue{"qb.out", 40 * 1024, 38 * 1024,
                                          lb_bn})};
  m.add_flow(fb);

  m.begin(100_ns);
  double peak_b = 0, a_at_16us = 0, b_at_12us = 0, b_at_16us = 0;
  while (m.now() < 20_us) {
    m.step();
    peak_b = std::max(peak_b, m.occupancy(qb));
    if (m.now() == 12_us) b_at_12us = m.occupancy(qb);
    if (m.now() == 16_us) {
      a_at_16us = m.occupancy(qa);
      b_at_16us = m.occupancy(qb);
    }
  }
  // a's link stops at 16 us; b's at 12 us, after which b drains at the
  // bottleneck rate while a keeps filling.
  EXPECT_NEAR(a_at_16us, 59'500, 1);
  EXPECT_NEAR(b_at_12us, 44'500, 1);
  EXPECT_LT(peak_b, 45'000);
  EXPECT_NEAR(b_at_16us, 39'500, 1);
}

TEST(FluidStep, AddingAfterBeginIsAPreconditionFailure) {
  // begin() fixes the flow -> link incidence the steps run on.
  FluidModel m = make_fluid_routing_loop(2, Rate::gbps(40), 16, Rate::gbps(4));
  m.begin(100_ns);
  EXPECT_DEATH(m.add_link(FluidLink{}), "precondition.*incidence_fixed");
  EXPECT_DEATH(m.add_queue(FluidQueue{}), "precondition.*incidence_fixed");
  FluidFlow f;
  f.queues = {0};
  EXPECT_DEATH(m.add_flow(f), "precondition.*incidence_fixed");
}

}  // namespace
}  // namespace dcdl::analysis
