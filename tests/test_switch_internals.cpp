// White-box tests of switch internals: egress queue introspection,
// watchdog flush accounting, per-flow attribution, threshold overrides.
#include <gtest/gtest.h>

#include "dcdl/device/host.hpp"
#include "dcdl/device/switch.hpp"
#include "dcdl/routing/compute.hpp"
#include "dcdl/scenarios/scenario.hpp"
#include "dcdl/topo/generators.hpp"

namespace dcdl {
namespace {

using namespace dcdl::literals;
using namespace dcdl::topo;

// h0 -> S0 -> S1 -> h1, with S1's egress toward h1 pausable by... hosts
// never pause, so congestion is created by pausing S0<-S1 manually.
struct Chain {
  Simulator sim;
  RingTopo line = make_line(2, 1, LinkParams{Rate::gbps(40), 1_us});
  Topology topo = line.topo;
  std::unique_ptr<Network> net;

  Chain() {
    net = std::make_unique<Network>(sim, topo, NetConfig{});
    routing::install_shortest_paths(*net);
  }

  PortId port(NodeId from, NodeId to) { return *topo.port_towards(from, to); }
};

TEST(SwitchInternals, EgressQueueBytesTrackBacklog) {
  Chain fx;
  FlowSpec f;
  f.id = 1;
  f.src_host = fx.line.hosts[0][0];
  f.dst_host = fx.line.hosts[1][0];
  f.packet_bytes = 1000;
  fx.net->host_at(f.src_host).add_flow(f);
  // Pause S0's egress toward S1 by hand: backlog accumulates in the
  // egress queue, charged to the host-facing ingress counter.
  const PortId s0_to_s1 = fx.port(fx.line.switches[0], fx.line.switches[1]);
  const PortId s0_from_h0 = fx.port(fx.line.switches[0], fx.line.hosts[0][0]);
  fx.sim.schedule_at(10_us, [&] {
    fx.net->switch_at(fx.line.switches[0]).on_pfc(s0_to_s1, 0, true);
  });
  fx.sim.run_until(100_us);
  auto& sw = fx.net->switch_at(fx.line.switches[0]);
  EXPECT_TRUE(sw.egress_paused(s0_to_s1, 0));
  EXPECT_GT(sw.egress_queue_bytes(s0_to_s1, 0), 30'000);
  EXPECT_EQ(sw.egress_queue_bytes(s0_to_s1, 0),
            sw.egress_bytes_from(s0_to_s1, 0, s0_from_h0, 0));
  EXPECT_EQ(sw.ingress_bytes(s0_from_h0, 0),
            sw.egress_queue_bytes(s0_to_s1, 0));
  EXPECT_GE(sw.egress_paused_for(s0_to_s1, 0), 80_us);
}

TEST(SwitchInternals, FlushReleasesCountersAndResumes) {
  Chain fx;
  FlowSpec f;
  f.id = 1;
  f.src_host = fx.line.hosts[0][0];
  f.dst_host = fx.line.hosts[1][0];
  f.packet_bytes = 1000;
  fx.net->host_at(f.src_host).add_flow(f);
  const PortId s0_to_s1 = fx.port(fx.line.switches[0], fx.line.switches[1]);
  const PortId s0_from_h0 = fx.port(fx.line.switches[0], fx.line.hosts[0][0]);
  fx.sim.schedule_at(10_us, [&] {
    fx.net->switch_at(fx.line.switches[0]).on_pfc(s0_to_s1, 0, true);
  });
  fx.sim.run_until(100_us);
  auto& sw = fx.net->switch_at(fx.line.switches[0]);
  ASSERT_TRUE(sw.pause_asserted(s0_from_h0, 0));  // host is being paused
  const std::int64_t backlog = sw.egress_queue_bytes(s0_to_s1, 0);
  const std::uint64_t flushed = sw.flush_egress_queue(s0_to_s1, 0);
  EXPECT_EQ(static_cast<std::int64_t>(flushed) * 1000, backlog);
  EXPECT_EQ(sw.egress_queue_bytes(s0_to_s1, 0), 0);
  EXPECT_EQ(sw.ingress_bytes(s0_from_h0, 0), 0);
  EXPECT_EQ(sw.total_buffered(), 0);
  EXPECT_EQ(fx.net->drops(DropReason::kWatchdogReset), flushed);
  // The flush emitted the RESUME toward the host.
  fx.sim.run_until(110_us);
  EXPECT_FALSE(fx.net->host_at(fx.line.hosts[0][0]).egress_paused(0));
}

TEST(SwitchInternals, IgnorePauseWindowTransmitsThroughXoff) {
  Chain fx;
  FlowSpec f;
  f.id = 1;
  f.src_host = fx.line.hosts[0][0];
  f.dst_host = fx.line.hosts[1][0];
  f.packet_bytes = 1000;
  fx.net->host_at(f.src_host).add_flow(f);
  const PortId s0_to_s1 = fx.port(fx.line.switches[0], fx.line.switches[1]);
  fx.sim.schedule_at(10_us, [&] {
    fx.net->switch_at(fx.line.switches[0]).on_pfc(s0_to_s1, 0, true);
  });
  fx.sim.run_until(100_us);
  const auto before = fx.net->host_at(fx.line.hosts[1][0]).delivered_bytes(1);
  fx.net->switch_at(fx.line.switches[0])
      .ignore_pause_until(s0_to_s1, 0, fx.sim.now() + 50_us);
  fx.sim.run_until(160_us);
  const auto during = fx.net->host_at(fx.line.hosts[1][0]).delivered_bytes(1);
  EXPECT_GT(during, before + 30'000) << "the window drains the backlog";
  // After the window the (still-asserted) pause bites again only if the
  // peer re-asserts — our manual pause is still set:
  fx.sim.run_until(300_us);
  const auto after = fx.net->host_at(fx.line.hosts[1][0]).delivered_bytes(1);
  // Backlog drained during the window; once empty and paused again, only
  // the residual in-flight data arrives.
  EXPECT_LT(after - during, 200'000);
}

TEST(SwitchInternals, ThresholdOverrideChangesPauseOnset) {
  Chain fx;
  const NodeId s0 = fx.line.switches[0];
  const PortId s0_from_h0 = fx.port(s0, fx.line.hosts[0][0]);
  const PortId s0_to_s1 = fx.port(s0, fx.line.switches[1]);
  fx.net->switch_at(s0).set_thresholds(s0_from_h0, 0, 10'000, 8'000);
  FlowSpec f;
  f.id = 1;
  f.src_host = fx.line.hosts[0][0];
  f.dst_host = fx.line.hosts[1][0];
  f.packet_bytes = 1000;
  fx.net->host_at(f.src_host).add_flow(f);
  fx.sim.schedule_at(10_us, [&] {
    fx.net->switch_at(s0).on_pfc(s0_to_s1, 0, true);
  });
  fx.sim.run_until(100_us);
  // Occupancy capped near the 10 KB threshold (plus the reaction window),
  // far below the default 40 KB.
  EXPECT_LT(fx.net->switch_at(s0).ingress_bytes(s0_from_h0, 0), 25'000);
  EXPECT_TRUE(fx.net->switch_at(s0).pause_asserted(s0_from_h0, 0));
}

TEST(SwitchInternals, PerFlowOccupancyFollowsDrain) {
  // Per-flow occupancy is read from what is charged to the counter: while
  // a flow holds buffer it reads positive, once it drains it reads zero,
  // and a later flow through the same counter reads exactly its own bytes.
  Chain fx;
  const NodeId s0 = fx.line.switches[0];
  const PortId s0_from_h0 = fx.port(s0, fx.line.hosts[0][0]);
  const PortId s0_to_s1 = fx.port(s0, fx.line.switches[1]);
  auto& sw = fx.net->switch_at(s0);

  FlowSpec f1;
  f1.id = 7;
  f1.src_host = fx.line.hosts[0][0];
  f1.dst_host = fx.line.hosts[1][0];
  f1.packet_bytes = 1000;
  f1.stop = 40_us;
  fx.net->host_at(f1.src_host).add_flow(f1);
  // Build a backlog so the flow actually holds buffer in S0.
  fx.sim.schedule_at(5_us, [&] { sw.on_pfc(s0_to_s1, 0, true); });
  fx.sim.run_until(30_us);
  EXPECT_GT(sw.ingress_flow_bytes(s0_from_h0, 0, 7), 0);

  // Unpause; the flow stops at 40us and the backlog drains completely.
  sw.on_pfc(s0_to_s1, 0, false);
  fx.sim.run_until(200_us);
  EXPECT_EQ(sw.ingress_flow_bytes(s0_from_h0, 0, 7), 0);

  FlowSpec f2 = f1;
  f2.id = 99;
  f2.start = 200_us;
  f2.stop = 240_us;
  fx.net->host_at(f2.src_host).add_flow(f2);
  fx.sim.schedule_at(205_us, [&] { sw.on_pfc(s0_to_s1, 0, true); });
  fx.sim.run_until(230_us);
  EXPECT_GT(sw.ingress_flow_bytes(s0_from_h0, 0, 99), 0);
  EXPECT_EQ(sw.ingress_flow_bytes(s0_from_h0, 0, 7), 0)
      << "a drained flow must read zero";
  EXPECT_EQ(sw.ingress_bytes(s0_from_h0, 0),
            sw.ingress_flow_bytes(s0_from_h0, 0, 99))
      << "with one resident flow, per-flow and per-counter tallies agree";

  sw.on_pfc(s0_to_s1, 0, false);
  fx.sim.run_until(400_us);
  EXPECT_EQ(sw.ingress_flow_bytes(s0_from_h0, 0, 99), 0);
  EXPECT_EQ(sw.ingress_bytes(s0_from_h0, 0), 0);
}

/// Samples every (switch, port, class) of `s` every 5 us up to `until`:
/// the per-flow occupancies of the scenario's flows must sum to the
/// ingress counter, and a flow that never entered the network reads 0.
/// Per ingress port, the bytes every egress (port, class) attributes to it
/// plus its shaper-held bytes must equal its counters' total — which
/// checks the per-(ingress port, class) attribution that transmit and
/// flush undo. Returns the number of non-zero samples in classes above 0.
int expect_flow_occupancy_sums(scenarios::Scenario& s, Time until) {
  constexpr FlowId kAbsent = 4242;
  const auto num_classes =
      static_cast<ClassId>(s.net->config().num_classes);
  int nonzero_samples = 0;
  int upper_class_samples = 0;
  for (Time t = 5_us; t <= until; t += 5_us) {
    s.sim->run_until(t);
    for (const NodeId id : s.topo->switches()) {
      const Switch& sw = s.net->switch_at(id);
      for (PortId p = 0; p < sw.num_ports(); ++p) {
        std::int64_t charged = 0;
        std::int64_t attributed = sw.shaper_held_bytes(p);
        for (ClassId c = 0; c < num_classes; ++c) {
          std::int64_t sum = 0;
          for (const FlowSpec& f : s.flows) {
            sum += sw.ingress_flow_bytes(p, c, f.id);
          }
          EXPECT_EQ(sum, sw.ingress_bytes(p, c))
              << "switch " << id << " port " << p << " class " << int{c}
              << " at " << t.ps() << " ps";
          EXPECT_EQ(sw.ingress_flow_bytes(p, c, kAbsent), 0);
          if (sum != sw.ingress_bytes(p, c)) return upper_class_samples;
          nonzero_samples += sum > 0 ? 1 : 0;
          upper_class_samples += sum > 0 && c > 0 ? 1 : 0;
          charged += sw.ingress_bytes(p, c);
          for (PortId e = 0; e < sw.num_ports(); ++e) {
            for (ClassId ec = 0; ec < num_classes; ++ec) {
              attributed += sw.egress_bytes_from(e, ec, p, c);
            }
          }
        }
        EXPECT_EQ(attributed, charged)
            << "switch " << id << " ingress port " << p << " at " << t.ps()
            << " ps";
        if (attributed != charged) return upper_class_samples;
      }
    }
  }
  EXPECT_GT(nonzero_samples, 100) << "the scenario never held buffer";
  return upper_class_samples;
}

TEST(SwitchInternals, FlowOccupancySumsToCounterUnderIngressShaper) {
  // Fig. 5: flow 3's ingress at B is token-bucket limited, so part of the
  // counter's bytes wait in the shaper's holding queue.
  scenarios::FourSwitchParams p;
  p.with_flow3 = true;
  p.flow3_limit = Rate::gbps(3);
  scenarios::Scenario s = scenarios::make_four_switch(p);
  expect_flow_occupancy_sums(s, 2_ms);
}

TEST(SwitchInternals, FlowOccupancySumsToCounterUnderFlowShaper) {
  // A per-flow limiter on flow 3 at B (the smart-limiter form of Fig. 5):
  // its bytes wait in the flow shaper's queue, still charged to their
  // ingress counter, for the whole run (the network stays live).
  scenarios::FourSwitchParams p;
  p.with_flow3 = true;
  scenarios::Scenario s = scenarios::make_four_switch(p);
  s.net->switch_at(s.node("B")).set_flow_shaper(3, Rate::gbps(2), 2000);
  expect_flow_occupancy_sums(s, 2_ms);
}

TEST(SwitchInternals, AttributionSumsToCounterAcrossClasses) {
  // The 2-switch routing loop above its boundary, with three TTL-band
  // classes: packets are re-classed every hop, so egress queues of every
  // class hold bytes charged to ingress counters of other classes.
  scenarios::RoutingLoopParams p;
  p.inject = Rate::gbps(8);
  p.num_classes = 3;
  p.ttl_class_band = 6;
  scenarios::Scenario s = scenarios::make_routing_loop(p);
  EXPECT_GT(expect_flow_occupancy_sums(s, 2_ms), 100)
      << "classes above 0 never held buffer";
}

}  // namespace
}  // namespace dcdl
