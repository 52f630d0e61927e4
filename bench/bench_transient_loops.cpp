// §1: transient loops (BGP re-route, SDN update, misconfiguration) meet
// lossless traffic; the resulting deadlock outlives the loop.
//
// Series 1: loop-lifetime sweep — does a deadlock formed inside the
//           window persist after repair? (Controlled loop injector.)
// Series 2: injection-rate sweep at a fixed 2 ms window.
// Series 3: SDN update comparison — naive vs ordered application of the
//           same route change under lossless load.
// Series 4: BGP reconvergence on a ring with live lossless traffic: the
//           failure triggers withdrawals/updates while packets are in
//           flight.
//
// Flags: --run_ms=10.
#include <algorithm>
#include <cstdio>

#include "dcdl/common/flags.hpp"
#include "dcdl/device/host.hpp"
#include "dcdl/device/switch.hpp"
#include "dcdl/routing/bgp.hpp"
#include "dcdl/routing/compute.hpp"
#include "dcdl/routing/sdn.hpp"
#include "dcdl/scenarios/scenario.hpp"
#include "dcdl/stats/csv.hpp"
#include "dcdl/topo/generators.hpp"

using namespace dcdl;
using namespace dcdl::literals;
using namespace dcdl::scenarios;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const Time run_for = Time{flags.get_int("run_ms", 10) * 1'000'000'000};
  flags.check_unused();

  stats::CsvWriter csv;
  std::printf("# §1: transient loops cause non-transient deadlocks\n");

  csv.section("series 1: loop lifetime sweep (10 Gbps, threshold 5 Gbps)");
  csv.header({"loop_us", "deadlock_after_repair", "delivery_resumed"});
  for (const std::int64_t loop_us : {10, 50, 100, 200, 500, 1000, 2000}) {
    TransientLoopParams p;
    p.inject = Rate::gbps(10);
    p.loop_duration = Time{loop_us * 1'000'000};
    Scenario s = make_transient_loop(p);
    s.sim->run_until(run_for);
    const auto before = s.net->host_at(s.flows[0].dst_host).delivered_bytes(1);
    s.sim->run_until(run_for + 1_ms);
    const auto after = s.net->host_at(s.flows[0].dst_host).delivered_bytes(1);
    const auto drain = analysis::stop_and_drain(*s.net, 20_ms);
    csv.row({stats::CsvWriter::num(loop_us),
             stats::CsvWriter::num(std::int64_t{drain.deadlocked}),
             stats::CsvWriter::num(std::int64_t{after > before})});
  }

  csv.section("series 2: injection rate sweep (2 ms loop window)");
  csv.header({"inject_gbps", "deadlock_after_repair"});
  for (const double g : {2.0, 4.0, 5.0, 6.0, 8.0, 10.0, 15.0}) {
    TransientLoopParams p;
    p.inject = Rate::gbps(g);
    Scenario s = make_transient_loop(p);
    s.sim->run_until(run_for);
    const auto drain = analysis::stop_and_drain(*s.net, 20_ms);
    csv.row({stats::CsvWriter::num(g),
             stats::CsvWriter::num(std::int64_t{drain.deadlocked})});
  }

  csv.section("series 3: SDN update, naive vs ordered (ring, greedy flow)");
  csv.header({"mode", "transient_loop_seen", "deadlock"});
  for (const bool ordered : {false, true}) {
    Simulator sim;
    const topo::RingTopo ring = topo::make_ring(4, 1);
    Topology t = ring.topo;
    Network net(sim, t, NetConfig{});
    routing::install_shortest_paths(net, /*ecmp=*/false);
    const NodeId dst = ring.hosts[2][0];
    FlowSpec f;
    f.id = 1;
    f.src_host = ring.hosts[0][0];
    f.dst_host = dst;
    f.packet_bytes = 1000;
    f.ttl = 16;
    net.host_at(f.src_host).add_flow(f);
    routing::SdnUpdatePlan plan(dst);
    plan.add(ring.switches[1], *t.port_towards(ring.switches[1], ring.switches[0]));
    plan.add(ring.switches[0], *t.port_towards(ring.switches[0], ring.switches[3]));
    if (ordered) {
      plan.apply_ordered(net, 1_ms, 200_us);
    } else {
      plan.apply_naive(net, 1_ms, 1_ms, /*seed=*/2);  // unlucky order
    }
    // The update lands in [1 ms, 2 ms]; watch for a loop a little past it,
    // then run on to the horizon (never short of the window).
    const Time window_end = 2_ms + 100_us;
    bool loop_seen = false;
    for (Time at = 1_ms; at <= window_end; at += 20_us) {
      sim.run_until(at);
      loop_seen |= routing::find_forwarding_loop(net, dst).has_value();
    }
    sim.run_until(std::max(run_for, window_end));
    const auto drain = analysis::stop_and_drain(net, 20_ms);
    csv.row({ordered ? "ordered" : "naive",
             stats::CsvWriter::num(std::int64_t{loop_seen}),
             stats::CsvWriter::num(std::int64_t{drain.deadlocked})});
  }

  csv.section("series 4: BGP link failure under lossless load (ring of 4)");
  csv.header({"phase", "reachable", "messages", "deadlock"});
  {
    Simulator sim;
    const topo::RingTopo ring = topo::make_ring(4, 1);
    Topology t = ring.topo;
    Network net(sim, t, NetConfig{});
    routing::BgpFabric bgp(net, routing::BgpFabric::Params{});
    bgp.start();
    sim.run_until(100_ms);
    // Lossless traffic across the ring.
    FlowSpec f;
    f.id = 1;
    f.src_host = ring.hosts[0][0];
    f.dst_host = ring.hosts[2][0];
    f.packet_bytes = 1000;
    f.ttl = 16;
    net.host_at(f.src_host).add_flow(f);
    sim.run_until(102_ms);
    const auto port = t.port_towards(ring.switches[0], ring.switches[1]);
    const std::uint32_t link = t.peer(ring.switches[0], *port).link;
    bgp.fail_link(link);
    sim.run_until(110_ms);
    const bool converged = bgp.converged();
    const auto delivered_a =
        net.host_at(ring.hosts[2][0]).delivered_bytes(1);
    sim.run_until(115_ms);
    const auto delivered_b =
        net.host_at(ring.hosts[2][0]).delivered_bytes(1);
    const auto drain = analysis::stop_and_drain(net, 20_ms);
    csv.row({"after_failure",
             stats::CsvWriter::num(std::int64_t{delivered_b > delivered_a}),
             stats::CsvWriter::num(
                 static_cast<std::int64_t>(bgp.messages_sent())),
             stats::CsvWriter::num(std::int64_t{drain.deadlocked})});
    std::printf("# bgp converged after failure: %d\n", converged ? 1 : 0);
  }
  std::printf("# paper expectation: long-enough loops above threshold leave a "
              "deadlock that repair cannot clear\n");
  return 0;
}
