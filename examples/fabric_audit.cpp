// Fabric deadlock audit — the tool a network operator would run before
// enabling PFC: build the fabric, install the intended routing, and check
// whether any cyclic buffer dependency exists for a worst-case all-pairs
// traffic pattern; then stress the fabric with permutation traffic and
// report goodput and pause pressure.
//
//   $ ./fabric_audit --topo=fattree --routing=ecmp
//   $ ./fabric_audit --topo=jellyfish --routing=ecmp     # CBD cycles!
//   $ ./fabric_audit --topo=jellyfish --routing=updown   # certified free
//   $ ./fabric_audit --topo=bcube_relay --routing=ecmp  # server relays
//
// Flags: --topo=fattree|leafspine|jellyfish|bcube_relay,
//        --routing=ecmp|updown, --run_ms=3, --seed=1.
// Plain BCube is not a choice: its servers have k+1 ports, and a Host is
// single-homed. bcube_relay models BCube's relaying servers as switches,
// each with one host. Any other --topo exits 2.
#include <cstdio>
#include <string>

#include "dcdl/analysis/bdg.hpp"
#include "dcdl/analysis/risk.hpp"
#include "dcdl/common/flags.hpp"
#include "dcdl/common/rng.hpp"
#include "dcdl/device/host.hpp"
#include "dcdl/routing/compute.hpp"
#include "dcdl/scenarios/scenario.hpp"
#include "dcdl/stats/pause_log.hpp"
#include "dcdl/topo/generators.hpp"

using namespace dcdl;
using namespace dcdl::literals;
using namespace dcdl::topo;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::string topo_name = flags.get_string("topo", "fattree");
  const std::string routing_name = flags.get_string("routing", "ecmp");
  const Time run_for = Time{flags.get_int("run_ms", 3) * 1'000'000'000};
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.get_int("seed", 1));
  flags.check_unused();

  // Build the requested fabric.
  Topology topo;
  std::vector<NodeId> hosts;
  if (topo_name == "fattree") {
    FatTreeTopo t = make_fat_tree(4);
    hosts = t.all_hosts;
    topo = std::move(t.topo);
  } else if (topo_name == "leafspine") {
    LeafSpineTopo t = make_leaf_spine(4, 2, 4);
    for (const auto& per_leaf : t.hosts) {
      hosts.insert(hosts.end(), per_leaf.begin(), per_leaf.end());
    }
    topo = std::move(t.topo);
  } else if (topo_name == "jellyfish") {
    JellyfishTopo t = make_jellyfish(12, 4, 2, 21);
    for (const auto& per_sw : t.hosts) {
      hosts.insert(hosts.end(), per_sw.begin(), per_sw.end());
    }
    topo = std::move(t.topo);
  } else if (topo_name == "bcube_relay") {
    BCubeRelayTopo t = make_bcube_relay(3, 1);
    hosts = t.hosts;
    topo = std::move(t.topo);
  } else {
    std::fprintf(stderr, "unknown --topo=%s\n", topo_name.c_str());
    return 2;
  }

  Simulator sim;
  Network net(sim, topo, NetConfig{});
  if (routing_name == "updown") {
    routing::install_up_down(net);
  } else {
    routing::install_shortest_paths(net);
  }
  std::printf("fabric: %s (%zu nodes, %zu links), routing: %s\n",
              topo_name.c_str(), topo.node_count(), topo.link_count(),
              routing_name.c_str());

  // Static audit: all-pairs worst case.
  std::vector<FlowSpec> all_pairs;
  FlowId id = 1;
  for (const NodeId a : hosts) {
    for (const NodeId b : hosts) {
      if (a == b) continue;
      FlowSpec f;
      f.id = id++;
      f.src_host = a;
      f.dst_host = b;
      all_pairs.push_back(f);
    }
  }
  const auto bdg = analysis::BufferDependencyGraph::build(net, all_pairs);
  std::printf("static audit (all-pairs): %zu buffer queues, %zu dependency "
              "cycles -> %s\n",
              bdg.vertices().size(), bdg.cycles().size(),
              bdg.has_cycle()
                  ? "NOT deadlock-free: do not enable PFC without mitigation"
                  : "certified deadlock-free (Dally-Seitz)");
  if (bdg.has_cycle()) {
    // Tighter condition: are the cycles actually saturable under the
    // worst-case traffic, and where is the weakest (rate-limitable) hop?
    const auto risk = analysis::assess_deadlock_risk(net, all_pairs);
    int lockable = 0;
    for (const auto& c : risk.cycles) lockable += c.reachable() ? 1 : 0;
    std::printf("risk analysis: %d of %zu cycles lockable under all-pairs "
                "greedy traffic (max cycle saturation %.2f)\n",
                lockable, risk.cycles.size(), risk.max_risk);
  }

  // Dynamic stress: random permutation of greedy flows.
  std::vector<NodeId> dsts = hosts;
  Rng rng(seed);
  rng.shuffle(dsts.begin(), dsts.end());
  std::vector<FlowSpec> flows;
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    if (hosts[i] == dsts[i]) continue;
    FlowSpec f;
    f.id = 100000 + static_cast<FlowId>(i);
    f.src_host = hosts[i];
    f.dst_host = dsts[i];
    f.packet_bytes = 1000;
    f.ttl = 64;
    net.host_at(f.src_host).add_flow(f);
    flows.push_back(f);
  }
  stats::PauseEventLog log(net);
  analysis::DeadlockMonitor monitor(net);
  monitor.start(Time::zero(), run_for);
  sim.run_until(run_for);

  double total = 0;
  for (const FlowSpec& f : flows) {
    total += static_cast<double>(net.host_at(f.dst_host).delivered_bytes(f.id)) *
             8 / run_for.sec() / 1e9;
  }
  std::printf("dynamic stress (%zu-flow permutation, %.0f ms): aggregate "
              "goodput %.1f Gbps, %zu pause events, deadlock: %s\n",
              flows.size(), run_for.ms(), total, log.events().size(),
              monitor.deadlocked() ? "DETECTED" : "none");
  std::printf("overflow drops: %llu (must be 0 under PFC)\n",
              static_cast<unsigned long long>(
                  net.drops(DropReason::kBufferOverflow)));
  return 0;
}
