// Canonical experiment scenarios — the exact setups of the paper's Figures
// 1–5 plus the fabric workloads used by the mitigation and baseline
// benches. Tests, examples, and bench harnesses all build on these so the
// reproduced numbers come from one implementation of each setup.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "dcdl/analysis/deadlock.hpp"
#include "dcdl/device/host.hpp"
#include "dcdl/device/network.hpp"
#include "dcdl/device/switch.hpp"
#include "dcdl/sim/simulator.hpp"
#include "dcdl/stats/pause_log.hpp"
#include "dcdl/topo/topology.hpp"
#include "dcdl/traffic/flow.hpp"

namespace dcdl::scenarios {

/// A self-contained simulation: simulator + topology + network + the flow
/// set, plus labels for the queues whose pause state the paper plots.
struct Scenario {
  std::unique_ptr<Simulator> sim;
  std::unique_ptr<Topology> topo;
  std::unique_ptr<Network> net;
  std::vector<FlowSpec> flows;

  /// Ingress queues forming the cyclic buffer dependency under study, in
  /// cycle order, with the paper's labels (e.g. "L1".."L4": the queue at
  /// the downstream end of each cycle link).
  std::vector<stats::QueueKey> cycle_queues;
  std::vector<std::string> cycle_labels;

  /// Named node lookup (host and switch ids by construction name).
  NodeId node(const std::string& name) const;
};

/// §3.1 / Figure 2: a routing loop of `loop_len` switches; a single flow is
/// injected at switch 0 toward a destination whose routes cycle forever.
/// Deadlock iff inject_rate > loop_len * bandwidth / ttl (Eq. 3).
struct RoutingLoopParams {
  int loop_len = 2;
  Rate bandwidth = Rate::gbps(40);
  Time link_delay = Time{1'000'000};  // 1 us
  int ttl = 16;
  /// Injection rate; zero = greedy (infinite demand).
  Rate inject = Rate::gbps(6);
  std::uint32_t packet_bytes = 1000;
  std::int64_t xoff_bytes = 40 * kKiB;
  int num_classes = 1;
  /// Optional TTL-band class mitigation (0 = off): see
  /// mitigation::ttl_class_mapper.
  int ttl_class_band = 0;
  /// In-switch DCFIT detection/recovery pipeline (off by default).
  dataplane::DataplaneConfig dataplane;
};
Scenario make_routing_loop(const RoutingLoopParams& params);

/// §3.2 / Figures 3 and 4 (and §3.3 / Figure 5): four switches A,B,C,D in
/// a ring; flow 1 hA -> A,B,C,D -> hD; flow 2 hC -> C,D,A,B -> hB; with
/// `with_flow3`, flow 3 hB3 -> B,C -> hC3. `flow3_limit` installs the
/// Figure-5 token-bucket rate limiter on B's ingress from flow 3's host.
struct FourSwitchParams {
  bool with_flow3 = false;
  Rate flow3_limit = Rate::zero();  // zero = unlimited
  Rate bandwidth = Rate::gbps(40);
  /// 2 us reproduces the paper's PFC control-loop amplitude (occupancy
  /// sawtooth ~15 KB above / ~20 KB below the 40 KB threshold, Fig. 3d).
  Time link_delay = Time{2'000'000};
  std::uint32_t packet_bytes = 1000;
  std::int64_t xoff_bytes = 40 * kKiB;
  std::int64_t buffer_bytes = 12 * kMiB;
  std::uint8_t ttl = 64;
  /// Inter-frame gap jitter (see NetConfig::tx_jitter). 10 ns is 5% of a
  /// 1000-byte serialization at 40 Gbps.
  Time tx_jitter = Time{10'000};
  std::uint64_t seed = 1;
  /// In-switch DCFIT detection/recovery pipeline (off by default).
  dataplane::DataplaneConfig dataplane;
};
Scenario make_four_switch(const FourSwitchParams& params);

/// Figure 1: a ring of `n` switches where flow i enters at switch i and
/// travels `span` ring links clockwise before exiting to a host — the
/// figure's circulating A->B->C->A traffic. Every ring link is loaded by
/// `span` flows, every ring ingress counter backs up into the next ring
/// egress, and the cyclic dependency locks up under greedy traffic.
struct RingDeadlockParams {
  int num_switches = 3;
  /// Ring links each flow traverses, in [2, num_switches - 1]; per-flow
  /// routing cannot express a full wrap (the path would revisit its first
  /// switch with two different next hops).
  int span = 2;
  Rate bandwidth = Rate::gbps(40);
  Time link_delay = Time{1'000'000};
  std::uint32_t packet_bytes = 1000;
  std::int64_t xoff_bytes = 40 * kKiB;
  std::uint8_t ttl = 64;
  int num_classes = 1;
  /// Optional hop-count buffer classes (structured buffer pool baseline);
  /// false leaves single-class PFC.
  bool hop_classes = false;
  Time tx_jitter = Time{10'000};
  std::uint64_t seed = 1;
  /// In-switch DCFIT detection/recovery pipeline (off by default).
  dataplane::DataplaneConfig dataplane;
};
Scenario make_ring_deadlock(const RingDeadlockParams& params);

/// Leaf-spine incast: `num_senders` hosts across other leaves all send to
/// one receiver. Used by the PFC-propagation (threshold policy) and
/// DCQCN benches.
struct IncastParams {
  int num_leaves = 4;
  int num_spines = 2;
  int hosts_per_leaf = 4;
  int num_senders = 8;
  Rate bandwidth = Rate::gbps(40);
  Time link_delay = Time{1'000'000};
  std::uint32_t packet_bytes = 1000;
  std::int64_t xoff_bytes = 40 * kKiB;
  bool ecn = false;
  bool dcqcn = false;
  double phantom_speed_fraction = 1.0;
  Time flow_stop = Time::max();
};
Scenario make_incast(const IncastParams& params);

/// §1: a transient routing loop (BGP re-route / SDN update / misconfig)
/// traps lossless traffic. Routes toward the destination are correct
/// before `loop_start`, form a forwarding cycle during
/// [loop_start, loop_start + loop_duration), and are then repaired. The
/// paper's point: a deadlock formed inside the window persists after the
/// routes are fixed, because the pause cycle freezes the very queues whose
/// packets would need to be re-forwarded.
struct TransientLoopParams {
  int loop_len = 2;
  Rate bandwidth = Rate::gbps(40);
  Time link_delay = Time{1'000'000};
  int ttl = 16;
  /// Injection rate; zero = greedy.
  Rate inject = Rate::gbps(10);
  std::uint32_t packet_bytes = 1000;
  std::int64_t xoff_bytes = 40 * kKiB;
  Time loop_start = Time{1'000'000'000};     // 1 ms
  Time loop_duration = Time{2'000'000'000};  // 2 ms
  int num_classes = 1;
  int ttl_class_band = 0;  ///< optional TTL-class mitigation
  /// In-switch DCFIT detection/recovery pipeline (off by default). The
  /// false-positive experiments run this scenario below the Eq. 3 boundary
  /// — the loop drains by itself and the pipeline must stay silent.
  dataplane::DataplaneConfig dataplane;
};
Scenario make_transient_loop(const TransientLoopParams& params);

/// §2's real-world tree deadlock (the paper cites Guo et al., SIGCOMM'16:
/// "even for tree-based topology, cyclic buffer dependency can still occur
/// if up-down routing is not strictly followed"): a 3-leaf/2-spine fabric
/// where two flows to leaf L3 take *valley* paths (down-up-down through
/// the other leaf):
///   flow 1: h1a -> L1 -> S1 -> L2 -> S2 -> L3 -> h1b
///   flow 2: h2a -> L2 -> S2 -> L1 -> S1 -> L3 -> h2b
/// Their ingress queues close a 4-cycle (S1<-L1, L2<-S1, S2<-L2, L1<-S2)
/// even though the topology is a tree fabric. Exactly as in Figures 3/4,
/// the two valley flows alone leave two slack cycle links (no deadlock);
/// a third, perfectly valley-free flow h3a@L1 -> S1 -> L2 -> h3b saturates
/// one of them and the fabric deadlocks.
struct ValleyViolationParams {
  /// Adds the innocent up-down flow that tips the cycle (Figure-4
  /// analogue). Default on: the deadlocking configuration.
  bool with_extra_flow = true;
  Rate bandwidth = Rate::gbps(40);
  Time link_delay = Time{2'000'000};
  std::uint32_t packet_bytes = 1000;
  std::int64_t xoff_bytes = 40 * kKiB;
  std::uint8_t ttl = 64;
  Time tx_jitter = Time{10'000};
  std::uint64_t seed = 1;
  /// Route the same endpoint pairs with strict up*/down* instead of the
  /// valley paths (the fix): no cycle, no deadlock.
  bool strict_up_down = false;
  /// In-switch DCFIT detection/recovery pipeline (off by default).
  dataplane::DataplaneConfig dataplane;
};
Scenario make_valley_violation(const ValleyViolationParams& params);

/// The in-band dataplane pipeline's events over one run (all empty/zero
/// when it is off).
struct DataplaneSummary {
  /// First in-band confirmation instant and the switch that confirmed (the
  /// pipeline's initial-trigger attribution — cross-check it against the
  /// offline forensics report).
  std::optional<Time> detected_at;
  std::optional<NodeId> trigger;
  /// First recovery-action instant (recovery latency = this minus
  /// detected_at).
  std::optional<Time> recovered_at;
  std::uint64_t candidates = 0;
  std::uint64_t confirms = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t false_alarms = 0;
};

/// When `net`'s dataplane pipeline is enabled, chains a hook that fills
/// `out` and re-arms `monitor` after every in-band recovery, so a second
/// deadlock in the same run is still confirmed. The hook fires on the
/// thread driving the run — inline at one shard, during the barrier replay
/// at two or more — where re-arming the monitor is safe. `out` and
/// `monitor` must outlive the run and its drain.
void capture_dataplane(Network& net, analysis::DeadlockMonitor& monitor,
                       DataplaneSummary& out);

/// Summary of one run: online wait-for detection plus the paper's
/// stop-and-drain criterion.
struct RunSummary {
  bool deadlocked = false;
  /// When the online monitor confirmed the deadlock (if it did).
  std::optional<Time> detected_at;
  /// The confirmed wait-for cycle (empty unless detected_at is set).
  std::vector<stats::QueueKey> cycle;
  std::int64_t trapped_bytes = 0;
  /// Per-flow delivered bytes at the moment flows were stopped.
  std::vector<std::pair<FlowId, std::int64_t>> delivered;
  /// In-band dataplane pipeline, captured over the run and the drain.
  DataplaneSummary dp;
};

/// Runs the scenario for `run_for`, then stops all flows and drains for
/// `drain_grace`; reports deadlock per both detectors (the online monitor
/// confirms a wait-for cycle after a 1 ms dwell). The dataplane pipeline,
/// when enabled, is captured into `dp` (see capture_dataplane).
RunSummary run_and_check(Scenario& s, Time run_for, Time drain_grace);

}  // namespace dcdl::scenarios
