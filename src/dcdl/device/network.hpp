// The runtime network: owns the devices built from a Topology, moves packets
// and PFC frames across wires, and exposes global introspection used by the
// analysis and statistics layers.
//
// Engine: the Network partitions the topology into as many shards as the
// constructing thread's ScopedShardRequest asks for (1 by default;
// topo/partition.hpp), builds a ShardedEngine whose lookahead is the minimum
// cut-link delay (clamped by the out-of-band feedback delay when ECN/TIMELY
// is enabled), binds every device to its shard's simulator, and posts every
// wire/PFC/feedback event through the engine under a canonical (time,
// channel, sequence) key:
//
//   wire channels  1 + 2*link + dir        seq: per directed link
//   oob channels   1 + 2L + sender          seq: per sending node
//   self channels  1 + 2L + N + device      seq: per device
//
// Every sequence counter has exactly one writer (the sending side's shard),
// and every key is a pure function of the scenario — so the merged event
// order, and with it every observable byte, is identical for all shard
// counts. The externally visible Simulator (`sim()`) becomes the control
// simulator: run_until() on it drives the sharded engine via its run
// delegate, and monitors/samplers scheduled on it keep working unchanged.
//
// Wire table: at construction the Network flattens the topology into one
// immutable 64-byte Wire record per (node, port) — peer device and port,
// peer shard, wire channel and its sequence counter, delay, rate, and the
// precomputed serialization times of the MTU and of a PFC frame — laid
// out node by node, and hands each device a pointer to its ports' records.
// The packet path (transmit, send_pfc, the switch's route and transmit,
// the host's send) reads only these records, never the Topology.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "dcdl/common/units.hpp"
#include "dcdl/device/config.hpp"
#include "dcdl/device/device.hpp"
#include "dcdl/device/trace.hpp"
#include "dcdl/net/packet.hpp"
#include "dcdl/sim/sharded.hpp"
#include "dcdl/sim/simulator.hpp"
#include "dcdl/topo/partition.hpp"
#include "dcdl/topo/topology.hpp"

namespace dcdl {

class Switch;
class Host;

class Network {
 public:
  /// Builds one device per topology node. The topology and simulator must
  /// outlive the network. A ScopedShardRequest active on the constructing
  /// thread sets the shard count (see file comment).
  Network(Simulator& sim, const Topology& topo, NetConfig cfg);
  ~Network();
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  Simulator& sim() { return sim_; }
  const Topology& topo() const { return topo_; }
  const NetConfig& config() const { return cfg_; }

  /// The observation hooks. On shard worker threads (K >= 2) this returns
  /// the shard's buffering trace (records tagged with the executing event's
  /// key, merged and replayed globally ordered at each window barrier);
  /// everywhere else — attachment sites, one-shard runs, control phases —
  /// the real hook set.
  Trace& trace();

  /// The engine — bench/tests introspect window and mailbox statistics
  /// through this.
  ShardedEngine& engine() { return engine_; }
  const topo::ShardPlan& shard_plan() const { return plan_; }

  Device& device(NodeId id) { return *devices_.at(id); }
  Switch& switch_at(NodeId id);
  const Switch& switch_at(NodeId id) const;
  Host& host_at(NodeId id);
  const Host& host_at(NodeId id) const;

  Rate link_rate(NodeId node, PortId port) const {
    return wire(node, port).rate;
  }
  Time link_delay(NodeId node, PortId port) const {
    return wire(node, port).delay;
  }
  /// Dense id of the directed channel out of (node, port): its index in
  /// the node-major wire table, in [0, channel_count()). Analyses key
  /// per-channel arrays by it.
  std::size_t channel_id(NodeId node, PortId port) const {
    return wire_base_[node] + port;
  }
  std::size_t channel_count() const { return wires_.size(); }

  /// Sends `pkt` down wire `w` at the sender's time `now`: the peer's
  /// on_receive fires after `ser` (the serialization time the sender
  /// computed from `w`) plus propagation. The caller owns modelling its
  /// busy period, which lasts at least `ser`.
  void transmit(const Wire& w, Time now, Time ser, const Packet& pkt) {
    engine_.post(w.peer_shard, now + ser + w.delay, w.chan, ++*w.seq,
                 [peer = w.peer, port = w.peer_port, pkt]() mutable {
                   peer->on_receive(port, pkt);
                 });
  }

  /// Sends a PFC pause/resume for `cls` to the peer of (from, port).
  /// Control frames incur propagation plus their own 64-byte serialization
  /// but never queue behind data (modelling simplification; see DESIGN.md).
  void send_pfc(NodeId from, PortId port, ClassId cls, bool pause);

  /// Tag-carrying variant (dataplane pipeline enabled): the PauseTag rides
  /// with the PFC frame and is delivered through Switch::on_pfc_tagged when
  /// the peer is a switch (hosts receive the plain frame — the tag is
  /// switch-to-switch metadata). Same wire channel and sequence space as
  /// the untagged path, so shard determinism is unchanged.
  void send_pfc(NodeId from, PortId port, ClassId cls, bool pause,
                const dataplane::PauseTag& tag);

  /// Out-of-band congestion notification from `from` to the flow's source
  /// host.
  void send_cnp(NodeId from, FlowId flow, NodeId src_host);

  /// Out-of-band RTT sample from `from` to the flow's source host (TIMELY
  /// feedback).
  void send_rtt_sample(NodeId from, FlowId flow, NodeId src_host, Time rtt);

  /// Tell a switch its route table changed so it can re-resolve queued
  /// packets (used by the BGP / SDN-update substrates).
  void notify_routes_changed(NodeId sw);

  /// Fresh packet id for a packet injected by `src`, drawn from a per-host
  /// namespace (single writer per shard, and invariant to the shard count).
  std::uint64_t next_packet_id(NodeId src) {
    return (static_cast<std::uint64_t>(src + 1) << 40) | ++host_pkt_seq_[src];
  }

  /// Total bytes buffered across all switch ingress queues. After all flows
  /// stop, a non-zero residue once the event queue is quiet means packets
  /// are permanently trapped — the paper's operational deadlock criterion.
  std::int64_t total_queued_bytes() const;

  /// Total packets dropped, by reason (for the lossless-invariant tests).
  /// Summed over per-device counters.
  std::uint64_t drops(DropReason reason) const;

 private:
  /// K >= 2: wires the per-shard buffering traces and their replay.
  void init_shard_traces();
  /// (Re)installs per-shard buffering hooks mirroring whatever is attached
  /// to the real trace — invoked by the engine at the start of every run.
  void arm_shard_traces();
  /// Fires one merged record into the real hooks (engine replay sink).
  void replay_record(const ShardedEngine::TraceRec& rec);
  ShardedEngine::TraceRec make_rec(std::uint32_t shard,
                                   ShardedEngine::RecKind kind, Time at);
  /// Fills wires_/wire_base_ from the topology and binds every device to
  /// its records (after all devices exist: records point at peers).
  void build_wires();
  /// The wire record of (node, port) (see file comment).
  const Wire& wire(NodeId node, PortId port) const {
    return wires_[wire_base_[node] + port];
  }

  Simulator& sim_;
  const Topology& topo_;
  NetConfig cfg_;
  Trace trace_;

  // Engine state. engine_ is declared before devices_, so devices are
  // destroyed first: they never run once the coordinator stops driving
  // windows, and engine-first keeps the plan and seq tables alive for the
  // engine's entire lifetime.
  topo::ShardPlan plan_;
  ShardedEngine engine_;
  std::vector<Trace> shard_traces_;          ///< buffering hooks (K >= 2)
  std::vector<std::uint64_t> wire_seq_;      ///< per directed link (2L)
  std::vector<std::uint64_t> oob_seq_;       ///< per sending node
  std::vector<std::uint64_t> host_pkt_seq_;  ///< per source host
  static thread_local Trace* tls_trace_;     ///< shard workers' redirection

  std::vector<std::unique_ptr<Device>> devices_;
  std::vector<Wire> wires_;              ///< per (node, port), node-major
  std::vector<std::uint32_t> wire_base_;  ///< node -> its first record
};

}  // namespace dcdl
