// Base class for runtime network elements (switches and hosts), and the
// wire record every transmission reads.
#pragma once

#include <cstdint>
#include <vector>

#include "dcdl/device/trace.hpp"
#include "dcdl/net/packet.hpp"
#include "dcdl/sim/simulator.hpp"

namespace dcdl {

class Network;
class Device;

/// One directed attachment (node, port) as the packet path sees it. The
/// Network builds one per (node, port) at construction and never changes
/// it, so a transmission or PFC frame reads this one cache line instead of
/// the Topology's peer, link and node records, the shard plan and the
/// sequence table.
struct alignas(64) Wire {
  Device* peer = nullptr;
  /// The directed link's sequence counter (one writer: the sending shard).
  std::uint64_t* seq = nullptr;
  std::uint64_t chan = 0;  ///< wire channel 1 + 2*link + dir
  Time delay;              ///< one-way propagation
  Rate rate;
  Time ser_mtu;  ///< serialization_time(NetConfig::mtu_bytes, rate)
  Time ser_pfc;  ///< serialization_time(control_frame_bytes, rate)
  std::uint32_t peer_shard = 0;
  PortId peer_port = kInvalidPort;
  bool peer_is_switch = false;

  /// Serialization time of a `bytes`-byte frame; `mtu` is the configured
  /// MTU, whose time is precomputed.
  Time serialization(std::uint32_t bytes, std::uint32_t mtu) const {
    return bytes == mtu ? ser_mtu : serialization_time(bytes, rate);
  }
};
static_assert(sizeof(Wire) == 64, "a wire record is one cache line");

class Device {
 public:
  Device(Network& net, NodeId id) : net_(net), id_(id) {}
  virtual ~Device() = default;
  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  NodeId id() const { return id_; }

  /// This device's local clock: the owning shard's clock, which the engine
  /// keeps aligned at every window barrier.
  Time now() const { return sim_->now(); }

  /// A data packet finished arriving on `in_port` (store-and-forward).
  virtual void on_receive(PortId in_port, Packet pkt) = 0;

  /// A PFC frame from the peer of `port` changed the pause state of this
  /// device's egress on that port for class `cls`.
  virtual void on_pfc(PortId port, ClassId cls, bool pause) = 0;

  /// Packets dropped by this device, by reason. Kept per-device (not
  /// globally on the Network) so concurrent shards never share a counter;
  /// Network::drops() sums across devices.
  std::uint64_t drop_count(DropReason reason) const {
    return drop_counts_[static_cast<int>(reason)];
  }

  /// Cumulative bytes serialized out of egress `port`. Maintained natively
  /// (one indexed add per transmission, like drop_counts_) so samplers can
  /// read utilization as device state at barriers instead of observing
  /// every tx_start on the hot path.
  std::uint64_t tx_byte_count(PortId port) const {
    return port < tx_byte_counts_.size() ? tx_byte_counts_[port] : 0;
  }

 protected:
  /// Self-scheduling: timers, transmit-complete callbacks, pause refreshes.
  /// These go onto the device's own shard under the device's private
  /// (channel, sequence) key — the key is a pure function of this device's
  /// deterministic execution, so the global event order stays invariant to
  /// the shard count.
  EventId schedule_at(Time at, EventFn&& fn) {
    return sim_->schedule_keyed(at, self_chan_, ++self_seq_, std::move(fn));
  }
  EventId schedule_in(Time delay, EventFn&& fn) {
    return schedule_at(sim_->now() + delay, std::move(fn));
  }
  void cancel_event(EventId id) { sim_->cancel(id); }

  void count_drop(DropReason reason) {
    ++drop_counts_[static_cast<int>(reason)];
  }

  /// Sizes the per-port tx counters; subclasses call this once at
  /// construction so count_tx stays a bare indexed add.
  void init_tx_ports(std::size_t ports) { tx_byte_counts_.assign(ports, 0); }
  void count_tx(PortId port, std::int64_t bytes) {
    tx_byte_counts_[port] += static_cast<std::uint64_t>(bytes);
  }

  /// This device's wire record for `port` (valid once the Network is
  /// constructed).
  const Wire& wire(PortId port) const { return wires_[port]; }

  Network& net_;
  NodeId id_;

 private:
  friend class Network;
  /// Called by the Network right after construction: the owning shard's
  /// simulator and the device's self-channel.
  void bind_sim(Simulator* sim, std::uint64_t self_chan) {
    sim_ = sim;
    self_chan_ = self_chan;
  }

  Simulator* sim_ = nullptr;
  const Wire* wires_ = nullptr;  ///< this node's ports in the wire table
  std::uint64_t self_chan_ = 0;
  std::uint64_t self_seq_ = 0;
  std::vector<std::uint64_t> tx_byte_counts_;
  std::uint64_t drop_counts_[kNumDropReasons] = {};
};

}  // namespace dcdl
