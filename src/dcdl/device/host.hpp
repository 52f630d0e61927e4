// Host / RDMA-NIC model.
//
// Hosts source flows (each with a pacing model) and sink packets. The NIC
// egress honours PFC: when the attached switch pauses a class, flows of
// that class stop at the source — which is exactly the backpressure that
// lets deadlocks starve whole applications. Active flows of equal priority
// share the NIC round-robin.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "dcdl/common/flow_map.hpp"
#include "dcdl/common/rng.hpp"
#include "dcdl/device/config.hpp"
#include "dcdl/device/device.hpp"
#include "dcdl/sim/simulator.hpp"
#include "dcdl/traffic/flow.hpp"

namespace dcdl {

class Host final : public Device {
 public:
  Host(Network& net, NodeId id, const NetConfig& cfg);

  /// Registers a flow sourced by this host. A null pacer means greedy
  /// (infinite demand). Injection begins at spec.start.
  void add_flow(const FlowSpec& spec, std::unique_ptr<Pacer> pacer = nullptr);

  /// Stops a flow immediately (no further packets are injected).
  void stop_flow(FlowId flow);
  void stop_all_flows();

  /// Replaces a flow's pacer with a token bucket at `rate` — the NIC-side
  /// rate limiter used by intelligent rate limiting (shaping at the source
  /// avoids the PFC backpressure that switch-side shaping inflicts on
  /// co-located innocent flows).
  void limit_flow(FlowId flow, Rate rate, std::int64_t burst_bytes);

  /// Reversibly holds a flow at the NIC (hybrid engine boundary adapter:
  /// while a flow is integrated by the fluid model its packets must not
  /// also exist in the event stream). A held flow injects nothing but
  /// keeps its pacer and spec intact; releasing it re-enters the normal
  /// scheduler immediately, with the original pacer deciding the next
  /// departure.
  void hold_flow(FlowId flow, bool held);

  /// Accounts `bytes`/`packets` of `flow` as delivered at this host
  /// without any packet existing (hybrid boundary adapter: fluid-region
  /// delivery converted back into sink statistics). Deliberately does not
  /// fire Trace::delivered — no packet, no trace record, golden digests
  /// unchanged.
  void credit_delivery(FlowId flow, std::int64_t bytes, std::uint64_t packets);

  // Device interface.
  void on_receive(PortId in_port, Packet pkt) override;
  void on_pfc(PortId port, ClassId cls, bool pause) override;

  /// Congestion feedback for a flow sourced here (from Network::send_cnp).
  void on_cnp(FlowId flow);

  /// RTT sample for a flow sourced here (from Network::send_rtt_sample).
  void on_rtt(FlowId flow, Time rtt);

  // --- statistics ---
  std::int64_t sent_bytes(FlowId flow) const;
  std::uint64_t sent_packets(FlowId flow) const;
  std::int64_t delivered_bytes(FlowId flow) const;
  std::uint64_t delivered_packets(FlowId flow) const;
  Pacer* pacer(FlowId flow);
  bool egress_paused(ClassId cls) const { return paused_.at(cls); }

 private:
  struct FlowState {
    FlowSpec spec;
    std::unique_ptr<Pacer> pacer;  // null = greedy
    std::int64_t sent_bytes = 0;
    std::uint64_t sent_packets = 0;
    bool stopped = false;
    bool held = false;  ///< fluidized by the hybrid engine
  };
  struct SinkStats {
    std::int64_t bytes = 0;
    std::uint64_t packets = 0;
  };

  void try_send();
  void complete_transmit();
  void schedule_wake(Time at);
  /// Pause state after 802.1Qbb quanta expiry (if configured).
  bool paused_now(ClassId cls) const;

  const NetConfig& cfg_;
  std::vector<FlowState> flows_;
  std::size_t rr_ = 0;
  bool busy_ = false;
  std::array<bool, kMaxClasses> paused_{};
  std::array<Time, kMaxClasses> pause_expiry_{};
  EventId wake_{};
  Time wake_at_ = Time::max();
  /// Sink tallies, dense-indexed by FlowId (no hashing per delivery).
  FlowMap<SinkStats> delivered_;
  Rng jitter_rng_;
};

}  // namespace dcdl
