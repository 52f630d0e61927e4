// The lossless-Ethernet switch model.
//
// Architecture — output-queued with ingress accounting, mirroring the
// shared-buffer commodity switches (and the authors' NS-3 qbb model) the
// paper studies:
//
//  - A packet that finishes arriving on ingress port p is routed at once
//    and placed in the FIFO of its egress (port, class) queue. There is no
//    head-of-line blocking at the ingress.
//  - An *ingress counter* per (ingress port, class) tracks the bytes of all
//    packets resident in the switch that arrived on that port/class (the
//    paper: "for each ingress queue, the switch maintains a counter to
//    track the bytes of buffered packets received by this ingress queue").
//    The counter rises at arrival and falls when the packet is dequeued
//    for transmission.
//  - PFC: counter >= Xoff sends PAUSE(class) to the upstream device;
//    counter < Xon sends RESUME. A received PAUSE freezes this switch's
//    (egress, class) queue on that port. Frozen queues hold buffer, which
//    keeps upstream ingress counters high — the cascade that makes
//    deadlock possible.
//  - Egress scheduling: one transmitter per port serving its per-class
//    FIFOs round-robin across unpaused classes; within a class, strict
//    arrival order. Per-ingress fairness at a saturated egress emerges
//    from PFC duty-cycling the ingresses (paper footnote 4).
//  - TTL: on arrival, a packet that still needs switch-to-switch
//    forwarding is dropped if its TTL is exhausted, else decremented, so a
//    packet injected with TTL=T survives exactly T switch-to-switch hops —
//    matching the boundary-state model (Eq. 2: n·B = TTL·r).
//  - Optional per-ingress-port token-bucket shapers (paper §3.3/§4 rate
//    limiting): arriving packets wait in a per-ingress holding FIFO and
//    are released to their egress queue at the shaped rate. Held bytes
//    count toward the ingress counter (they occupy buffer).
//  - ECN marking for the DCQCN mitigation: on enqueue against the real
//    egress backlog, or against a phantom queue draining at a fraction of
//    line rate (EcnConfig).
//
// Hot-path memory layout (see DESIGN.md "Hot-path memory architecture"):
// routes are dense per-destination group indices (RouteTable); ingress
// counters and egress class queues are flat [port × class] arrays indexed
// by slot(port, cls); per-ingress egress attribution is one per-switch
// [egress slot × ingress slot] block of byte counts; each egress port's
// transmit state (busy, round-robin cursor, pause bits) sits apart from
// its pause timestamps and phantom queue, and shaper state from both; the
// peer and serialization times come from the Network's wire table; and
// every packet FIFO is a pooled RingQueue — at steady state a packet
// arrival/forward performs no heap allocation. Per-flow occupancy is not
// switch state: ingress_flow_bytes() computes it on demand by scanning the
// packets charged to a counter.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "dcdl/common/ring_queue.hpp"
#include "dcdl/common/rng.hpp"
#include "dcdl/device/config.hpp"
#include "dcdl/device/device.hpp"
#include "dcdl/routing/route_table.hpp"
#include "dcdl/sim/simulator.hpp"
#include "dcdl/traffic/flow.hpp"

namespace dcdl {

class Switch final : public Device {
 public:
  Switch(Network& net, NodeId id, const NetConfig& cfg);

  RouteTable& routes() { return routes_; }
  const RouteTable& routes() const { return routes_; }

  /// Overrides the PFC thresholds of one ingress counter (per-port /
  /// per-tier / per-class threshold policies, paper §4).
  void set_thresholds(PortId port, ClassId cls, std::int64_t xoff_bytes,
                      std::int64_t xon_bytes);

  /// Installs a token-bucket rate limiter on an ingress port (paper §3.3:
  /// Figure 5 applies one to RX2 of switch B).
  void set_ingress_shaper(PortId port, Rate rate, std::int64_t burst_bytes);
  void clear_ingress_shaper(PortId port);

  /// Installs a per-flow token-bucket limiter (paper §4: "commodity
  /// switches support bandwidth shaping ... even [for] particular flows").
  /// Shaped packets wait in a per-flow holding queue (still charged to
  /// their ingress counter) and are released at `rate`. The basis of the
  /// "intelligent rate limiting [that] avoid[s] over-punishing innocent
  /// flows".
  void set_flow_shaper(FlowId flow, Rate rate, std::int64_t burst_bytes);
  void clear_flow_shaper(FlowId flow);

  /// Route changes only affect packets not yet routed (already-queued
  /// packets keep their egress, as in real switches).
  void on_routes_changed() {}

  // Device interface.
  void on_receive(PortId in_port, Packet pkt) override;
  void on_pfc(PortId port, ClassId cls, bool pause) override;

  /// PFC delivery with dataplane path metadata (Network routes tagged
  /// frames here for switch peers). Applies the plain on_pfc transition,
  /// then runs the pipeline's detect stage: store/clear the egress rx-tag,
  /// recognize a returning own-tag (cycle candidate), or re-propagate a
  /// fresher upstream tag to already-asserted ingress counters.
  void on_pfc_tagged(PortId port, ClassId cls, bool pause,
                     const dataplane::PauseTag& tag);

  /// The in-switch detection pipeline, or nullptr when the dataplane is
  /// off (the default — no state is allocated).
  const dataplane::Pipeline* pipeline() const { return dp_.get(); }

  // --- Introspection (analysis & statistics) ---
  std::size_t num_ports() const { return egress_.size(); }
  /// Ingress counter value (the quantity PFC thresholds act on).
  std::int64_t ingress_bytes(PortId port, ClassId cls) const;
  /// Bytes of one flow currently attributed to an ingress counter (the
  /// paper's per-flow "buffer occupancy at RX1" series). A measurement,
  /// not switch state: it scans the packets charged to the counter (egress
  /// FIFOs and shaper holding queues), so it costs O(buffered packets).
  std::int64_t ingress_flow_bytes(PortId port, ClassId cls, FlowId flow) const;
  /// Largest ingress-counter value across every (port, class) of this
  /// switch — the hybrid zoom's escalation signal (compared against a
  /// fraction of Xoff) without per-counter calls at every control step.
  std::int64_t max_ingress_bytes() const;
  /// True if this ingress counter currently holds its upstream in PAUSE.
  bool pause_asserted(PortId port, ClassId cls) const;
  /// True if the downstream device paused this egress queue.
  bool egress_paused(PortId port, ClassId cls) const;
  std::int64_t egress_queue_bytes(PortId port, ClassId cls) const;
  /// Bytes in egress queue (port, cls) attributed to ingress counter
  /// (in_port, in_cls) — used by the deadlock detector's frozen-set
  /// fixpoint.
  std::int64_t egress_bytes_from(PortId port, ClassId cls, PortId in_port,
                                 ClassId in_cls) const;
  /// Transmissions attributed to an ingress counter.
  std::uint64_t departures(PortId port, ClassId cls) const;
  std::int64_t total_buffered() const { return total_buffered_; }
  /// Bytes waiting in the ingress shaper's holding queue (0 if no shaper).
  std::int64_t shaper_held_bytes(PortId port) const;

  // --- Reactive recovery (PFC watchdog support, paper §1) ---
  /// How long this egress (port, class) has been continuously paused by
  /// its downstream (zero if not currently paused).
  Time egress_paused_for(PortId port, ClassId cls) const;
  /// Flushes every packet queued in egress (port, class), releasing the
  /// ingress counters they were charged to (traced as `reason` drops —
  /// kWatchdogReset for the watchdog, kDataplaneReset for the dataplane
  /// kDrop recovery). Returns the number of packets dropped.
  std::uint64_t flush_egress_queue(PortId port, ClassId cls,
                                   DropReason reason =
                                       DropReason::kWatchdogReset);
  /// Ignores the received pause state of (port, class) until `until`
  /// (transmission proceeds as if unpaused; late RESUMEs re-arm normally).
  void ignore_pause_until(PortId port, ClassId cls, Time until);

 private:
  struct QueuedPacket {
    Packet pkt;          ///< prio already rewritten to the departure class
    PortId in_port;      ///< ingress attribution for counter/PFC accounting
    ClassId in_class;
    /// Enqueue timestamp: dequeue minus this is the per-hop queuing delay
    /// reported through Trace::hop_wait. Lives in the RingQueue, not in
    /// event closures, so the 64-byte InplaceFn budget is untouched.
    Time enqueued_at;
  };

  struct IngressCounter {
    std::int64_t bytes = 0;
    bool pause_asserted = false;
    bool refresh_scheduled = false;
    std::uint64_t departure_count = 0;
    std::int64_t xoff = 0;
    std::int64_t xon = 0;
  };

  /// A per-ingress-port token-bucket shaper and its holding FIFO.
  struct IngressShaper {
    std::unique_ptr<TokenBucketPacer> shaper;
    /// Awaiting shaper release; `prio` is still the class charged.
    RingQueue<Packet> held;
    std::int64_t held_bytes = 0;
    bool release_scheduled = false;
  };

  /// Held packets remember their ingress attribution.
  struct HeldPacket {
    Packet pkt;
    PortId in_port;
    ClassId in_class;
  };

  struct FlowShaper {
    std::unique_ptr<TokenBucketPacer> shaper;
    RingQueue<HeldPacket> held;
    std::int64_t held_bytes = 0;
    bool release_scheduled = false;
  };

  struct EgressClassQueue {
    RingQueue<QueuedPacket> q;
    std::int64_t bytes = 0;
  };

  /// What every transmit attempt reads of an egress port.
  struct EgressPort {
    bool busy = false;
    std::uint8_t rr_class = 0;  ///< next class the round robin tries
    std::array<bool, kMaxClasses> paused{};
  };

  /// Egress port state that only pause transitions, paused classes, the
  /// watchdog and ECN marking touch.
  struct EgressPortCold {
    std::array<Time, kMaxClasses> paused_since{};
    std::array<Time, kMaxClasses> ignore_pause_until{};
    /// With pause_quanta enabled: when the current pause lapses.
    std::array<Time, kMaxClasses> pause_expiry{};
    // Phantom queue state for ECN marking.
    double phantom_bytes = 0;
    Time phantom_last = Time::zero();
  };

  /// Effective pause state of egress (port, cls) after quanta expiry and
  /// any watchdog ignore-window.
  bool effectively_paused(PortId port, ClassId cls) const;
  void schedule_pause_refresh(PortId port, ClassId cls);

  /// Routes and enqueues a packet that has cleared ingress admission (and
  /// the shaper, if any); its counter was charged at admission.
  void route_and_enqueue(PortId in_port, ClassId in_class, Packet pkt);
  void try_transmit(PortId egress);
  void complete_transmit(PortId egress);
  void schedule_shaper_release(PortId in_port);
  void release_held(PortId in_port);
  void schedule_flow_release(FlowId flow);
  void release_flow_held(FlowId flow);
  void dec_ingress(PortId in_port, ClassId in_class, const Packet& pkt);
  void update_pause_state(PortId port, ClassId cls);
  bool ecn_mark_on_enqueue(PortId port, const Packet& pkt);
  /// Index of (port, cls) in the flat [port × class] arrays.
  std::size_t slot(PortId port, ClassId cls) const {
    return static_cast<std::size_t>(port) * num_classes_ + cls;
  }
  IngressCounter& counter(PortId port, ClassId cls) {
    return counters_[slot(port, cls)];
  }
  const IngressCounter& counter(PortId port, ClassId cls) const {
    return counters_[slot(port, cls)];
  }
  EgressClassQueue& queue(PortId port, ClassId cls) {
    return queues_[slot(port, cls)];
  }
  const EgressClassQueue& queue(PortId port, ClassId cls) const {
    return queues_[slot(port, cls)];
  }
  /// Bytes of egress queue `queue_slot` charged to ingress counter
  /// `in_slot`.
  std::int64_t& from(std::size_t queue_slot, std::size_t in_slot) {
    return from_[queue_slot * slots_ + in_slot];
  }
  std::int64_t from(std::size_t queue_slot, std::size_t in_slot) const {
    return from_[queue_slot * slots_ + in_slot];
  }
  /// Takes the head of egress (port, cls) off the queue and its
  /// attribution; the packet stays charged to its ingress counter.
  QueuedPacket pop_queued(PortId port, ClassId cls);
  /// Checks a caller-supplied (port, cls) against this switch's shape.
  void expect_slot(PortId port, ClassId cls) const;

  // --- Dataplane pipeline stages (all no-ops unless dp_ is allocated) ---
  /// Tag stage, PFC side: the tag to send with the Xoff of ingress counter
  /// (port, cls) — a propagated upstream tag when the backlog traces to a
  /// frozen tagged egress, else a fresh origin tag.
  dataplane::PauseTag dp_tag_for_xoff(PortId port, ClassId cls);
  /// A tagged PAUSE just froze egress (port, cls): forward the chain to
  /// ingress counters that asserted Xoff *before* the tag arrived.
  void dp_late_propagate(PortId port, ClassId cls,
                         const dataplane::PauseTag& tag);
  /// Detect stage: our own tag returned with a PAUSE on egress (port, cls).
  void dp_on_own_tag(PortId port, ClassId cls,
                     const dataplane::PauseTag& tag);
  /// Confirm-dwell expiry: confirmed cycle -> recovery, else false alarm.
  void dp_resolve_candidate();
  /// Recovery stage: apply the configured policy, disarm, schedule re-arm.
  void dp_recover(const dataplane::PauseTag& tag);

  /// Post-cooldown sweep: restart detection from stored rx-tags (an own
  /// tag that returned while the stage was disarmed would otherwise be
  /// lost — a re-hardened wedge sends no fresh pause edge to re-carry it).
  void dp_rescan_own_tags();
  /// kReroute: pop the frozen egress queue, install detours, re-queue.
  std::uint64_t dp_reroute_queue(PortId port, ClassId cls);
  /// Installs a detour route for `pkt` avoiding egress `avoid` (no-op when
  /// no alternative next hop reaches the destination).
  void dp_install_detour(const Packet& pkt, PortId avoid);

  // Members every packet reads come first, so a hop touches as few of
  // this object's cache lines as possible.
  const NetConfig& cfg_;
  /// In-switch DCFIT pipeline; allocated only when cfg.dataplane.enabled().
  std::unique_ptr<dataplane::Pipeline> dp_;
  /// Hoisted per-packet constants (avoid re-deriving from cfg_ per packet).
  std::size_t num_classes_ = 1;  ///< == cfg_.num_classes
  std::size_t slots_ = 0;        ///< ports * num_classes_
  std::int64_t total_buffered_ = 0;
  std::size_t shaped_ports_ = 0;  ///< ports with a shaper installed
  std::vector<IngressCounter> counters_;  ///< [port × class]
  std::vector<EgressClassQueue> queues_;  ///< [port × class]
  std::vector<std::int64_t> from_;        ///< [queue slot × ingress slot]
  std::vector<EgressPort> egress_;
  std::unordered_map<FlowId, FlowShaper> flow_shapers_;
  RouteTable routes_;
  Rng jitter_rng_;
  std::vector<EgressPortCold> egress_cold_;
  std::vector<IngressShaper> shapers_;  ///< per ingress port
};

}  // namespace dcdl
