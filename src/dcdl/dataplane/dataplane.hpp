// In-switch DCFIT-style deadlock detection and auto-recovery.
//
// The centralized `analysis::DeadlockMonitor` confirms a deadlock by
// polling every switch and computing a global wait-for fixpoint — fine for
// a simulator, impossible in a real data plane. This subsystem is the
// in-network alternative (DCFIT, arXiv:2009.13446): each switch runs a
// small match-action pipeline on its PFC path, and the *initial-trigger*
// switch detects the cyclic buffer dependency locally when metadata it
// stamped comes back around the cycle. Three stages:
//
//  1. TAG — when an ingress counter crosses Xoff, the outgoing PAUSE
//     carries a PauseTag. If the congestion is home-grown the switch
//     *originates* a tag naming itself and the (port, class) counter; if
//     the backlog is itself the product of a frozen egress that arrived
//     with a tag, the switch *propagates* that tag (visited-bitmap |= own
//     bit, hops += 1). Tags travel upstream with the pause chain — the
//     direction of the wait-for graph.
//
//  2. DETECT — a switch receiving a PAUSE whose tag names *itself* as
//     origin has local proof of a cycle: a pause chain it started has come
//     back to freeze one of its own egress queues. It becomes a
//     *candidate* and waits kConfirmDwell; if the origin counter is
//     still asserting Xoff with zero departures in the window, the cycle
//     is *confirmed* (a draining transient — TTL expiry, self-resolving
//     cascade — fails this check and is traced as a false alarm).
//
//  3. RECOVER — a pluggable policy breaks the cycle at the detecting
//     switch: drop the frozen queues' packets (kDrop), install routing
//     detours and re-queue around the cycle (kReroute), or ignore the
//     received PAUSE for kLiftWindow (kPfcLift). The stage then disarms
//     for kCooldown and re-arms, so a second deadlock in the same run is
//     caught again.
//
// The recovery policy is the only setting; the three timings below are
// constants.
//
// Everything here is deliberately free of Switch/Network dependencies: the
// Pipeline is a pure per-switch state machine over (tags, counters,
// instants) that `device/switch.cpp` drives from its PFC funnel. All
// pipeline timers are scheduled through Device::schedule_at (canonical
// self-channel keys), so detection and recovery are byte-identical for
// every shard count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dcdl/common/units.hpp"
#include "dcdl/net/packet.hpp"

namespace dcdl::dataplane {

/// What the recovery stage does once a cycle is confirmed.
enum class RecoveryPolicy : std::uint8_t {
  kOff,      ///< pipeline absent entirely (zero-cost default)
  kDetect,   ///< detect + trace only, never intervene (false-positive runs)
  kDrop,     ///< flush the frozen egress queues (lossy, like the watchdog)
  kReroute,  ///< install RouteTable detours and re-queue around the cycle
  kPfcLift,  ///< ignore received PAUSE for one lift window (risk: overflow)
};

const char* to_string(RecoveryPolicy p);
/// Parses "off", "detect", "drop", "reroute", "pfc_lift" (also "lift").
/// Returns false (and leaves `out` untouched) on anything else.
bool parse_policy(const std::string& s, RecoveryPolicy* out);

/// Candidate-to-confirmed dwell: the origin counter must stay Xoff with
/// zero departures this long. Long enough to outlive TTL-drain transients,
/// short next to the centralized monitor's poll+dwell.
inline constexpr Time kConfirmDwell{200'000'000};  // 200 us
/// After a recovery action the stage disarms this long before re-arming
/// (lets the unwinding cascade drain without re-triggering). Kept well
/// under the centralized monitor's dwell: when the underlying congestion
/// persists the wedge re-forms within a few hundred us, and the pipeline
/// must be back in the fight before the watchdog would call it a deadlock.
inline constexpr Time kCooldown{500'000'000};  // 500 us
/// kPfcLift: how long received PAUSE is ignored on the frozen egress.
inline constexpr Time kLiftWindow{500'000'000};  // 500 us

struct DataplaneConfig {
  RecoveryPolicy policy = RecoveryPolicy::kOff;

  bool enabled() const { return policy != RecoveryPolicy::kOff; }
};

/// Pipeline observation events (Trace::dataplane hook, telemetry records).
enum class DataplaneEvent : std::uint8_t {
  kCandidate,   ///< own tag returned; dwell started (detail = tag hops)
  kConfirmed,   ///< cycle confirmed at this switch (detail = tag hops)
  kRecovered,   ///< recovery action applied (detail = packets acted on)
  kFalseAlarm,  ///< dwell check failed; counter drained (detail = 0)
  kRearmed,     ///< cooldown elapsed, stage armed again (detail = 0)
};

const char* to_string(DataplaneEvent e);

/// The path metadata carried with a PFC PAUSE frame (16 bytes on the
/// wire model — comfortably inside a 64-byte control frame). `visited` is
/// a Bloom-style node bitmap (bit = id mod 32): one-sided evidence only,
/// the detect stage keys off `origin == self`, never off the bitmap.
/// `seq` is the origin's origination epoch: a wedge that re-forms after a
/// recovery regenerates the same (origin, hops, visited) triple, and
/// without the epoch the compare-to-last-sent re-propagation guard at any
/// switch holding stale state from the first wedge would silently kill the
/// new circulation.
struct PauseTag {
  NodeId origin = kInvalidNode;       ///< switch that originated the chain
  PortId origin_port = kInvalidPort;  ///< its Xoff ingress counter
  ClassId origin_cls = 0;
  std::uint8_t hops = 0;  ///< pause-chain hops travelled since origin
  std::uint32_t seq = 0;  ///< origination epoch at the origin switch
  std::uint32_t visited = 0;

  bool valid() const { return origin != kInvalidNode; }
};
static_assert(sizeof(PauseTag) == 16, "PauseTag rides inline in PFC events");

inline bool operator==(const PauseTag& a, const PauseTag& b) {
  return a.origin == b.origin && a.origin_port == b.origin_port &&
         a.origin_cls == b.origin_cls && a.hops == b.hops &&
         a.seq == b.seq && a.visited == b.visited;
}
inline bool operator!=(const PauseTag& a, const PauseTag& b) {
  return !(a == b);
}

constexpr std::uint32_t visit_bit(NodeId id) { return 1u << (id % 32); }

/// Per-switch pipeline state machine. Pure bookkeeping: the owning Switch
/// supplies counter/queue facts and performs the actual recovery action;
/// the Pipeline decides *when* and tracks every instant and count.
class Pipeline {
 public:
  struct Stats {
    std::uint64_t tags_originated = 0;
    std::uint64_t tags_propagated = 0;
    std::uint64_t packets_tagged = 0;  ///< packets stamped at fabric entry
    std::uint64_t packet_loops = 0;  ///< packets seen back at entry switch
    std::uint64_t candidates = 0;
    std::uint64_t confirms = 0;
    std::uint64_t recoveries = 0;
    std::uint64_t false_alarms = 0;
  };

  Pipeline(const DataplaneConfig& cfg, NodeId self, std::size_t ports,
           std::size_t classes)
      : cfg_(cfg),
        self_(self),
        classes_(classes),
        rx_(ports * classes),
        last_sent_(ports * classes) {}

  const DataplaneConfig& config() const { return cfg_; }
  NodeId self() const { return self_; }
  const Stats& stats() const { return stats_; }

  // --- Tag stage ---
  /// A tag naming this switch's (port, cls) ingress counter as the chain
  /// origin.
  PauseTag originate(PortId port, ClassId cls) {
    ++stats_.tags_originated;
    PauseTag t;
    t.origin = self_;
    t.origin_port = port;
    t.origin_cls = cls;
    t.hops = 0;
    t.seq = ++origin_seq_;
    t.visited = visit_bit(self_);
    return t;
  }
  /// `upstream` extended by this switch (the pause chain grows one hop).
  PauseTag propagate(const PauseTag& upstream) {
    ++stats_.tags_propagated;
    PauseTag t = upstream;
    t.visited |= visit_bit(self_);
    if (t.hops != 0xFF) t.hops += 1;
    return t;
  }

  /// Tag received with the PAUSE currently freezing egress (port, cls);
  /// invalid when unpaused or the PAUSE carried no tag.
  const PauseTag& rx(PortId egress, ClassId cls) const {
    return rx_[key(egress, cls)];
  }
  void store_rx(PortId egress, ClassId cls, const PauseTag& tag) {
    rx_[key(egress, cls)] = tag;
  }
  void clear_rx(PortId egress, ClassId cls) {
    rx_[key(egress, cls)] = PauseTag{};
  }

  /// Last tag sent upstream with the Xoff of ingress counter (port, cls).
  /// `remember_sent` returns false when `tag` matches what was already
  /// sent — the loop guard that terminates re-propagation around a cycle.
  const PauseTag& last_sent(PortId in_port, ClassId cls) const {
    return last_sent_[key(in_port, cls)];
  }
  bool remember_sent(PortId in_port, ClassId cls, const PauseTag& tag) {
    PauseTag& slot = last_sent_[key(in_port, cls)];
    if (slot == tag) return false;
    slot = tag;
    return true;
  }
  void clear_sent(PortId in_port, ClassId cls) {
    last_sent_[key(in_port, cls)] = PauseTag{};
  }

  /// Packet-side tag stage bookkeeping (stamping happens in the switch's
  /// forwarding path; see Packet::tag_origin).
  void note_packet_tagged() { ++stats_.packets_tagged; }
  void note_packet_loop() { ++stats_.packet_loops; }

  // --- Detect stage ---
  bool is_own(const PauseTag& t) const { return t.origin == self_; }
  bool armed() const { return armed_; }
  bool candidate_pending() const { return candidate_; }

  /// Starts the confirm dwell for a returned own-tag. Returns false when
  /// the stage is disarmed (cooldown) or already dwelling.
  bool arm_candidate(const PauseTag& t, std::uint64_t origin_departures,
                     Time now) {
    if (!armed_ || candidate_) return false;
    candidate_ = true;
    cand_tag_ = t;
    cand_departures_ = origin_departures;
    cand_at_ = now;
    ++stats_.candidates;
    return true;
  }
  const PauseTag& candidate_tag() const { return cand_tag_; }

  /// Outcome of a confirm dwell (see resolve_candidate).
  enum class Verdict : std::uint8_t {
    kConfirmed,   ///< still asserted, zero departures: deadlock
    kRetry,       ///< still asserted but draining: keep dwelling
    kFalseAlarm,  ///< the origin counter resumed: transient, dwell ends
  };

  /// Dwell expiry. A returned own-tag proves the cyclic dependency existed
  /// when it was stamped, and the proof only expires when the origin
  /// counter resumes — so "still asserted but still draining" re-arms the
  /// dwell rather than dropping the candidate (a congestion cascade can
  /// take milliseconds to harden after the pause cycle first closes, with
  /// no new pause edge to re-circulate the tag).
  Verdict resolve_candidate(bool origin_still_asserted,
                            std::uint64_t origin_departures) {
    if (!origin_still_asserted) {
      candidate_ = false;
      ++stats_.false_alarms;
      return Verdict::kFalseAlarm;
    }
    if (origin_departures == cand_departures_) {
      candidate_ = false;
      ++stats_.confirms;
      return Verdict::kConfirmed;
    }
    cand_departures_ = origin_departures;
    return Verdict::kRetry;
  }

  // --- Recovery stage ---
  void note_recovery() {
    ++stats_.recoveries;
    armed_ = false;
  }
  void rearm() { armed_ = true; }

 private:
  std::size_t key(PortId port, ClassId cls) const {
    return static_cast<std::size_t>(port) * classes_ + cls;
  }

  DataplaneConfig cfg_;
  NodeId self_;
  std::size_t classes_;
  std::vector<PauseTag> rx_;
  std::vector<PauseTag> last_sent_;
  bool armed_ = true;
  std::uint32_t origin_seq_ = 0;
  bool candidate_ = false;
  PauseTag cand_tag_;
  std::uint64_t cand_departures_ = 0;
  Time cand_at_ = Time::zero();
  Stats stats_;
};

}  // namespace dcdl::dataplane
