// Causal pause-propagation analysis — the post-mortem layer on top of the
// flight recorder and pause log.
//
// The paper's core claim is that a PFC deadlock is the *end state of a
// causal chain*: a pause cascade that closes into a cyclic buffer
// dependency. The telemetry layer records the flat event stream; this
// module reconstructs the chain. Nodes of the causality DAG are pause
// intervals (one per Xoff..Xon at a (switch, port, class) ingress queue,
// annotated with the queue occupancy that crossed the Xoff threshold);
// an edge C -> E means the downstream pause C was holding one of E's
// switch's egress ports when E asserted — C is a cause of E. Roots of
// each weakly-connected component are the *initial triggers* (DCFIT, Wu &
// Ng, arXiv:2009.13446: identifying the first pause of a cascade is the
// actionable output of deadlock diagnosis), classified as routing-loop,
// host-pause, or congestion-cascade origins.
//
// Everything here is offline/post-hoc: analysis runs on a finished event
// stream and allocates freely. Nothing is ever called from the simulation
// hot path (the zero-alloc steady-state invariant is untouched).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "dcdl/stats/pause_log.hpp"
#include "dcdl/telemetry/record.hpp"
#include "dcdl/topo/topology.hpp"

namespace dcdl::forensics {

using stats::QueueKey;

/// Normalized analysis input, buildable from a live network's observers or
/// from an offline `dcdl.telemetry.v1` JSONL (see trace_io.hpp). Holding a
/// plain struct — not a Network — keeps the analyzer usable long after the
/// simulation is gone.
struct CausalInput {
  /// One endpoint's view of a link: who is on the other side, and how long
  /// a pause frame takes to get there (the propagation delay the simulator
  /// models for PFC control frames).
  struct PortInfo {
    NodeId peer_node = kInvalidNode;
    PortId peer_port = kInvalidPort;
    bool peer_is_switch = false;
    std::int64_t delay_ps = 0;
  };
  /// (node, port) -> peer. Deterministic iteration (std::map) keeps every
  /// derived artifact byte-stable.
  std::map<std::pair<NodeId, PortId>, PortInfo> ports;
  /// node -> (name, is_switch) for human-readable reports.
  std::map<NodeId, std::pair<std::string, bool>> nodes;

  struct Pause {
    std::int64_t t_ps = 0;
    NodeId node = 0;
    PortId port = 0;
    ClassId cls = 0;
    bool paused = false;
  };
  std::vector<Pause> pauses;  ///< time-ordered Xoff/Xon transitions

  struct Occupancy {
    std::int64_t t_ps = 0;
    NodeId node = 0;
    PortId port = 0;
    ClassId cls = 0;
    std::uint32_t bytes = 0;
  };
  /// Optional queue_bytes series (records-based inputs have it; a bare
  /// pause log does not). Used to annotate each span with the occupancy
  /// that crossed the threshold.
  std::vector<Occupancy> occupancy;

  struct Drop {
    std::int64_t t_ps = 0;
    NodeId node = 0;
    std::uint8_t reason = 0;  ///< DropReason
  };
  std::vector<Drop> drops;  ///< trigger-classification evidence

  /// End of the observed window; analyze() extends it to the last pause if
  /// later. Open pauses are reported as [start, window_end).
  std::int64_t window_end_ps = 0;

  /// Verdict of the online deadlock monitor, when one ran.
  std::vector<QueueKey> deadlock_cycle;
  std::optional<std::int64_t> deadlock_at_ps;
};

/// Seeds `ports`/`nodes` from a topology (no observations yet).
CausalInput make_input(const Topology& topo);

/// Topology + a flight-recorder window (pauses, occupancy, drops all come
/// from the records).
CausalInput input_from_records(
    const Topology& topo, const std::vector<telemetry::TraceRecord>& records);

/// Topology + a full pause history. Occupancy stays empty; callers that
/// also observed drops can append them to `drops` for classification.
CausalInput input_from_pause_log(const Topology& topo,
                                 const stats::PauseEventLog& log,
                                 Time window_end);

/// How a cascade started — the classification of its root pause.
enum class TriggerKind : std::uint8_t {
  /// TTL-expired drops were observed at switches of this cascade: the
  /// congestion that seeded it was traffic circulating a routing loop
  /// (paper §3.1 / Fig. 2).
  kRoutingLoop,
  /// The root queue's upstream peer is a host: backpressure formed at the
  /// fabric edge, where injected traffic first lands.
  kHostPause,
  /// Switch-to-switch congestion with no loop evidence: an in-network
  /// oversubscription cascade (paper §3.2 / Figs. 3-4).
  kCongestionCascade,
};
const char* to_string(TriggerKind kind);

/// One node of the causality DAG: a pause interval at one ingress queue.
struct PauseSpan {
  QueueKey queue{};
  std::int64_t start_ps = 0;
  std::int64_t end_ps = -1;  ///< -1: still asserted at the window end
  /// Last observed occupancy of the queue at/before the assertion — the
  /// threshold crossing that fired the Xoff. 0 when no occupancy series
  /// was provided.
  std::uint32_t bytes_at_assert = 0;
  /// Longest cause chain beneath this span (0 = origin / initial trigger).
  int depth = 0;
  int component = 0;
  /// The span is one of the confirmed wait-for cycle's queues, still
  /// asserted at the confirmation instant.
  bool in_deadlock_cycle = false;
  std::vector<std::uint32_t> causes;   ///< span indices (edges in)
  std::vector<std::uint32_t> effects;  ///< span indices (edges out)
};

/// One weakly-connected component of the DAG — a cascade.
struct CascadeComponent {
  std::uint32_t root = 0;              ///< earliest depth-0 span (the trigger)
  std::vector<std::uint32_t> roots;    ///< all depth-0 spans, time order
  TriggerKind trigger = TriggerKind::kCongestionCascade;
  int max_depth = 0;
  /// Most spans at any single depth — how wide the cascade fanned.
  int max_width = 0;
  std::uint32_t span_count = 0;
  bool contains_deadlock_cycle = false;
};

struct CascadeReport {
  std::vector<PauseSpan> spans;  ///< in assertion-time order
  /// Ordered by root assertion time (deterministic).
  std::vector<CascadeComponent> components;
  /// fanout_hist[k] = spans that directly induced k downstream pauses.
  std::vector<std::uint64_t> fanout_hist;
  std::int64_t window_end_ps = 0;

  // Deadlock attribution (when the input carried a monitor verdict).
  std::vector<QueueKey> deadlock_cycle;
  std::optional<std::int64_t> deadlock_at_ps;
  /// Root span of the cascade that closed the cycle.
  std::optional<std::uint32_t> deadlock_trigger;
  /// deadlock_at - trigger assertion time; -1 when no deadlock.
  std::int64_t time_to_deadlock_ps = -1;

  /// Copied from the input for self-contained rendering.
  std::map<NodeId, std::pair<std::string, bool>> nodes;

  /// Index of the primary trigger: the deadlock cascade's root when a
  /// deadlock was confirmed, else the earliest component's root. Nullopt
  /// when no pauses were observed.
  std::optional<std::uint32_t> initial_trigger() const;
};

/// Builds the causality DAG and attributes every cascade to its trigger.
///
/// Edge rule: span E at (sw, port, cls) has cause C if C is a pause still
/// asserted at E's assertion instant, sitting at the ingress queue of a
/// *switch* peer of any of sw's ports for the same class — i.e. C was
/// holding one of sw's egresses when E fired — and C's pause frame had
/// physically arrived: C.start + link_delay <= E.start. Depth(E) = 1 + max
/// depth of causes. The arrival-time filter means a pause that asserted
/// less than one propagation delay before E cannot be blamed for it, so on
/// closely-spaced assertions the depth is the physical lower bound (a bare
/// active-parent rule would report deeper cascades).
CascadeReport analyze(const CausalInput& in);

}  // namespace dcdl::forensics
