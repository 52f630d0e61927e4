// Hybrid fluid/packet engine: risk-guided zoom with verdict-equivalence
// guarantees.
//
// The packet simulator is exact but pays one event per packet per hop; the
// fluid model (analysis/fluid.hpp) integrates rate-balance ODEs at a fixed
// step but — by the paper's own §3.2 lesson — cannot be trusted anywhere a
// deadlock might form (it predicts "no deadlock" for Figure 4). The hybrid
// layer splits the difference: the topology is partitioned into regions
// (per-pod on fat-trees, reusing topo::assign_shards), and each *flow* runs
// at exactly one level at a time:
//
//   - fluid: the flow is held at its NIC (Host::hold_flow) and integrated
//     by a per-component FluidModel; deliveries are credited back to the
//     sink host in whole-packet multiples (Host::credit_delivery).
//   - packet: the normal hot path, untouched.
//
// Verdict equivalence is by construction, not by hope: a flow is only
// eligible for fluid integration while every ingredient of deadlock
// formation is provably absent from its path —
//
//   1. it is not looping (risk analysis surfaces routing loops, including
//      ones that form mid-run in risk mode),
//   2. it is open-loop CBR-like (a rate-based pacer; greedy, ECN/TIMELY
//      controlled, or windowed flows stay packet),
//   3. it runs for the whole simulation (start == 0, stop == inf),
//   4. every channel it crosses sits below analysis::kSaturated under
//      stable-state analysis (RiskReport::utilization, over the stable
//      rates of the same assessment),
//   5. its path is link-disjoint from every packet-level flow (computed to
//      a fixpoint, so de-fluidizing one flow cascades), and
//   6. every region it crosses is at fluid level.
//
// Under this rule every deadlock-capable scenario in the campaign suite
// keeps all flows at packet level, so hybrid runs report byte-for-byte the
// same verdict, detection time, and forensic initial trigger as pure packet
// runs — while fabrics whose congestion is localized (the common case the
// paper's §1 motivates) fluidize their background traffic and skip almost
// all of its packet events.
//
// Zoom is dynamic and hysteretic: a region escalates to packet level when
// any of its ingress counters reaches kZoomXoffFraction (0.5) of Xoff or
// when risk analysis pins a dependency cycle through it; it de-escalates
// after its counters have stayed below Xon for kCooldown (1 ms). Regions
// come from one assign_shards request per switch: per-pod on fat-trees,
// per-switch on rings and meshes. All controller work runs as
// control-simulator events every kFluidDt (100 us; these fire at window
// barriers where devices are frozen), so escalation decisions — and with
// them every observable byte — are identical across --jobs and --shards.
// The constants live in hybrid.cpp.
//
// Cost of one controller step: each fluid component's allocation-free
// FluidModel::step, the per-region occupancy scan, and the fluid-set
// check, which reads per-flow blocked flags (rules 1 and 4 plus a route
// that misses its destination) derived only at construction and at each
// reassessment. Between reassessments a step allocates nothing unless the
// fluid set changes; every kRiskEvery-th (10th) step in risk mode adds one
// assessment (one walk of every route, one SCC pass, one stable-rate
// filling, with the rates an analysis::SentRateMeter measures) whose walk
// and utilization give the geometry, flags and pins.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dcdl/analysis/fluid.hpp"
#include "dcdl/analysis/risk.hpp"
#include "dcdl/device/network.hpp"
#include "dcdl/topo/partition.hpp"
#include "dcdl/traffic/flow.hpp"

namespace dcdl::hybrid {

enum class Mode : std::uint8_t {
  kOff = 0,     ///< pure packet simulation (the controller is inert)
  kStatic = 1,  ///< one risk assessment at t=0; zoom by occupancy only
  kRisk = 2,    ///< periodic online risk reassessment guides the zoom
};

const char* to_string(Mode m);
/// Parses "off" / "static" / "risk"; nullopt on anything else.
std::optional<Mode> parse_mode(const std::string& s);

struct HybridConfig {
  Mode mode = Mode::kOff;
};

struct HybridStats {
  std::uint64_t steps = 0;            ///< fluid steps taken
  std::uint64_t escalations = 0;      ///< region fluid -> packet
  std::uint64_t deescalations = 0;    ///< region packet -> fluid
  std::uint64_t zoom_events = 0;      ///< escalations + deescalations
  std::uint64_t risk_reassessments = 0;
  std::uint64_t fluid_rebuilds = 0;   ///< fluid component set rebuilt
  std::int64_t credited_bytes = 0;    ///< delivered via the fluid adapter
  std::uint64_t credited_packets = 0;
  /// Share of flow-time spent at fluid level: sum over steps of
  /// (fluid flows / all flows) * dt, over elapsed time. 0 = pure packet.
  double fluid_fraction = 0;
};

/// Orchestrates the zoom. Construct after the scenario (network + flows +
/// pacers) is fully built and before run_until; call finalize() when the
/// run ends (harvests the tail accounting and stops the step events). The
/// network must outlive the controller.
class HybridController {
 public:
  HybridController(Network& net, std::vector<FlowSpec> flows,
                   HybridConfig cfg);
  ~HybridController();
  HybridController(const HybridController&) = delete;
  HybridController& operator=(const HybridController&) = delete;

  /// Stops the recurring controller events and closes the accounting
  /// (fluid_fraction). Idempotent; implied by the destructor.
  void finalize();

  const HybridStats& stats() const { return stats_; }
  const analysis::RiskReport& risk() const { return report_; }

  int num_regions() const { return regions_.num_shards; }
  bool region_packet(int r) const;
  /// Region of a node under the zoom partition.
  int region_of(NodeId node) const;

  /// True while `flow` is integrated at fluid level.
  bool flow_fluid(FlowId flow) const;
  /// Flows currently at fluid level.
  std::size_t fluid_flows() const;

 private:
  struct Region {
    bool packet = false;  ///< escalated (or pinned) to packet level
    bool pinned = false;  ///< a risk cycle runs through it
    /// When the region's counters last dropped below Xon (max() = they are
    /// not below); de-escalation requires now - below_xon_since >= cooldown.
    Time below_xon_since = Time::max();
  };
  /// One fluid component: a connected set of fluidized flows sharing
  /// topology links, integrated as a single FluidModel.
  struct FluidInstance {
    analysis::FluidModel model;
    std::vector<std::size_t> flow_of;  ///< model flow index -> flows_ index
    std::vector<NodeId> queue_switch;  ///< model queue index -> switch node
  };

  void step();
  void schedule_next();
  /// Assesses the live routes with `demands` and re-derives the geometry,
  /// blocked flags and pins from that one report.
  void reassess(const std::vector<Rate>& demands);
  /// Re-derives path_links_/path_regions_ from the report's walk.
  void refresh_geometry();
  /// Rebuilds the fluid components for the current fluid_ set.
  void rebuild_models();
  /// Demand vector from the pacers (zero = greedy).
  std::vector<Rate> pacer_rates() const;
  /// Re-derives pins from the current risk report; escalates newly pinned
  /// regions.
  void apply_pins();
  /// Occupancy scan over all regions (packet counters + fluid queues);
  /// applies the escalation / cooldown state machine.
  void scan_regions(Time now);
  /// Re-derives the per-flow blocked_ flags from the risk report (looping
  /// flows, stable-rate channel utilization, paths).
  void update_blocked();
  /// Recomputes the fluidizable set (static eligibility, blocked flags,
  /// region levels, link-disjointness fixpoint), holds/releases flows, and
  /// rebuilds the fluid components for the new set.
  void refluidize(Time now);
  void set_region_packet(Time now, int r, bool packet);
  std::vector<Rate> measured_rates(Time now);

  Network& net_;
  std::vector<FlowSpec> flows_;
  Mode mode_;
  topo::ShardPlan regions_;
  std::vector<Region> region_;
  /// The last assessment; its walk gives every flow's path.
  analysis::RiskReport report_;
  std::vector<NodeId> switches_;  ///< the topology's switches, for the scan

  /// Per flow (parallel to flows_): the links and regions its path crosses.
  std::vector<std::vector<std::uint32_t>> path_links_;
  std::vector<std::vector<int>> path_regions_;
  std::vector<char> eligible_;  ///< static per-flow checks (pacer, window)
  /// Looping, misrouted, or crossing a channel at >= saturation; fixed
  /// between assessments.
  std::vector<char> blocked_;
  std::vector<char> fluid_;     ///< currently integrated at fluid level
  std::vector<double> carry_;   ///< fractional delivered bytes per flow
  /// Per-step scratch: refluidize's candidate set and packet-held links,
  /// scan_regions' per-region peak occupancy.
  std::vector<char> want_;
  std::vector<char> packet_link_;
  std::vector<std::int64_t> region_occ_;

  std::vector<FluidInstance> models_;

  HybridStats stats_;
  double fluid_flowtime_ps_ = 0;  ///< sum of fluid-flow count * dt
  Time last_step_ = Time::zero();
  analysis::SentRateMeter sent_rates_;  ///< packet flows' measured rates
  EventId pending_{};
  bool armed_ = false;
  bool stopped_ = false;
};

}  // namespace dcdl::hybrid
