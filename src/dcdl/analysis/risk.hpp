// Deadlock risk assessment — a tighter-than-CBD condition in the spirit
// the paper asks for (§3 summary: "we know that a tighter condition
// should include those factors [traffic matrix, TTL, flow rates]").
//
// Insight from the case studies: a buffer-dependency cycle can only lock
// if *every* link along the cycle can be driven to saturation — each
// downstream ingress counter must be pinnable above Xon. In Figure 3 the
// link B->C carries a single 20 Gbps flow (utilization 0.5): L1 can never
// stay paused, so the cycle cannot close. Adding flow 3 (Figure 4) lifts
// that link to utilization 1.0 and the deadlock becomes reachable.
//
// The analyzer therefore:
//   1. builds the buffer dependency graph (necessary condition),
//   2. computes max-min fair stable flow rates over the installed routes
//      (the "flow-level stable state analysis" of §3.2),
//   3. classifies every link of each dependency cycle as *saturated*
//      (stable utilization ≈ 1: its downstream counter ratchets across
//      pause episodes and can reach Xoff on its own) or *slack*,
//   4. handles routing-loop cycles via the boundary-state model: the
//      circulating flux r·TTL/n puts every loop link at utilization
//      r / (n·B/TTL).
//
// Reachability rule (validated against the packet simulator across this
// repo's scenario battery; see bench_risk_score): a cycle can lock iff at
// most ONE of its links is slack. A saturated link's downstream queue
// oscillates at the threshold and seeds pauses; pause episodes compound
// around the cycle and can push one slack queue over Xoff (Figure 4's
// D->A link, utilization 0.5), but two interleaved slack queues recover
// faster than pauses can compound (Figure 3: B->C *and* D->A slack — the
// paper's "no deadlock despite cyclic dependency"). Sufficiency remains
// the paper's open problem; this is a falsifiable heuristic, reported
// honestly against simulation outcomes.
//
// Cost: each assessment walks every flow's route once (route_walk.hpp);
// the dependency graph, the rate filling and the offered load all read
// that walk over dense channel ids (Network::channel_id) — flat
// per-channel arrays, no ordered map rebuilt per filling round.
#pragma once

#include <cstdint>
#include <vector>

#include "dcdl/analysis/bdg.hpp"
#include "dcdl/analysis/route_walk.hpp"
#include "dcdl/device/network.hpp"
#include "dcdl/traffic/flow.hpp"

namespace dcdl::analysis {

/// Stable utilization at which a link counts as saturated. A cycle link
/// below it is slack; the rate-limit planner targets utilizations under
/// it; the hybrid zoom keeps a flow at packet level while any channel it
/// crosses reaches it.
inline constexpr double kSaturated = 0.95;

struct CycleRisk {
  std::vector<QueueKey> cycle;
  /// Utilization of each cycle link (link i feeds cycle[(i+1) % n]).
  std::vector<double> link_utilization;
  /// min over the cycle's links of (offered stable load / capacity).
  double min_utilization = 0;
  /// Links with utilization < kSaturated.
  int slack_links = 0;
  /// Index (into cycle) of the link with the least utilization — the
  /// natural target for rate limiting ("intelligent rate limiting", §4).
  std::size_t weakest_hop = 0;

  /// The reachability heuristic: lockable iff at most one slack link.
  bool reachable() const { return slack_links <= 1; }
};

struct RiskReport {
  bool cbd_present = false;
  std::vector<CycleRisk> cycles;
  /// Highest min-utilization over cycles (0 when no cycle exists) — a
  /// continuous "distance to the boundary" indicator.
  double max_risk = 0;
  /// Max-min stable rate per flow (parallel to the input flow list).
  std::vector<Rate> stable_rates;
  /// Flows whose packets re-enter a queue they occupied (routing loops),
  /// from the walk below.
  std::vector<FlowId> looping_flows;
  /// The walk the assessment read, so online consumers (the hybrid zoom,
  /// the rate-limit planner) need not walk the routes again.
  RouteWalk walk;
  /// Stable-state utilization per Network::channel_id: offered load (the
  /// stable rates on acyclic paths, Eq. 2's flux r*TTL/n capped at line
  /// rate on forwarding-loop channels) over capacity; zero where no flow
  /// crosses. The hybrid zoom fluidizes a flow only while every channel it
  /// crosses stays clear of saturation.
  std::vector<double> utilization;

  /// True if any dependency cycle passes the slack-link rule.
  bool deadlock_reachable() const {
    for (const auto& c : cycles) {
      if (c.reachable()) return true;
    }
    return false;
  }
};

/// Assesses the installed routing + flow set. `demands[i]` caps flow i
/// (zero / missing = greedy). Flows whose routes run a forwarding loop
/// contribute a boundary-model risk instead of a fair-share rate.
RiskReport assess_deadlock_risk(const Network& net,
                                const std::vector<FlowSpec>& flows,
                                const std::vector<Rate>& demands = {});

/// Max-min fair stable rates over the installed routes (progressive
/// filling; the §3.2 "flow-level stable state analysis based on PFC
/// fairness", exposed for reuse). Flows on a forwarding loop get their
/// demand (they are not capacity-fair-shared; the loop analysis handles
/// them).
std::vector<Rate> stable_flow_rates(const Network& net,
                                    const std::vector<FlowSpec>& flows,
                                    const std::vector<Rate>& demands = {});

/// Per-flow sending rates measured from the source hosts' cumulative
/// sent-byte counters (Host::sent_bytes): the demands a live reassessment
/// feeds assess_deadlock_risk. Each observer owns one meter, so each keeps
/// its own baseline.
class SentRateMeter {
 public:
  /// Baselines every flow at its current counter and the window at `now`.
  void reset(const Network& net, const std::vector<FlowSpec>& flows,
             Time now);
  /// Closes the window at `now`: rate() then reads (previous close, now].
  void close_window(Time now) {
    window_ = now - at_;
    at_ = now;
  }
  /// Flow `i`'s rate over the closed window; moves its baseline to its
  /// current counter. Zero over an empty window. A flow that sent nothing
  /// reads zero, which assess_deadlock_risk treats as greedy: the
  /// conservative reading for a flow that may be paused, not idle.
  Rate rate(const Network& net, const FlowSpec& flow, std::size_t i);

 private:
  std::vector<std::int64_t> sent_;  ///< per flow, at its baseline
  Time at_ = Time::zero();
  Time window_ = Time::zero();
};

}  // namespace dcdl::analysis
