#include "dcdl/mitigation/smart_limiter.hpp"

#include <algorithm>
#include <map>

#include "dcdl/common/contract.hpp"
#include "dcdl/device/host.hpp"
#include "dcdl/device/switch.hpp"

namespace dcdl::mitigation {

namespace {
using Channel = std::pair<NodeId, PortId>;
using analysis::kSaturated;
}  // namespace

RateLimitPlan plan_rate_limits(const Network& net,
                               const std::vector<FlowSpec>& flows,
                               const std::vector<Rate>& demands,
                               double target_utilization,
                               int required_slack_links) {
  DCDL_EXPECTS(target_utilization > 0 && target_utilization < kSaturated);
  RateLimitPlan plan;
  std::vector<Rate> caps(flows.size(), Rate::zero());
  for (std::size_t i = 0; i < demands.size() && i < caps.size(); ++i) {
    caps[i] = demands[i];
  }
  std::map<FlowId, Rate> planned;  // flow -> tightest cap planned so far

  for (int iter = 0; iter < 8; ++iter) {
    const analysis::RiskReport report =
        analysis::assess_deadlock_risk(net, flows, caps);
    const analysis::CycleRisk* worst = nullptr;
    for (const auto& c : report.cycles) {
      if (c.slack_links < required_slack_links &&
          (!worst || c.slack_links < worst->slack_links)) {
        worst = &c;
      }
    }
    if (!worst) break;

    // Choose the saturated cycle link crossed by the fewest flows — the
    // minimal blast radius.
    const analysis::RouteWalk& walk = report.walk;
    std::size_t best_hop = worst->cycle.size();
    std::vector<std::size_t> best_crossers;
    Channel best_chan{kInvalidNode, kInvalidPort};
    for (std::size_t hop = 0; hop < worst->cycle.size(); ++hop) {
      if (worst->link_utilization[hop] < kSaturated) continue;
      const auto& next = worst->cycle[(hop + 1) % worst->cycle.size()];
      const PortPeer& pp = net.topo().peer(next.node, next.port);
      const Channel chan{pp.peer_node, pp.peer_port};
      const std::size_t id = net.channel_id(chan.first, chan.second);
      std::vector<std::size_t> crossers;
      for (std::size_t i = 0; i < flows.size(); ++i) {
        const auto path = walk.path(i);
        if (std::any_of(path.begin(), path.end(), [&](const auto& h) {
              return h.channel == id;
            })) {
          crossers.push_back(i);
        }
      }
      if (crossers.empty()) continue;
      if (best_hop == worst->cycle.size() ||
          crossers.size() < best_crossers.size()) {
        best_hop = hop;
        best_crossers = std::move(crossers);
        best_chan = chan;
      }
    }
    if (best_hop == worst->cycle.size()) break;  // nothing limitable

    const double capacity_bps = static_cast<double>(
        net.link_rate(best_chan.first, best_chan.second).bps());
    const Rate fair_split{static_cast<std::int64_t>(
        target_utilization * capacity_bps /
        static_cast<double>(best_crossers.size()))};
    for (const std::size_t i : best_crossers) {
      // First pass: cap at the fair split of the link. If the link is
      // still saturated on re-assessment (TTL amplification in loops
      // multiplies a flow's load), tighten geometrically.
      Rate new_cap = fair_split;
      if (!caps[i].is_zero() && caps[i] <= fair_split) {
        new_cap = Rate{caps[i].bps() / 2};
      }
      if (caps[i].is_zero() || new_cap < caps[i]) {
        caps[i] = new_cap;
        NodeId sw = kInvalidNode;
        for (const analysis::Hop& h : walk.path(i)) {
          if (net.topo().is_switch(h.node)) {
            sw = h.node;
            break;
          }
        }
        if (sw == kInvalidNode) continue;
        planned[flows[i].id] = new_cap;
        bool updated = false;
        for (auto& a : plan.actions) {
          if (a.flow == flows[i].id) {
            a.rate = std::min(a.rate, new_cap);
            updated = true;
          }
        }
        if (!updated) {
          plan.actions.push_back(
              RateLimitAction{sw, flows[i].src_host, flows[i].id, new_cap});
        }
      }
    }
  }

  for (const FlowSpec& f : flows) {
    if (!planned.count(f.id)) plan.untouched.push_back(f.id);
  }
  return plan;
}

void apply_rate_limits(Network& net, const RateLimitPlan& plan,
                       std::uint32_t burst_bytes, bool at_source) {
  for (const RateLimitAction& a : plan.actions) {
    if (at_source) {
      net.host_at(a.src_host).limit_flow(a.flow, a.rate, burst_bytes);
    } else {
      net.switch_at(a.sw).set_flow_shaper(a.flow, a.rate, burst_bytes);
    }
  }
}

}  // namespace dcdl::mitigation
