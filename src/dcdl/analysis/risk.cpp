#include "dcdl/analysis/risk.hpp"

#include <algorithm>
#include <limits>
#include <span>

#include "dcdl/device/host.hpp"

namespace dcdl::analysis {

namespace {

double capacity_Bps(const Network& net, NodeId node, PortId port) {
  return static_cast<double>(net.link_rate(node, port).bps()) / 8.0;
}

// Max-min fair rates by progressive filling over dense channel ids. Every
// per-channel sum accumulates its flows in flow order: the rates (and the
// pinned digests of them) depend on that order bit for bit.
std::vector<Rate> fill_stable_rates(const Network& net, const RouteWalk& walk,
                                    const std::vector<Rate>& demands) {
  const std::size_t n = walk.flows();
  const std::size_t nc = net.channel_count();
  // Each flow's acyclic prefix as channel ids, CSR by flow; the channels
  // any prefix crosses, with their capacities.
  std::vector<std::uint32_t> begin(n + 1, 0);
  std::vector<std::uint32_t> chans;
  std::vector<std::uint32_t> used;
  std::vector<double> capacity(nc, -1.0);  // negative: no flow crosses it
  std::vector<double> rate(n, 0.0);
  std::vector<char> frozen(n, 0);
  const auto demand_of = [&](std::size_t i) -> double {
    if (i < demands.size() && !demands[i].is_zero()) {
      return static_cast<double>(demands[i].bps()) / 8.0;
    }
    return std::numeric_limits<double>::infinity();
  };
  for (std::size_t i = 0; i < n; ++i) {
    const std::span<const Hop> path = walk.path(i);
    for (std::size_t k = 0; k < walk.loop_begin(i); ++k) {
      const Hop& h = path[k];
      chans.push_back(h.channel);
      if (capacity[h.channel] < 0) {
        capacity[h.channel] = capacity_Bps(net, h.node, h.port);
        used.push_back(h.channel);
      }
    }
    begin[i + 1] = static_cast<std::uint32_t>(chans.size());
    // Flows on a forwarding loop are excluded from fair sharing (their
    // fate is the boundary model's business); they get their demand
    // capped at line rate.
    if (walk.loop_begin(i) < path.size()) {
      frozen[i] = 1;
      rate[i] = std::min(demand_of(i),
                         capacity_Bps(net, path[0].node, path[0].port));
    }
  }

  // Progressive filling (classic max-min with demand caps).
  std::vector<double> frozen_load(nc, 0.0);
  std::vector<int> unfrozen(nc, 0);
  std::vector<char> at_bottleneck(nc, 0);
  const auto share_of = [&](std::uint32_t c) {
    return std::max(0.0, capacity[c] - frozen_load[c]) / unfrozen[c];
  };
  while (true) {
    // Frozen load and unfrozen flow count per channel.
    for (const std::uint32_t c : used) {
      frozen_load[c] = 0.0;
      unfrozen[c] = 0;
    }
    for (std::size_t i = 0; i < n; ++i) {
      for (std::uint32_t k = begin[i]; k < begin[i + 1]; ++k) {
        if (frozen[i]) {
          frozen_load[chans[k]] += rate[i];
        } else {
          unfrozen[chans[k]] += 1;
        }
      }
    }
    double bottleneck = std::numeric_limits<double>::infinity();
    for (const std::uint32_t c : used) {
      if (unfrozen[c] != 0) bottleneck = std::min(bottleneck, share_of(c));
    }
    // Demand caps can bind before any channel does.
    double min_demand = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < n; ++i) {
      if (!frozen[i]) min_demand = std::min(min_demand, demand_of(i));
    }
    if (bottleneck == std::numeric_limits<double>::infinity() &&
        min_demand == std::numeric_limits<double>::infinity()) {
      break;  // nothing left to allocate
    }
    if (min_demand <= bottleneck) {
      // Freeze demand-bound flows.
      bool any = false;
      for (std::size_t i = 0; i < n; ++i) {
        if (!frozen[i] && demand_of(i) <= bottleneck) {
          rate[i] = demand_of(i);
          frozen[i] = 1;
          any = true;
        }
      }
      if (any) continue;
    }
    // Freeze the flows on the bottleneck channel(s) at the bottleneck rate.
    for (const std::uint32_t c : used) {
      at_bottleneck[c] = unfrozen[c] != 0 && share_of(c) <= bottleneck + 1e-6;
    }
    bool froze = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (frozen[i]) continue;
      for (std::uint32_t k = begin[i]; k < begin[i + 1]; ++k) {
        if (at_bottleneck[chans[k]]) {
          rate[i] = bottleneck;
          frozen[i] = 1;
          froze = true;
          break;
        }
      }
    }
    if (!froze) break;  // defensive: no progress
    if (std::all_of(frozen.begin(), frozen.end(),
                    [](char f) { return f != 0; })) {
      break;
    }
  }

  std::vector<Rate> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(Rate{static_cast<std::int64_t>(rate[i] * 8.0)});
  }
  return out;
}

// Stable-state utilization per dense channel id: the offered load — the
// rates on each path's acyclic prefix, plus the circulating flux r*TTL/n
// of a forwarding loop on its channels (Eq. 2), capped at line rate — over
// capacity. Zero where no flow crosses.
std::vector<double> utilization(const Network& net, const RouteWalk& walk,
                                const std::vector<Rate>& stable) {
  std::vector<double> util(net.channel_count(), 0.0);  // the load, first
  for (std::size_t i = 0; i < walk.flows(); ++i) {
    const std::span<const Hop> path = walk.path(i);
    const std::size_t loop = walk.loop_begin(i);
    const double r = static_cast<double>(stable[i].bps()) / 8.0;
    for (std::size_t k = 0; k < loop; ++k) util[path[k].channel] += r;
    if (loop == path.size()) continue;
    // The packet enters the loop with one more TTL than its first loop hop
    // carries.
    const int ttl = path[loop].ttl + 1;
    const double flux = r * static_cast<double>(ttl) /
                        static_cast<double>(path.size() - loop);
    for (std::size_t k = loop; k < path.size(); ++k) {
      util[path[k].channel] +=
          std::min(flux, capacity_Bps(net, path[k].node, path[k].port));
    }
  }
  const Topology& topo = net.topo();
  for (NodeId node = 0; node < topo.node_count(); ++node) {
    for (PortId port = 0; port < topo.degree(node); ++port) {
      util[net.channel_id(node, port)] /= capacity_Bps(net, node, port);
    }
  }
  return util;
}

}  // namespace

std::vector<Rate> stable_flow_rates(const Network& net,
                                    const std::vector<FlowSpec>& flows,
                                    const std::vector<Rate>& demands) {
  return fill_stable_rates(net, walk_routes(net, flows), demands);
}

RiskReport assess_deadlock_risk(const Network& net,
                                const std::vector<FlowSpec>& flows,
                                const std::vector<Rate>& demands) {
  RiskReport report;
  report.walk = walk_routes(net, flows);
  const auto bdg = BufferDependencyGraph::build(net, report.walk);
  report.cbd_present = bdg.has_cycle();
  report.stable_rates = fill_stable_rates(net, report.walk, demands);
  report.looping_flows = bdg.looping_flows();
  report.utilization = utilization(net, report.walk, report.stable_rates);
  if (!report.cbd_present) return report;

  for (const auto& cycle : bdg.cycles()) {
    CycleRisk risk;
    risk.cycle = cycle;
    risk.min_utilization = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < cycle.size(); ++i) {
      // Cycle link i feeds cycle[(i+1)]: it is that queue's upstream
      // channel.
      const QueueKey& next = cycle[(i + 1) % cycle.size()];
      const PortPeer& pp = net.topo().peer(next.node, next.port);
      const double util = std::min(
          1.0,
          report.utilization[net.channel_id(pp.peer_node, pp.peer_port)]);
      risk.link_utilization.push_back(util);
      if (util < kSaturated) risk.slack_links += 1;
      if (util < risk.min_utilization) {
        risk.min_utilization = util;
        risk.weakest_hop = i;
      }
    }
    if (risk.min_utilization == std::numeric_limits<double>::infinity()) {
      risk.min_utilization = 0;
    }
    report.max_risk = std::max(report.max_risk, risk.min_utilization);
    report.cycles.push_back(std::move(risk));
  }
  return report;
}

void SentRateMeter::reset(const Network& net,
                          const std::vector<FlowSpec>& flows, Time now) {
  sent_.resize(flows.size());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    sent_[i] = net.host_at(flows[i].src_host).sent_bytes(flows[i].id);
  }
  at_ = now;
  window_ = Time::zero();
}

Rate SentRateMeter::rate(const Network& net, const FlowSpec& flow,
                         std::size_t i) {
  const std::int64_t sent = net.host_at(flow.src_host).sent_bytes(flow.id);
  Rate r = Rate::zero();
  if (window_ > Time::zero()) {
    r = Rate{static_cast<std::int64_t>(
        static_cast<double>(sent - sent_[i]) * 8.0 * 1e12 /
        static_cast<double>(window_.ps()))};
  }
  sent_[i] = sent;
  return r;
}

}  // namespace dcdl::analysis
