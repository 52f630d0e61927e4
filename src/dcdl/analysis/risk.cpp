#include "dcdl/analysis/risk.hpp"

#include <algorithm>
#include <limits>
#include <set>

#include "dcdl/common/contract.hpp"
#include "dcdl/device/switch.hpp"

namespace dcdl::analysis {

namespace {

// Directed channel out of (node, port).
using Channel = std::pair<NodeId, PortId>;

struct FlowPath {
  std::vector<Channel> channels;     // acyclic prefix (up to the loop)
  bool looping = false;
  std::vector<Channel> loop;         // the cyclic portion, once
  int ttl_at_loop = 0;               // TTL when first crossing the loop
};

/// Per-walk scratch over dense channel ids: the walk number that last
/// crossed each channel and its position in that walk, so one allocation
/// serves every flow of a call.
struct WalkScratch {
  explicit WalkScratch(const Network& net)
      : stamp(net.channel_count(), 0), index(net.channel_count(), 0) {}
  std::vector<std::uint32_t> stamp;
  std::vector<std::uint32_t> index;
  std::vector<int> ttl_at;  ///< TTL when each channel is first crossed
  std::uint32_t walk = 0;
};

FlowPath walk_path(const Network& net, const FlowSpec& flow,
                   WalkScratch& seen) {
  const Topology& topo = net.topo();
  FlowPath out;
  NodeId cur = flow.src_host;
  PortId out_port = 0;  // hosts transmit on their single port
  int ttl = flow.ttl;
  const std::uint32_t walk = ++seen.walk;
  seen.ttl_at.clear();
  for (int step = 0; step < 4096; ++step) {
    const PortPeer& pp = topo.peer(cur, out_port);
    const std::size_t id = net.channel_id(cur, out_port);
    if (seen.stamp[id] == walk) {
      const std::uint32_t at = seen.index[id];
      out.looping = true;
      out.loop.assign(out.channels.begin() + at, out.channels.end());
      out.ttl_at_loop = seen.ttl_at[at];
      out.channels.resize(at);
      return out;
    }
    seen.stamp[id] = walk;
    seen.index[id] = static_cast<std::uint32_t>(out.channels.size());
    out.channels.emplace_back(cur, out_port);
    seen.ttl_at.push_back(ttl);
    const NodeId next = pp.peer_node;
    if (!topo.is_switch(next)) return out;  // delivered
    if (topo.is_switch(cur)) {
      if (ttl == 0) return out;  // TTL would expire before looping forever
      --ttl;
    }
    const auto eg = net.switch_at(next).routes().lookup(flow.id, flow.dst_host);
    if (!eg) return out;  // blackhole
    cur = next;
    out_port = *eg;
  }
  return out;
}

double channel_capacity_Bps(const Network& net, const Channel& c) {
  return static_cast<double>(net.link_rate(c.first, c.second).bps()) / 8.0;
}

std::uint32_t dense_id(const Network& net, const Channel& c) {
  return static_cast<std::uint32_t>(net.channel_id(c.first, c.second));
}

std::vector<FlowPath> walk_paths(const Network& net,
                                 const std::vector<FlowSpec>& flows) {
  WalkScratch seen(net);
  std::vector<FlowPath> paths;
  paths.reserve(flows.size());
  for (const FlowSpec& f : flows) paths.push_back(walk_path(net, f, seen));
  return paths;
}

// Max-min fair rates by progressive filling over dense channel ids. Every
// per-channel sum accumulates its flows in flow order: the rates (and the
// pinned digests of them) depend on that order bit for bit.
std::vector<Rate> fill_stable_rates(const Network& net,
                                    const std::vector<FlowPath>& paths,
                                    const std::vector<Rate>& demands) {
  const std::size_t n = paths.size();
  const std::size_t nc = net.channel_count();
  // Each flow's acyclic prefix as channel ids, CSR by flow; the channels
  // any prefix crosses, with their capacities.
  std::vector<std::uint32_t> begin(n + 1, 0);
  std::vector<std::uint32_t> chans;
  std::vector<std::uint32_t> used;
  std::vector<double> capacity(nc, -1.0);  // negative: no flow crosses it
  for (std::size_t i = 0; i < n; ++i) {
    for (const Channel& c : paths[i].channels) {
      const std::uint32_t id = dense_id(net, c);
      chans.push_back(id);
      if (capacity[id] < 0) {
        capacity[id] = channel_capacity_Bps(net, c);
        used.push_back(id);
      }
    }
    begin[i + 1] = static_cast<std::uint32_t>(chans.size());
  }

  std::vector<double> rate(n, 0.0);
  std::vector<char> frozen(n, 0);
  const auto demand_of = [&](std::size_t i) -> double {
    if (i < demands.size() && !demands[i].is_zero()) {
      return static_cast<double>(demands[i].bps()) / 8.0;
    }
    return std::numeric_limits<double>::infinity();
  };

  // Looping flows are excluded from fair sharing (their fate is the
  // boundary model's business); they get their demand capped at line rate.
  for (std::size_t i = 0; i < n; ++i) {
    if (paths[i].looping) {
      frozen[i] = 1;
      rate[i] = std::min(demand_of(i),
                         channel_capacity_Bps(net, paths[i].channels.front()));
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

// Offered load (bytes/s) per dense channel id: fair-share rates on acyclic
// paths, plus the circulating flux r*TTL/n of looping flows on their loop
// channels (Eq. 2), capped at line rate. Zero where no flow crosses.
std::vector<double> offered_load(const Network& net,
                                 const std::vector<FlowPath>& paths,
                                 const std::vector<Rate>& stable) {
  std::vector<double> load(net.channel_count(), 0.0);
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const FlowPath& path = paths[i];
    const double r = static_cast<double>(stable[i].bps()) / 8.0;
    for (const Channel& c : path.channels) load[dense_id(net, c)] += r;
    if (path.looping && !path.loop.empty()) {
      const int ttl = path.ttl_at_loop;
      const double flux =
          r * static_cast<double>(ttl) / static_cast<double>(path.loop.size());
      for (const Channel& c : path.loop) {
        load[dense_id(net, c)] += std::min(flux, channel_capacity_Bps(net, c));
      }
    }
  }
  return load;
}

}  // namespace

std::vector<Rate> stable_flow_rates(const Network& net,
                                    const std::vector<FlowSpec>& flows,
                                    const std::vector<Rate>& demands) {
  return fill_stable_rates(net, walk_paths(net, flows), demands);
}

std::vector<std::vector<std::pair<NodeId, PortId>>> flow_channels(
    const Network& net, const std::vector<FlowSpec>& flows) {
  std::vector<std::vector<std::pair<NodeId, PortId>>> out;
  out.reserve(flows.size());
  for (FlowPath& path : walk_paths(net, flows)) {
    std::vector<std::pair<NodeId, PortId>> channels = std::move(path.channels);
    channels.insert(channels.end(), path.loop.begin(), path.loop.end());
    out.push_back(std::move(channels));
  }
  return out;
}

RiskReport assess_deadlock_risk(const Network& net,
                                const std::vector<FlowSpec>& flows,
                                const std::vector<Rate>& demands) {
  RiskReport report;
  const auto bdg = BufferDependencyGraph::build(net, flows);
  report.cbd_present = bdg.has_cycle();
  const std::vector<FlowPath> paths = walk_paths(net, flows);
  report.stable_rates = fill_stable_rates(net, paths, demands);
  report.looping_flows = bdg.looping_flows();
  if (!report.cbd_present) return report;

  const std::vector<double> load =
      offered_load(net, paths, report.stable_rates);

  constexpr double kSaturated = 0.95;
  const std::set<FlowId> looping(bdg.looping_flows().begin(),
                                 bdg.looping_flows().end());
  for (const auto& cycle : bdg.cycles()) {
    CycleRisk risk;
    risk.cycle = cycle;
    risk.min_utilization = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < cycle.size(); ++i) {
      // Cycle link i feeds cycle[(i+1)]: it is that queue's upstream
      // channel.
      const QueueKey& next = cycle[(i + 1) % cycle.size()];
      const PortPeer& pp = net.topo().peer(next.node, next.port);
      const Channel chan{pp.peer_node, pp.peer_port};
      const double util = std::min(
          1.0, load[dense_id(net, chan)] / channel_capacity_Bps(net, chan));
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
    risk.from_routing_loop = !looping.empty();
    report.max_risk = std::max(report.max_risk, risk.min_utilization);
    report.cycles.push_back(std::move(risk));
  }
  return report;
}

std::vector<double> channel_utilization(const Network& net,
                                        const std::vector<FlowSpec>& flows,
                                        const std::vector<Rate>& stable_rates) {
  DCDL_EXPECTS(stable_rates.size() == flows.size());
  std::vector<double> util =
      offered_load(net, walk_paths(net, flows), stable_rates);
  const Topology& topo = net.topo();
  for (NodeId node = 0; node < topo.node_count(); ++node) {
    for (PortId port = 0; port < topo.degree(node); ++port) {
      util[net.channel_id(node, port)] /=
          channel_capacity_Bps(net, Channel{node, port});
    }
  }
  return util;
}

OnlineRiskAssessor::OnlineRiskAssessor(const Network& net,
                                       std::vector<FlowSpec> flows)
    : net_(net), flows_(std::move(flows)) {}

const RiskReport& OnlineRiskAssessor::reassess(
    const std::vector<Rate>& measured) {
  report_ = assess_deadlock_risk(net_, flows_, measured);
  ++assessments_;
  return report_;
}

}  // namespace dcdl::analysis
