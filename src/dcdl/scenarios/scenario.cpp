#include "dcdl/scenarios/scenario.hpp"

#include "dcdl/common/contract.hpp"
#include "dcdl/mitigation/class_policy.hpp"
#include "dcdl/mitigation/dcqcn.hpp"
#include "dcdl/routing/compute.hpp"
#include "dcdl/stats/hooks.hpp"
#include "dcdl/topo/generators.hpp"

namespace dcdl::scenarios {

using namespace dcdl::topo;

NodeId Scenario::node(const std::string& name) const {
  for (NodeId id = 0; id < topo->node_count(); ++id) {
    if (topo->node(id).name == name) return id;
  }
  DCDL_EXPECTS(false && "unknown node name");
  return kInvalidNode;
}

Scenario make_routing_loop(const RoutingLoopParams& p) {
  DCDL_EXPECTS(p.loop_len >= 2);
  DCDL_EXPECTS(p.ttl >= 1);
  Scenario s;
  s.sim = std::make_unique<Simulator>();

  RingTopo ring = make_ring(p.loop_len, /*hosts_per_switch=*/1,
                            LinkParams{p.bandwidth, p.link_delay});
  s.topo = std::make_unique<Topology>(std::move(ring.topo));

  NetConfig cfg;
  cfg.num_classes = p.num_classes;
  cfg.mtu_bytes = p.packet_bytes;
  cfg.pfc.xoff_bytes = p.xoff_bytes;
  cfg.pfc.xon_bytes = p.xoff_bytes - 2 * p.packet_bytes;
  cfg.dataplane = p.dataplane;
  if (p.ttl_class_band > 0) {
    cfg.reclass =
        mitigation::ttl_class_mapper(p.ttl_class_band, p.num_classes);
  }
  s.net = std::make_unique<Network>(*s.sim, *s.topo, cfg);

  // Routing loop: every switch forwards packets for the sink host around
  // the ring, so nothing is ever delivered and TTL is the only drain.
  const NodeId sink = ring.hosts[1 % p.loop_len][0];
  routing::install_loop_route(*s.net, sink, ring.switches);

  FlowSpec flow;
  flow.id = 1;
  flow.src_host = ring.hosts[0][0];
  flow.dst_host = sink;
  flow.packet_bytes = p.packet_bytes;
  flow.ttl = static_cast<std::uint8_t>(p.ttl);
  if (p.ttl_class_band > 0) {
    flow.prio = static_cast<ClassId>(
        std::min(p.ttl / p.ttl_class_band, p.num_classes - 1));
  }
  std::unique_ptr<Pacer> pacer;
  if (!p.inject.is_zero()) {
    pacer = std::make_unique<TokenBucketPacer>(p.inject, p.packet_bytes);
  }
  s.net->host_at(flow.src_host).add_flow(flow, std::move(pacer));
  s.flows.push_back(flow);

  for (int i = 0; i < p.loop_len; ++i) {
    const NodeId from = ring.switches[static_cast<std::size_t>(i)];
    const NodeId to = ring.switches[static_cast<std::size_t>((i + 1) % p.loop_len)];
    const auto in_port = s.topo->port_towards(to, from);
    DCDL_ASSERT(in_port.has_value());
    s.cycle_queues.push_back(stats::QueueKey{to, *in_port, 0});
    s.cycle_labels.push_back("L" + std::to_string(i + 1));
  }
  return s;
}

Scenario make_four_switch(const FourSwitchParams& p) {
  Scenario s;
  s.sim = std::make_unique<Simulator>();
  s.topo = std::make_unique<Topology>();
  Topology& t = *s.topo;

  const NodeId A = t.add_switch("A");
  const NodeId B = t.add_switch("B");
  const NodeId C = t.add_switch("C");
  const NodeId D = t.add_switch("D");
  t.add_link(A, B, p.bandwidth, p.link_delay);  // L1
  t.add_link(B, C, p.bandwidth, p.link_delay);  // L2
  t.add_link(C, D, p.bandwidth, p.link_delay);  // L3
  t.add_link(D, A, p.bandwidth, p.link_delay);  // L4
  const NodeId hA = t.add_host("hA");
  const NodeId hB = t.add_host("hB");
  const NodeId hC = t.add_host("hC");
  const NodeId hD = t.add_host("hD");
  t.add_link(A, hA, p.bandwidth, p.link_delay);
  t.add_link(B, hB, p.bandwidth, p.link_delay);
  t.add_link(C, hC, p.bandwidth, p.link_delay);
  t.add_link(D, hD, p.bandwidth, p.link_delay);
  NodeId hB3 = kInvalidNode;
  NodeId hC3 = kInvalidNode;
  if (p.with_flow3) {
    hB3 = t.add_host("hB3");
    hC3 = t.add_host("hC3");
    t.add_link(B, hB3, p.bandwidth, p.link_delay);
    t.add_link(C, hC3, p.bandwidth, p.link_delay);
  }

  NetConfig cfg;
  cfg.mtu_bytes = p.packet_bytes;
  cfg.switch_buffer_bytes = p.buffer_bytes;
  cfg.pfc.xoff_bytes = p.xoff_bytes;
  cfg.pfc.xon_bytes = p.xoff_bytes - 2 * p.packet_bytes;
  cfg.dataplane = p.dataplane;
  cfg.tx_jitter = p.tx_jitter;
  cfg.jitter_seed = p.seed;
  s.net = std::make_unique<Network>(*s.sim, t, cfg);

  FlowSpec f1;
  f1.id = 1;
  f1.src_host = hA;
  f1.dst_host = hD;
  f1.packet_bytes = p.packet_bytes;
  f1.ttl = p.ttl;
  routing::install_flow_path(*s.net, f1.id, {hA, A, B, C, D, hD});
  s.net->host_at(hA).add_flow(f1);
  s.flows.push_back(f1);

  FlowSpec f2;
  f2.id = 2;
  f2.src_host = hC;
  f2.dst_host = hB;
  f2.packet_bytes = p.packet_bytes;
  f2.ttl = p.ttl;
  routing::install_flow_path(*s.net, f2.id, {hC, C, D, A, B, hB});
  s.net->host_at(hC).add_flow(f2);
  s.flows.push_back(f2);

  if (p.with_flow3) {
    FlowSpec f3;
    f3.id = 3;
    f3.src_host = hB3;
    f3.dst_host = hC3;
    f3.packet_bytes = p.packet_bytes;
    f3.ttl = p.ttl;
    routing::install_flow_path(*s.net, f3.id, {hB3, B, C, hC3});
    s.net->host_at(hB3).add_flow(f3);
    s.flows.push_back(f3);
    if (!p.flow3_limit.is_zero()) {
      const auto rx2 = t.port_towards(B, hB3);
      DCDL_ASSERT(rx2.has_value());
      s.net->switch_at(B).set_ingress_shaper(*rx2, p.flow3_limit,
                                             p.packet_bytes);
    }
  }

  // The paper's L1..L4 pause identities: Li is paused when the ingress
  // queue at its downstream switch asserts Xoff (all ring ingresses are
  // the "RX1" queues of the paper).
  const auto rx = [&t](NodeId sw, NodeId from) {
    const auto port = t.port_towards(sw, from);
    DCDL_ASSERT(port.has_value());
    return stats::QueueKey{sw, *port, 0};
  };
  s.cycle_queues = {rx(B, A), rx(C, B), rx(D, C), rx(A, D)};
  s.cycle_labels = {"L1", "L2", "L3", "L4"};
  return s;
}

Scenario make_ring_deadlock(const RingDeadlockParams& p) {
  DCDL_EXPECTS(p.num_switches >= 3);
  DCDL_EXPECTS(p.span >= 2 && p.span <= p.num_switches - 1);
  Scenario s;
  s.sim = std::make_unique<Simulator>();
  RingTopo ring = make_ring(p.num_switches, /*hosts_per_switch=*/1,
                            LinkParams{p.bandwidth, p.link_delay});
  s.topo = std::make_unique<Topology>(std::move(ring.topo));

  NetConfig cfg;
  cfg.num_classes = p.num_classes;
  cfg.mtu_bytes = p.packet_bytes;
  cfg.pfc.xoff_bytes = p.xoff_bytes;
  cfg.pfc.xon_bytes = p.xoff_bytes - 2 * p.packet_bytes;
  cfg.dataplane = p.dataplane;
  cfg.tx_jitter = p.tx_jitter;
  cfg.jitter_seed = p.seed;
  if (p.hop_classes) {
    cfg.reclass = mitigation::hop_class_mapper(p.num_classes);
  }
  s.net = std::make_unique<Network>(*s.sim, *s.topo, cfg);

  const int n = p.num_switches;
  for (int i = 0; i < n; ++i) {
    FlowSpec f;
    f.id = static_cast<FlowId>(i + 1);
    const int dst_sw = (i + p.span) % n;
    f.src_host = ring.hosts[static_cast<std::size_t>(i)][0];
    f.dst_host = ring.hosts[static_cast<std::size_t>(dst_sw)][0];
    f.packet_bytes = p.packet_bytes;
    f.ttl = p.ttl;
    std::vector<NodeId> path{f.src_host};
    for (int h = 0; h <= p.span; ++h) {
      path.push_back(ring.switches[static_cast<std::size_t>((i + h) % n)]);
    }
    path.push_back(f.dst_host);
    routing::install_flow_path(*s.net, f.id, path);
    s.net->host_at(f.src_host).add_flow(f);
    s.flows.push_back(f);
  }

  for (int i = 0; i < n; ++i) {
    const NodeId from = ring.switches[static_cast<std::size_t>(i)];
    const NodeId to = ring.switches[static_cast<std::size_t>((i + 1) % n)];
    const auto in_port = s.topo->port_towards(to, from);
    DCDL_ASSERT(in_port.has_value());
    s.cycle_queues.push_back(stats::QueueKey{to, *in_port, 0});
    s.cycle_labels.push_back("L" + std::to_string(i + 1));
  }
  return s;
}

Scenario make_transient_loop(const TransientLoopParams& p) {
  DCDL_EXPECTS(p.loop_len >= 2);
  Scenario s;
  s.sim = std::make_unique<Simulator>();
  RingTopo ring = make_ring(p.loop_len, /*hosts_per_switch=*/1,
                            LinkParams{p.bandwidth, p.link_delay});
  s.topo = std::make_unique<Topology>(std::move(ring.topo));

  NetConfig cfg;
  cfg.num_classes = p.num_classes;
  cfg.mtu_bytes = p.packet_bytes;
  cfg.pfc.xoff_bytes = p.xoff_bytes;
  cfg.pfc.xon_bytes = p.xoff_bytes - 2 * p.packet_bytes;
  cfg.dataplane = p.dataplane;
  if (p.ttl_class_band > 0) {
    cfg.reclass =
        mitigation::ttl_class_mapper(p.ttl_class_band, p.num_classes);
  }
  s.net = std::make_unique<Network>(*s.sim, *s.topo, cfg);

  const NodeId dst = ring.hosts[1 % p.loop_len][0];
  // Correct routes: everyone forwards toward the switch owning dst.
  routing::install_shortest_paths(*s.net);

  FlowSpec flow;
  flow.id = 1;
  flow.src_host = ring.hosts[0][0];
  flow.dst_host = dst;
  flow.packet_bytes = p.packet_bytes;
  flow.ttl = static_cast<std::uint8_t>(p.ttl);
  if (p.ttl_class_band > 0) {
    flow.prio = static_cast<ClassId>(
        std::min(p.ttl / p.ttl_class_band, p.num_classes - 1));
  }
  std::unique_ptr<Pacer> pacer;
  if (!p.inject.is_zero()) {
    pacer = std::make_unique<TokenBucketPacer>(p.inject, p.packet_bytes);
  }
  s.net->host_at(flow.src_host).add_flow(flow, std::move(pacer));
  s.flows.push_back(flow);

  // The transient loop: at loop_start the dst routes turn into a forwarding
  // cycle (misconfiguration / routing churn); at loop_start + duration the
  // correct shortest-path routes are restored.
  Network* net = s.net.get();
  const std::vector<NodeId> cycle = ring.switches;
  s.sim->schedule_at(p.loop_start, [net, dst, cycle] {
    routing::install_loop_route(*net, dst, cycle);
    for (const NodeId sw : cycle) net->notify_routes_changed(sw);
  });
  s.sim->schedule_at(p.loop_start + p.loop_duration, [net, dst, cycle] {
    // Repair: recompute shortest paths for dst only.
    const Topology& topo = net->topo();
    const std::vector<int> dist = routing::hop_distances(topo, dst);
    for (const NodeId sw : topo.switches()) {
      const auto& ports = topo.ports(sw);
      for (PortId q = 0; q < ports.size(); ++q) {
        const NodeId peer = ports[q].peer_node;
        if (topo.is_host(peer) && peer != dst) continue;
        if (dist[peer] == dist[sw] - 1) {
          net->switch_at(sw).routes().set_dst_route(dst, q);
          break;
        }
      }
      net->notify_routes_changed(sw);
    }
  });

  for (int i = 0; i < p.loop_len; ++i) {
    const NodeId from = ring.switches[static_cast<std::size_t>(i)];
    const NodeId to =
        ring.switches[static_cast<std::size_t>((i + 1) % p.loop_len)];
    const auto in_port = s.topo->port_towards(to, from);
    DCDL_ASSERT(in_port.has_value());
    s.cycle_queues.push_back(stats::QueueKey{to, *in_port, 0});
    s.cycle_labels.push_back("L" + std::to_string(i + 1));
  }
  return s;
}

Scenario make_valley_violation(const ValleyViolationParams& p) {
  Scenario s;
  s.sim = std::make_unique<Simulator>();
  s.topo = std::make_unique<Topology>();
  Topology& t = *s.topo;

  const NodeId L1 = t.add_switch("L1", 1);
  const NodeId L2 = t.add_switch("L2", 1);
  const NodeId L3 = t.add_switch("L3", 1);
  const NodeId S1 = t.add_switch("S1", 2);
  const NodeId S2 = t.add_switch("S2", 2);
  for (const NodeId leaf : {L1, L2, L3}) {
    for (const NodeId spine : {S1, S2}) {
      t.add_link(leaf, spine, p.bandwidth, p.link_delay);
    }
  }
  const NodeId h1a = t.add_host("h1a");
  const NodeId h2a = t.add_host("h2a");
  const NodeId h1b = t.add_host("h1b");
  const NodeId h2b = t.add_host("h2b");
  t.add_link(L1, h1a, p.bandwidth, p.link_delay);
  t.add_link(L2, h2a, p.bandwidth, p.link_delay);
  t.add_link(L3, h1b, p.bandwidth, p.link_delay);
  t.add_link(L3, h2b, p.bandwidth, p.link_delay);
  NodeId h3a = kInvalidNode;
  NodeId h3b = kInvalidNode;
  if (p.with_extra_flow) {
    h3a = t.add_host("h3a");
    h3b = t.add_host("h3b");
    t.add_link(L1, h3a, p.bandwidth, p.link_delay);
    t.add_link(L2, h3b, p.bandwidth, p.link_delay);
  }

  NetConfig cfg;
  cfg.mtu_bytes = p.packet_bytes;
  cfg.pfc.xoff_bytes = p.xoff_bytes;
  cfg.pfc.xon_bytes = p.xoff_bytes - 2 * p.packet_bytes;
  cfg.dataplane = p.dataplane;
  cfg.tx_jitter = p.tx_jitter;
  cfg.jitter_seed = p.seed;
  s.net = std::make_unique<Network>(*s.sim, t, cfg);

  FlowSpec f1;
  f1.id = 1;
  f1.src_host = h1a;
  f1.dst_host = h1b;
  f1.packet_bytes = p.packet_bytes;
  f1.ttl = p.ttl;
  FlowSpec f2;
  f2.id = 2;
  f2.src_host = h2a;
  f2.dst_host = h2b;
  f2.packet_bytes = p.packet_bytes;
  f2.ttl = p.ttl;
  if (p.strict_up_down) {
    // The fix: proper valley-free leaf-spine-leaf paths.
    routing::install_flow_path(*s.net, f1.id, {h1a, L1, S1, L3, h1b});
    routing::install_flow_path(*s.net, f2.id, {h2a, L2, S2, L3, h2b});
  } else {
    // The misconfiguration: each flow bounces down-up through the other
    // source leaf (Guo et al.'s unexpected flooding produced exactly such
    // non-valley-free lossless paths).
    routing::install_flow_path(*s.net, f1.id, {h1a, L1, S1, L2, S2, L3, h1b});
    routing::install_flow_path(*s.net, f2.id, {h2a, L2, S2, L1, S1, L3, h2b});
  }
  s.net->host_at(h1a).add_flow(f1);
  s.net->host_at(h2a).add_flow(f2);
  s.flows = {f1, f2};
  if (p.with_extra_flow) {
    // An entirely legitimate up-down flow; its only crime is saturating
    // the cycle's slack link S1 -> L2.
    FlowSpec f3;
    f3.id = 3;
    f3.src_host = h3a;
    f3.dst_host = h3b;
    f3.packet_bytes = p.packet_bytes;
    f3.ttl = p.ttl;
    routing::install_flow_path(*s.net, f3.id, {h3a, L1, S1, L2, h3b});
    s.net->host_at(h3a).add_flow(f3);
    s.flows.push_back(f3);
  }

  const auto rx = [&t](NodeId sw, NodeId from) {
    return stats::QueueKey{sw, *t.port_towards(sw, from), 0};
  };
  s.cycle_queues = {rx(S1, L1), rx(L2, S1), rx(S2, L2), rx(L1, S2)};
  s.cycle_labels = {"L1->S1", "S1->L2", "L2->S2", "S2->L1"};
  return s;
}

Scenario make_incast(const IncastParams& p) {
  DCDL_EXPECTS(p.num_leaves >= 2);
  DCDL_EXPECTS(p.num_senders <= (p.num_leaves - 1) * p.hosts_per_leaf);
  Scenario s;
  s.sim = std::make_unique<Simulator>();
  LeafSpineTopo ls = make_leaf_spine(p.num_leaves, p.num_spines,
                                     p.hosts_per_leaf,
                                     LinkParams{p.bandwidth, p.link_delay});
  s.topo = std::make_unique<Topology>(std::move(ls.topo));

  NetConfig cfg;
  cfg.mtu_bytes = p.packet_bytes;
  cfg.pfc.xoff_bytes = p.xoff_bytes;
  cfg.pfc.xon_bytes = p.xoff_bytes - 2 * p.packet_bytes;
  cfg.ecn.enabled = p.ecn;
  cfg.ecn.phantom_speed_fraction = p.phantom_speed_fraction;
  s.net = std::make_unique<Network>(*s.sim, *s.topo, cfg);
  routing::install_shortest_paths(*s.net);

  const NodeId receiver = ls.hosts[0][0];
  int made = 0;
  for (int leaf = 1; leaf < p.num_leaves && made < p.num_senders; ++leaf) {
    for (int h = 0; h < p.hosts_per_leaf && made < p.num_senders; ++h) {
      FlowSpec f;
      f.id = static_cast<FlowId>(made + 1);
      f.src_host = ls.hosts[static_cast<std::size_t>(leaf)]
                           [static_cast<std::size_t>(h)];
      f.dst_host = receiver;
      f.packet_bytes = p.packet_bytes;
      f.ecn_capable = p.ecn;
      f.stop = p.flow_stop;
      std::unique_ptr<Pacer> pacer;
      if (p.dcqcn) {
        mitigation::DcqcnParams dp;
        dp.line_rate = p.bandwidth;
        pacer = std::make_unique<mitigation::DcqcnPacer>(dp);
      }
      s.net->host_at(f.src_host).add_flow(f, std::move(pacer));
      s.flows.push_back(f);
      ++made;
    }
  }
  return s;
}

void capture_dataplane(Network& net, analysis::DeadlockMonitor& monitor,
                       DataplaneSummary& out) {
  if (!net.config().dataplane.enabled()) return;
  stats::append_hook(
      net.trace().dataplane,
      [&out, &monitor](Time t, NodeId n, dataplane::DataplaneEvent e,
                       ClassId, std::uint64_t) {
        switch (e) {
          case dataplane::DataplaneEvent::kCandidate:
            ++out.candidates;
            break;
          case dataplane::DataplaneEvent::kConfirmed:
            ++out.confirms;
            if (!out.detected_at) {
              out.detected_at = t;
              out.trigger = n;
            }
            break;
          case dataplane::DataplaneEvent::kRecovered:
            ++out.recoveries;
            if (!out.recovered_at) out.recovered_at = t;
            monitor.rearm();
            break;
          case dataplane::DataplaneEvent::kFalseAlarm:
            ++out.false_alarms;
            break;
          case dataplane::DataplaneEvent::kRearmed:
            break;
        }
      });
}

RunSummary run_and_check(Scenario& s, Time run_for, Time drain_grace) {
  analysis::DeadlockMonitor monitor(*s.net, Time{50'000'000},
                                    Time{1'000'000'000});
  RunSummary out;
  capture_dataplane(*s.net, monitor, out.dp);
  const Time start = s.sim->now();
  monitor.start(start, start + run_for + drain_grace);
  s.sim->run_until(start + run_for);

  for (const FlowSpec& f : s.flows) {
    out.delivered.emplace_back(
        f.id, s.net->host_at(f.dst_host).delivered_bytes(f.id));
  }
  const auto drain = analysis::stop_and_drain(*s.net, drain_grace);
  out.trapped_bytes = drain.trapped_bytes;
  out.deadlocked = drain.deadlocked;
  out.detected_at = monitor.detected_at();
  out.cycle = monitor.cycle();
  return out;
}

}  // namespace dcdl::scenarios
