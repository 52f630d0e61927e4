#include "dcdl/device/network.hpp"

#include <algorithm>

#include "dcdl/common/contract.hpp"
#include "dcdl/device/host.hpp"
#include "dcdl/device/switch.hpp"

namespace dcdl {

thread_local Trace* Network::tls_trace_ = nullptr;

const char* to_string(DropReason r) {
  switch (r) {
    case DropReason::kTtlExpired: return "ttl_expired";
    case DropReason::kNoRoute: return "no_route";
    case DropReason::kBufferOverflow: return "buffer_overflow";
    case DropReason::kWatchdogReset: return "watchdog_reset";
    case DropReason::kDataplaneReset: return "dataplane_reset";
  }
  return "?";
}

namespace {

// Canonical channel layout (see network.hpp file comment). Channel 0 is the
// unkeyed scheduling-order channel and must never be produced here.
std::uint64_t wire_channel(std::uint32_t link, std::uint32_t dir) {
  return 1 + 2ull * link + dir;
}
std::uint64_t oob_channel(const Topology& topo, NodeId from) {
  return 1 + 2ull * topo.link_count() + from;
}
std::uint64_t self_channel(const Topology& topo, NodeId id) {
  return 1 + 2ull * topo.link_count() + topo.node_count() + id;
}

/// The conservative horizon: nothing a shard does before time T can affect
/// another shard before T + lookahead. Wire traffic (data and PFC frames
/// alike) crosses the cut no faster than the smallest cut-link propagation
/// delay; out-of-band CNP/RTT feedback — which skips the wire entirely — is
/// bounded by its configured delay, so it clamps the horizon whenever the
/// scenario can generate it. One shard has no cut and needs no horizon.
Time lookahead_of(const topo::ShardPlan& plan, const NetConfig& cfg) {
  if (plan.num_shards == 1) return Time::max();
  Time lookahead = plan.min_cut_delay;
  if (cfg.ecn.enabled || cfg.rtt_feedback) {
    lookahead = std::min(lookahead, cfg.cnp_feedback_delay);
  }
  return lookahead;
}

}  // namespace

Network::Network(Simulator& sim, const Topology& topo, NetConfig cfg)
    : sim_(sim),
      topo_(topo),
      cfg_(std::move(cfg)),
      plan_(topo::assign_shards(topo, ScopedShardRequest::active())),
      engine_(sim, plan_.num_shards, lookahead_of(plan_, cfg_)),
      wire_seq_(2 * static_cast<std::size_t>(topo.link_count()), 0),
      oob_seq_(topo.node_count(), 0),
      host_pkt_seq_(topo.node_count(), 0) {
  DCDL_EXPECTS(cfg_.pfc.xon_bytes <= cfg_.pfc.xoff_bytes);
  if (plan_.num_shards > 1) init_shard_traces();
  devices_.reserve(topo.node_count());
  for (NodeId id = 0; id < topo.node_count(); ++id) {
    if (topo.is_switch(id)) {
      devices_.push_back(std::make_unique<Switch>(*this, id, cfg_));
    } else {
      devices_.push_back(std::make_unique<Host>(*this, id, cfg_));
    }
    devices_.back()->bind_sim(&engine_.shard_sim(plan_.node_shard[id]),
                              self_channel(topo_, id));
  }
  build_wires();
}

void Network::build_wires() {
  const NodeId n = topo_.node_count();
  wire_base_.resize(n);
  std::size_t total = 0;
  for (NodeId id = 0; id < n; ++id) {
    wire_base_[id] = static_cast<std::uint32_t>(total);
    total += topo_.degree(id);
  }
  wires_.resize(total);
  for (NodeId id = 0; id < n; ++id) {
    for (PortId port = 0; port < topo_.degree(id); ++port) {
      const PortPeer& pp = topo_.peer(id, port);
      const LinkSpec& link = topo_.link(pp.link);
      const std::uint32_t dir = id == link.a ? 0u : 1u;
      Wire& w = wires_[wire_base_[id] + port];
      w.peer = devices_[pp.peer_node].get();
      w.seq = &wire_seq_[2 * static_cast<std::size_t>(pp.link) + dir];
      w.chan = wire_channel(pp.link, dir);
      w.delay = link.delay;
      w.rate = link.rate;
      w.ser_mtu = serialization_time(cfg_.mtu_bytes, link.rate);
      w.ser_pfc = serialization_time(cfg_.pfc.control_frame_bytes, link.rate);
      w.peer_shard = plan_.node_shard[pp.peer_node];
      w.peer_port = pp.peer_port;
      w.peer_is_switch = topo_.is_switch(pp.peer_node);
    }
    devices_[id]->wires_ = wires_.data() + wire_base_[id];
  }
}

Network::~Network() = default;

void Network::init_shard_traces() {
  shard_traces_.resize(static_cast<std::size_t>(plan_.num_shards));
  engine_.set_on_worker_start(
      [this](std::uint32_t s) { tls_trace_ = &shard_traces_[s]; });
  engine_.set_on_run_start([this] { arm_shard_traces(); });
  engine_.set_replay(
      [this](const ShardedEngine::TraceRec& rec) { replay_record(rec); });
}

Trace& Network::trace() {
  return tls_trace_ != nullptr ? *tls_trace_ : trace_;
}

ShardedEngine::TraceRec Network::make_rec(std::uint32_t shard,
                                          ShardedEngine::RecKind kind,
                                          Time at) {
  Simulator& sm = engine_.shard_sim(shard);
  ShardedEngine::TraceRec rec;
  rec.at = at;
  rec.chan = sm.current_chan();
  rec.seq = sm.current_seq();
  rec.intra = sm.next_intra();
  rec.kind = kind;
  return rec;
}

void Network::arm_shard_traces() {
  for (std::uint32_t s = 0; s < shard_traces_.size(); ++s) {
    Trace& st = shard_traces_[s];
    if (trace_.pfc_state) {
      st.pfc_state = [this, s](Time t, NodeId n, PortId p, ClassId c,
                               bool paused) {
        ShardedEngine::TraceRec rec =
            make_rec(s, ShardedEngine::RecKind::kPfcState, t);
        rec.node = n;
        rec.port = p;
        rec.cls = c;
        rec.flag = paused ? 1 : 0;
        engine_.push_record(s, rec);
      };
    } else {
      st.pfc_state = nullptr;
    }
    if (trace_.queue_bytes) {
      st.queue_bytes = [this, s](Time t, NodeId n, PortId p, ClassId c,
                                 std::int64_t bytes) {
        ShardedEngine::TraceRec rec =
            make_rec(s, ShardedEngine::RecKind::kQueueBytes, t);
        rec.node = n;
        rec.port = p;
        rec.cls = c;
        rec.value = bytes;
        engine_.push_record(s, rec);
      };
    } else {
      st.queue_bytes = nullptr;
    }
    if (trace_.delivered) {
      st.delivered = [this, s](Time t, const Packet& pkt) {
        ShardedEngine::TraceRec rec =
            make_rec(s, ShardedEngine::RecKind::kDelivered, t);
        rec.pkt = pkt;
        engine_.push_record(s, rec);
      };
    } else {
      st.delivered = nullptr;
    }
    if (trace_.dropped) {
      st.dropped = [this, s](Time t, const Packet& pkt, NodeId n,
                             DropReason r) {
        ShardedEngine::TraceRec rec =
            make_rec(s, ShardedEngine::RecKind::kDropped, t);
        rec.pkt = pkt;
        rec.node = n;
        rec.flag = static_cast<std::uint8_t>(r);
        engine_.push_record(s, rec);
      };
    } else {
      st.dropped = nullptr;
    }
    if (trace_.tx_start) {
      st.tx_start = [this, s](Time t, const Packet& pkt, NodeId n, PortId p) {
        ShardedEngine::TraceRec rec =
            make_rec(s, ShardedEngine::RecKind::kTxStart, t);
        rec.pkt = pkt;
        rec.node = n;
        rec.port = p;
        engine_.push_record(s, rec);
      };
    } else {
      st.tx_start = nullptr;
    }
    if (trace_.cnp) {
      st.cnp = [this, s](Time t, FlowId f) {
        ShardedEngine::TraceRec rec =
            make_rec(s, ShardedEngine::RecKind::kCnp, t);
        rec.flow = f;
        engine_.push_record(s, rec);
      };
    } else {
      st.cnp = nullptr;
    }
    if (trace_.hop_wait) {
      st.hop_wait = [this, s](Time t, NodeId n, PortId p, ClassId c,
                              Time waited) {
        ShardedEngine::TraceRec rec =
            make_rec(s, ShardedEngine::RecKind::kHopWait, t);
        rec.node = n;
        rec.port = p;
        rec.cls = c;
        rec.value = waited.ps();
        engine_.push_record(s, rec);
      };
    } else {
      st.hop_wait = nullptr;
    }
    if (trace_.dataplane) {
      st.dataplane = [this, s](Time t, NodeId n, dataplane::DataplaneEvent e,
                               ClassId c, std::uint64_t detail) {
        ShardedEngine::TraceRec rec =
            make_rec(s, ShardedEngine::RecKind::kDataplane, t);
        rec.node = n;
        rec.cls = c;
        rec.flag = static_cast<std::uint8_t>(e);
        rec.value = static_cast<std::int64_t>(detail);
        engine_.push_record(s, rec);
      };
    } else {
      st.dataplane = nullptr;
    }
  }
}

void Network::replay_record(const ShardedEngine::TraceRec& rec) {
  switch (rec.kind) {
    case ShardedEngine::RecKind::kPfcState:
      trace_.pfc_state(rec.at, rec.node, rec.port, rec.cls, rec.flag != 0);
      break;
    case ShardedEngine::RecKind::kQueueBytes:
      trace_.queue_bytes(rec.at, rec.node, rec.port, rec.cls, rec.value);
      break;
    case ShardedEngine::RecKind::kDelivered:
      trace_.delivered(rec.at, rec.pkt);
      break;
    case ShardedEngine::RecKind::kDropped:
      trace_.dropped(rec.at, rec.pkt, rec.node,
                     static_cast<DropReason>(rec.flag));
      break;
    case ShardedEngine::RecKind::kTxStart:
      trace_.tx_start(rec.at, rec.pkt, rec.node, rec.port);
      break;
    case ShardedEngine::RecKind::kCnp:
      trace_.cnp(rec.at, rec.flow);
      break;
    case ShardedEngine::RecKind::kHopWait:
      trace_.hop_wait(rec.at, rec.node, rec.port, rec.cls, Time{rec.value});
      break;
    case ShardedEngine::RecKind::kDataplane:
      trace_.dataplane(rec.at, rec.node,
                       static_cast<dataplane::DataplaneEvent>(rec.flag),
                       rec.cls, static_cast<std::uint64_t>(rec.value));
      break;
  }
}

Switch& Network::switch_at(NodeId id) {
  DCDL_EXPECTS(topo_.is_switch(id));
  return static_cast<Switch&>(*devices_.at(id));
}

const Switch& Network::switch_at(NodeId id) const {
  DCDL_EXPECTS(topo_.is_switch(id));
  return static_cast<const Switch&>(*devices_.at(id));
}

Host& Network::host_at(NodeId id) {
  DCDL_EXPECTS(topo_.is_host(id));
  return static_cast<Host&>(*devices_.at(id));
}

const Host& Network::host_at(NodeId id) const {
  DCDL_EXPECTS(topo_.is_host(id));
  return static_cast<const Host&>(*devices_.at(id));
}

void Network::send_pfc(NodeId from, PortId port, ClassId cls, bool pause) {
  // PFC frames share the wire channel (and its sequence space) with data:
  // both are emissions of the same directed link, keyed in the order the
  // sending device produced them.
  const Wire& w = wire(from, port);
  engine_.post(w.peer_shard, devices_[from]->now() + w.ser_pfc + w.delay,
               w.chan, ++*w.seq,
               [peer = w.peer, peer_port = w.peer_port, cls, pause] {
                 peer->on_pfc(peer_port, cls, pause);
               });
}

void Network::send_pfc(NodeId from, PortId port, ClassId cls, bool pause,
                       const dataplane::PauseTag& tag) {
  const Wire& w = wire(from, port);
  if (!w.peer_is_switch) {
    // Hosts have no pipeline; the tag is meaningful only switch-to-switch.
    send_pfc(from, port, cls, pause);
    return;
  }
  engine_.post(w.peer_shard, devices_[from]->now() + w.ser_pfc + w.delay,
               w.chan, ++*w.seq,
               [peer = static_cast<Switch*>(w.peer), peer_port = w.peer_port,
                cls, pause, tag] {
                 peer->on_pfc_tagged(peer_port, cls, pause, tag);
               });
}

void Network::send_cnp(NodeId from, FlowId flow, NodeId src_host) {
  DCDL_EXPECTS(topo_.is_host(src_host));
  const Time at = devices_[from]->now() + cfg_.cnp_feedback_delay;
  engine_.post(plan_.node_shard[src_host], at, oob_channel(topo_, from),
               ++oob_seq_[from], [this, flow, src_host] {
                 Trace& tr = trace();
                 if (tr.cnp) tr.cnp(device(src_host).now(), flow);
                 host_at(src_host).on_cnp(flow);
               });
}

void Network::send_rtt_sample(NodeId from, FlowId flow, NodeId src_host,
                              Time rtt) {
  DCDL_EXPECTS(topo_.is_host(src_host));
  const Time at = devices_[from]->now() + cfg_.cnp_feedback_delay;
  engine_.post(plan_.node_shard[src_host], at, oob_channel(topo_, from),
               ++oob_seq_[from], [this, flow, src_host, rtt] {
                 host_at(src_host).on_rtt(flow, rtt);
               });
}

void Network::notify_routes_changed(NodeId sw) {
  switch_at(sw).on_routes_changed();
}

std::int64_t Network::total_queued_bytes() const {
  std::int64_t total = 0;
  for (NodeId id = 0; id < topo_.node_count(); ++id) {
    if (topo_.is_switch(id)) total += switch_at(id).total_buffered();
  }
  return total;
}

std::uint64_t Network::drops(DropReason reason) const {
  std::uint64_t total = 0;
  for (const std::unique_ptr<Device>& d : devices_) {
    total += d->drop_count(reason);
  }
  return total;
}

}  // namespace dcdl
