#include "dcdl/device/switch.hpp"

#include <algorithm>
#include <limits>

#include "dcdl/common/contract.hpp"
#include "dcdl/device/network.hpp"
#include "dcdl/probe/profiler.hpp"
#include "dcdl/routing/compute.hpp"

namespace dcdl {

Switch::Switch(Network& net, NodeId id, const NetConfig& cfg)
    : Device(net, id), cfg_(cfg) {
  DCDL_EXPECTS(cfg.num_classes >= 1 && cfg.num_classes <= kMaxClasses);
  const std::size_t ports = net.topo().degree(id);
  num_classes_ = static_cast<std::size_t>(cfg.num_classes);
  slots_ = ports * num_classes_;
  IngressCounter fresh;
  fresh.xoff = cfg.pfc.xoff_bytes;
  fresh.xon = cfg.pfc.xon_bytes;
  counters_.assign(slots_, fresh);
  queues_.resize(slots_);
  // Attribution spans every (queue, ingress) pair up front, so the
  // enqueue/dequeue paths are bare indexed adds.
  from_.assign(slots_ * slots_, 0);
  egress_.resize(ports);
  egress_cold_.resize(ports);
  shapers_.resize(ports);
  init_tx_ports(ports);
  routes_.set_ecmp_salt(0x5DEECE66DULL * (id + 1));
  jitter_rng_.reseed(cfg.jitter_seed * 0x9E3779B97F4A7C15ULL + id);
  if (cfg.dataplane.enabled()) {
    dp_ = std::make_unique<dataplane::Pipeline>(cfg.dataplane, id, ports,
                                                num_classes_);
  }
}

void Switch::expect_slot(PortId port, ClassId cls) const {
  DCDL_EXPECTS(port < egress_.size());
  DCDL_EXPECTS(cls < num_classes_);
}

void Switch::set_thresholds(PortId port, ClassId cls, std::int64_t xoff_bytes,
                            std::int64_t xon_bytes) {
  DCDL_EXPECTS(xon_bytes <= xoff_bytes);
  expect_slot(port, cls);
  auto& c = counter(port, cls);
  c.xoff = xoff_bytes;
  c.xon = xon_bytes;
}

void Switch::set_ingress_shaper(PortId port, Rate rate,
                                std::int64_t burst_bytes) {
  auto& in = shapers_.at(port);
  if (!in.shaper) ++shaped_ports_;
  in.shaper = std::make_unique<TokenBucketPacer>(rate, burst_bytes);
}

void Switch::clear_ingress_shaper(PortId port) {
  auto& in = shapers_.at(port);
  if (in.shaper) --shaped_ports_;
  in.shaper.reset();
  while (!in.held.empty()) {
    Packet pkt = std::move(in.held.front());
    in.held.pop_front();
    in.held_bytes -= pkt.size_bytes;
    route_and_enqueue(port, pkt.prio, std::move(pkt));
  }
}

void Switch::update_pause_state(PortId port, ClassId cls) {
  // Every ingress-counter change funnels through here (admission, departure,
  // watchdog flush), so this is the one occupancy observation point.
  auto& c = counter(port, cls);
  if (net_.trace().queue_bytes) {
    net_.trace().queue_bytes(now(), id_, port, cls, c.bytes);
  }
  if (!cfg_.pfc.enabled) return;
  if (!c.pause_asserted && c.bytes >= c.xoff) {
    c.pause_asserted = true;
    if (dp_ != nullptr) {
      // Tag stage: the outgoing Xoff carries the pause-chain metadata.
      const dataplane::PauseTag tag = dp_tag_for_xoff(port, cls);
      dp_->remember_sent(port, cls, tag);
      net_.send_pfc(id_, port, cls, /*pause=*/true, tag);
    } else {
      net_.send_pfc(id_, port, cls, /*pause=*/true);
    }
    schedule_pause_refresh(port, cls);
    if (net_.trace().pfc_state) {
      net_.trace().pfc_state(now(), id_, port, cls, true);
    }
  } else if (c.pause_asserted && c.bytes < c.xon) {
    c.pause_asserted = false;
    if (dp_ != nullptr) {
      // The resume travels the tagged path so the upstream switch clears
      // its stored rx-tag for the thawing egress.
      dp_->clear_sent(port, cls);
      net_.send_pfc(id_, port, cls, /*pause=*/false, dataplane::PauseTag{});
    } else {
      net_.send_pfc(id_, port, cls, /*pause=*/false);
    }
    if (net_.trace().pfc_state) {
      net_.trace().pfc_state(now(), id_, port, cls, false);
    }
  }
}

void Switch::on_receive(PortId in_port, Packet pkt) {
  const Time now = this->now();
  if (total_buffered_ + pkt.size_bytes > cfg_.switch_buffer_bytes) {
    // Shared buffer exhausted. With sane PFC headroom this cannot happen;
    // the lossless-invariant tests assert the drop counter stays zero.
    count_drop(DropReason::kBufferOverflow);
    if (net_.trace().dropped) {
      net_.trace().dropped(now, pkt, id_, DropReason::kBufferOverflow);
    }
    return;
  }

  const ClassId in_class = pkt.prio;  // accounting class = class as received
  DCDL_ASSERT(in_class < num_classes_);

  // Ingress admission: the packet now occupies buffer.
  counter(in_port, in_class).bytes += pkt.size_bytes;
  total_buffered_ += pkt.size_bytes;
  update_pause_state(in_port, in_class);

  if (!flow_shapers_.empty()) {
    if (const auto it = flow_shapers_.find(pkt.flow);
        it != flow_shapers_.end()) {
      it->second.held_bytes += pkt.size_bytes;
      it->second.held.push_back(HeldPacket{std::move(pkt), in_port, in_class});
      schedule_flow_release(it->first);
      return;
    }
  }
  if (shaped_ports_ != 0) {
    if (auto& in = shapers_[in_port]; in.shaper) {
      in.held_bytes += pkt.size_bytes;
      in.held.push_back(std::move(pkt));
      schedule_shaper_release(in_port);
      return;
    }
  }
  route_and_enqueue(in_port, in_class, std::move(pkt));
}

void Switch::set_flow_shaper(FlowId flow, Rate rate,
                             std::int64_t burst_bytes) {
  flow_shapers_[flow].shaper =
      std::make_unique<TokenBucketPacer>(rate, burst_bytes);
}

void Switch::clear_flow_shaper(FlowId flow) {
  const auto it = flow_shapers_.find(flow);
  if (it == flow_shapers_.end()) return;
  while (!it->second.held.empty()) {
    HeldPacket h = std::move(it->second.held.front());
    it->second.held.pop_front();
    route_and_enqueue(h.in_port, h.in_class, std::move(h.pkt));
  }
  flow_shapers_.erase(it);
}

void Switch::schedule_flow_release(FlowId flow) {
  auto& fs = flow_shapers_.at(flow);
  if (fs.release_scheduled || fs.held.empty()) return;
  const Time now = this->now();
  const Time ready = fs.shaper->ready_at(now, fs.held.front().pkt.size_bytes);
  fs.release_scheduled = true;
  schedule_at(std::max(now, ready), [this, flow] {
    // The shaper may have been cleared while this release was in flight.
    const auto it = flow_shapers_.find(flow);
    if (it == flow_shapers_.end()) return;
    it->second.release_scheduled = false;
    release_flow_held(flow);
  });
}

void Switch::release_flow_held(FlowId flow) {
  auto& fs = flow_shapers_.at(flow);
  const Time now = this->now();
  while (!fs.held.empty() &&
         fs.shaper->ready_at(now, fs.held.front().pkt.size_bytes) <= now) {
    HeldPacket h = std::move(fs.held.front());
    fs.held.pop_front();
    fs.held_bytes -= h.pkt.size_bytes;
    fs.shaper->on_sent(now, h.pkt.size_bytes);
    route_and_enqueue(h.in_port, h.in_class, std::move(h.pkt));
  }
  schedule_flow_release(flow);
}

void Switch::schedule_shaper_release(PortId in_port) {
  auto& in = shapers_[in_port];
  if (in.release_scheduled || in.held.empty() || !in.shaper) return;
  const Time now = this->now();
  const Time ready = in.shaper->ready_at(now, in.held.front().size_bytes);
  in.release_scheduled = true;
  schedule_at(std::max(now, ready), [this, in_port] {
    shapers_[in_port].release_scheduled = false;
    release_held(in_port);
  });
}

void Switch::release_held(PortId in_port) {
  auto& in = shapers_[in_port];
  const Time now = this->now();
  while (!in.held.empty() && in.shaper &&
         in.shaper->ready_at(now, in.held.front().size_bytes) <= now) {
    Packet pkt = std::move(in.held.front());
    in.held.pop_front();
    in.held_bytes -= pkt.size_bytes;
    in.shaper->on_sent(now, pkt.size_bytes);
    route_and_enqueue(in_port, pkt.prio, std::move(pkt));
  }
  schedule_shaper_release(in_port);
}

void Switch::dec_ingress(PortId in_port, ClassId in_class,
                         const Packet& pkt) {
  auto& ctr = counter(in_port, in_class);
  ctr.bytes -= pkt.size_bytes;
  DCDL_ASSERT(ctr.bytes >= 0);
  total_buffered_ -= pkt.size_bytes;
  ctr.departure_count += 1;
  update_pause_state(in_port, in_class);
}

void Switch::route_and_enqueue(PortId in_port, ClassId in_class,
                               Packet pkt) {
  const Time now = this->now();
  if (dp_ != nullptr) {
    // Packet-side tag stage: stamp at fabric entry, note a revisit at the
    // stamping switch (direct forwarding-loop evidence, e.g. Fig. 2).
    if (pkt.tag_origin == 0xFFFF) {
      pkt.tag_origin = static_cast<std::uint16_t>(id_);
      dp_->note_packet_tagged();
    } else if (pkt.tag_origin == static_cast<std::uint16_t>(id_) &&
               pkt.hops > 0) {
      dp_->note_packet_loop();
    }
    pkt.tag_visited |= 1u << (id_ % 32);
  }
  const auto egress = routes_.lookup(pkt.flow, pkt.dst);
  if (!egress) {
    dec_ingress(in_port, in_class, pkt);
    count_drop(DropReason::kNoRoute);
    if (net_.trace().dropped) {
      net_.trace().dropped(now, pkt, id_, DropReason::kNoRoute);
    }
    return;
  }
  if (wire(*egress).peer_is_switch) {
    // Further switch-to-switch forwarding: TTL check and decrement.
    if (pkt.ttl == 0) {
      dec_ingress(in_port, in_class, pkt);
      count_drop(DropReason::kTtlExpired);
      if (net_.trace().dropped) {
        net_.trace().dropped(now, pkt, id_, DropReason::kTtlExpired);
      }
      return;
    }
    pkt.ttl -= 1;
    pkt.hops += 1;
  }
  // Departure class: the class the packet will occupy on the next wire.
  if (cfg_.reclass) {
    const ClassId out = cfg_.reclass(pkt, id_);
    DCDL_ASSERT(out < cfg_.num_classes);
    pkt.prio = out;
  }
  if (ecn_mark_on_enqueue(*egress, pkt)) pkt.ecn_marked = true;
  const std::size_t qs = slot(*egress, pkt.prio);
  auto& q = queues_[qs];
  q.bytes += pkt.size_bytes;
  from(qs, slot(in_port, in_class)) += pkt.size_bytes;
  q.q.push_back(QueuedPacket{std::move(pkt), in_port, in_class, now});
  try_transmit(*egress);
}

bool Switch::ecn_mark_on_enqueue(PortId port, const Packet& pkt) {
  if (!cfg_.ecn.enabled || !pkt.ecn_capable) return false;
  if (cfg_.ecn.phantom_speed_fraction >= 1.0) {
    // Mark against the real egress backlog.
    std::int64_t backlog = 0;
    for (std::size_t c = 0; c < num_classes_; ++c) {
      backlog += queues_[slot(port, static_cast<ClassId>(c))].bytes;
    }
    return backlog > cfg_.ecn.mark_threshold_bytes;
  }
  // Phantom queue: drains at a fraction of line speed, marks early.
  auto& eg = egress_cold_[port];
  const Time now = this->now();
  const double drain_bps = static_cast<double>(wire(port).rate.bps()) *
                           cfg_.ecn.phantom_speed_fraction;
  const double drained = drain_bps * (now - eg.phantom_last).ps() / 8e12;
  eg.phantom_bytes = std::max(0.0, eg.phantom_bytes - drained);
  eg.phantom_last = now;
  eg.phantom_bytes += pkt.size_bytes;
  return eg.phantom_bytes > static_cast<double>(cfg_.ecn.mark_threshold_bytes);
}

bool Switch::effectively_paused(PortId port, ClassId cls) const {
  if (!egress_[port].paused[cls]) return false;
  const EgressPortCold& eg = egress_cold_[port];
  const Time now = this->now();
  if (cfg_.pfc.pause_quanta > Time::zero() && now >= eg.pause_expiry[cls]) {
    return false;  // the pause quanta lapsed without a refresh
  }
  return now >= eg.ignore_pause_until[cls];
}

void Switch::schedule_pause_refresh(PortId port, ClassId cls) {
  if (cfg_.pfc.pause_quanta == Time::zero() || !cfg_.pfc.pause_refresh) {
    return;
  }
  auto& ctr = counter(port, cls);
  if (ctr.refresh_scheduled) return;
  ctr.refresh_scheduled = true;
  schedule_in(cfg_.pfc.pause_quanta / 2, [this, port, cls] {
    auto& c = counter(port, cls);
    c.refresh_scheduled = false;
    if (c.pause_asserted) {
      if (dp_ != nullptr) {
        net_.send_pfc(id_, port, cls, /*pause=*/true,
                      dp_->last_sent(port, cls));
      } else {
        net_.send_pfc(id_, port, cls, /*pause=*/true);
      }
      schedule_pause_refresh(port, cls);
    }
  });
}

Switch::QueuedPacket Switch::pop_queued(PortId port, ClassId cls) {
  const std::size_t qs = slot(port, cls);
  auto& q = queues_[qs];
  QueuedPacket qp = std::move(q.q.front());
  q.q.pop_front();
  q.bytes -= qp.pkt.size_bytes;
  std::int64_t& charged = from(qs, slot(qp.in_port, qp.in_class));
  charged -= qp.pkt.size_bytes;
  DCDL_ASSERT(charged >= 0);
  return qp;
}

void Switch::try_transmit(PortId egress) {
  auto& eg = egress_[egress];
  if (eg.busy) return;
  const std::size_t num_cls = num_classes_;
  std::size_t c = eg.rr_class;
  for (std::size_t i = 0; i < num_cls; ++i) {
    const auto cls = static_cast<ClassId>(c);
    if (++c == num_cls) c = 0;
    if (queues_[slot(egress, cls)].q.empty() ||
        effectively_paused(egress, cls)) {
      continue;
    }

    eg.rr_class = static_cast<std::uint8_t>(c);
    QueuedPacket qp = pop_queued(egress, cls);
    dec_ingress(qp.in_port, qp.in_class, qp.pkt);

    const Time now = this->now();
    if (net_.trace().hop_wait) {
      net_.trace().hop_wait(now, id_, egress, cls, now - qp.enqueued_at);
    }
    if (net_.trace().tx_start) {
      net_.trace().tx_start(now, qp.pkt, id_, egress);
    }
    count_tx(egress, qp.pkt.size_bytes);
    eg.busy = true;
    const Wire& w = wire(egress);
    const Time ser = w.serialization(qp.pkt.size_bytes, cfg_.mtu_bytes);
    Time hold = ser;
    if (cfg_.tx_jitter > Time::zero()) {
      hold += Time{static_cast<std::int64_t>(jitter_rng_.uniform(
          static_cast<std::uint64_t>(cfg_.tx_jitter.ps()) + 1))};
    }
    schedule_at(now + hold, [this, egress] { complete_transmit(egress); });
    net_.transmit(w, now, ser, qp.pkt);
    return;
  }
}

void Switch::complete_transmit(PortId egress) {
  egress_[egress].busy = false;
  try_transmit(egress);
}

void Switch::on_pfc_tagged(PortId port, ClassId cls, bool pause,
                           const dataplane::PauseTag& tag) {
  on_pfc(port, cls, pause);
  if (dp_ == nullptr) return;
  if (!pause) {
    dp_->clear_rx(port, cls);
    return;
  }
  dp_->store_rx(port, cls, tag);
  if (!tag.valid()) return;
  if (dp_->is_own(tag)) {
    dp_on_own_tag(port, cls, tag);
    return;
  }
  dp_late_propagate(port, cls, tag);
}

dataplane::PauseTag Switch::dp_tag_for_xoff(PortId port, ClassId cls) {
  // Propagate when the backlog behind this counter traces to an egress
  // queue frozen by a tagged downstream PAUSE — the chain grows upstream.
  // Deterministic scan order: lowest (egress, class) wins ties.
  const std::size_t in_slot = slot(port, cls);
  for (PortId e = 0; e < static_cast<PortId>(egress_.size()); ++e) {
    for (std::size_t c2 = 0; c2 < num_classes_; ++c2) {
      const auto c2id = static_cast<ClassId>(c2);
      if (!effectively_paused(e, c2id)) continue;
      if (from(slot(e, c2id), in_slot) <= 0) continue;
      const dataplane::PauseTag& rx = dp_->rx(e, c2id);
      if (!rx.valid() || dp_->is_own(rx)) continue;
      return dp_->propagate(rx);
    }
  }
  return dp_->originate(port, cls);
}

void Switch::dp_late_propagate(PortId port, ClassId cls,
                               const dataplane::PauseTag& tag) {
  // Ingress counters that crossed Xoff before this tag arrived originated
  // their own chains; re-send their PAUSE with the fresher upstream tag so
  // the true chain keeps growing. remember_sent() is the loop guard: a tag
  // stabilizes after one trip around a cycle, so re-sends terminate.
  bool have = false;
  dataplane::PauseTag prop;
  const std::size_t qs = slot(port, cls);
  for (PortId p = 0; p < static_cast<PortId>(egress_.size()); ++p) {
    for (std::size_t c2 = 0; c2 < num_classes_; ++c2) {
      const auto c2id = static_cast<ClassId>(c2);
      if (!counter(p, c2id).pause_asserted) continue;
      if (from(qs, slot(p, c2id)) <= 0) continue;
      if (!have) {
        prop = dp_->propagate(tag);
        have = true;
      }
      if (!dp_->remember_sent(p, c2id, prop)) continue;
      net_.send_pfc(id_, p, c2id, /*pause=*/true, prop);
    }
  }
}

void Switch::dp_on_own_tag(PortId port, ClassId cls,
                           const dataplane::PauseTag& tag) {
  probe::Profiler::Scope span(probe::Profiler::Span::kDataplane);
  // Local proof of a cyclic buffer dependency: the chain we started at
  // ingress (origin_port, origin_cls) came back to freeze our egress
  // (port, cls), and that egress holds bytes charged to exactly that
  // ingress counter — the dependency bites its own tail here.
  const auto& ctr = counter(tag.origin_port, tag.origin_cls);
  if (!ctr.pause_asserted) return;
  if (egress_bytes_from(port, cls, tag.origin_port, tag.origin_cls) <= 0) {
    return;
  }
  if (!dp_->arm_candidate(tag, ctr.departure_count, now())) return;
  if (net_.trace().dataplane) {
    net_.trace().dataplane(now(), id_, dataplane::DataplaneEvent::kCandidate,
                           tag.origin_cls, tag.hops);
  }
  schedule_in(dataplane::kConfirmDwell, [this] { dp_resolve_candidate(); });
}

void Switch::dp_resolve_candidate() {
  probe::Profiler::Scope span(probe::Profiler::Span::kDataplane);
  if (dp_ == nullptr || !dp_->candidate_pending()) return;
  const dataplane::PauseTag tag = dp_->candidate_tag();
  const auto& ctr = counter(tag.origin_port, tag.origin_cls);
  using Verdict = dataplane::Pipeline::Verdict;
  switch (dp_->resolve_candidate(ctr.pause_asserted, ctr.departure_count)) {
    case Verdict::kFalseAlarm:
      // The origin counter resumed during the dwell — a transient
      // (TTL-expiry loop, self-resolving cascade), not a deadlock.
      if (net_.trace().dataplane) {
        net_.trace().dataplane(now(), id_,
                               dataplane::DataplaneEvent::kFalseAlarm,
                               tag.origin_cls, 0);
      }
      return;
    case Verdict::kRetry:
      // Still asserted, still draining: the cycle may be hardening with no
      // new pause edge to bring the tag back — keep watching this one.
      schedule_in(dataplane::kConfirmDwell,
                  [this] { dp_resolve_candidate(); });
      return;
    case Verdict::kConfirmed:
      break;
  }
  if (net_.trace().dataplane) {
    net_.trace().dataplane(now(), id_, dataplane::DataplaneEvent::kConfirmed,
                           tag.origin_cls, tag.hops);
  }
  dp_recover(tag);
}

void Switch::dp_recover(const dataplane::PauseTag& tag) {
  using dataplane::RecoveryPolicy;
  const RecoveryPolicy policy = dp_->config().policy;
  if (policy == RecoveryPolicy::kDetect) return;  // observe only, stay armed
  const Time now = this->now();
  std::uint64_t acted = 0;
  for (PortId e = 0; e < static_cast<PortId>(egress_.size()); ++e) {
    for (std::size_t c2 = 0; c2 < num_classes_; ++c2) {
      const auto c2id = static_cast<ClassId>(c2);
      if (!effectively_paused(e, c2id)) continue;
      if (queue(e, c2id).bytes <= 0) continue;
      switch (policy) {
        case RecoveryPolicy::kDrop:
          acted += flush_egress_queue(e, c2id, DropReason::kDataplaneReset);
          break;
        case RecoveryPolicy::kReroute:
          acted += dp_reroute_queue(e, c2id);
          break;
        case RecoveryPolicy::kPfcLift:
          ignore_pause_until(e, c2id, now + dataplane::kLiftWindow);
          ++acted;
          break;
        default:
          break;
      }
    }
  }
  dp_->note_recovery();
  if (net_.trace().dataplane) {
    net_.trace().dataplane(now, id_, dataplane::DataplaneEvent::kRecovered,
                           tag.origin_cls, acted);
  }
  schedule_in(dataplane::kCooldown, [this] {
    if (dp_ == nullptr || dp_->armed()) return;
    dp_->rearm();
    if (net_.trace().dataplane) {
      net_.trace().dataplane(this->now(), id_,
                             dataplane::DataplaneEvent::kRearmed, 0, 0);
    }
    dp_rescan_own_tags();
  });
}

void Switch::dp_rescan_own_tags() {
  // Stored rx-tags survive the cooldown. If our own tag is still parked on
  // a frozen egress — the wedge re-formed while the stage was disarmed and
  // the returning tag was ignored — restart the detect stage from the
  // stored state rather than waiting for a pause edge that may never come
  // (a re-hardened cycle generates none).
  for (PortId e = 0; e < static_cast<PortId>(egress_.size()); ++e) {
    for (std::size_t c2 = 0; c2 < num_classes_; ++c2) {
      const auto c2id = static_cast<ClassId>(c2);
      const dataplane::PauseTag& rx = dp_->rx(e, c2id);
      if (!rx.valid() || !dp_->is_own(rx)) continue;
      dp_on_own_tag(e, c2id, rx);
    }
  }
}

std::uint64_t Switch::dp_reroute_queue(PortId port, ClassId cls) {
  std::uint64_t moved = 0;
  // Drain the frozen queue into scratch first: re-queue may legitimately
  // re-select the same egress when no detour exists, and must not then be
  // popped again. Heap allocation is fine here — recovery is rare and off
  // the steady-state path.
  std::vector<QueuedPacket> scratch;
  scratch.reserve(queue(port, cls).q.size());
  while (!queue(port, cls).q.empty()) scratch.push_back(pop_queued(port, cls));
  for (QueuedPacket& qp : scratch) {
    dp_install_detour(qp.pkt, port);
    ++moved;
    // Re-route with ingress attribution intact (the packet never left the
    // switch, so its counter charge stands); TTL is re-checked like any
    // forward, so a detour that cannot escape eventually self-limits.
    route_and_enqueue(qp.in_port, qp.in_class, std::move(qp.pkt));
  }
  return moved;
}

void Switch::dp_install_detour(const Packet& pkt, PortId avoid) {
  const std::vector<int> dist = routing::hop_distances(net_.topo(), pkt.dst);
  constexpr int kUnreachable = std::numeric_limits<int>::max() / 4;
  PortId best = kInvalidPort;
  int best_dist = kUnreachable;
  for (PortId p = 0; p < static_cast<PortId>(egress_.size()); ++p) {
    if (p == avoid) continue;
    const NodeId peer = net_.topo().peer(id_, p).peer_node;
    if (net_.topo().is_host(peer) && peer != pkt.dst) continue;
    if (dist[peer] < best_dist) {
      best_dist = dist[peer];
      best = p;
    }
  }
  if (best == kInvalidPort) return;
  if (routes_.flow_route(pkt.flow).has_value()) {
    routes_.set_flow_route(pkt.flow, best);
  } else {
    routes_.set_dst_route(pkt.dst, best);
  }
}

void Switch::on_pfc(PortId port, ClassId cls, bool pause) {
  auto& eg = egress_.at(port);
  auto& cold = egress_cold_[port];
  const Time now = this->now();
  if (pause && !eg.paused.at(cls)) {
    cold.paused_since[cls] = now;
  }
  eg.paused[cls] = pause;
  if (pause && cfg_.pfc.pause_quanta > Time::zero()) {
    cold.pause_expiry[cls] = now + cfg_.pfc.pause_quanta;
    // Wake the transmitter when the quanta lapses in case no refresh comes.
    schedule_in(cfg_.pfc.pause_quanta, [this, port] { try_transmit(port); });
  }
  if (!pause) try_transmit(port);
}

Time Switch::egress_paused_for(PortId port, ClassId cls) const {
  if (!egress_.at(port).paused.at(cls)) return Time::zero();
  return now() - egress_cold_[port].paused_since[cls];
}

std::uint64_t Switch::flush_egress_queue(PortId port, ClassId cls,
                                         DropReason reason) {
  expect_slot(port, cls);
  const Time now = this->now();
  std::uint64_t dropped = 0;
  while (!queue(port, cls).q.empty()) {
    const QueuedPacket qp = pop_queued(port, cls);
    // Releasing the buffer credits the ingress counter (possibly sending
    // the RESUME that untangles the upstream), exactly like a forward —
    // but a flushed packet is not a departure.
    counter(qp.in_port, qp.in_class).bytes -= qp.pkt.size_bytes;
    total_buffered_ -= qp.pkt.size_bytes;
    update_pause_state(qp.in_port, qp.in_class);
    count_drop(reason);
    if (net_.trace().dropped) {
      net_.trace().dropped(now, qp.pkt, id_, reason);
    }
    ++dropped;
  }
  return dropped;
}

void Switch::ignore_pause_until(PortId port, ClassId cls, Time until) {
  expect_slot(port, cls);
  auto& cold = egress_cold_[port];
  cold.ignore_pause_until[cls] = until;
  // Restart the storm clock so the watchdog measures the pause anew after
  // its intervention rather than re-firing every poll.
  cold.paused_since[cls] = now();
  try_transmit(port);
}

std::int64_t Switch::ingress_bytes(PortId port, ClassId cls) const {
  expect_slot(port, cls);
  return counter(port, cls).bytes;
}

std::int64_t Switch::max_ingress_bytes() const {
  std::int64_t max_bytes = 0;
  for (const IngressCounter& ctr : counters_) {
    max_bytes = std::max(max_bytes, ctr.bytes);
  }
  return max_bytes;
}

std::int64_t Switch::ingress_flow_bytes(PortId port, ClassId cls,
                                        FlowId flow) const {
  // Everything charged to counter (port, cls) sits in one of three places:
  // an egress FIFO (routed), the port's shaper queue, or a flow shaper.
  expect_slot(port, cls);
  if (counter(port, cls).bytes == 0) return 0;
  const std::size_t in_slot = slot(port, cls);
  std::int64_t bytes = 0;
  for (std::size_t qs = 0; qs < slots_; ++qs) {
    if (from(qs, in_slot) == 0) continue;
    const EgressClassQueue& q = queues_[qs];
    for (std::size_t i = 0; i < q.q.size(); ++i) {
      const QueuedPacket& qp = q.q[i];
      if (qp.in_port == port && qp.in_class == cls && qp.pkt.flow == flow) {
        bytes += qp.pkt.size_bytes;
      }
    }
  }
  const IngressShaper& in = shapers_[port];
  for (std::size_t i = 0; i < in.held.size(); ++i) {
    const Packet& pkt = in.held[i];
    if (pkt.prio == cls && pkt.flow == flow) bytes += pkt.size_bytes;
  }
  if (const auto it = flow_shapers_.find(flow); it != flow_shapers_.end()) {
    const FlowShaper& fs = it->second;
    for (std::size_t i = 0; i < fs.held.size(); ++i) {
      const HeldPacket& h = fs.held[i];
      if (h.in_port == port && h.in_class == cls) bytes += h.pkt.size_bytes;
    }
  }
  return bytes;
}

bool Switch::pause_asserted(PortId port, ClassId cls) const {
  expect_slot(port, cls);
  return counter(port, cls).pause_asserted;
}

bool Switch::egress_paused(PortId port, ClassId cls) const {
  return egress_.at(port).paused.at(cls);
}

std::int64_t Switch::egress_queue_bytes(PortId port, ClassId cls) const {
  expect_slot(port, cls);
  return queue(port, cls).bytes;
}

std::int64_t Switch::egress_bytes_from(PortId port, ClassId cls,
                                       PortId in_port, ClassId in_cls) const {
  expect_slot(port, cls);
  if (in_port >= egress_.size() || in_cls >= num_classes_) return 0;
  return from(slot(port, cls), slot(in_port, in_cls));
}

std::uint64_t Switch::departures(PortId port, ClassId cls) const {
  expect_slot(port, cls);
  return counter(port, cls).departure_count;
}

std::int64_t Switch::shaper_held_bytes(PortId port) const {
  std::int64_t total = shapers_.at(port).held_bytes;
  for (const auto& [flow, fs] : flow_shapers_) {
    for (std::size_t i = 0; i < fs.held.size(); ++i) {
      if (fs.held[i].in_port == port) total += fs.held[i].pkt.size_bytes;
    }
  }
  return total;
}

}  // namespace dcdl
