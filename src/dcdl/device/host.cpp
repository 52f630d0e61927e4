#include "dcdl/device/host.hpp"

#include <algorithm>

#include "dcdl/common/contract.hpp"
#include "dcdl/device/network.hpp"

namespace dcdl {

Host::Host(Network& net, NodeId id, const NetConfig& cfg)
    : Device(net, id), cfg_(cfg) {
  DCDL_EXPECTS(net.topo().degree(id) == 1);  // hosts are single-homed
  init_tx_ports(1);
  jitter_rng_.reseed(cfg.jitter_seed * 0x9E3779B97F4A7C15ULL + id);
}

void Host::add_flow(const FlowSpec& spec, std::unique_ptr<Pacer> pacer) {
  DCDL_EXPECTS(spec.src_host == id_);
  DCDL_EXPECTS(spec.prio < cfg_.num_classes);
  DCDL_EXPECTS(spec.packet_bytes > 0);
  flows_.push_back(FlowState{spec, std::move(pacer)});
  schedule_wake(std::max(spec.start, now()));
}

void Host::stop_flow(FlowId flow) {
  for (auto& f : flows_) {
    if (f.spec.id == flow) f.stopped = true;
  }
}

void Host::stop_all_flows() {
  for (auto& f : flows_) f.stopped = true;
}

void Host::limit_flow(FlowId flow, Rate rate, std::int64_t burst_bytes) {
  for (auto& f : flows_) {
    if (f.spec.id == flow) {
      f.pacer = std::make_unique<TokenBucketPacer>(rate, burst_bytes);
    }
  }
}

void Host::hold_flow(FlowId flow, bool held) {
  for (auto& f : flows_) {
    if (f.spec.id != flow) continue;
    if (f.held == held) return;
    f.held = held;
    if (!held) try_send();  // re-enter the scheduler right away
    return;
  }
}

void Host::credit_delivery(FlowId flow, std::int64_t bytes,
                           std::uint64_t packets) {
  auto& s = delivered_.at_or_insert(flow);
  s.bytes += bytes;
  s.packets += packets;
}

void Host::schedule_wake(Time at) {
  if (busy_) return;  // complete_transmit will call try_send anyway
  if (wake_.valid() && wake_at_ <= at) return;
  cancel_event(wake_);
  wake_at_ = at;
  wake_ = schedule_at(at, [this] {
    wake_ = EventId{};
    wake_at_ = Time::max();
    try_send();
  });
}

void Host::try_send() {
  if (busy_ || flows_.empty()) return;
  const Time now = this->now();
  Time earliest = Time::max();
  const std::size_t n = flows_.size();
  std::size_t next = rr_;
  for (std::size_t i = 0; i < n; ++i) {
    FlowState& f = flows_[next];
    if (++next == n) next = 0;
    if (f.stopped || f.held || now >= f.spec.stop) continue;
    if (now < f.spec.start) {
      earliest = std::min(earliest, f.spec.start);
      continue;
    }
    if (paused_now(f.spec.prio)) continue;  // PFC backpressure at the NIC
    if (f.pacer) {
      const Time ready = f.pacer->ready_at(now, f.spec.packet_bytes);
      if (ready > now) {
        earliest = std::min(earliest, ready);
        continue;
      }
    }

    // Inject one packet of this flow.
    rr_ = next;
    Packet pkt;
    pkt.id = net_.next_packet_id(id_);
    pkt.flow = f.spec.id;
    pkt.src = f.spec.src_host;
    pkt.dst = f.spec.dst_host;
    pkt.size_bytes = f.spec.packet_bytes;
    pkt.ttl = f.spec.ttl;
    pkt.prio = f.spec.prio;
    pkt.ecn_capable = f.spec.ecn_capable;
    pkt.injected_at = now;
    if (f.pacer) f.pacer->on_sent(now, pkt.size_bytes);
    f.sent_bytes += pkt.size_bytes;
    f.sent_packets += 1;
    if (net_.trace().tx_start) net_.trace().tx_start(now, pkt, id_, 0);
    count_tx(0, pkt.size_bytes);

    busy_ = true;
    const Wire& w = wire(0);
    const Time ser = w.serialization(pkt.size_bytes, cfg_.mtu_bytes);
    Time hold = ser;
    if (cfg_.tx_jitter > Time::zero()) {
      hold += Time{static_cast<std::int64_t>(jitter_rng_.uniform(
          static_cast<std::uint64_t>(cfg_.tx_jitter.ps()) + 1))};
    }
    schedule_at(now + hold, [this] { complete_transmit(); });
    net_.transmit(w, now, ser, pkt);
    return;
  }
  if (earliest < Time::max()) schedule_wake(earliest);
}

void Host::complete_transmit() {
  busy_ = false;
  try_send();
}

void Host::on_receive(PortId, Packet pkt) {
  auto& s = delivered_.at_or_insert(pkt.flow);
  s.bytes += pkt.size_bytes;
  s.packets += 1;
  if (net_.trace().delivered) net_.trace().delivered(now(), pkt);
  if (pkt.ecn_marked) net_.send_cnp(id_, pkt.flow, pkt.src);
  if (cfg_.rtt_feedback) {
    net_.send_rtt_sample(id_, pkt.flow, pkt.src, now() - pkt.injected_at);
  }
}

void Host::on_rtt(FlowId flow, Time rtt) {
  const Time now = this->now();
  for (auto& f : flows_) {
    if (f.spec.id == flow && f.pacer) {
      f.pacer->on_rtt(now, rtt);
      try_send();
      if (!busy_) schedule_wake(now);
      return;
    }
  }
}

bool Host::paused_now(ClassId cls) const {
  if (!paused_.at(cls)) return false;
  if (cfg_.pfc.pause_quanta > Time::zero() &&
      now() >= pause_expiry_.at(cls)) {
    return false;  // quanta lapsed without refresh
  }
  return true;
}

void Host::on_pfc(PortId port, ClassId cls, bool pause) {
  DCDL_EXPECTS(port == 0);
  paused_.at(cls) = pause;
  if (pause && cfg_.pfc.pause_quanta > Time::zero()) {
    pause_expiry_.at(cls) = now() + cfg_.pfc.pause_quanta;
    schedule_in(cfg_.pfc.pause_quanta, [this] { try_send(); });
  }
  if (!pause) try_send();
}

void Host::on_cnp(FlowId flow) {
  const Time now = this->now();
  for (auto& f : flows_) {
    if (f.spec.id == flow && f.pacer) {
      f.pacer->on_cnp(now);
      try_send();
      if (!busy_) schedule_wake(now);  // re-evaluate pacing after rate change
      return;
    }
  }
}

std::int64_t Host::sent_bytes(FlowId flow) const {
  for (const auto& f : flows_) {
    if (f.spec.id == flow) return f.sent_bytes;
  }
  return 0;
}

std::uint64_t Host::sent_packets(FlowId flow) const {
  for (const auto& f : flows_) {
    if (f.spec.id == flow) return f.sent_packets;
  }
  return 0;
}

std::int64_t Host::delivered_bytes(FlowId flow) const {
  const SinkStats* s = delivered_.find(flow);
  return s == nullptr ? 0 : s->bytes;
}

std::uint64_t Host::delivered_packets(FlowId flow) const {
  const SinkStats* s = delivered_.find(flow);
  return s == nullptr ? 0 : s->packets;
}

Pacer* Host::pacer(FlowId flow) {
  for (auto& f : flows_) {
    if (f.spec.id == flow) return f.pacer.get();
  }
  return nullptr;
}

}  // namespace dcdl
