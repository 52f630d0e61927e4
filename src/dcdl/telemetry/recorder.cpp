#include "dcdl/telemetry/recorder.hpp"

#include "dcdl/common/contract.hpp"
#include "dcdl/stats/hooks.hpp"

namespace dcdl::telemetry {

const char* to_string(RecordKind kind) {
  switch (kind) {
    case RecordKind::kPfcXoff: return "pfc_xoff";
    case RecordKind::kPfcXon: return "pfc_xon";
    case RecordKind::kTxStart: return "tx_start";
    case RecordKind::kDelivered: return "delivered";
    case RecordKind::kDropped: return "dropped";
    case RecordKind::kCnp: return "cnp";
    case RecordKind::kQueueBytes: return "queue_bytes";
    case RecordKind::kDataplaneDetect: return "dataplane_detect";
    case RecordKind::kDataplaneRecover: return "dataplane_recover";
    case RecordKind::kRegionState: return "region_state";
  }
  return "?";
}

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

FlightRecorder::FlightRecorder(std::size_t capacity) {
  DCDL_EXPECTS(capacity > 0);
  ring_.resize(round_up_pow2(capacity));
  mask_ = ring_.size() - 1;
}

void FlightRecorder::attach(Network& net) {
  Trace& t = net.trace();
  stats::append_hook(
      t.pfc_state,
      [this](Time at, NodeId node, PortId port, ClassId cls, bool paused) {
        TraceRecord r;
        r.t_ps = at.ps();
        r.node = node;
        r.port = port;
        r.cls = cls;
        r.kind = paused ? RecordKind::kPfcXoff : RecordKind::kPfcXon;
        record(r);
      });
  stats::append_hook(
      t.tx_start,
      [this](Time at, const Packet& pkt, NodeId node, PortId port) {
        TraceRecord r;
        r.t_ps = at.ps();
        r.node = node;
        r.flow = pkt.flow;
        r.bytes = pkt.size_bytes;
        r.port = port;
        r.cls = pkt.prio;
        r.kind = RecordKind::kTxStart;
        record(r);
      });
  stats::append_hook(t.delivered, [this](Time at, const Packet& pkt) {
    TraceRecord r;
    r.t_ps = at.ps();
    r.node = pkt.dst;
    r.flow = pkt.flow;
    r.bytes = pkt.size_bytes;
    r.port = kInvalidPort;
    r.cls = pkt.prio;
    r.kind = RecordKind::kDelivered;
    record(r);
  });
  stats::append_hook(
      t.dropped,
      [this](Time at, const Packet& pkt, NodeId node, DropReason reason) {
        TraceRecord r;
        r.t_ps = at.ps();
        r.node = node;
        r.flow = pkt.flow;
        r.bytes = pkt.size_bytes;
        r.port = kInvalidPort;
        r.cls = pkt.prio;
        r.kind = RecordKind::kDropped;
        r.reason = static_cast<std::uint8_t>(reason);
        record(r);
      });
  stats::append_hook(t.cnp, [this](Time at, FlowId flow) {
    TraceRecord r;
    r.t_ps = at.ps();
    r.flow = flow;
    r.port = kInvalidPort;
    r.kind = RecordKind::kCnp;
    record(r);
  });
  stats::append_hook(
      t.queue_bytes,
      [this](Time at, NodeId node, PortId port, ClassId cls,
             std::int64_t bytes) {
        TraceRecord r;
        r.t_ps = at.ps();
        r.node = node;
        r.bytes = static_cast<std::uint32_t>(bytes);
        r.port = port;
        r.cls = cls;
        r.kind = RecordKind::kQueueBytes;
        record(r);
      });
  stats::append_hook(
      t.dataplane,
      [this](Time at, NodeId node, dataplane::DataplaneEvent ev,
             ClassId cls, std::uint64_t detail) {
        TraceRecord r;
        r.t_ps = at.ps();
        r.node = node;
        r.bytes = static_cast<std::uint32_t>(detail);
        r.port = kInvalidPort;
        r.cls = cls;
        r.kind = (ev == dataplane::DataplaneEvent::kRecovered ||
                  ev == dataplane::DataplaneEvent::kRearmed)
                     ? RecordKind::kDataplaneRecover
                     : RecordKind::kDataplaneDetect;
        r.reason = static_cast<std::uint8_t>(ev);
        record(r);
      });
  stats::append_hook(
      t.region_state,
      [this](Time at, std::uint32_t region, bool to_packet) {
        TraceRecord r;
        r.t_ps = at.ps();
        r.node = region;
        r.bytes = to_packet ? 1 : 0;
        r.port = kInvalidPort;
        r.kind = RecordKind::kRegionState;
        record(r);
      });
}

std::size_t FlightRecorder::size() const {
  return total_ < ring_.size() ? static_cast<std::size_t>(total_)
                               : ring_.size();
}

std::vector<TraceRecord> FlightRecorder::snapshot() const {
  return last(size());
}

std::vector<TraceRecord> FlightRecorder::last(std::size_t n) const {
  const std::size_t have = size();
  if (n > have) n = have;
  std::vector<TraceRecord> out;
  out.reserve(n);
  for (std::uint64_t i = total_ - n; i != total_; ++i) {
    out.push_back(ring_[static_cast<std::size_t>(i) & mask_]);
  }
  return out;
}

}  // namespace dcdl::telemetry
