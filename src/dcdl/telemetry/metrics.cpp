#include "dcdl/telemetry/metrics.hpp"

#include <stdexcept>

#include "dcdl/stats/hooks.hpp"

namespace dcdl::telemetry {

std::uint32_t MetricsRegistry::register_name(const std::string& name,
                                             bool gauge,
                                             std::uint32_t index_if_new) {
  for (const Entry& e : names_) {
    if (e.name != name) continue;
    if (e.gauge != gauge) {
      throw std::invalid_argument("metric '" + name + "' already registered "
                                  "as a " + (e.gauge ? "gauge" : "counter"));
    }
    return e.index;
  }
  names_.push_back(Entry{name, gauge, index_if_new});
  return index_if_new;
}

CounterId MetricsRegistry::counter(const std::string& name) {
  const auto next = static_cast<std::uint32_t>(counters_.size());
  const std::uint32_t idx = register_name(name, false, next);
  if (idx == next) counters_.push_back(0);
  return CounterId{idx};
}

GaugeId MetricsRegistry::gauge(const std::string& name) {
  const auto next = static_cast<std::uint32_t>(gauges_.size());
  const std::uint32_t idx = register_name(name, true, next);
  if (idx == next) gauges_.push_back(0);
  return GaugeId{idx};
}

std::vector<std::pair<std::string, double>> MetricsRegistry::snapshot() const {
  std::vector<std::pair<std::string, double>> out;
  out.reserve(names_.size());
  for (const Entry& e : names_) {
    out.emplace_back(e.name, e.gauge ? gauges_[e.index]
                                     : static_cast<double>(
                                           counters_[e.index]));
  }
  return out;
}

RunTelemetry::RunTelemetry(Network& net) : net_(net) {
  ids_.pfc_xoff = reg_.counter("net.pfc_xoff_total");
  ids_.pfc_xon = reg_.counter("net.pfc_xon_total");
  ids_.tx_starts = reg_.counter("net.tx_start_total");
  ids_.delivered_packets = reg_.counter("net.delivered_packets_total");
  ids_.delivered_bytes = reg_.counter("net.delivered_bytes_total");
  ids_.cnp = reg_.counter("net.cnp_total");
  for (int r = 0; r < kNumDropReasons; ++r) {
    ids_.dropped[r] = reg_.gauge(std::string("net.dropped_packets_total.") +
                                 to_string(static_cast<DropReason>(r)));
  }
  ids_.delivered_size_count = reg_.gauge("net.delivered_packet_bytes.count");
  ids_.delivered_size_sum = reg_.gauge("net.delivered_packet_bytes.sum");
  ids_.delivered_size_mean = reg_.gauge("net.delivered_packet_bytes.mean");
  ids_.queued_bytes = reg_.gauge("net.queued_bytes");
  ids_.sim_events_executed = reg_.gauge("sim.events_executed");
  ids_.sim_events_scheduled = reg_.gauge("sim.events_scheduled");
  ids_.sim_events_cancelled = reg_.gauge("sim.events_cancelled");
  ids_.sim_events_pending = reg_.gauge("sim.events_pending");
  ids_.sim_slab_slots = reg_.gauge("sim.slab_slots");
  ids_.sim_slab_grows = reg_.gauge("sim.slab_grows");
  ids_.sim_heap_high_water = reg_.gauge("sim.heap_high_water");

  Trace& t = net.trace();
  MetricsRegistry* r = &reg_;
  stats::append_hook(
      t.pfc_state,
      [r, xoff = ids_.pfc_xoff, xon = ids_.pfc_xon](Time, NodeId, PortId,
                                                    ClassId, bool paused) {
        r->add(paused ? xoff : xon);
      });
  stats::append_hook(t.tx_start,
                     [r, id = ids_.tx_starts](Time, const Packet&, NodeId,
                                              PortId) { r->add(id); });
  stats::append_hook(
      t.delivered,
      [r, pkts = ids_.delivered_packets,
       bytes = ids_.delivered_bytes](Time, const Packet& pkt) {
        r->add(pkts);
        r->add(bytes, pkt.size_bytes);
      });
  stats::append_hook(t.cnp,
                     [r, id = ids_.cnp](Time, FlowId) { r->add(id); });
}

void RunTelemetry::finalize() {
  for (int r = 0; r < kNumDropReasons; ++r) {
    reg_.set(ids_.dropped[r],
             static_cast<double>(net_.drops(static_cast<DropReason>(r))));
  }
  const auto pkts =
      static_cast<double>(reg_.counter_value(ids_.delivered_packets));
  const auto bytes =
      static_cast<double>(reg_.counter_value(ids_.delivered_bytes));
  reg_.set(ids_.delivered_size_count, pkts);
  reg_.set(ids_.delivered_size_sum, bytes);
  reg_.set(ids_.delivered_size_mean, pkts > 0 ? bytes / pkts : 0);

  const Simulator::Counters c = net_.sim().counters();
  reg_.set(ids_.queued_bytes, static_cast<double>(net_.total_queued_bytes()));
  reg_.set(ids_.sim_events_executed, static_cast<double>(c.executed));
  reg_.set(ids_.sim_events_scheduled, static_cast<double>(c.scheduled));
  reg_.set(ids_.sim_events_cancelled, static_cast<double>(c.cancelled));
  reg_.set(ids_.sim_events_pending, static_cast<double>(c.pending));
  reg_.set(ids_.sim_slab_slots, static_cast<double>(c.slab_slots));
  reg_.set(ids_.sim_slab_grows, static_cast<double>(c.slab_grows));
  reg_.set(ids_.sim_heap_high_water, static_cast<double>(c.heap_high_water));
}

std::vector<std::pair<std::string, double>> RunTelemetry::snapshot() {
  finalize();
  return reg_.snapshot();
}

}  // namespace dcdl::telemetry
