#include "dcdl/watch/export.hpp"

#include "dcdl/campaign/param.hpp"
#include "dcdl/common/json.hpp"

namespace dcdl::watch {

namespace {
using campaign::format_double;
}  // namespace

std::string node_label(const Topology& topo, std::int64_t node) {
  if (node < 0 || node >= static_cast<std::int64_t>(topo.node_count())) {
    return "-";
  }
  const NodeSpec& spec = topo.node(static_cast<NodeId>(node));
  return spec.name.empty() ? "n" + std::to_string(node) : spec.name;
}

std::string to_alerts_jsonl(const RunWatch& watch, const Topology& topo) {
  std::string out;
  out += "{\"schema\":\"";
  out += kAlertsSchema;
  out += "\",\"interval_ps\":" + std::to_string(watch.interval().ps());
  out += ",\"start_ps\":" + std::to_string(watch.start_time().ps());
  out += ",\"ticks\":" + std::to_string(watch.ticks());
  out += ",\"rules\":[";
  const std::vector<AlertRule>& rules = watch.engine().rules();
  for (std::size_t i = 0; i < rules.size(); ++i) {
    const AlertRule& r = rules[i];
    if (i != 0) out += ",";
    out += "{\"name\":" + json::quoted(r.name) +
           ",\"signal\":" + json::quoted(r.signal);
    out += ",\"severity\":\"";
    out += to_string(r.severity);
    out += "\",\"fire_above\":" + format_double(r.fire_above);
    out += ",\"clear_below\":" + format_double(r.clear_below);
    out += ",\"for_ticks\":" + std::to_string(r.for_ticks);
    out += ",\"dedup_ps\":" + std::to_string(r.dedup.ps()) + "}";
  }
  out += "]}\n";

  for (const AlertEvent& ev : watch.engine().events()) {
    out += "{\"t_ps\":" + std::to_string(ev.t.ps());
    out += ",\"rule\":" + json::quoted(rules[ev.rule].name);
    out += ",\"severity\":\"";
    out += to_string(ev.severity);
    out += "\",\"kind\":\"";
    out += ev.firing ? "fire" : "clear";
    out += "\",\"value\":" + format_double(ev.value);
    out += ",\"node\":" + json::quoted(node_label(topo, ev.node)) + "}\n";
  }

  out += "{\"summary\":{";
  bool first = true;
  for (const auto& [name, value] : watch.summary()) {
    if (!first) out += ",";
    first = false;
    out += json::quoted(name) + ":" + format_double(value);
  }
  out += "}}\n";
  return out;
}

std::string to_perfetto_alerts(const RunWatch& watch, const Topology& topo) {
  // A pid clear of the telemetry per-node processes (node ids) and the
  // probe counter process (900000).
  constexpr int kPid = 910000;
  const std::vector<AlertRule>& rules = watch.engine().rules();

  std::string out = "{\"traceEvents\":[";
  bool first = true;
  const auto emit = [&](const std::string& ev) {
    if (!first) out += ",";
    first = false;
    out += "\n" + ev;
  };
  emit("{\"ph\":\"M\",\"pid\":" + std::to_string(kPid) +
       ",\"name\":\"process_name\",\"args\":{\"name\":\"watch\"}}");
  for (const AlertEvent& ev : watch.engine().events()) {
    const std::int64_t ts_us = ev.t.ps() / 1'000'000;
    emit("{\"ph\":\"i\",\"s\":\"g\",\"pid\":" + std::to_string(kPid) +
         ",\"ts\":" + std::to_string(ts_us) + ",\"cat\":\"alert\"" +
         ",\"name\":" +
         json::quoted(std::string(to_string(ev.severity)) + " " +
                      rules[ev.rule].name + (ev.firing ? "" : " clear")) +
         ",\"args\":{\"value\":" + format_double(ev.value) +
         ",\"node\":" + json::quoted(node_label(topo, ev.node)) + "}}");
  }
  out += "\n]}\n";
  return out;
}

}  // namespace dcdl::watch
