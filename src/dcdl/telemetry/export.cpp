#include "dcdl/telemetry/export.hpp"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <set>

#include "dcdl/common/json.hpp"

namespace dcdl::telemetry {

namespace {

/// Appends printf-formatted text to `out` (all emission goes through here;
/// %f with explicit precision keeps the output locale-independent and
/// deterministic).
void appendf(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));
void appendf(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) out.append(buf, static_cast<std::size_t>(n));
}

/// Microsecond timestamp with picosecond resolution (trace_event "ts").
void append_ts(std::string& out, std::int64_t t_ps) {
  appendf(out, "%" PRId64 ".%06" PRId64, t_ps / 1'000'000,
          t_ps % 1'000'000);
}

/// trace_event thread ids: one per (port, class) queue, 0 = node scope.
int tid_of(std::uint16_t port, std::uint8_t cls) {
  if (port == kInvalidPort) return 0;
  return static_cast<int>(port) * kMaxClasses + cls + 1;
}

std::string node_label(const Topology& topo, NodeId id) {
  if (id >= topo.node_count()) return "node " + std::to_string(id);
  const NodeSpec& spec = topo.node(id);
  const char* kind = spec.kind == NodeKind::kSwitch ? "switch" : "host";
  if (spec.name.empty()) return std::string(kind) + " " + std::to_string(id);
  return std::string(kind) + " " + spec.name + " (" + std::to_string(id) +
         ")";
}

/// Synthetic pid for the hybrid region-state track: kRegionState records
/// carry a *region* index in `node`, not a NodeId, so they render under
/// their own process instead of polluting a device's timeline.
constexpr std::uint32_t kHybridRegionsPid = 4'000'000'000u;

}  // namespace

std::string to_perfetto_json(const Topology& topo,
                             const std::vector<TraceRecord>& records,
                             const PerfettoOptions& opts,
                             const std::vector<FlowArrow>& flows) {
  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  const auto comma = [&] {
    if (!first) out += ',';
    first = false;
    out += '\n';
  };

  // Pass 1: the (pid, tid) streams that will appear, for name metadata.
  // kRegionState records are excluded: their `node` is a region index, not
  // a NodeId — they get the synthetic "hybrid regions" process instead.
  std::set<NodeId> nodes;
  std::map<std::pair<NodeId, int>, std::pair<std::uint16_t, std::uint8_t>>
      threads;
  bool any_region = false;
  for (const TraceRecord& r : records) {
    if (r.kind == RecordKind::kRegionState) {
      any_region = true;
      continue;
    }
    nodes.insert(r.node);
    const int tid = tid_of(r.port, r.cls);
    if (tid != 0) threads[{r.node, tid}] = {r.port, r.cls};
  }
  if (any_region) {
    comma();
    appendf(out,
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%u,"
            "\"args\":{\"name\":\"hybrid regions\"}}",
            kHybridRegionsPid);
  }
  for (const NodeId n : nodes) {
    comma();
    appendf(out,
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%u,"
            "\"args\":{\"name\":",
            n);
    json::append_quoted(out, node_label(topo, n));
    out += "}}";
  }
  for (const auto& [key, pc] : threads) {
    comma();
    appendf(out,
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%u,\"tid\":%d,"
            "\"args\":{\"name\":\"ingress port %u class %u\"}}",
            key.first, key.second, pc.first, pc.second);
  }

  // Pass 2: the events. Pause spans track open Xoffs per (pid, tid) so the
  // B/E pairs always nest (one span per queue at a time) and every span
  // left open at the window's end is closed at the final timestamp.
  std::map<std::pair<NodeId, int>, std::int64_t> open_pauses;
  std::int64_t last_ts = records.empty() ? 0 : records.back().t_ps;
  for (const TraceRecord& r : records) {
    const int tid = tid_of(r.port, r.cls);
    switch (r.kind) {
      case RecordKind::kPfcXoff:
        if (open_pauses.emplace(std::make_pair(r.node, tid), r.t_ps)
                .second) {
          comma();
          appendf(out,
                  "{\"name\":\"PFC pause\",\"cat\":\"pfc\",\"ph\":\"B\","
                  "\"pid\":%u,\"tid\":%d,\"ts\":",
                  r.node, tid);
          append_ts(out, r.t_ps);
          out += '}';
        }
        break;
      case RecordKind::kPfcXon:
        // A window that starts mid-pause sees an Xon with no open span;
        // skip it rather than emit an unbalanced E.
        if (open_pauses.erase({r.node, tid}) > 0) {
          comma();
          appendf(out, "{\"ph\":\"E\",\"pid\":%u,\"tid\":%d,\"ts\":",
                  r.node, tid);
          append_ts(out, r.t_ps);
          out += '}';
        }
        if (opts.xon_instants) {
          comma();
          appendf(out,
                  "{\"name\":\"pfc resume\",\"cat\":\"pfc\",\"ph\":\"i\","
                  "\"s\":\"t\",\"pid\":%u,\"tid\":%d,\"ts\":",
                  r.node, tid);
          append_ts(out, r.t_ps);
          out += '}';
        }
        break;
      case RecordKind::kQueueBytes:
        comma();
        appendf(out,
                "{\"name\":\"ingress p%u/c%u bytes\",\"ph\":\"C\","
                "\"pid\":%u,\"ts\":",
                r.port, r.cls, r.node);
        append_ts(out, r.t_ps);
        appendf(out, ",\"args\":{\"bytes\":%u}}", r.bytes);
        break;
      case RecordKind::kDropped:
        if (!opts.drop_instants) break;
        comma();
        appendf(out,
                "{\"name\":\"drop %s\",\"cat\":\"drop\",\"ph\":\"i\","
                "\"s\":\"p\",\"pid\":%u,\"tid\":0,\"ts\":",
                to_string(static_cast<DropReason>(r.reason)), r.node);
        append_ts(out, r.t_ps);
        appendf(out, ",\"args\":{\"flow\":%u,\"bytes\":%u}}", r.flow,
                r.bytes);
        break;
      case RecordKind::kCnp:
        comma();
        appendf(out,
                "{\"name\":\"cnp\",\"cat\":\"cc\",\"ph\":\"i\",\"s\":\"g\","
                "\"pid\":%u,\"tid\":0,\"ts\":",
                r.node);
        append_ts(out, r.t_ps);
        appendf(out, ",\"args\":{\"flow\":%u}}", r.flow);
        break;
      case RecordKind::kDelivered:
      case RecordKind::kTxStart:
        break;  // per-packet records do not render
      case RecordKind::kDataplaneDetect:
      case RecordKind::kDataplaneRecover:
        comma();
        appendf(out,
                "{\"name\":\"dataplane %s\",\"cat\":\"dataplane\","
                "\"ph\":\"i\",\"s\":\"p\",\"pid\":%u,\"tid\":0,\"ts\":",
                to_string(static_cast<dataplane::DataplaneEvent>(r.reason)),
                r.node);
        append_ts(out, r.t_ps);
        appendf(out, ",\"args\":{\"cls\":%u,\"detail\":%u}}", r.cls,
                r.bytes);
        break;
      case RecordKind::kRegionState:
        comma();
        appendf(out,
                "{\"name\":\"region %u level\",\"ph\":\"C\",\"pid\":%u,"
                "\"ts\":",
                r.node, kHybridRegionsPid);
        append_ts(out, r.t_ps);
        appendf(out, ",\"args\":{\"packet\":%u}}", r.bytes);
        break;
    }
  }
  // Close spans still open at the window's end (a deadlocked cycle's whole
  // point is that its pauses never release).
  for (const auto& [key, since] : open_pauses) {
    (void)since;
    comma();
    appendf(out, "{\"ph\":\"E\",\"pid\":%u,\"tid\":%d,\"ts\":", key.first,
            key.second);
    append_ts(out, last_ts);
    out += '}';
  }
  // Causality arrows: a legacy flow start inside the cause span bound to a
  // finish (bt=e: bind to the enclosing slice) inside the effect span.
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const FlowArrow& a = flows[i];
    comma();
    appendf(out,
            "{\"name\":\"pause cascade\",\"cat\":\"forensics\",\"ph\":\"s\","
            "\"id\":%zu,\"pid\":%u,\"tid\":%d,\"ts\":",
            i + 1, a.from_node, tid_of(a.from_port, a.from_cls));
    append_ts(out, a.from_ts_ps);
    out += '}';
    comma();
    appendf(out,
            "{\"name\":\"pause cascade\",\"cat\":\"forensics\",\"ph\":\"f\","
            "\"bt\":\"e\",\"id\":%zu,\"pid\":%u,\"tid\":%d,\"ts\":",
            i + 1, a.to_node, tid_of(a.to_port, a.to_cls));
    append_ts(out, a.to_ts_ps);
    out += '}';
  }
  out += "\n]}\n";
  return out;
}

namespace {

void append_record_jsonl(std::string& out, const TraceRecord& r) {
  appendf(out, "{\"t_ps\":%" PRId64 ",\"kind\":\"%s\"", r.t_ps,
          to_string(r.kind));
  switch (r.kind) {
    case RecordKind::kPfcXoff:
    case RecordKind::kPfcXon:
      appendf(out, ",\"node\":%u,\"port\":%u,\"cls\":%u", r.node, r.port,
              r.cls);
      break;
    case RecordKind::kQueueBytes:
      appendf(out, ",\"node\":%u,\"port\":%u,\"cls\":%u,\"bytes\":%u",
              r.node, r.port, r.cls, r.bytes);
      break;
    case RecordKind::kTxStart:
      appendf(out, ",\"node\":%u,\"port\":%u,\"cls\":%u,\"flow\":%u,"
              "\"bytes\":%u",
              r.node, r.port, r.cls, r.flow, r.bytes);
      break;
    case RecordKind::kDelivered:
      appendf(out, ",\"node\":%u,\"cls\":%u,\"flow\":%u,\"bytes\":%u",
              r.node, r.cls, r.flow, r.bytes);
      break;
    case RecordKind::kDropped:
      appendf(out,
              ",\"node\":%u,\"cls\":%u,\"flow\":%u,\"bytes\":%u,"
              "\"reason\":\"%s\"",
              r.node, r.cls, r.flow, r.bytes,
              to_string(static_cast<DropReason>(r.reason)));
      break;
    case RecordKind::kCnp:
      appendf(out, ",\"flow\":%u", r.flow);
      break;
    case RecordKind::kDataplaneDetect:
    case RecordKind::kDataplaneRecover:
      appendf(out, ",\"node\":%u,\"cls\":%u,\"event\":\"%s\",\"detail\":%u",
              r.node, r.cls,
              to_string(static_cast<dataplane::DataplaneEvent>(r.reason)),
              r.bytes);
      break;
    case RecordKind::kRegionState:
      appendf(out, ",\"region\":%u,\"level\":\"%s\"", r.node,
              r.bytes != 0 ? "packet" : "fluid");
      break;
  }
  out += "}\n";
}

/// The header's optional topology field: enough to rebuild adjacency (and
/// pause-propagation delays) offline. Links are in add order, so replaying
/// them reproduces the original port numbering exactly.
void append_topology_field(std::string& out, const Topology& topo) {
  out += ",\"topology\":{\"nodes\":[";
  for (NodeId n = 0; n < topo.node_count(); ++n) {
    const NodeSpec& spec = topo.node(n);
    appendf(out, "%s{\"kind\":\"%s\",\"name\":", n == 0 ? "" : ",",
            spec.kind == NodeKind::kSwitch ? "switch" : "host");
    json::append_quoted(out, spec.name);
    out += '}';
  }
  out += "],\"links\":[";
  for (std::uint32_t l = 0; l < topo.link_count(); ++l) {
    const LinkSpec& link = topo.link(l);
    appendf(out, "%s{\"a\":%u,\"b\":%u,\"delay_ps\":%" PRId64 "}",
            l == 0 ? "" : ",", link.a, link.b, link.delay.ps());
  }
  out += "]}";
}

}  // namespace

std::string to_jsonl(const Topology& topo,
                     const std::vector<TraceRecord>& records) {
  std::string out;
  out.reserve(records.size() * 80 + 128);
  appendf(out, "{\"schema\":\"%s\",\"record_count\":%zu", kTelemetrySchema,
          records.size());
  append_topology_field(out, topo);
  out += "}\n";
  for (const TraceRecord& r : records) append_record_jsonl(out, r);
  return out;
}

std::string post_mortem_jsonl(const Topology& topo,
                              const FlightRecorder& recorder,
                              const std::vector<stats::QueueKey>& cycle,
                              Time detected_at, std::size_t window) {
  const std::vector<TraceRecord> records = recorder.last(window);
  std::string out;
  out.reserve(records.size() * 80 + 256);
  appendf(out,
          "{\"schema\":\"%s\",\"post_mortem\":true,\"detected_at_ps\":"
          "%" PRId64 ",\"records_dropped\":%" PRIu64 ",\"record_count\":%zu,"
          "\"cycle\":[",
          kTelemetrySchema, detected_at.ps(),
          recorder.total_recorded() - records.size(), records.size());
  for (std::size_t i = 0; i < cycle.size(); ++i) {
    appendf(out, "%s{\"node\":%u,\"port\":%u,\"cls\":%u}",
            i == 0 ? "" : ",", cycle[i].node, cycle[i].port, cycle[i].cls);
  }
  out += ']';
  append_topology_field(out, topo);
  out += "}\n";
  for (const TraceRecord& r : records) append_record_jsonl(out, r);
  return out;
}

}  // namespace dcdl::telemetry
