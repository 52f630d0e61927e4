#include "dcdl/forensics/trace_io.hpp"

#include <cstdint>
#include <cstdio>
#include <stdexcept>

#include "dcdl/common/json.hpp"
#include "dcdl/dataplane/dataplane.hpp"
#include "dcdl/device/trace.hpp"

namespace dcdl::forensics {

namespace {

[[noreturn]] void fail(std::size_t line_no, const std::string& why) {
  throw std::runtime_error("dcdl.telemetry.v1 parse error at line " +
                           std::to_string(line_no) + ": " + why);
}

constexpr std::int64_t kU32Limit = std::int64_t{1} << 32;

/// The integer at `key`, or `fallback` when absent. A present value must lie
/// in [0, limit), so the narrowing cast at the call site never wraps.
std::int64_t bounded(const json::Value& obj, const char* key,
                     std::int64_t limit, std::int64_t fallback = 0) {
  const json::Value* v = obj.find(key);
  if (v == nullptr) return fallback;
  const std::int64_t x = v->as_int();
  if (x < 0 || x >= limit) {
    throw std::runtime_error(std::string("\"") + key + "\" " +
                             std::to_string(x) + " is outside [0, " +
                             std::to_string(limit) + ")");
  }
  return x;
}

/// Reads a queue's (node, port, cls) into `r`, an absent field keeping its
/// value. Node and port must exist in the header's topology (without one,
/// fit their fields); the class must be below kMaxClasses.
void read_queue(const json::Value& obj, const LoadedTrace& trace,
                telemetry::TraceRecord& r) {
  const Topology& topo = trace.topo;
  const auto nodes = static_cast<std::int64_t>(topo.node_count());
  r.node = static_cast<std::uint32_t>(
      bounded(obj, "node", trace.has_topology ? nodes : kU32Limit, r.node));
  std::int64_t ports = kInvalidPort + 1;  // the field's width
  if (trace.has_topology) {
    ports = r.node < nodes ? static_cast<std::int64_t>(topo.degree(r.node)) : 0;
  }
  r.port = static_cast<std::uint16_t>(bounded(obj, "port", ports, r.port));
  r.cls = static_cast<std::uint8_t>(bounded(obj, "cls", kMaxClasses, r.cls));
}

void read_topology(const json::Value& topo, LoadedTrace& out) {
  for (const json::Value& node : topo.at("nodes").items()) {
    const std::string& kind = node.at("kind").as_string();
    const json::Value* name = node.find("name");
    const std::string label = name ? name->as_string() : "";
    if (kind != "switch" && kind != "host") {
      throw std::runtime_error("topology node of unknown kind '" + kind + "'");
    }
    kind == "switch" ? out.topo.add_switch(label) : out.topo.add_host(label);
  }
  // Links replay in add order, reproducing the original per-node port
  // numbering exactly (ports are assigned sequentially by add_link).
  const auto nodes = static_cast<std::int64_t>(out.topo.node_count());
  for (const json::Value& link : topo.at("links").items()) {
    const std::int64_t a = link.at("a").as_int();
    const std::int64_t b = link.at("b").as_int();
    const std::int64_t delay = bounded(link, "delay_ps", INT64_MAX);
    if (a < 0 || a >= nodes || b < 0 || b >= nodes || a == b) {
      throw std::runtime_error("topology link must join two declared nodes");
    }
    out.topo.add_link(static_cast<NodeId>(a), static_cast<NodeId>(b),
                      Rate::gbps(40), Time{delay});
  }
  out.has_topology = true;
}

/// Reads the header; returns its record_count, or -1 when it has none.
std::int64_t read_header(const json::Value& h, LoadedTrace& out) {
  const json::Value* schema = h.find("schema");
  if (schema == nullptr || schema->as_string() != "dcdl.telemetry.v1") {
    throw std::runtime_error(
        "not a dcdl.telemetry.v1 dump (schema header missing)");
  }
  if (const json::Value* pm = h.find("post_mortem")) {
    out.post_mortem = pm->as_bool();
  }
  if (const json::Value* at = h.find("detected_at_ps")) {
    out.detected_at_ps = at->as_int();
  }
  if (const json::Value* topo = h.find("topology")) read_topology(*topo, out);
  if (const json::Value* cycle = h.find("cycle")) {
    for (const json::Value& q : cycle->items()) {
      telemetry::TraceRecord r;
      for (const char* key : {"node", "port", "cls"}) q.at(key);  // required
      read_queue(q, out, r);
      out.cycle.push_back(QueueKey{r.node, r.port, r.cls});
    }
  }
  return bounded(h, "record_count", INT64_MAX, -1);
}

template <typename Enum>
std::uint8_t code_of(const std::string& name, int count, const char* what) {
  for (int e = 0; e < count; ++e) {
    if (name == to_string(static_cast<Enum>(e))) {
      return static_cast<std::uint8_t>(e);
    }
  }
  throw std::runtime_error(std::string("unknown ") + what + " '" + name + "'");
}

telemetry::TraceRecord read_record(const json::Value& rec,
                                   const LoadedTrace& trace) {
  using telemetry::RecordKind;
  telemetry::TraceRecord r;
  r.t_ps = rec.at("t_ps").as_int();
  r.kind = static_cast<RecordKind>(code_of<RecordKind>(
      rec.at("kind").as_string(), telemetry::kNumRecordKinds, "record kind"));
  r.port = kInvalidPort;
  r.flow = static_cast<std::uint32_t>(bounded(rec, "flow", kU32Limit));
  r.bytes = static_cast<std::uint32_t>(bounded(rec, "bytes", kU32Limit));
  if (r.kind == RecordKind::kRegionState) {
    // Rendered as "region"/"level": node carries the region index (not a
    // NodeId, so not checked against the topology) and bytes the
    // direction (1 = escalated to packet).
    r.node = static_cast<std::uint32_t>(bounded(rec, "region", kU32Limit));
    const std::string& level = rec.at("level").as_string();
    if (level != "packet" && level != "fluid") {
      throw std::runtime_error("unknown region level '" + level + "'");
    }
    r.bytes = level == "packet";
    return r;
  }
  read_queue(rec, trace, r);
  if (r.kind == RecordKind::kDropped) {
    r.reason = code_of<DropReason>(rec.at("reason").as_string(),
                                   kNumDropReasons, "drop reason");
  } else if (r.kind == RecordKind::kDataplaneDetect ||
             r.kind == RecordKind::kDataplaneRecover) {
    // The exporter renders these as "event"/"detail" rather than raw
    // reason/bytes; restore both so the round trip is a fixed point.
    using dataplane::DataplaneEvent;
    r.reason = code_of<DataplaneEvent>(
        rec.at("event").as_string(),
        static_cast<int>(DataplaneEvent::kRearmed) + 1, "dataplane event");
    r.bytes = static_cast<std::uint32_t>(bounded(rec, "detail", kU32Limit));
  }
  return r;
}

}  // namespace

LoadedTrace parse_jsonl(const std::string& content) {
  LoadedTrace out;
  std::int64_t record_count = -1;
  std::size_t pos = 0, line_no = 0;
  while (pos < content.size()) {
    std::size_t eol = content.find('\n', pos);
    if (eol == std::string::npos) eol = content.size();
    const std::string_view line(content.data() + pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    if (line.empty() && line_no > 1) continue;
    try {
      const json::Value obj = json::parse(line);
      if (line_no == 1) {
        record_count = read_header(obj, out);
      } else {
        out.records.push_back(read_record(obj, out));
      }
    } catch (const std::runtime_error& e) {
      fail(line_no, e.what());
    }
  }
  if (line_no == 0) fail(1, "empty input");
  if (record_count >= 0 &&
      static_cast<std::size_t>(record_count) != out.records.size()) {
    fail(1, "header declares " + std::to_string(record_count) +
                " record(s), the dump holds " +
                std::to_string(out.records.size()));
  }
  return out;
}

LoadedTrace load_jsonl_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) {
    throw std::runtime_error("cannot open '" + path + "' for reading");
  }
  std::string content;
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    content.append(buf, n);
  }
  const bool bad = std::ferror(f) != 0;
  std::fclose(f);
  if (bad) throw std::runtime_error("read error on '" + path + "'");
  return parse_jsonl(content);
}

CausalInput input_from_trace(const LoadedTrace& trace) {
  if (!trace.has_topology) {
    throw std::runtime_error(
        "trace has no topology header; re-record it with a current "
        "dcdl_sim/dcdl_sweep (telemetry::to_jsonl(topo, ...)) so the causal "
        "DAG can be reconstructed offline");
  }
  CausalInput in = input_from_records(trace.topo, trace.records);
  in.deadlock_cycle = trace.cycle;
  in.deadlock_at_ps = trace.detected_at_ps;
  return in;
}

}  // namespace dcdl::forensics
