#include "dcdl/forensics/trace_io.hpp"

#include <cstdio>
#include <limits>
#include <stdexcept>

#include "dcdl/dataplane/dataplane.hpp"
#include "dcdl/device/trace.hpp"

namespace dcdl::forensics {

namespace {

[[noreturn]] void fail(std::size_t line_no, const std::string& why) {
  throw std::runtime_error("dcdl.telemetry.v1 parse error at line " +
                           std::to_string(line_no) + ": " + why);
}

/// `"key":<integer>` scan inside one line/object; nullopt when absent. A
/// magnitude beyond int64_t fails the parse instead of overflowing.
std::optional<std::int64_t> find_int(const std::string& s, const char* key,
                                     std::size_t line_no) {
  const std::string needle = std::string("\"") + key + "\":";
  const std::size_t at = s.find(needle);
  if (at == std::string::npos) return std::nullopt;
  std::size_t p = at + needle.size();
  bool neg = false;
  if (p < s.size() && s[p] == '-') {
    neg = true;
    ++p;
  }
  if (p >= s.size() || s[p] < '0' || s[p] > '9') return std::nullopt;
  std::int64_t v = 0;
  while (p < s.size() && s[p] >= '0' && s[p] <= '9') {
    const int digit = s[p] - '0';
    if (v > (std::numeric_limits<std::int64_t>::max() - digit) / 10) {
      fail(line_no, std::string("\"") + key + "\" out of range");
    }
    v = v * 10 + digit;
    ++p;
  }
  return neg ? -v : v;
}

/// `"key":"<value>"` scan; nullopt when absent.
std::optional<std::string> find_string(const std::string& s, const char* key,
                                       std::size_t from = 0) {
  const std::string needle = std::string("\"") + key + "\":\"";
  const std::size_t at = s.find(needle, from);
  if (at == std::string::npos) return std::nullopt;
  const std::size_t begin = at + needle.size();
  const std::size_t end = s.find('"', begin);
  if (end == std::string::npos) return std::nullopt;
  return s.substr(begin, end - begin);
}

/// The balanced-bracket region starting at s[open] (which must be '[' or
/// '{'); returns the content between the brackets.
std::string bracket_region(const std::string& s, std::size_t open,
                           char open_ch, char close_ch) {
  int depth = 0;
  for (std::size_t p = open; p < s.size(); ++p) {
    if (s[p] == open_ch) ++depth;
    if (s[p] == close_ch && --depth == 0) {
      return s.substr(open + 1, p - open - 1);
    }
  }
  return std::string();
}

/// Splits a "{...},{...},..." array body into its top-level objects.
std::vector<std::string> split_objects(const std::string& body) {
  std::vector<std::string> out;
  int depth = 0;
  std::size_t begin = 0;
  for (std::size_t p = 0; p < body.size(); ++p) {
    if (body[p] == '{') {
      if (depth == 0) begin = p;
      ++depth;
    } else if (body[p] == '}') {
      if (--depth == 0) out.push_back(body.substr(begin, p - begin + 1));
    }
  }
  return out;
}

void parse_topology(const std::string& header, LoadedTrace& out) {
  const std::size_t at = header.find("\"topology\":");
  if (at == std::string::npos) return;
  const std::size_t open = header.find('{', at);
  if (open == std::string::npos) fail(1, "malformed topology header");
  const std::string body = bracket_region(header, open, '{', '}');

  const std::size_t nodes_at = body.find("\"nodes\":");
  const std::size_t links_at = body.find("\"links\":");
  if (nodes_at == std::string::npos || links_at == std::string::npos) {
    fail(1, "topology header missing nodes/links");
  }
  const std::string nodes = bracket_region(
      body, body.find('[', nodes_at), '[', ']');
  for (const std::string& obj : split_objects(nodes)) {
    const auto kind = find_string(obj, "kind");
    const std::string name = find_string(obj, "name").value_or("");
    if (!kind) fail(1, "topology node without kind");
    if (*kind == "switch") {
      out.topo.add_switch(name);
    } else {
      out.topo.add_host(name);
    }
  }
  // Links replay in add order, reproducing the original per-node port
  // numbering exactly (ports are assigned sequentially by add_link).
  const std::string links = bracket_region(
      body, body.find('[', links_at), '[', ']');
  for (const std::string& obj : split_objects(links)) {
    const auto a = find_int(obj, "a", 1);
    const auto b = find_int(obj, "b", 1);
    const auto delay = find_int(obj, "delay_ps", 1).value_or(0);
    if (!a || !b) fail(1, "topology link without endpoints");
    const auto nodes = static_cast<std::int64_t>(out.topo.node_count());
    if (*a < 0 || *a >= nodes || *b < 0 || *b >= nodes) {
      fail(1, "topology link endpoint is not a declared node");
    }
    if (*a == *b) fail(1, "topology link joins a node to itself");
    if (delay < 0) fail(1, "topology link with negative delay_ps");
    out.topo.add_link(static_cast<NodeId>(*a), static_cast<NodeId>(*b),
                      Rate::gbps(40), Time{delay});
  }
  out.has_topology = true;
}

void parse_cycle(const std::string& header, LoadedTrace& out) {
  const std::size_t at = header.find("\"cycle\":");
  if (at == std::string::npos) return;
  const std::string body = bracket_region(
      header, header.find('[', at), '[', ']');
  for (const std::string& obj : split_objects(body)) {
    const auto node = find_int(obj, "node", 1);
    const auto port = find_int(obj, "port", 1);
    const auto cls = find_int(obj, "cls", 1);
    if (!node || !port || !cls) fail(1, "malformed cycle entry");
    out.cycle.push_back(QueueKey{static_cast<NodeId>(*node),
                                 static_cast<PortId>(*port),
                                 static_cast<ClassId>(*cls)});
  }
}

std::optional<telemetry::RecordKind> kind_from_name(const std::string& name) {
  for (int k = 0; k < telemetry::kNumRecordKinds; ++k) {
    const auto kind = static_cast<telemetry::RecordKind>(k);
    if (name == telemetry::to_string(kind)) return kind;
  }
  return std::nullopt;
}

std::uint8_t reason_from_name(const std::string& name, std::size_t line_no) {
  for (int r = 0; r < kNumDropReasons; ++r) {
    if (name == to_string(static_cast<DropReason>(r))) {
      return static_cast<std::uint8_t>(r);
    }
  }
  fail(line_no, "unknown drop reason '" + name + "'");
}

std::uint8_t dataplane_event_from_name(const std::string& name,
                                       std::size_t line_no) {
  for (int e = 0;
       e <= static_cast<int>(dataplane::DataplaneEvent::kRearmed); ++e) {
    if (name ==
        dataplane::to_string(static_cast<dataplane::DataplaneEvent>(e))) {
      return static_cast<std::uint8_t>(e);
    }
  }
  fail(line_no, "unknown dataplane event '" + name + "'");
}

}  // namespace

LoadedTrace parse_jsonl(const std::string& content) {
  LoadedTrace out;
  std::size_t pos = 0, line_no = 0;
  while (pos < content.size()) {
    std::size_t eol = content.find('\n', pos);
    if (eol == std::string::npos) eol = content.size();
    const std::string line = content.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    if (line.empty()) continue;

    if (line_no == 1) {
      if (line.find("\"schema\":\"dcdl.telemetry.v1\"") ==
          std::string::npos) {
        fail(1, "not a dcdl.telemetry.v1 dump (schema header missing)");
      }
      out.post_mortem = line.find("\"post_mortem\":true") !=
                        std::string::npos;
      out.detected_at_ps = find_int(line, "detected_at_ps", 1);
      parse_cycle(line, out);
      parse_topology(line, out);
      continue;
    }

    telemetry::TraceRecord r;
    const auto t = find_int(line, "t_ps", line_no);
    const auto kind_name = find_string(line, "kind");
    if (!t || !kind_name) fail(line_no, "record without t_ps/kind");
    const auto kind = kind_from_name(*kind_name);
    if (!kind) fail(line_no, "unknown record kind '" + *kind_name + "'");
    const auto field = [&](const char* key, std::int64_t fallback = 0) {
      return find_int(line, key, line_no).value_or(fallback);
    };
    r.t_ps = *t;
    r.kind = *kind;
    r.node = static_cast<std::uint32_t>(field("node"));
    r.flow = static_cast<std::uint32_t>(field("flow"));
    r.bytes = static_cast<std::uint32_t>(field("bytes"));
    r.port = static_cast<std::uint16_t>(field("port", kInvalidPort));
    r.cls = static_cast<std::uint8_t>(field("cls"));
    if (*kind == telemetry::RecordKind::kDropped) {
      const auto reason = find_string(line, "reason");
      if (!reason) fail(line_no, "drop record without reason");
      r.reason = reason_from_name(*reason, line_no);
    } else if (*kind == telemetry::RecordKind::kDataplaneDetect ||
               *kind == telemetry::RecordKind::kDataplaneRecover) {
      // The exporter renders these as "event"/"detail" rather than raw
      // reason/bytes; restore both so the round trip is a fixed point.
      const auto event = find_string(line, "event");
      if (!event) fail(line_no, "dataplane record without event");
      r.reason = dataplane_event_from_name(*event, line_no);
      r.bytes = static_cast<std::uint32_t>(field("detail"));
    } else if (*kind == telemetry::RecordKind::kRegionState) {
      // Rendered as "region"/"level"; node carries the region index and
      // bytes the direction (1 = escalated to packet).
      r.node = static_cast<std::uint32_t>(field("region"));
      r.bytes = find_string(line, "level").value_or("fluid") == "packet";
    }
    out.records.push_back(r);
  }
  if (line_no == 0) fail(1, "empty input");
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
