#include "dcdl/forensics/report.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>

namespace dcdl::forensics {

namespace {

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

/// "switch s2" / "host h0" / "node 7" — matching the Perfetto labels.
std::string node_name(const CascadeReport& report, NodeId id) {
  const auto it = report.nodes.find(id);
  if (it == report.nodes.end()) return "node " + std::to_string(id);
  const char* kind = it->second.second ? "switch" : "host";
  if (it->second.first.empty()) {
    return std::string(kind) + " " + std::to_string(id);
  }
  return std::string(kind) + " " + it->second.first;
}

std::string queue_name(const CascadeReport& report, const QueueKey& q) {
  return node_name(report, q.node) + " port " + std::to_string(q.port) +
         " class " + std::to_string(q.cls);
}

double ms(std::int64_t ps) { return static_cast<double>(ps) / 1e9; }

}  // namespace

std::string to_text(const CascadeReport& report, const TextOptions& opts) {
  std::string out;
  appendf(out,
          "forensics: %zu pause span(s) in %zu cascade(s), window "
          "[0, %.3f ms]\n",
          report.spans.size(), report.components.size(),
          ms(report.window_end_ps));
  if (report.spans.empty()) {
    out += "  no pause activity observed\n";
    return out;
  }

  if (report.deadlock_at_ps) {
    appendf(out, "deadlock: confirmed at t=%.3f ms, wait-for cycle of %zu "
            "queue(s):\n",
            ms(*report.deadlock_at_ps), report.deadlock_cycle.size());
    for (const QueueKey& q : report.deadlock_cycle) {
      appendf(out, "  %s\n", queue_name(report, q).c_str());
    }
  } else {
    out += "deadlock: none confirmed in this window\n";
  }

  if (const auto trigger = report.initial_trigger()) {
    const PauseSpan& t = report.spans[*trigger];
    const CascadeComponent& comp =
        report.components[static_cast<std::size_t>(t.component)];
    appendf(out, "initial trigger: %s at t=%.3f ms (%s origin)\n",
            queue_name(report, t.queue).c_str(), ms(t.start_ps),
            to_string(comp.trigger));
    if (t.bytes_at_assert > 0) {
      appendf(out, "  queue held %u bytes at the Xoff crossing\n",
              t.bytes_at_assert);
    }
    appendf(out, "  cascade depth %d, width %d, %u span(s)",
            comp.max_depth, comp.max_width, comp.span_count);
    if (report.time_to_deadlock_ps >= 0) {
      appendf(out, "; time-to-deadlock %.3f ms",
              ms(report.time_to_deadlock_ps));
    }
    out += '\n';
  }

  for (std::size_t c = 0; c < report.components.size(); ++c) {
    if (c >= opts.max_components) {
      appendf(out, "  ... %zu further cascade(s) elided\n",
              report.components.size() - c);
      break;
    }
    const CascadeComponent& comp = report.components[c];
    const PauseSpan& root = report.spans[comp.root];
    appendf(out,
            "cascade %zu: trigger %s at t=%.3f ms (%s origin), depth %d, "
            "width %d, %u span(s), %zu independent origin(s)%s\n",
            c, queue_name(report, root.queue).c_str(), ms(root.start_ps),
            to_string(comp.trigger), comp.max_depth, comp.max_width,
            comp.span_count, comp.roots.size(),
            comp.contains_deadlock_cycle ? " [holds the deadlock cycle]"
                                         : "");
  }

  out += "pause-storm fan-out:";
  for (std::size_t k = 0; k < report.fanout_hist.size(); ++k) {
    appendf(out, " %zu->%" PRIu64, k, report.fanout_hist[k]);
  }
  out += '\n';
  return out;
}

std::string to_dot(const CascadeReport& report) {
  std::string out;
  out += "digraph pause_cascade {\n";
  out += "  rankdir=LR;\n";
  out += "  node [shape=box, fontname=\"monospace\", fontsize=10];\n";
  for (std::size_t i = 0; i < report.spans.size(); ++i) {
    const PauseSpan& s = report.spans[i];
    appendf(out, "  s%zu [label=\"%s\\n", i,
            queue_name(report, s.queue).c_str());
    if (s.end_ps >= 0) {
      appendf(out, "[%.3f, %.3f) ms", ms(s.start_ps), ms(s.end_ps));
    } else {
      appendf(out, "[%.3f ms, never released)", ms(s.start_ps));
    }
    appendf(out, "\\ndepth %d", s.depth);
    if (s.bytes_at_assert > 0) appendf(out, ", %u B", s.bytes_at_assert);
    out += '"';
    if (s.in_deadlock_cycle) out += ", color=red, penwidth=2";
    if (s.causes.empty()) out += ", peripheries=2";
    out += "];\n";
  }
  for (std::size_t i = 0; i < report.spans.size(); ++i) {
    for (const std::uint32_t e : report.spans[i].effects) {
      appendf(out, "  s%zu -> s%u", i, e);
      if (report.spans[i].in_deadlock_cycle &&
          report.spans[e].in_deadlock_cycle) {
        out += " [color=red, penwidth=2]";
      }
      out += ";\n";
    }
  }
  out += "}\n";
  return out;
}

std::vector<telemetry::FlowArrow> flow_arrows(const CascadeReport& report) {
  std::vector<telemetry::FlowArrow> arrows;
  for (const PauseSpan& s : report.spans) {
    for (const std::uint32_t e : s.effects) {
      const PauseSpan& effect = report.spans[e];
      telemetry::FlowArrow a;
      a.from_node = s.queue.node;
      a.from_port = s.queue.port;
      a.from_cls = s.queue.cls;
      a.from_ts_ps = s.start_ps;
      a.to_node = effect.queue.node;
      a.to_port = effect.queue.port;
      a.to_cls = effect.queue.cls;
      a.to_ts_ps = effect.start_ps;
      arrows.push_back(a);
    }
  }
  return arrows;
}

std::vector<std::pair<std::string, double>> summary(
    const CascadeReport& report) {
  int max_depth = 0, max_width = 0;
  int loops = 0, hosts = 0, congestion = 0;
  for (const CascadeComponent& c : report.components) {
    max_depth = std::max(max_depth, c.max_depth);
    max_width = std::max(max_width, c.max_width);
    switch (c.trigger) {
      case TriggerKind::kRoutingLoop: ++loops; break;
      case TriggerKind::kHostPause: ++hosts; break;
      case TriggerKind::kCongestionCascade: ++congestion; break;
    }
  }
  const auto spans = static_cast<double>(report.spans.size());
  double fanout = 0;
  for (const PauseSpan& s : report.spans) {
    fanout += static_cast<double>(s.effects.size());
  }
  return {
      {"forensics.pause_spans", spans},
      {"forensics.cascades", static_cast<double>(report.components.size())},
      {"forensics.cascade_max_depth", max_depth},
      {"forensics.cascade_max_width", max_width},
      {"forensics.triggers.routing_loop", loops},
      {"forensics.triggers.host_pause", hosts},
      {"forensics.triggers.congestion", congestion},
      {"forensics.time_to_deadlock_ms",
       report.time_to_deadlock_ps < 0
           ? -1.0
           : static_cast<double>(report.time_to_deadlock_ps) / 1e9},
      {"forensics.fanout.count", spans},
      {"forensics.fanout.sum", fanout},
      {"forensics.fanout.mean", spans > 0 ? fanout / spans : 0},
  };
}

}  // namespace dcdl::forensics
