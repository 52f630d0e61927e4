// dcdl.alerts.v1 — serialized alert streams.
//
// Two artifacts per run:
//
//   * to_alerts_jsonl: one header line (schema, cadence, resolved rule
//     set), one line per emitted alert edge, one trailing summary line —
//     line-oriented so a partial file is still scannable. Everything in it
//     is a pure function of the scenario; the stream is byte-identical
//     for every --jobs x --shards.
//
//   * to_perfetto_alerts: the same edges as Perfetto instant events (a
//     "watch" pseudo-process), so alerts line up against the flight
//     recorder's spans and the probe's counter tracks on one timeline.
#pragma once

#include <string>

#include "dcdl/topo/topology.hpp"
#include "dcdl/watch/watch.hpp"

namespace dcdl::watch {

inline constexpr const char* kAlertsSchema = "dcdl.alerts.v1";

std::string to_alerts_jsonl(const RunWatch& watch, const Topology& topo);

std::string to_perfetto_alerts(const RunWatch& watch, const Topology& topo);

/// Human-readable node label for alert attribution: the topology name when
/// set, "n<id>" otherwise, "-" for no attribution (-1).
std::string node_label(const Topology& topo, std::int64_t node);

}  // namespace dcdl::watch
