// Exporters for the probe layer.
//
//   * `dcdl.timeseries.v1` JSONL: one header object (schema, interval,
//     series directory), one row object per retained tick, then one object
//     per histogram with exact count/sum/min/max, bounded-error
//     p50/p90/p99/p999, and the non-empty (upper_edge, count) bucket list.
//     The artifact is byte-identical across --jobs x --shards.
//
//   * Perfetto counter tracks: a standalone trace-event JSON with one "C"
//     event per series per tick under a synthetic "probe" process, ready
//     to load next to the telemetry exporter's pause spans.
//
// Doubles are rendered with campaign::format_double (shortest-round-trip
// std::to_chars), the same writer the campaign artifacts use, so equality
// of inputs means equality of bytes.
#pragma once

#include <string>

#include "dcdl/probe/probe.hpp"

namespace dcdl::probe {

inline constexpr const char* kTimeseriesSchema = "dcdl.timeseries.v1";

std::string to_timeseries_jsonl(const RunProbe& probe);

/// Perfetto counter tracks for the sampled series.
std::string to_perfetto_counters(const RunProbe& probe);

}  // namespace dcdl::probe
