// Exporters for flight-recorder windows.
//
//  - to_perfetto_json: Chrome trace_event JSON (load in chrome://tracing or
//    ui.perfetto.dev). Each switch renders as a process; each (port, class)
//    ingress queue as a thread whose PFC pause is a span and whose
//    occupancy is a counter track — the paper's Fig. 3 timelines,
//    interactive. CNPs and dataplane milestones render as instants, hybrid
//    zoom transitions as one counter per region; per-packet tx and
//    delivery records do not render (they would dwarf everything else).
//  - to_jsonl: the versioned `dcdl.telemetry.v1` line format — one header
//    line carrying the topology, then one JSON object per record — for
//    scripted and offline causal analysis (`dcdl_forensics`).
//  - post_mortem_jsonl: a JSONL dump whose header names the confirmed
//    wait-for cycle, emitted when the deadlock detector fires.
//
// All output is deterministic: field order is fixed, doubles are printed
// with fixed precision, and content depends only on the record stream.
#pragma once

#include <string>
#include <vector>

#include "dcdl/stats/pause_log.hpp"
#include "dcdl/telemetry/recorder.hpp"
#include "dcdl/topo/topology.hpp"

namespace dcdl::telemetry {

/// Schema tag of the JSONL dump header; bump on any field change.
inline constexpr const char* kTelemetrySchema = "dcdl.telemetry.v1";

struct PerfettoOptions {
  bool drop_instants = true;  ///< incl. TTL expiry ("drop ttl_expired")
  /// Explicit instant marker at every Xon, independent of the B/E span
  /// bookkeeping — a resume is visible even when the window opened
  /// mid-pause and the matching span begin was overwritten.
  bool xon_instants = true;
};

/// A cause -> effect arrow between two pause spans, rendered as a Chrome
/// trace_event flow (s/f event pair). Produced by forensics::flow_arrows
/// from the causality DAG; kept a plain struct here so the exporter does
/// not depend on the forensics layer.
struct FlowArrow {
  std::uint32_t from_node = 0;
  std::uint16_t from_port = 0;
  std::uint8_t from_cls = 0;
  std::int64_t from_ts_ps = 0;
  std::uint32_t to_node = 0;
  std::uint16_t to_port = 0;
  std::uint8_t to_cls = 0;
  std::int64_t to_ts_ps = 0;
};

/// Renders `records` (oldest first, as returned by FlightRecorder) as a
/// Chrome trace_event JSON object. `topo` supplies node names and kinds for
/// the process/thread metadata. `flows` draws cause->effect arrows between
/// pause spans (the forensic cascade, interactive).
std::string to_perfetto_json(const Topology& topo,
                             const std::vector<TraceRecord>& records,
                             const PerfettoOptions& opts = {},
                             const std::vector<FlowArrow>& flows = {});

/// `dcdl.telemetry.v1` JSONL: a header line with the topology (nodes +
/// links) embedded, so the dump is self-contained for offline causal
/// analysis (`dcdl_forensics`), then one object per record.
std::string to_jsonl(const Topology& topo,
                     const std::vector<TraceRecord>& records);

/// Records in a deadlock post-mortem dump (post_mortem_jsonl's window).
inline constexpr std::size_t kPostMortemWindow = 4096;

/// The deadlock post-mortem: the recorder's newest `window` records as
/// JSONL, with the confirmed cycle, detection time and topology in the
/// header.
std::string post_mortem_jsonl(const Topology& topo,
                              const FlightRecorder& recorder,
                              const std::vector<stats::QueueKey>& cycle,
                              Time detected_at,
                              std::size_t window = kPostMortemWindow);

}  // namespace dcdl::telemetry
