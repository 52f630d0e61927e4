// Offline trace loading: parses a `dcdl.telemetry.v1` JSONL dump (regular
// or post-mortem) back into TraceRecords, and — when the writer embedded
// the topology in the header (telemetry::to_jsonl(topo, ...), the default
// for every CLI since the forensics PR) — rebuilds the Topology so the
// causal analysis can run anywhere, long after the simulation exited.
//
// Each line goes through the strict json::parse. Record and cycle fields
// are range-checked (node and port against the header's topology, or their
// widths without one; class below kMaxClasses; flow and bytes as uint32),
// and the header's record_count must match the records read. Malformed
// input throws std::runtime_error naming the offending line.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "dcdl/forensics/causality.hpp"

namespace dcdl::forensics {

struct LoadedTrace {
  Topology topo;
  /// The header carried a topology; without it the causal DAG cannot be
  /// built (input_from_trace throws).
  bool has_topology = false;
  std::vector<telemetry::TraceRecord> records;

  // Post-mortem headers additionally carry the monitor's verdict.
  bool post_mortem = false;
  std::vector<QueueKey> cycle;
  std::optional<std::int64_t> detected_at_ps;
};

/// Parses an in-memory dump (header line + record lines).
LoadedTrace parse_jsonl(const std::string& content);
/// Reads and parses a dump file; throws std::runtime_error on I/O failure.
LoadedTrace load_jsonl_file(const std::string& path);

/// Analysis input from a loaded trace, deadlock verdict included. Throws
/// std::runtime_error when the dump has no topology header.
CausalInput input_from_trace(const LoadedTrace& trace);

}  // namespace dcdl::forensics
