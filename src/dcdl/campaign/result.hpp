// Structured campaign results: one record per run, aggregated into
// machine-readable JSON and CSV artifacts with a versioned schema.
//
// Determinism contract: everything serialized by default depends only on the
// sweep spec and root seed — never on wall clock, thread count, or
// scheduling — so re-running a campaign diffs clean. Wall-clock accounting
// exists on every record but is only serialized under
// WriteOptions::include_timing.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "dcdl/campaign/registry.hpp"
#include "dcdl/campaign/sweep.hpp"
#include "dcdl/net/packet.hpp"

namespace dcdl::campaign {

/// Schema identifier embedded in every JSON artifact; bump on any
/// backwards-incompatible field change and document in DESIGN.md.
/// v2: every ok run carries a "telemetry" object — the uniform metrics
/// snapshot (net.* counters, sim.* engine gauges) taken at stop time.
/// v3: ok runs additionally carry the in-band dataplane columns
/// "detection_latency_ns", "recovery_time_ns" (-1 = no such event) and
/// "false_positive". Additive: v1/v2 readers keying on known field names
/// parse v3 artifacts unchanged.
/// v4: ok runs carry the hybrid-engine columns "hybrid_mode" ("off" /
/// "static" / "risk"), "zoom_events" (region escalations + de-escalations)
/// and "fluid_fraction" (share of flow-time integrated at fluid level).
/// Additive over v3 in the same way.
/// v5: ok runs carry a "probe" object — the dcdl::probe summary (series
/// max/mean plus FCT / PFC-pause / detection / recovery / hop-wait
/// histogram percentiles) captured at stop time. Additive over v4; the CSV
/// layout is unchanged (probe values live in the JSON only).
/// v6: ok runs carry an "alerts" object — the dcdl::watch early-warning
/// summary (emitted fire counts by severity, first-fire times, per-rule
/// fire counts, per-signal maxima, and "lead_ms" — the DeadlockMonitor
/// confirmation instant minus the first critical alert — when both exist).
/// The probe object additionally gains p999_us percentile columns.
/// Additive over v5 in the same JSON-only way; the CSV layout is
/// unchanged.
inline constexpr const char* kResultSchema = "dcdl.campaign.v6";

enum class RunStatus {
  kOk,         ///< ran to completion
  kFailed,     ///< factory/simulation raised (exception or contract breach)
  kTimeout,    ///< per-run wall-clock budget exceeded; metrics partial
  kCancelled,  ///< campaign cancelled before/while this run executed
};
const char* to_string(RunStatus status);

struct RunRecord {
  int run_index = 0;
  int cell_index = 0;
  int seed_index = 0;
  std::string scenario;
  ParamMap params;
  std::uint64_t seed = 0;

  RunStatus status = RunStatus::kCancelled;
  std::string error;  ///< failure description when status == kFailed

  // Core metrics (valid when status == kOk).
  bool deadlocked = false;
  double detect_ms = -1;  ///< online detection time; -1 = never confirmed
  std::int64_t trapped_bytes = 0;
  double goodput_gbps = 0;  ///< aggregate delivered*8/run_for at stop time
  std::uint64_t pause_assertions = 0;  ///< Xoff count up to stop time
  /// In-band dataplane pipeline (schema v3; all -1/false when it is off).
  double detection_latency_ns = -1;  ///< first in-band confirm; -1 = none
  double recovery_time_ns = -1;  ///< first recovery minus confirm; -1 = none
  /// The pipeline confirmed a cycle in a run that did not deadlock and
  /// took no recovery action — the confirmation itself was spurious.
  bool false_positive = false;
  /// Hybrid fluid/packet engine (schema v4; "off"/0/0 when it is off).
  std::string hybrid_mode = "off";
  std::uint64_t zoom_events = 0;   ///< region escalations + de-escalations
  double fluid_fraction = 0;       ///< flow-time share at fluid level
  std::vector<std::pair<FlowId, std::int64_t>> delivered;  ///< per flow
  /// Scenario-specific metrics from the ScenarioDef instrument hook.
  MetricSink metrics;
  /// Simulator events executed (deterministic for a given spec+seed).
  std::uint64_t events = 0;
  /// The uniform telemetry snapshot (name -> value, registration order),
  /// sampled at stop time — see telemetry::RunTelemetry — followed by
  /// forensics::summary of the whole pause history. Like every serialized
  /// field, deterministic for a given spec+seed.
  std::vector<std::pair<std::string, double>> telemetry;
  /// Time-series probe summary (schema v5): series max/mean and latency
  /// histogram percentiles, flattened name -> value in emission order.
  /// Captured at the same stop instant as `telemetry`; JSON-only (the CSV
  /// column set is unchanged).
  std::vector<std::pair<std::string, double>> probe;
  /// Early-warning alert summary (schema v6): dcdl::watch's digest plus
  /// "lead_ms" when both a critical alert and a monitor confirmation
  /// happened. Same stop-instant capture and JSON-only story as `probe`.
  std::vector<std::pair<std::string, double>> alerts;

  // Wall-clock accounting — excluded from artifacts by default.
  double wall_ms = 0;
};

struct CampaignResult {
  std::uint64_t root_seed = 0;
  std::vector<RunRecord> records;  ///< in run_index order

  // Timing-only (never in deterministic artifacts).
  double total_wall_ms = 0;
  int jobs = 1;

  std::size_t count(RunStatus status) const;
};

struct WriteOptions {
  /// Adds per-run "timing" objects and a campaign "timing" header. Off by
  /// default: timing is nondeterministic and would break artifact diffing.
  bool include_timing = false;
};

std::string to_json(const CampaignResult& result, const WriteOptions& = {});
/// One record as a standalone JSON object (same field layout as an entry of
/// "runs"); the standalone-reproduction story for a single cell.
std::string run_to_json(const RunRecord& record, const WriteOptions& = {});

/// Flat table: core columns, then every param column, then every
/// scenario-metric column (union across records, sorted by name).
std::string to_csv(const CampaignResult& result);

/// Overwrites `path` with `content`; throws CampaignError on I/O failure.
void write_text_file(const std::string& path, const std::string& content);

/// Creates `dir` (and parents) and verifies it is writable by probing a
/// temporary file; throws CampaignError otherwise. The shared front door
/// for every CLI `--trace`/output directory, so an unwritable path fails
/// fast with one clear message instead of a per-artifact I/O error
/// mid-sweep.
void ensure_output_dir(const std::string& dir);

}  // namespace dcdl::campaign
