// Thread-pool campaign executor.
//
// Every Simulator is an independent single-threaded deterministic engine, so
// a campaign of N runs is embarrassingly parallel: workers pull run specs
// off an atomic cursor and write records into pre-assigned slots — no locks
// on the result path, and the record order (hence every artifact byte)
// depends only on the spec order.
//
// Robustness: each run is guarded by
//   - graceful failure capture: exceptions AND dcdl contract violations
//     inside one run become status=failed records instead of aborting the
//     campaign (see detail::contract_handler);
//   - a cooperative cancellation/timeout guard: a recurring simulator event
//     checks the campaign's cancel flag and the per-run wall-clock budget,
//     stopping runs that deadlock-and-spin without preempting any thread.
#pragma once

#include <atomic>
#include <functional>

#include "dcdl/campaign/result.hpp"
#include "dcdl/forensics/causality.hpp"
#include "dcdl/hybrid/hybrid.hpp"
#include "dcdl/probe/probe.hpp"
#include "dcdl/watch/watch.hpp"

namespace dcdl::campaign {

struct ExecutorOptions {
  /// Worker threads; 0 = std::thread::hardware_concurrency().
  int jobs = 0;
  /// Per-run wall-clock budget in ms; 0 = unlimited. A tripped budget
  /// yields status=timeout (inherently nondeterministic — leave at 0 when
  /// byte-stable artifacts matter).
  double run_wall_budget_ms = 0;
  /// Simulated-time cadence of the cancellation/timeout guard event.
  Time guard_poll = Time{1'000'000'000};  // 1 ms
  /// Shards per run (>= 1): at 1 each run executes on its job's thread; at
  /// S >= 2 on up to S worker threads. Records are byte-identical for every
  /// value (shards never appear in the campaign JSON). Composes
  /// multiplicatively with `jobs` — a campaign at jobs=J, shards=S runs up
  /// to J*S worker threads, so shard wide runs with few jobs, or keep
  /// shards=1 when the campaign itself saturates the cores.
  int shards = 1;
  /// Hybrid fluid/packet engine configuration applied to every run
  /// (mode kOff — the default — is pure packet simulation and leaves the
  /// event stream untouched). When on, each run gets its own
  /// HybridController and the record carries the schema-v4 columns
  /// hybrid_mode / zoom_events / fluid_fraction.
  hybrid::HybridConfig hybrid;
  /// Time-series probe sampling interval (dcdl::probe), and the watch's
  /// too (it replaces `watch.interval`). The sampler is always on: it
  /// rides the externally visible simulator (the engine's control sim), so
  /// its events land at window barriers and the series are byte-identical
  /// across --jobs and --shards. Every ok record carries the probe summary
  /// (schema v5); with trace_dir set, each run additionally writes
  /// `run_NNNNN.timeseries.jsonl` and `run_NNNNN.counters.json`.
  Time probe_interval = probe::kSampleInterval;
  /// Early-warning watcher configuration (dcdl::watch). Like the probe it
  /// is always on and rides the externally visible simulator, so the alert
  /// stream is byte-identical across --jobs and --shards. Every ok
  /// record carries the alert summary (schema v6); with trace_dir set,
  /// each run additionally writes `run_NNNNN.alerts.jsonl` and
  /// `run_NNNNN.alerts.perfetto.json`.
  watch::WatchOptions watch;
  /// Progress callback, invoked under a lock after each run completes.
  std::function<void(const RunRecord&)> on_run_done;

  /// Non-empty: every run attaches a flight recorder and writes into this
  /// existing directory, one file set per run_index (so artifacts are
  /// identical across --jobs counts):
  ///   `run_NNNNN.trace.json`            Perfetto trace with pause arrows
  ///   `run_NNNNN.telemetry.jsonl`       dcdl.telemetry.v1, replayable
  ///   `run_NNNNN.forensics.{txt,dot}`   whole-run post-mortem
  ///   `run_NNNNN.timeseries.jsonl`      dcdl.timeseries.v1
  ///   `run_NNNNN.counters.json`         probe series as Perfetto counters
  ///   `run_NNNNN.alerts.jsonl`          dcdl.alerts.v1
  ///   `run_NNNNN.alerts.perfetto.json`  alert instants for the timeline
  /// A run whose deadlock monitor confirms a cycle additionally writes
  /// `run_NNNNN.postmortem.jsonl` with the last-events window captured at
  /// the detection instant. The recorder keeps FlightRecorder's default
  /// ring; the post-mortem holds telemetry::kPostMortemWindow records.
  std::string trace_dir;
};

/// What a run computes but its record does not serialize, for a front end
/// that prints a whole-run report. Filled for an ok run only.
struct RunDetail {
  /// Forensic post-mortem over the whole pause history (run plus drain).
  forensics::CascadeReport forensics;
  /// In-band dataplane pipeline over the run and the drain.
  scenarios::DataplaneSummary dataplane;
  /// Hybrid engine (mode on only): regions and fluid flows at t=0, and the
  /// stats closed at stop time.
  int hybrid_regions = 0;
  std::size_t hybrid_fluid_at_start = 0;
  hybrid::HybridStats hybrid;
  /// Flight recorder (trace_dir set only): records in the exported window
  /// and records ever written.
  std::size_t trace_records = 0;
  std::uint64_t trace_recorded = 0;
};

/// Executes one spec synchronously on the calling thread. This is both the
/// worker body and the standalone single-cell reproduction entry point: the
/// record it returns is identical to the one a campaign produces for the
/// same spec (pass cancel = nullptr for standalone use). A non-null
/// `detail` receives what the record leaves out.
RunRecord execute_run(const ScenarioRegistry& registry, const RunSpec& spec,
                      const std::atomic<bool>* cancel = nullptr,
                      const ExecutorOptions& opts = {},
                      RunDetail* detail = nullptr);

class CampaignExecutor {
 public:
  explicit CampaignExecutor(const ScenarioRegistry& registry,
                            ExecutorOptions opts = {});

  /// Runs all specs; blocks until every run completed, failed, timed out,
  /// or was cancelled. records[i] corresponds to specs[i].
  CampaignResult run(const std::vector<RunSpec>& specs,
                     std::uint64_t root_seed = 0);

  /// Cooperative cancellation (callable from any thread, e.g. a signal
  /// context): in-flight runs stop at their next guard poll and are marked
  /// cancelled; queued runs are not started.
  void cancel() { cancel_.store(true, std::memory_order_relaxed); }

 private:
  const ScenarioRegistry& registry_;
  ExecutorOptions opts_;
  std::atomic<bool> cancel_{false};
};

}  // namespace dcdl::campaign
