#include "dcdl/campaign/executor.hpp"

#include <chrono>
#include <cstdio>
#include <mutex>
#include <thread>

#include <optional>

#include "dcdl/analysis/deadlock.hpp"
#include "dcdl/common/contract.hpp"
#include "dcdl/forensics/forensics.hpp"
#include "dcdl/probe/export.hpp"
#include "dcdl/probe/probe.hpp"
#include "dcdl/sim/sharded.hpp"
#include "dcdl/sim/simulator.hpp"
#include "dcdl/stats/hooks.hpp"
#include "dcdl/stats/pause_log.hpp"
#include "dcdl/telemetry/telemetry.hpp"
#include "dcdl/watch/export.hpp"
#include "dcdl/watch/watch.hpp"

namespace dcdl::campaign {

namespace {

/// Thrown (per thread) in place of std::abort while a run executes.
struct ContractViolation : std::runtime_error {
  using std::runtime_error::runtime_error;
};

[[noreturn]] void throw_contract(const char* kind, const char* expr,
                                 const char* file, int line) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), "contract %s violated: %s at %s:%d", kind,
                expr, file, line);
  throw ContractViolation(buf);
}

/// Installs the throwing contract handler for the current scope/thread.
class ScopedContractCapture {
 public:
  ScopedContractCapture() : prev_(detail::contract_handler) {
    detail::contract_handler = &throw_contract;
  }
  ~ScopedContractCapture() { detail::contract_handler = prev_; }
  ScopedContractCapture(const ScopedContractCapture&) = delete;
  ScopedContractCapture& operator=(const ScopedContractCapture&) = delete;

 private:
  detail::ContractHandler prev_;
};

double elapsed_ms(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - since)
      .count();
}

}  // namespace

RunRecord execute_run(const ScenarioRegistry& registry, const RunSpec& spec,
                      const std::atomic<bool>* cancel,
                      const ExecutorOptions& opts, RunDetail* detail) {
  RunRecord rec;
  rec.run_index = spec.run_index;
  rec.cell_index = spec.cell_index;
  rec.seed_index = spec.seed_index;
  rec.scenario = spec.scenario;
  rec.params = spec.params;
  rec.seed = spec.seed;

  const auto wall0 = std::chrono::steady_clock::now();
  ScopedContractCapture capture;
  try {
    const ScenarioDef& def = registry.at(spec.scenario);
    registry.validate_params(spec.scenario, spec.params);
    // The shard request only needs to cover Network construction — the
    // network latches its engine there; everything after (monitors, guard,
    // run_until) drives it transparently via the run delegate.
    std::optional<ScopedShardRequest> shard_request{std::in_place,
                                                    opts.shards};
    scenarios::Scenario s = def.make(spec.params);
    shard_request.reset();
    stats::PauseEventLog pauses(*s.net);
    // Drop log for trigger classification (a cascade seeded by TTL-expired
    // drops is a routing-loop origin). Rides the same observer mechanism as
    // PauseEventLog; both may grow their vectors, neither runs on the
    // zero-alloc packet path itself.
    std::vector<forensics::CausalInput::Drop> drop_log;
    stats::append_hook(
        s.net->trace().dropped,
        [&drop_log](Time t, const Packet&, NodeId node, DropReason r) {
          drop_log.push_back(
              {t.ps(), node, static_cast<std::uint8_t>(r)});
        });
    telemetry::RunTelemetry run_telemetry(*s.net);
    // With a trace directory configured, a flight recorder rides along and
    // its window is exported after the run (plus a post-mortem at the
    // instant a deadlock is confirmed).
    std::unique_ptr<telemetry::FlightRecorder> recorder;
    if (!opts.trace_dir.empty()) {
      recorder = std::make_unique<telemetry::FlightRecorder>();
      recorder->attach(*s.net);
    }
    ScenarioDef::Finisher finish;
    if (def.instrument) finish = def.instrument(s, spec.params);

    // Hybrid fluid/packet engine: the controller partitions the topology,
    // fluidizes eligible flows, and keeps its zoom decisions inside control
    // events — so with mode=off this block is a no-op and the event stream
    // is bit-for-bit the historical one.
    std::unique_ptr<hybrid::HybridController> hybrid_ctl;
    if (opts.hybrid.mode != hybrid::Mode::kOff) {
      hybrid_ctl = std::make_unique<hybrid::HybridController>(
          *s.net, s.flows, opts.hybrid);
      if (detail != nullptr) {
        detail->hybrid_regions = hybrid_ctl->num_regions();
        detail->hybrid_fluid_at_start = hybrid_ctl->fluid_flows();
      }
    }

    // Always-on time-series probe: samples at opts.probe_interval on the
    // externally visible simulator (the engine's control sim), so the
    // series are byte-identical across --jobs and --shards. Its sampler
    // events are part of the canonical stream — events_executed includes
    // them for every shard count alike.
    probe::RunProbe run_probe(*s.net, opts.probe_interval);
    if (hybrid_ctl != nullptr) {
      run_probe.add_gauge_series(
          "hybrid.fluid_flows", [ctl = hybrid_ctl.get()] {
            return static_cast<double>(ctl->fluid_flows());
          });
    }

    // Always-on early-warning watcher: like the probe, its sampler rides
    // the externally visible simulator, so the alert stream is a pure
    // function of the scenario for every --jobs x --shards. It ticks at the
    // probe's interval, so the two artifacts share one time axis.
    watch::WatchOptions watch_opts = opts.watch;
    watch_opts.interval = opts.probe_interval;
    watch::RunWatch run_watch(*s.net, s.flows, watch_opts);

    // Cooperative guard: a recurring simulator event — always scheduled, so
    // the event stream (and events_executed) is identical whether a run
    // executes inside a campaign or standalone. `guard_active` ends the
    // recurrence once the measured window closes, keeping the drain phase
    // free of artificial wakeups.
    bool guard_active = true;
    bool timed_out = false;
    bool cancelled = false;
    Simulator* sim = s.sim.get();
    std::function<void()> guard = [&, sim] {
      if (!guard_active) return;
      if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
        cancelled = true;
        sim->stop();
        return;
      }
      if (opts.run_wall_budget_ms > 0 &&
          elapsed_ms(wall0) > opts.run_wall_budget_ms) {
        timed_out = true;
        sim->stop();
        return;
      }
      sim->schedule_in(opts.guard_poll, guard);
    };
    sim->schedule_in(opts.guard_poll, guard);

    // Same sequence as scenarios::run_and_check, but with the at-stop
    // metric capture interposed between the measured run and the drain.
    analysis::DeadlockMonitor monitor(*s.net, Time{50'000'000},
                                      spec.monitor_dwell);
    // In-band dataplane pipeline capture (schema v3 columns); every
    // recovery re-arms the centralized monitor.
    scenarios::DataplaneSummary dp;
    scenarios::capture_dataplane(*s.net, monitor, dp);
    std::string post_mortem;
    if (recorder != nullptr) {
      monitor.set_on_confirmed(
          [&post_mortem, &recorder, &s](const analysis::DeadlockMonitor& m) {
            post_mortem = telemetry::post_mortem_jsonl(
                *s.topo, *recorder, m.cycle(), *m.detected_at());
          });
    }
    const Time start = sim->now();
    monitor.start(start, start + spec.run_for + spec.drain_grace);
    run_probe.start(*sim, start + spec.run_for);
    run_watch.start(*sim, start + spec.run_for);
    sim->run_until(start + spec.run_for);
    guard_active = false;
    rec.wall_ms = elapsed_ms(wall0);
    if (cancelled) {
      rec.status = RunStatus::kCancelled;
      return rec;
    }
    if (timed_out) {
      rec.status = RunStatus::kTimeout;
      rec.error = "per-run wall-clock budget exceeded";
      return rec;
    }

    // Close the hybrid accounting before the delivered capture so the tail
    // fluid credits are included in goodput exactly once.
    if (hybrid_ctl != nullptr) {
      hybrid_ctl->finalize();
      rec.hybrid_mode = hybrid::to_string(opts.hybrid.mode);
      rec.zoom_events = hybrid_ctl->stats().zoom_events;
      rec.fluid_fraction = hybrid_ctl->stats().fluid_fraction;
      if (detail != nullptr) detail->hybrid = hybrid_ctl->stats();
    }

    std::int64_t total = 0;
    for (const FlowSpec& f : s.flows) {
      const std::int64_t bytes =
          s.net->host_at(f.dst_host).delivered_bytes(f.id);
      rec.delivered.emplace_back(f.id, bytes);
      total += bytes;
    }
    rec.goodput_gbps =
        static_cast<double>(total) * 8 / spec.run_for.sec() / 1e9;
    rec.pause_assertions = run_telemetry.registry().counter_value(
        run_telemetry.ids().pfc_xoff);
    // Telemetry snapshot at stop time: same instant as goodput and
    // pause_assertions, before the drain phase perturbs the queues.
    rec.telemetry = run_telemetry.snapshot();
    // Probe summary and the timeseries artifact are captured at the same
    // stop instant, so the JSONL histograms match the record's probe.*
    // values exactly (the hooks would keep accumulating through the drain).
    run_probe.finalize();
    rec.probe = run_probe.summary();
    rec.alerts = run_watch.summary();
    std::string timeseries;
    std::string counters;
    std::string alerts_jsonl;
    std::string alerts_perfetto;
    if (recorder != nullptr) {
      timeseries = probe::to_timeseries_jsonl(run_probe);
      counters = probe::to_perfetto_counters(run_probe);
      alerts_jsonl = watch::to_alerts_jsonl(run_watch, *s.topo);
      alerts_perfetto = watch::to_perfetto_alerts(run_watch, *s.topo);
    }
    rec.status = RunStatus::kOk;  // finisher sees a complete core record
    if (finish) finish(rec, rec.metrics);

    const analysis::DrainResult drain =
        analysis::stop_and_drain(*s.net, spec.drain_grace);
    rec.trapped_bytes = drain.trapped_bytes;
    rec.deadlocked = drain.deadlocked;
    if (monitor.detected_at()) rec.detect_ms = monitor.detected_at()->ms();
    // Early-warning lead time: how far the first critical alert beat the
    // dwell-confirmed monitor verdict (the headline watch metric).
    // Positive = the alert fired first.
    if (monitor.detected_at()) {
      const auto first_crit =
          run_watch.first_fire(watch::Severity::kCritical);
      if (first_crit) {
        rec.alerts.emplace_back(
            "lead_ms", monitor.detected_at()->ms() - first_crit->ms());
      }
    }
    rec.events = sim->events_executed();
    if (dp.detected_at) rec.detection_latency_ns = dp.detected_at->ns();
    if (dp.detected_at && dp.recovered_at) {
      rec.recovery_time_ns = (*dp.recovered_at - *dp.detected_at).ns();
    }
    rec.false_positive =
        dp.confirms > 0 && !rec.deadlocked && dp.recoveries == 0;

    // Post-hoc forensics over the complete pause history (measured window
    // plus drain): the causality DAG, trigger attribution, and cascade
    // shape, appended to the record as forensics.* metrics.
    forensics::CausalInput causal =
        forensics::input_from_pause_log(*s.topo, pauses, sim->now());
    causal.drops = std::move(drop_log);
    causal.deadlock_cycle = monitor.cycle();
    if (monitor.detected_at()) {
      causal.deadlock_at_ps = monitor.detected_at()->ps();
    }
    forensics::CascadeReport cascade = forensics::analyze(causal);
    for (auto& kv : forensics::summary(cascade)) {
      rec.telemetry.push_back(std::move(kv));
    }

    if (recorder != nullptr) {
      char idx[32];
      std::snprintf(idx, sizeof(idx), "run_%05d", rec.run_index);
      const std::string stem = opts.trace_dir + "/" + idx;
      const std::vector<telemetry::TraceRecord> window =
          recorder->snapshot();
      // Flow arrows come from a records-based analysis of the same window
      // the Perfetto export renders, so no arrow points at an overwritten
      // span.
      forensics::CausalInput win_in =
          forensics::input_from_records(*s.topo, window);
      win_in.deadlock_cycle = causal.deadlock_cycle;
      win_in.deadlock_at_ps = causal.deadlock_at_ps;
      const forensics::CascadeReport win_report =
          forensics::analyze(win_in);
      write_text_file(stem + ".trace.json",
                      telemetry::to_perfetto_json(
                          *s.topo, window, {},
                          forensics::flow_arrows(win_report)));
      write_text_file(stem + ".telemetry.jsonl",
                      telemetry::to_jsonl(*s.topo, window));
      write_text_file(stem + ".timeseries.jsonl", timeseries);
      write_text_file(stem + ".counters.json", counters);
      write_text_file(stem + ".alerts.jsonl", alerts_jsonl);
      write_text_file(stem + ".alerts.perfetto.json", alerts_perfetto);
      write_text_file(stem + ".forensics.txt",
                      forensics::to_text(cascade));
      write_text_file(stem + ".forensics.dot",
                      forensics::to_dot(cascade));
      if (!post_mortem.empty()) {
        write_text_file(stem + ".postmortem.jsonl", post_mortem);
      }
      if (detail != nullptr) {
        detail->trace_records = window.size();
        detail->trace_recorded = recorder->total_recorded();
      }
    }
    if (detail != nullptr) {
      detail->forensics = std::move(cascade);
      detail->dataplane = dp;
    }
  } catch (const std::exception& e) {
    rec.status = RunStatus::kFailed;
    rec.error = e.what();
  }
  rec.wall_ms = elapsed_ms(wall0);
  return rec;
}

CampaignExecutor::CampaignExecutor(const ScenarioRegistry& registry,
                                   ExecutorOptions opts)
    : registry_(registry), opts_(std::move(opts)) {}

CampaignResult CampaignExecutor::run(const std::vector<RunSpec>& specs,
                                     std::uint64_t root_seed) {
  CampaignResult result;
  result.root_seed = root_seed;
  result.records.resize(specs.size());
  if (specs.empty()) return result;

  int jobs = opts_.jobs > 0
                 ? opts_.jobs
                 : static_cast<int>(std::thread::hardware_concurrency());
  if (jobs < 1) jobs = 1;
  if (static_cast<std::size_t>(jobs) > specs.size()) {
    jobs = static_cast<int>(specs.size());
  }
  result.jobs = jobs;

  const auto wall0 = std::chrono::steady_clock::now();
  std::atomic<std::size_t> cursor{0};
  std::mutex done_mutex;

  const auto worker = [&] {
    // Each worker recycles one simulator arena across all its runs: the
    // event slab/heap grown by run i is adopted by run i+1 instead of being
    // freed and re-grown (see Simulator::ScopedArenaRecycling).
    const Simulator::ScopedArenaRecycling arena_scope;
    while (true) {
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= specs.size()) return;
      if (cancel_.load(std::memory_order_relaxed)) {
        // Not started: record the spec identity with status=cancelled.
        RunRecord& rec = result.records[i];
        rec.run_index = specs[i].run_index;
        rec.cell_index = specs[i].cell_index;
        rec.seed_index = specs[i].seed_index;
        rec.scenario = specs[i].scenario;
        rec.params = specs[i].params;
        rec.seed = specs[i].seed;
        rec.status = RunStatus::kCancelled;
      } else {
        result.records[i] = execute_run(registry_, specs[i], &cancel_, opts_);
      }
      if (opts_.on_run_done) {
        const std::lock_guard<std::mutex> lock(done_mutex);
        opts_.on_run_done(result.records[i]);
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(jobs) - 1);
  for (int t = 1; t < jobs; ++t) pool.emplace_back(worker);
  worker();  // the calling thread is worker 0
  for (std::thread& t : pool) t.join();

  result.total_wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - wall0)
          .count();
  return result;
}

}  // namespace dcdl::campaign
