// dcdl_sim — the general-purpose scenario runner: pick a registry scenario,
// set its params, and get the full diagnostic report (static analysis,
// risk score, pause statistics, per-flow goodput and latency, the watch
// digest, deadlock verdicts from both detectors, the in-switch pipeline and
// the forensic post-mortem).
//
//   $ ./dcdl_sim --scenario four_switch --set with_flow3=true
//   $ ./dcdl_sim --scenario routing_loop --set "inject=7;ttl=24"
//   $ ./dcdl_sim --scenario four_switch --seed 3
//         --set "with_flow3=true;flow3_limit=2.5"
//   $ ./dcdl_sim --scenario valley --watchdog
//
// The run goes through campaign::execute_run, the code dcdl_sweep runs
// (seed param = --seed, a 30 ms drain, a 1 ms dwell), so it writes the
// artifacts a sweep cell with those settings writes. `dcdl_sweep --list`
// prints every scenario with its params.
//
// Flags: --scenario <name> (required), --set "k=v;k2=v2" (the scenario's
// params, e.g. `--set dataplane=reroute` to arm the in-switch DCFIT
// pipeline), --seed N (the run's seed param, default 1), --run_ms (default
// 20), --watchdog, --smart_limit, --shards N (split the run across N
// shards, one worker thread each when N >= 2 — every report byte is
// identical for all N; default 1), --hybrid <off|static|risk> (run under
// the hybrid fluid/packet engine: uncongested regions integrate as fluid
// flows, deadlock-capable ones stay packet — the verdict is identical by
// construction). The fluid twin is its own scenario: `--scenario fluid_gap
// --metrics` prints its verdict next to the packet one.
// Observability: --trace <dir> writes the run's artifact set
// `run_00000.*` (Perfetto trace, replayable telemetry, forensics, probe
// time series and counters, alerts; see ExecutorOptions::trace_dir), with
// a post-mortem when a deadlock is confirmed. --metrics prints the
// telemetry, probe, watch and scenario metrics after the run; the probe
// summary (FCT / pause-duration / queuing-delay percentiles) prints after
// every run. --probe_us N changes the probe's and the watch's sampling
// interval (default 100). The early-warning watcher (dcdl::watch) is always
// on and its alert digest prints after every run; --watch additionally
// streams a live status line plus every alert edge to stderr while the
// simulation runs. --profile installs the wall-clock engine self-profiler
// and prints its span table (nondeterministic; never in the artifacts).
//
// Exit status: 0 no deadlock, 1 deadlock, 2 bad input or a failed run.
#include <cstdio>
#include <optional>
#include <string>

#include "dcdl/dcdl.hpp"

using namespace dcdl;
using namespace dcdl::literals;
using namespace dcdl::campaign;

namespace {

/// A named value of a run's flattened summary.
std::optional<double> find(
    const std::vector<std::pair<std::string, double>>& summary,
    const std::string& name) {
  for (const auto& [key, value] : summary) {
    if (key == name) return value;
  }
  return std::nullopt;
}

void print_summary(const char* title,
                   const std::vector<std::pair<std::string, double>>& values) {
  std::printf("\n%s:\n", title);
  for (const auto& [name, value] : values) {
    std::printf("  %-40s %.6g\n", name.c_str(), value);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::string scenario = flags.get_string("scenario", "");
  const std::string sets = flags.get_string("set", "");
  const std::int64_t run_ms = flags.get_int("run_ms", 20);
  if (run_ms < 1) {
    std::fprintf(stderr, "dcdl_sim: --run_ms must be >= 1 (got %lld)\n",
                 static_cast<long long>(run_ms));
    return 2;
  }
  const Time run_for = Time{run_ms * 1'000'000'000};
  const std::int64_t seed = flags.get_int("seed", 1);
  const bool watchdog = flags.get_bool("watchdog", false);
  const bool smart_limit = flags.get_bool("smart_limit", false);
  const std::string trace_dir = flags.get_string("trace", "");
  const bool metrics = flags.get_bool("metrics", false);
  const Time probe_interval = Time{
      flags.get_int("probe_us", probe::kSampleInterval.ps() / 1'000'000) *
      1'000'000};
  const bool watch_live = flags.get_bool("watch", false);
  const bool profile = flags.get_bool("profile", false);
  const int shards = flags.shards();
  const std::string hybrid_str = flags.get_string("hybrid", "off");
  const std::optional<hybrid::Mode> hybrid_mode =
      hybrid::parse_mode(hybrid_str);
  if (!hybrid_mode) {
    std::fprintf(stderr, "unknown --hybrid=%s (off|static|risk)\n",
                 hybrid_str.c_str());
    return 2;
  }
  flags.check_unused();

  RunSpec spec;
  spec.scenario = scenario;
  spec.seed = static_cast<std::uint64_t>(seed);
  spec.run_for = run_for;
  spec.drain_grace = 30_ms;
  spec.monitor_dwell = 1_ms;
  ExecutorOptions opts;
  opts.shards = shards;
  opts.hybrid.mode = *hybrid_mode;
  opts.probe_interval = probe_interval;
  opts.trace_dir = trace_dir;

  // Set up in the scenario's own instrument hook, before the run: the
  // report's static lines, the mitigations (the hybrid controller is built
  // after the hook, so it sees any pacer the smart limiter rewired), and
  // the latency meter. All of it outlives the scenario.
  std::optional<Topology> topo;  // names nodes after the run
  dataplane::DataplaneConfig dp_cfg;
  std::unique_ptr<mitigation::PfcWatchdog> wd;
  std::unique_ptr<stats::LatencyMeter> latency;
  ScenarioRegistry reg;
  try {
    const ScenarioRegistry& global = ScenarioRegistry::global();
    ScenarioDef def = global.at(scenario);
    apply_sets(spec.params, sets);
    if (spec.params.has("seed")) {
      throw CampaignError("'seed' is the run's seed; set it with --seed");
    }
    global.validate_params(scenario, spec.params);
    spec.params.set("seed", ParamValue::of_int(seed));
    if (!trace_dir.empty()) ensure_output_dir(trace_dir);
    def.instrument = [&, inner = def.instrument](scenarios::Scenario& s,
                                                 const ParamMap& pm) {
      ScenarioDef::Finisher finish;
      if (inner) finish = inner(s, pm);
      topo.emplace(*s.topo);
      dp_cfg = s.net->config().dataplane;
      std::printf("scenario: %s (%zu switches, %zu hosts, %zu flows)\n",
                  scenario.c_str(), s.topo->switches().size(),
                  s.topo->hosts().size(), s.flows.size());
      if (s.net->engine().num_shards() > 1) {
        std::printf("engine: %d shards, %zu cut link(s), lookahead %.2f us\n",
                    s.net->engine().num_shards(),
                    s.net->shard_plan().cut_links.size(),
                    s.net->engine().lookahead().us());
      }

      // Static analysis before any packet moves.
      const auto bdg = analysis::BufferDependencyGraph::build(*s.net, s.flows);
      std::printf("static: cyclic buffer dependency %s (%zu cycle(s))\n",
                  bdg.has_cycle() ? "PRESENT" : "absent",
                  bdg.cycles().size());
      if (bdg.has_cycle()) {
        const auto risk = analysis::assess_deadlock_risk(*s.net, s.flows);
        for (const auto& c : risk.cycles) {
          std::printf("  cycle of %zu queues: min link utilization %.2f, %d "
                      "slack link(s) -> lockable: %s\n",
                      c.cycle.size(), c.min_utilization, c.slack_links,
                      c.reachable() ? "yes" : "no");
        }
      }

      if (smart_limit) {
        const auto plan = mitigation::plan_rate_limits(*s.net, s.flows);
        std::printf("smart limiter: shaping %zu flow(s) at source NICs\n",
                    plan.actions.size());
        for (const auto& a : plan.actions) {
          std::printf("  flow %u -> %s\n", a.flow,
                      a.rate.to_string().c_str());
        }
        mitigation::apply_rate_limits(*s.net, plan);
      }
      if (watchdog) {
        wd = std::make_unique<mitigation::PfcWatchdog>(
            *s.net, mitigation::PfcWatchdog::Params{});
        wd->start(Time::zero(), run_for + 60_ms);
        std::printf("PFC watchdog armed (storm threshold 2 ms)\n");
      }
      latency = std::make_unique<stats::LatencyMeter>(*s.net);
      return finish;
    };
    reg.add(std::move(def));
  } catch (const CampaignError& e) {
    std::fprintf(stderr, "dcdl_sim: %s\n", e.what());
    return 2;
  }

  if (watch_live) {
    opts.watch.on_event = [&topo, rules = watch::default_rules()](
                              const watch::AlertEvent& ev) {
      std::fprintf(stderr, "\n[watch] %8.3f ms  %-8s %s %s (%s=%g) @ %s\n",
                   ev.t.ms(), watch::to_string(ev.severity),
                   rules[ev.rule].name.c_str(),
                   ev.firing ? "FIRE" : "clear",
                   rules[ev.rule].signal.c_str(), ev.value,
                   watch::node_label(*topo, ev.node).c_str());
    };
    opts.watch.on_tick = [](Time t, const watch::RunWatch& w) {
      const auto sig = [&w](const char* name) {
        const auto& names = w.signal_names();
        for (std::size_t i = 0; i < names.size(); ++i) {
          if (names[i] == name) return w.signal_values()[i];
        }
        return 0.0;
      };
      const auto ceiling = w.engine().active_ceiling();
      std::fprintf(stderr,
                   "\r[watch] t=%7.2f ms  queued=%9.0f B  pause_frac=%4.2f "
                   " age=%7.1f us  wedge=%2.0f  risk=%4.2f  [%s]   ",
                   t.ms(), sig("queue_bytes"), sig("pause_frac"),
                   sig("pause_age_us"), sig("wedge_queues"),
                   sig("risk_max"),
                   ceiling ? watch::to_string(*ceiling) : "ok");
    };
  }

  // The profiler installs on this thread only: shard workers see a null
  // thread_local and record nothing (the coordinator-side barrier span
  // stands in for their wall time).
  probe::Profiler profiler;
  std::optional<probe::Profiler::ScopedInstall> profile_scope;
  if (profile) profile_scope.emplace(profiler);
  RunDetail detail;
  const RunRecord rec = execute_run(reg, spec, nullptr, opts, &detail);
  profile_scope.reset();
  if (watch_live) std::fprintf(stderr, "\n");
  if (rec.status != RunStatus::kOk) {
    std::fprintf(stderr, "dcdl_sim: run %s: %s\n", to_string(rec.status),
                 rec.error.c_str());
    return 2;
  }

  if (*hybrid_mode != hybrid::Mode::kOff) {
    std::printf("hybrid: %s mode, %d region(s), %zu of %zu flow(s) fluid "
                "at t=0\n",
                hybrid::to_string(*hybrid_mode), detail.hybrid_regions,
                detail.hybrid_fluid_at_start, rec.delivered.size());
  }
  std::printf("\nafter %.0f ms:\n", run_for.ms());
  for (const auto& [flow, bytes] : rec.delivered) {
    std::printf("  flow %u: %.2f Gbps goodput, p99 latency %.1f us\n", flow,
                static_cast<double>(bytes) * 8 / run_for.sec() / 1e9,
                latency->percentile(flow, 0.99).us());
  }
  std::printf("  pauses: %llu assertions\n",
              static_cast<unsigned long long>(rec.pause_assertions));
  if (wd) {
    std::printf("  watchdog: %llu resets, %llu packets dropped\n",
                static_cast<unsigned long long>(wd->resets()),
                static_cast<unsigned long long>(wd->packets_dropped()));
  }
  std::printf("  probe: %.0f tick(s) @ %.0f us\n", *find(rec.probe, "ticks"),
              probe_interval.us());
  for (const auto& [name, count] : rec.probe) {
    if (count == 0 || !name.ends_with(".count")) continue;
    const std::string hist = name.substr(0, name.size() - 6);
    std::printf("    %-10s n=%-8llu p50=%.1f us  p99=%.1f us  max=%.1f us\n",
                hist.c_str(), static_cast<unsigned long long>(count),
                *find(rec.probe, hist + ".p50_us"),
                *find(rec.probe, hist + ".p99_us"),
                *find(rec.probe, hist + ".max_us"));
  }
  std::printf("  watch: %.0f info / %.0f warn / %.0f critical alert(s), "
              "%.0f suppressed\n",
              *find(rec.alerts, "fired.info"), *find(rec.alerts, "fired.warn"),
              *find(rec.alerts, "fired.critical"),
              *find(rec.alerts, "suppressed"));
  const double first_critical = *find(rec.alerts, "first_critical_ms");
  if (first_critical >= 0) {
    std::printf("    first critical at %.3f ms", first_critical);
    if (const auto lead = find(rec.alerts, "lead_ms")) {
      std::printf("  (lead time %.3f ms over the monitor confirm)", *lead);
    }
    std::printf("\n");
  }
  std::printf("verdict: deadlock %s", rec.deadlocked ? "YES" : "no");
  if (rec.detect_ms >= 0) {
    std::printf(" (online detection at %.2f ms)", rec.detect_ms);
  }
  std::printf(", %lld bytes trapped\n",
              static_cast<long long>(rec.trapped_bytes));

  if (*hybrid_mode != hybrid::Mode::kOff) {
    const hybrid::HybridStats& hs = detail.hybrid;
    std::printf("hybrid: %llu zoom event(s) (%llu escalation(s), %llu "
                "de-escalation(s)), fluid fraction %.3f, %llu packet(s) "
                "credited via the fluid adapter\n",
                static_cast<unsigned long long>(hs.zoom_events),
                static_cast<unsigned long long>(hs.escalations),
                static_cast<unsigned long long>(hs.deescalations),
                hs.fluid_fraction,
                static_cast<unsigned long long>(hs.credited_packets));
  }

  if (dp_cfg.enabled()) {
    const scenarios::DataplaneSummary& dp = detail.dataplane;
    std::printf("dataplane (%s): %llu candidate(s), %llu confirm(s), %llu "
                "recover(ies), %llu false alarm(s)\n",
                dataplane::to_string(dp_cfg.policy),
                static_cast<unsigned long long>(dp.candidates),
                static_cast<unsigned long long>(dp.confirms),
                static_cast<unsigned long long>(dp.recoveries),
                static_cast<unsigned long long>(dp.false_alarms));
    if (dp.detected_at) {
      std::printf("  in-band detection at %.3f ms, trigger switch %s\n",
                  dp.detected_at->ms(), topo->node(*dp.trigger).name.c_str());
    }
    if (dp.recovered_at && dp.detected_at) {
      std::printf("  recovery %.1f us after detection\n",
                  (*dp.recovered_at - *dp.detected_at).us());
    }
  }

  // Forensic post-mortem: the causal pause-propagation DAG over the whole
  // run, with the initial trigger attributed and classified.
  std::printf("\n%s", forensics::to_text(detail.forensics).c_str());

  if (metrics) {
    print_summary("metrics", rec.telemetry);
    print_summary("probe summary", rec.probe);
    print_summary("watch summary", rec.alerts);
    if (!rec.metrics.empty()) print_summary("scenario metrics", rec.metrics);
  }
  if (profile) {
    std::printf("\n%s", profiler.report().c_str());
  }
  if (!trace_dir.empty()) {
    const std::string stem = trace_dir + "/run_00000";
    if (rec.detect_ms >= 0) {
      std::printf("post-mortem: %s.postmortem.jsonl (deadlock window)\n",
                  stem.c_str());
    }
    std::printf("trace: %zu of %llu record(s) -> %s.trace.json\n",
                detail.trace_records,
                static_cast<unsigned long long>(detail.trace_recorded),
                stem.c_str());
  }
  return rec.deadlocked ? 1 : 0;
}
