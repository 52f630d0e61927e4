// dcdl_sim — the general-purpose scenario runner: pick a scenario, set its
// knobs from flags, and get the full diagnostic report (static analysis,
// risk score, pause statistics, cascade depth, per-flow goodput, deadlock
// verdicts from both detectors).
//
//   $ ./dcdl_sim --scenario=fig4
//   $ ./dcdl_sim --scenario=loop --inject_gbps=7 --ttl=24
//   $ ./dcdl_sim --scenario=fig5 --flow3_gbps=2.5 --seed=3
//   $ ./dcdl_sim --scenario=valley --watchdog
//
// Scenarios: fig1 (ring), loop, fig3, fig4, fig5, transient, valley,
// incast. Common flags: --run_ms, --seed, --watchdog, --smart_limit,
// --shards N (split the run across N shards, one worker thread each when
// N >= 2 — every report byte is identical for all N; default 1),
// --dataplane <off|detect|drop|reroute|pfc_lift> (arm the in-switch DCFIT
// detection pipeline with the given recovery policy, e.g.
// `dcdl_sim --scenario=loop --dataplane=reroute`),
// --hybrid <off|static|risk> (run under the hybrid fluid/packet engine:
// uncongested regions integrate as fluid flows, deadlock-capable ones stay
// packet — the verdict is identical by construction), --fluid (also run the
// scenario's pure-fluid twin and print its verdict next to the packet one;
// fig4 is the paper's §3.2 case where the two disagree).
// Observability: --trace <dir> writes <scenario>.trace.json (Perfetto, with
// pause-cascade flow arrows; open in chrome://tracing or ui.perfetto.dev),
// <scenario>.telemetry.jsonl (topology-bearing, replayable through
// dcdl_forensics), <scenario>.forensics.{txt,dot}, the dcdl::probe
// artifacts <scenario>.timeseries.jsonl (dcdl.timeseries.v1, consumed by
// dcdl_report) and <scenario>.counters.json (Perfetto counter tracks), the
// dcdl::watch artifacts <scenario>.alerts.jsonl (dcdl.alerts.v1) and
// <scenario>.alerts.perfetto.json (alert instants on the trace timeline),
// and — when a deadlock is confirmed — <scenario>.postmortem.jsonl captured
// at the confirmation instant. --metrics prints the full metrics snapshot
// after the run; the probe summary (FCT / pause-duration / queuing-delay
// percentiles) prints after every run. --probe_us N changes the sampling
// interval (default 100). The early-warning watcher (dcdl::watch) is
// always on and its alert digest prints after every run; --watch
// additionally streams a live status line plus every alert edge to stderr
// while the simulation runs. --profile installs the wall-clock engine
// self-profiler and prints its span table (nondeterministic; never in the
// artifacts). A forensic post-mortem (initial trigger, cascade shape) is
// printed after every run.
#include <cstdio>
#include <optional>
#include <string>

#include "dcdl/dcdl.hpp"

using namespace dcdl;
using namespace dcdl::literals;
using namespace dcdl::scenarios;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::string which = flags.get_string("scenario", "fig4");
  const std::int64_t run_ms = flags.get_int("run_ms", 20);
  if (run_ms < 1) {
    std::fprintf(stderr, "dcdl_sim: --run_ms must be >= 1 (got %lld)\n",
                 static_cast<long long>(run_ms));
    return 2;
  }
  const Time run_for = Time{run_ms * 1'000'000'000};
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const bool watchdog = flags.get_bool("watchdog", false);
  const bool smart_limit = flags.get_bool("smart_limit", false);
  const double inject = flags.get_double("inject_gbps", 8);
  const int ttl = static_cast<int>(flags.get_int("ttl", 16));
  const double flow3 = flags.get_double("flow3_gbps", 0);
  const std::string trace_dir = flags.get_string("trace", "");
  const bool metrics = flags.get_bool("metrics", false);
  const Time probe_interval =
      Time{flags.get_int("probe_us", 100) * 1'000'000};
  const bool watch_live = flags.get_bool("watch", false);
  const bool profile = flags.get_bool("profile", false);
  const int shards = flags.shards();
  const std::string dp_str = flags.get_string("dataplane", "off");
  dataplane::DataplaneConfig dp_cfg;
  if (!dataplane::parse_policy(dp_str, &dp_cfg.policy)) {
    std::fprintf(stderr,
                 "unknown --dataplane=%s (off|detect|drop|reroute|pfc_lift)\n",
                 dp_str.c_str());
    return 2;
  }
  const std::string hybrid_str = flags.get_string("hybrid", "off");
  const std::optional<hybrid::Mode> hybrid_mode =
      hybrid::parse_mode(hybrid_str);
  if (!hybrid_mode) {
    std::fprintf(stderr, "unknown --hybrid=%s (off|static|risk)\n",
                 hybrid_str.c_str());
    return 2;
  }
  const bool fluid_twin = flags.get_bool("fluid", false);

  Scenario s = [&]() -> Scenario {
    // The request only needs to cover Network construction: the network
    // latches its engine there, and everything downstream (monitors,
    // watchdog, run_and_check) drives it through the run delegate.
    const ScopedShardRequest shard_request(shards);
    if (which == "fig1") {
      RingDeadlockParams p;
      p.dataplane = dp_cfg;
      p.seed = seed;
      return make_ring_deadlock(p);
    }
    if (which == "loop") {
      RoutingLoopParams p;
      p.dataplane = dp_cfg;
      p.inject = Rate::gbps(inject);
      p.ttl = ttl;
      return make_routing_loop(p);
    }
    if (which == "fig3") {
      FourSwitchParams p;
      p.dataplane = dp_cfg;
      p.seed = seed;
      return make_four_switch(p);
    }
    if (which == "fig4" || which == "fig5") {
      FourSwitchParams p;
      p.dataplane = dp_cfg;
      p.with_flow3 = true;
      p.seed = seed;
      if (which == "fig5" || flow3 > 0) {
        p.flow3_limit = Rate::gbps(flow3 > 0 ? flow3 : 2.0);
      }
      return make_four_switch(p);
    }
    if (which == "transient") {
      TransientLoopParams p;
      p.dataplane = dp_cfg;
      p.inject = Rate::gbps(inject);
      p.ttl = ttl;
      return make_transient_loop(p);
    }
    if (which == "valley") {
      ValleyViolationParams p;
      p.dataplane = dp_cfg;
      p.seed = seed;
      return make_valley_violation(p);
    }
    if (which == "incast") {
      IncastParams p;
      return make_incast(p);
    }
    std::fprintf(stderr, "unknown --scenario=%s\n", which.c_str());
    std::exit(2);
  }();
  flags.check_unused();

  std::printf("scenario: %s (%zu switches, %zu hosts, %zu flows)\n",
              which.c_str(), s.topo->switches().size(),
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
              bdg.has_cycle() ? "PRESENT" : "absent", bdg.cycles().size());
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
      std::printf("  flow %u -> %s\n", a.flow, a.rate.to_string().c_str());
    }
    mitigation::apply_rate_limits(*s.net, plan);
  }
  std::unique_ptr<mitigation::PfcWatchdog> wd;
  if (watchdog) {
    wd = std::make_unique<mitigation::PfcWatchdog>(
        *s.net, mitigation::PfcWatchdog::Params{});
    wd->start(Time::zero(), run_for + 60_ms);
    std::printf("PFC watchdog armed (storm threshold 2 ms)\n");
  }

  // The hybrid controller reads the live pacers, so it must come after any
  // mitigation rewiring (smart_limit swaps pacers at the source NICs).
  std::unique_ptr<hybrid::HybridController> hyb;
  if (*hybrid_mode != hybrid::Mode::kOff) {
    hybrid::HybridConfig hcfg;
    hcfg.mode = *hybrid_mode;
    hyb = std::make_unique<hybrid::HybridController>(*s.net, s.flows, hcfg);
    std::printf("hybrid: %s mode, %d region(s), %zu of %zu flow(s) fluid "
                "at t=0\n",
                hybrid::to_string(hcfg.mode), hyb->num_regions(),
                hyb->fluid_flows(), s.flows.size());
  }

  stats::PauseEventLog pauses(*s.net);
  stats::LatencyMeter latency(*s.net);
  std::vector<forensics::CausalInput::Drop> drop_log;
  stats::append_hook(
      s.net->trace().dropped,
      [&drop_log](Time t, const Packet&, NodeId node, DropReason reason) {
        drop_log.push_back({t.ps(), node, static_cast<std::uint8_t>(reason)});
      });
  telemetry::RunTelemetry run_telemetry(*s.net);
  probe::ProbeOptions probe_opts;
  probe_opts.interval = probe_interval;
  probe::RunProbe run_probe(*s.net, probe_opts);
  if (hyb) {
    run_probe.add_gauge_series("hybrid.fluid_flows", [ctl = hyb.get()] {
      return static_cast<double>(ctl->fluid_flows());
    });
  }
  // Always-on early-warning watcher; --watch streams its live view.
  watch::WatchOptions watch_opts;
  watch_opts.interval = probe_interval;
  watch::RunWatch run_watch(*s.net, s.flows, watch_opts);
  if (watch_live) {
    run_watch.set_on_event([&s, &run_watch](const watch::AlertEvent& ev) {
      std::fprintf(stderr, "\n[watch] %8.3f ms  %-8s %s %s (%s=%g) @ %s\n",
                   ev.t.ms(), watch::to_string(ev.severity),
                   run_watch.engine().rules()[ev.rule].name.c_str(),
                   ev.firing ? "FIRE" : "clear",
                   run_watch.engine().rules()[ev.rule].signal.c_str(),
                   ev.value, watch::node_label(*s.topo, ev.node).c_str());
    });
    run_watch.set_on_tick([](Time t, const watch::RunWatch& w) {
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
    });
  }
  std::unique_ptr<telemetry::FlightRecorder> recorder;
  if (!trace_dir.empty()) {
    try {
      campaign::ensure_output_dir(trace_dir);
    } catch (const campaign::CampaignError& e) {
      std::fprintf(stderr, "dcdl_sim: %s\n", e.what());
      return 2;
    }
    recorder = std::make_unique<telemetry::FlightRecorder>();
    recorder->attach(*s.net);
  }
  // The confirmed-deadlock hook: snapshot the flight recorder while the
  // wedged state is live, before stop_and_drain perturbs the queues.
  std::string post_mortem;
  run_probe.start(*s.sim, s.sim->now() + run_for);
  run_watch.start(*s.sim, s.sim->now() + run_for);
  // The profiler installs on this thread only: shard workers see a null
  // thread_local and record nothing (the coordinator-side barrier span
  // stands in for their wall time).
  probe::Profiler profiler;
  std::optional<probe::Profiler::ScopedInstall> profile_scope;
  if (profile) profile_scope.emplace(profiler);
  const RunSummary r = run_and_check(
      s, run_for, 30_ms, Time{1'000'000'000},
      [&](const analysis::DeadlockMonitor& m) {
        if (recorder != nullptr) {
          post_mortem = telemetry::post_mortem_jsonl(
              *s.topo, *recorder, m.cycle(), *m.detected_at());
        }
      });

  std::printf("\nafter %.0f ms:\n", run_for.ms());
  for (const auto& [flow, bytes] : r.delivered) {
    std::printf("  flow %u: %.2f Gbps goodput, p99 latency %.1f us\n", flow,
                static_cast<double>(bytes) * 8 / run_for.sec() / 1e9,
                latency.percentile(flow, 0.99).us());
  }
  std::uint64_t pause_count = 0;
  for (const auto& e : pauses.events()) pause_count += e.paused ? 1 : 0;
  const auto cascade = stats::analyze_pause_cascade(*s.net, pauses);
  std::printf("  pauses: %llu assertions, cascade mean depth %.2f (max %d)\n",
              static_cast<unsigned long long>(pause_count),
              cascade.mean_depth, cascade.max_depth);
  if (wd) {
    std::printf("  watchdog: %llu resets, %llu packets dropped\n",
                static_cast<unsigned long long>(wd->resets()),
                static_cast<unsigned long long>(wd->packets_dropped()));
  }
  run_probe.finalize();
  std::printf("  probe: %zu tick(s) @ %.0f us\n",
              run_probe.series().ticks(), run_probe.interval().us());
  for (const auto& [name, hist] : run_probe.histograms()) {
    if (hist->count() == 0) continue;
    std::printf("    %-10s n=%-8llu p50=%.1f us  p99=%.1f us  max=%.1f us\n",
                name, static_cast<unsigned long long>(hist->count()),
                static_cast<double>(hist->percentile(0.5)) / 1e6,
                static_cast<double>(hist->percentile(0.99)) / 1e6,
                static_cast<double>(hist->max()) / 1e6);
  }
  if (watch_live) std::fprintf(stderr, "\n");
  const auto& eng = run_watch.engine();
  std::printf("  watch: %llu info / %llu warn / %llu critical alert(s), "
              "%llu suppressed\n",
              static_cast<unsigned long long>(
                  eng.fires(watch::Severity::kInfo)),
              static_cast<unsigned long long>(
                  eng.fires(watch::Severity::kWarn)),
              static_cast<unsigned long long>(
                  eng.fires(watch::Severity::kCritical)),
              static_cast<unsigned long long>(eng.suppressed()));
  const auto first_critical = eng.first_fire(watch::Severity::kCritical);
  if (first_critical) {
    std::printf("    first critical at %.3f ms", first_critical->ms());
    if (r.detected_at) {
      std::printf("  (lead time %.3f ms over the monitor confirm)",
                  r.detected_at->ms() - first_critical->ms());
    }
    std::printf("\n");
  }
  std::printf("verdict: deadlock %s", r.deadlocked ? "YES" : "no");
  if (r.detected_at) std::printf(" (online detection at %.2f ms)",
                                 r.detected_at->ms());
  std::printf(", %lld bytes trapped\n",
              static_cast<long long>(r.trapped_bytes));

  if (hyb) {
    hyb->finalize();
    const hybrid::HybridStats& hs = hyb->stats();
    std::printf("hybrid: %llu zoom event(s) (%llu escalation(s), %llu "
                "de-escalation(s)), fluid fraction %.3f, %llu packet(s) "
                "credited via the fluid adapter\n",
                static_cast<unsigned long long>(hs.zoom_events),
                static_cast<unsigned long long>(hs.escalations),
                static_cast<unsigned long long>(hs.deescalations),
                hs.fluid_fraction,
                static_cast<unsigned long long>(hs.credited_packets));
  }

  // --fluid: run the scenario's fluid twin over the same horizon and print
  // its verdict next to the packet one (the paper's §3.2 gap, on demand).
  if (fluid_twin) {
    std::optional<analysis::FluidResult> fr;
    if (which == "loop") {
      RoutingLoopParams p;
      analysis::FluidModel fm = analysis::make_fluid_routing_loop(
          p.loop_len, p.bandwidth, ttl, Rate::gbps(inject));
      fr = fm.run(run_for);
    } else if (which == "fig3" || which == "fig4" || which == "fig5") {
      const bool with_flow3 = which != "fig3";
      // The fluid model needs an explicit demand; greedy = line rate.
      Rate flow3_rate = Rate::gbps(40);
      if (which == "fig5" || flow3 > 0) {
        flow3_rate = Rate::gbps(flow3 > 0 ? flow3 : 2.0);
      }
      analysis::FluidFourSwitch fs2 =
          analysis::make_fluid_four_switch(with_flow3, flow3_rate);
      fr = fs2.model.run(run_for);
    }
    if (fr) {
      std::printf("fluid twin: deadlock %s", fr->deadlocked ? "YES" : "no");
      if (fr->deadlocked) {
        std::printf(" at %.2f ms, frozen cycle of %zu queue(s):",
                    fr->deadlock_at.ms(), fr->deadlock_queues.size());
        for (const int q : fr->deadlock_queues) std::printf(" q%d", q);
      }
      std::printf("%s\n", fr->deadlocked != r.deadlocked
                              ? "  << disagrees with the packet level"
                              : "");
    } else {
      std::printf("fluid twin: none for scenario '%s' (loop, fig3, fig4, "
                  "fig5 have twins)\n",
                  which.c_str());
    }
  }

  if (s.net->config().dataplane.enabled()) {
    std::printf("dataplane (%s): %llu candidate(s), %llu confirm(s), %llu "
                "recover(ies), %llu false alarm(s)\n",
                dataplane::to_string(s.net->config().dataplane.policy),
                static_cast<unsigned long long>(r.dp_candidates),
                static_cast<unsigned long long>(r.dp_confirms),
                static_cast<unsigned long long>(r.dp_recoveries),
                static_cast<unsigned long long>(r.dp_false_alarms));
    if (r.dp_detected_at) {
      std::printf("  in-band detection at %.3f ms, trigger switch %s\n",
                  r.dp_detected_at->ms(),
                  s.topo->node(*r.dp_trigger).name.c_str());
    }
    if (r.dp_recovered_at && r.dp_detected_at) {
      std::printf("  recovery %.1f us after detection\n",
                  (*r.dp_recovered_at - *r.dp_detected_at).us());
    }
  }

  // Forensic post-mortem: the causal pause-propagation DAG over the whole
  // run, with the initial trigger attributed and classified.
  forensics::CausalInput causal =
      forensics::input_from_pause_log(*s.topo, pauses, s.sim->now());
  causal.drops = std::move(drop_log);
  causal.deadlock_cycle = r.cycle;
  if (r.detected_at) causal.deadlock_at_ps = r.detected_at->ps();
  const forensics::CascadeReport report = forensics::analyze(causal);
  std::printf("\n%s", forensics::to_text(report).c_str());

  if (metrics) {
    std::printf("\nmetrics:\n");
    for (const auto& [name, value] : run_telemetry.snapshot().flatten()) {
      std::printf("  %-40s %.6g\n", name.c_str(), value);
    }
    std::printf("\nprobe summary:\n");
    for (const auto& [name, value] : run_probe.summary()) {
      std::printf("  %-40s %.6g\n", name.c_str(), value);
    }
    std::printf("\nwatch summary:\n");
    for (const auto& [name, value] : run_watch.summary()) {
      std::printf("  %-40s %.6g\n", name.c_str(), value);
    }
  }
  if (profile) {
    std::printf("\n%s", profiler.report().c_str());
  }
  if (recorder) {
    const std::string stem = trace_dir + "/" + which;
    const auto records = recorder->snapshot();
    // Flow arrows from the recorded window (not the full pause log), so
    // every arrow lands on a span the Perfetto export actually shows.
    forensics::CausalInput win_in =
        forensics::input_from_records(*s.topo, records);
    win_in.deadlock_cycle = causal.deadlock_cycle;
    win_in.deadlock_at_ps = causal.deadlock_at_ps;
    const forensics::CascadeReport win_report = forensics::analyze(win_in);
    campaign::write_text_file(
        stem + ".trace.json",
        telemetry::to_perfetto_json(*s.topo, records, {},
                                    forensics::flow_arrows(win_report)));
    campaign::write_text_file(stem + ".telemetry.jsonl",
                              telemetry::to_jsonl(*s.topo, records));
    campaign::write_text_file(stem + ".forensics.txt",
                              forensics::to_text(report));
    campaign::write_text_file(stem + ".forensics.dot",
                              forensics::to_dot(report));
    campaign::write_text_file(stem + ".timeseries.jsonl",
                              probe::to_timeseries_jsonl(run_probe));
    campaign::write_text_file(stem + ".counters.json",
                              probe::to_perfetto_counters(run_probe));
    campaign::write_text_file(stem + ".alerts.jsonl",
                              watch::to_alerts_jsonl(run_watch, *s.topo));
    campaign::write_text_file(
        stem + ".alerts.perfetto.json",
        watch::to_perfetto_alerts(run_watch, *s.topo));
    if (!post_mortem.empty()) {
      campaign::write_text_file(stem + ".postmortem.jsonl", post_mortem);
      std::printf("post-mortem: %s.postmortem.jsonl (deadlock window)\n",
                  stem.c_str());
    }
    std::printf("trace: %zu of %llu record(s) -> %s.trace.json\n",
                records.size(),
                static_cast<unsigned long long>(recorder->total_recorded()),
                stem.c_str());
  }
  return r.deadlocked ? 1 : 0;
}
