// The incident workload: a k=8 fat-tree under 30 % Poisson background load,
// where a misconfigured 2-switch forwarding loop in pod 0 (edge <-> agg,
// for one pod-1 host) is fed at 8 Gbps, above its Eq. 3 threshold, so the
// fabric deadlocks for every seed. It is driven the way `dcdl_sim --trace`
// drives a run: dependency-graph and risk analysis up front; telemetry,
// flight recorder, probe, watch, the centralized monitor and the in-switch
// detector (detect mode) attached; stop-and-drain; forensics; every
// artifact exported. At fabric scale the observability stack, the monitor
// and the exporters do a large share of the work: the mirror image of
// `fabric`, where the device layer runs bare.
//
// Three choices keep every verdict identical across seeds (64 seeds
// checked):
//  - The loop feed carries TTL 16 (the paper's Fig. 2 loop: threshold
//    2 * 40 / 16 = 5 Gbps). At TTL 64 the loop freezes before any packet
//    expires, and forensics, which recognizes a loop by TTL-expired drops,
//    names a congestion cascade instead (24 of 24 seeds).
//  - The background starts 100 us after the loop, so the loop's own pause
//    cascade is the initial trigger; started together, 1-2 seeds in 24
//    attributed the deadlock to a host pause or a congestion cascade.
//  - Host i sends to host i + n/2 (through the core); the seed sets the
//    Poisson arrival times, not the traffic matrix. sim.events then varies
//    by +-0.3 % across seeds instead of +-3 % with a random permutation.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>

#include "bench.hpp"
#include "dcdl/analysis/bdg.hpp"
#include "dcdl/analysis/deadlock.hpp"
#include "dcdl/analysis/risk.hpp"
#include "dcdl/campaign/result.hpp"
#include "dcdl/device/host.hpp"
#include "dcdl/forensics/forensics.hpp"
#include "dcdl/probe/export.hpp"
#include "dcdl/probe/probe.hpp"
#include "dcdl/probe/profiler.hpp"
#include "dcdl/routing/compute.hpp"
#include "dcdl/stats/hooks.hpp"
#include "dcdl/stats/pause_log.hpp"
#include "dcdl/telemetry/telemetry.hpp"
#include "dcdl/topo/generators.hpp"
#include "dcdl/watch/export.hpp"
#include "dcdl/watch/watch.hpp"

namespace perfbench {

using namespace dcdl;

namespace {

constexpr int kK = 8;
/// Fixed horizon: past the monitor's confirmation at 1.15-1.30 ms.
constexpr Time kRunFor = Time{1'500'000'000};      // 1.5 ms
constexpr Time kDrainGrace = Time{4'000'000'000};  // 4 ms
constexpr std::uint8_t kLoopTtl = 16;
constexpr Time kBackgroundStart = Time{100'000'000};  // 100 us

/// Which observability layers a repetition attaches. The end-to-end run
/// attaches all of them; the traced run's ablation omits one at a time.
struct Stack {
  bool probe = true;
  bool watch = true;
  bool telemetry = true;  ///< RunTelemetry + FlightRecorder and exports
};

struct Net {
  std::unique_ptr<Simulator> sim;
  std::unique_ptr<topo::FatTreeTopo> ft;
  std::unique_ptr<Network> net;
  std::vector<FlowSpec> flows;
};

Net build(std::uint64_t seed, Tracer& tr) {
  Net n;
  n.sim = std::make_unique<Simulator>();
  {
    Scope s(tr, "topo", "make_fat_tree");
    n.ft = std::make_unique<topo::FatTreeTopo>(topo::make_fat_tree(kK));
  }
  NetConfig cfg;
  cfg.dataplane.policy = dataplane::RecoveryPolicy::kDetect;
  {
    Scope s(tr, "device", "Network");
    n.net = std::make_unique<Network>(*n.sim, n.ft->topo, cfg);
  }
  const std::vector<NodeId>& hosts = n.ft->all_hosts;
  const NodeId loop_dst = hosts[(kK / 2) * (kK / 2)];  // first pod-1 host
  {
    Scope s(tr, "routing", "install_shortest_paths");
    routing::install_shortest_paths(*n.net);
  }
  {
    Scope s(tr, "routing", "install_loop_route");
    routing::install_loop_route(*n.net, loop_dst,
                                {n.ft->edge[0][0], n.ft->agg[0][0]});
  }
  Scope s(tr, "traffic", "add_flows");
  const auto add = [&](NodeId src, NodeId dst, std::unique_ptr<Pacer> p,
                       std::uint8_t ttl, Time start) {
    FlowSpec spec;
    spec.id = static_cast<FlowId>(n.flows.size() + 1);
    spec.src_host = src;
    spec.dst_host = dst;
    spec.packet_bytes = 1000;
    spec.ttl = ttl;
    spec.start = start;
    n.net->host_at(src).add_flow(spec, std::move(p));
    n.flows.push_back(spec);
  };
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    add(hosts[i], hosts[(i + hosts.size() / 2) % hosts.size()],
        std::make_unique<PoissonPacer>(Rate::gbps(12), 1000,
                                       mix_seed(seed, i + 1)),
        64, kBackgroundStart);
  }
  // The loop feed: a pod-0 host under the looping edge switch.
  add(hosts[0], loop_dst,
      std::make_unique<TokenBucketPacer>(Rate::gbps(8), 1000), kLoopTtl,
      Time::zero());
  return n;
}

struct Artifact {
  const char* suffix;
  std::string content;
};

struct Result {
  bool confirmed = false;
  Time detected_at = Time::zero();
  std::optional<Time> dp_first;
  std::uint64_t dp_confirms = 0;
  std::int64_t trapped = 0;
  int trigger = -1;  ///< forensics::TriggerKind of the initial trigger
  std::size_t forensic_spans = 0;
  std::uint64_t ttl_drops = 0;
  std::size_t window_records = 0;
  std::uint64_t recorded = 0;
  std::optional<Time> first_critical;
  std::vector<Artifact> artifacts;
};

/// One incident run with the given stack; returns set-up and phase wall
/// seconds through `rep`.
Result run_incident(const Options& o, const Stack& st, Tracer& tr, Rep& rep,
                    Layers* L) {
  Result res;
  const std::int64_t t0 = now_ns();
  Net n = build(o.seed, tr);
  Network& net = *n.net;
  Simulator& sim = *n.sim;
  {
    Scope s(tr, "analysis", "bdg_build_and_cycles");
    const auto bdg = analysis::BufferDependencyGraph::build(net, n.flows);
    bdg.cycles();
  }
  {
    Scope s(tr, "analysis", "assess_deadlock_risk");
    analysis::assess_deadlock_risk(net, n.flows);
  }

  std::optional<stats::PauseEventLog> pauses;
  std::vector<forensics::CausalInput::Drop> drop_log;
  std::optional<telemetry::RunTelemetry> run_telemetry;
  std::optional<telemetry::FlightRecorder> recorder;
  std::optional<probe::RunProbe> run_probe;
  std::optional<watch::RunWatch> run_watch;
  std::optional<analysis::DeadlockMonitor> monitor;
  std::string post_mortem;
  {
    Scope s(tr, "analysis", "attach_pause_log");
    pauses.emplace(net);
    stats::append_hook(net.trace().dropped,
                       [&drop_log](Time t, const Packet&, NodeId node,
                                   DropReason reason) {
                         drop_log.push_back(
                             {t.ps(), node, static_cast<std::uint8_t>(reason)});
                       });
    stats::append_hook(net.trace().dataplane,
                       [&res](Time t, NodeId, dataplane::DataplaneEvent e,
                              ClassId, std::uint64_t) {
                         if (e != dataplane::DataplaneEvent::kConfirmed) return;
                         ++res.dp_confirms;
                         if (!res.dp_first) res.dp_first = t;
                       });
  }
  if (st.telemetry) {
    Scope s(tr, "telemetry", "attach");
    run_telemetry.emplace(net);
    recorder.emplace();
    recorder->attach(net);
  }
  if (st.probe) {
    Scope s(tr, "probe", "RunProbe");
    run_probe.emplace(net);
    run_probe->start(sim, kRunFor);
  }
  if (st.watch) {
    Scope s(tr, "watch", "RunWatch");
    run_watch.emplace(net, n.flows);
    run_watch->start(sim, kRunFor);
  }
  {
    Scope s(tr, "analysis", "DeadlockMonitor");
    monitor.emplace(net, Time{50'000'000}, Time{1'000'000'000});
    if (recorder) {
      monitor->set_on_confirmed([&](const analysis::DeadlockMonitor& m) {
        post_mortem = telemetry::post_mortem_jsonl(
            n.ft->topo, *recorder, m.cycle(), *m.detected_at());
      });
    }
    monitor->start(Time::zero(), kRunFor + kDrainGrace);
  }

  const std::int64_t t1 = now_ns();
  {
    Scope s(tr, "sim", "run_until");
    sim.run_until(kRunFor);
  }
  if (run_probe) {
    Scope s(tr, "probe", "finalize");
    run_probe->finalize();
  }
  analysis::DrainResult drain;
  {
    Scope s(tr, "analysis", "stop_and_drain");
    drain = analysis::stop_and_drain(net, kDrainGrace);
  }
  res.confirmed = monitor->detected_at().has_value();
  if (res.confirmed) res.detected_at = *monitor->detected_at();
  res.trapped = drain.trapped_bytes;
  res.ttl_drops = net.drops(DropReason::kTtlExpired);

  forensics::CascadeReport report;
  {
    Scope s(tr, "forensics", "analyze_pause_log");
    forensics::CausalInput causal =
        forensics::input_from_pause_log(n.ft->topo, *pauses, sim.now());
    causal.drops = drop_log;
    causal.deadlock_cycle = monitor->cycle();
    if (res.confirmed) causal.deadlock_at_ps = res.detected_at.ps();
    report = forensics::analyze(causal);
  }
  if (const auto idx = report.initial_trigger()) {
    const auto& span = report.spans[*idx];
    res.trigger = static_cast<int>(
        report.components[static_cast<std::size_t>(span.component)].trigger);
  }
  res.forensic_spans = report.spans.size();
  {
    Scope s(tr, "forensics", "render");
    res.artifacts.push_back({".forensics.txt", forensics::to_text(report)});
    res.artifacts.push_back({".forensics.dot", forensics::to_dot(report)});
  }
  if (st.telemetry) {
    std::vector<telemetry::TraceRecord> records;
    forensics::CascadeReport win_report;
    {
      Scope s(tr, "telemetry", "snapshot");
      records = recorder->snapshot();
      run_telemetry->snapshot();
    }
    {
      Scope s(tr, "forensics", "analyze_window");
      forensics::CausalInput win_in =
          forensics::input_from_records(n.ft->topo, records);
      win_in.deadlock_cycle = monitor->cycle();
      if (res.confirmed) win_in.deadlock_at_ps = res.detected_at.ps();
      win_report = forensics::analyze(win_in);
    }
    Scope s(tr, "telemetry", "export");
    res.artifacts.push_back(
        {".trace.json",
         telemetry::to_perfetto_json(n.ft->topo, records, {},
                                     forensics::flow_arrows(win_report))});
    res.artifacts.push_back(
        {".telemetry.jsonl", telemetry::to_jsonl(n.ft->topo, records)});
    res.artifacts.push_back({".postmortem.jsonl", post_mortem});
    res.window_records = records.size();
    res.recorded = recorder->total_recorded();
  }
  if (st.probe) {
    Scope s(tr, "probe", "export");
    res.artifacts.push_back(
        {".timeseries.jsonl", probe::to_timeseries_jsonl(*run_probe)});
    res.artifacts.push_back(
        {".counters.json", probe::to_perfetto_counters(*run_probe)});
  }
  if (st.watch) {
    Scope s(tr, "watch", "export");
    res.artifacts.push_back(
        {".alerts.jsonl", watch::to_alerts_jsonl(*run_watch, n.ft->topo)});
    res.artifacts.push_back(
        {".alerts.perfetto.json",
         watch::to_perfetto_alerts(*run_watch, n.ft->topo)});
    res.first_critical = run_watch->first_fire(watch::Severity::kCritical);
  }
  {
    Scope s(tr, "campaign", "write_text_file");
    for (const Artifact& a : res.artifacts) {
      campaign::write_text_file(o.out_dir + "/incident" + a.suffix,
                                a.content);
    }
  }
  const std::int64_t t2 = now_ns();
  rep.setup_s = static_cast<double>(t1 - t0) / 1e9;
  rep.phase_s = static_cast<double>(t2 - t1) / 1e9;
  rep.sim_ms = kRunFor.ms();
  rep.events = sim.events_executed();

  if (L != nullptr) {
    const int run = tr.run();
    const Simulator::Counters sc = sim.counters();
    L->set("topo.build_s", tr.seconds(run, "topo", "make_fat_tree"));
    L->set("device.build_s", tr.seconds(run, "device", "Network"));
    L->set("routing.install_s",
           tr.seconds(run, "routing", "install_shortest_paths"));
    L->set("traffic.flows_s", tr.seconds(run, "traffic", "add_flows"));
    L->set("sim.events", static_cast<double>(sc.executed));
    L->set("sim.ns_per_event", tr.seconds(run, "sim", "run_until") * 1e9 /
                                   static_cast<double>(sc.executed));
    L->set("sim.heap_high_water", static_cast<double>(sc.heap_high_water));
    L->set("sim.slab_grows", static_cast<double>(sc.slab_grows));
    L->set("analysis.bdg_s",
           tr.seconds(run, "analysis", "bdg_build_and_cycles"));
    L->set("analysis.drain_s", tr.seconds(run, "analysis", "stop_and_drain"));
    L->set("analysis.detect_ms", res.detected_at.ms());
    L->set("dataplane.confirms", static_cast<double>(res.dp_confirms));
    L->set("dataplane.detect_ms", res.dp_first ? res.dp_first->ms() : 0);
    L->set("telemetry.export_s", tr.seconds(run, "telemetry", "export") +
                                     tr.seconds(run, "campaign",
                                                "write_text_file"));
    std::size_t bytes = 0;
    for (const Artifact& a : res.artifacts) bytes += a.content.size();
    L->set("telemetry.export_mb", static_cast<double>(bytes) / 1e6);
    L->set("telemetry.records", static_cast<double>(res.recorded));
    L->set("watch.lead_ms",
           res.first_critical ? (res.detected_at - *res.first_critical).ms()
                              : 0);
    L->set("forensics.analyze_s",
           tr.seconds(run, "forensics", "analyze_pause_log") +
               tr.seconds(run, "forensics", "analyze_window"));
    L->set("forensics.spans", static_cast<double>(res.forensic_spans));
    const auto& tallies = run_telemetry->registry();
    L->set("device.pfc_xoff",
           static_cast<double>(
               tallies.counter_value(run_telemetry->ids().pfc_xoff)));
    L->set("device.delivered_mb",
           static_cast<double>(tallies.counter_value(
               run_telemetry->ids().delivered_bytes)) /
               1e6);
    std::uint64_t drops = 0;
    for (int r = 0; r < kNumDropReasons; ++r) {
      drops += net.drops(static_cast<DropReason>(r));
    }
    L->set("device.drops", static_cast<double>(drops));
    {
      Scope s(tr, "analysis", "assess_deadlock_risk");
      analysis::assess_deadlock_risk(net, n.flows);
    }
    {
      Scope s(tr, "analysis", "snapshot_wait_for");
      analysis::snapshot_wait_for(net);
    }
    // The mean of the up-front call (in set-up) and this one, on the same
    // network with its queues wedged, as watch's reassessments see it.
    L->set("analysis.risk_s",
           tr.seconds(run, "analysis", "assess_deadlock_risk") / 2);
    L->set("analysis.wait_for_us",
           tr.seconds(run, "analysis", "snapshot_wait_for") * 1e6);
  }
  Scope s(tr, "device", "teardown");
  monitor.reset();
  run_watch.reset();
  run_probe.reset();
  recorder.reset();
  run_telemetry.reset();
  pauses.reset();
  n.net.reset();
  n.ft.reset();
  n.sim.reset();
  return res;
}

constexpr double trigger(forensics::TriggerKind k) {
  return static_cast<double>(k);
}

/// What an incident repetition must show: both detectors confirm, the
/// in-switch one first; forensics names the routing loop; the drain leaves
/// bytes trapped; every artifact has content; the telemetry JSONL reloads
/// with every record of the window.
struct IncidentExpect {
  Range monitor_confirms;
  Range dataplane_confirms;
  Range dataplane_lead_ps;
  Range trigger;
  Range trapped_bytes;
  Range artifact_bytes;
  Range records_lost_on_reload;
};
constexpr IncidentExpect kIncidentExpect = {
    exactly(1),  exactly(1), at_least(1),
    exactly(trigger(forensics::TriggerKind::kRoutingLoop)),
    at_least(1), at_least(1), exactly(0)};
/// Self-test: a loop fed below its 5 Gbps threshold stays live (nothing
/// confirms, nothing is trapped); a cascade without TTL evidence is a
/// congestion cascade; an export that wrote nothing, a reload that lost
/// records.
constexpr IncidentExpect kIncidentWrong = {
    exactly(0),  exactly(0), at_most(0),
    exactly(trigger(forensics::TriggerKind::kCongestionCascade)),
    exactly(0),  exactly(0), at_least(1)};

Rep incident_rep(const Options& o, Tracer& tr, Checks& ck, Layers* L) {
  Rep rep;
  probe::Profiler prof;
  std::optional<probe::Profiler::ScopedInstall> prof_scope;
  if (L != nullptr) prof_scope.emplace(prof);
  const Result res = run_incident(o, Stack{}, tr, rep, L);
  if (L != nullptr) {
    L->set("device.dataplane_ms",
           static_cast<double>(
               prof.at(probe::Profiler::Span::kDataplane).wall_ns) /
               1e6);
    L->profile = prof.report();
  }

  Scope s(tr, "bench", "check");
  const IncidentExpect& want = ck.wrong() ? kIncidentWrong : kIncidentExpect;
  ck.expect("incident.monitor_confirms", res.confirmed ? 1 : 0,
            want.monitor_confirms);
  ck.expect("incident.dataplane_confirms", res.dp_first ? 1 : 0,
            want.dataplane_confirms);
  ck.expect("incident.dataplane_lead_ps",
            res.dp_first ? (res.detected_at - *res.dp_first).ps() : -1,
            want.dataplane_lead_ps);
  ck.expect("incident.trigger", res.trigger, want.trigger);
  ck.expect("incident.trapped_bytes", static_cast<double>(res.trapped),
            want.trapped_bytes);
  for (const Artifact& a : res.artifacts) {
    ck.expect(std::string("incident.artifact") + a.suffix,
              static_cast<double>(a.content.size()), want.artifact_bytes);
  }
  std::size_t reloaded = 0;
  {
    Scope r(tr, "forensics", "load_jsonl_file");
    try {
      const forensics::LoadedTrace t = forensics::load_jsonl_file(
          o.out_dir + "/incident.telemetry.jsonl");
      reloaded = t.has_topology ? t.records.size() : 0;
    } catch (const std::exception& e) {
      rep.failures.push_back(std::string("telemetry reload: ") + e.what());
    }
  }
  ck.expect("incident.records_lost_on_reload",
            static_cast<double>(res.window_records) -
                static_cast<double>(reloaded),
            want.records_lost_on_reload);

  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "deadlock=%d detect_ms=%.6f dp_ms=%.6f trapped=%lld "
                "trigger=%d spans=%zu ttl_drops=%llu",
                res.confirmed ? 1 : 0, res.detected_at.ms(),
                res.dp_first ? res.dp_first->ms() : -1.0,
                static_cast<long long>(res.trapped), res.trigger,
                res.forensic_spans,
                static_cast<unsigned long long>(res.ttl_drops));
  rep.verdicts = buf;
  rep.digest = buf;
  return rep;
}

/// Traced-run extra: the observability ablation. Each variant omits one
/// layer's objects; interleaved repetitions against the full stack.
void incident_extras(const Options& o, Tracer& tr, Layers& L) {
  struct Variant {
    const char* metric;
    Stack stack;
    std::vector<double> wall;
  };
  std::vector<Variant> variants = {
      {"full", Stack{}, {}},
      {"probe.overhead_pct", Stack{false, true, true}, {}},
      {"watch.overhead_pct", Stack{true, false, true}, {}},
      {"telemetry.overhead_pct", Stack{true, true, false}, {}},
  };
  Tracer off;
  constexpr int kReps = 3;
  for (int i = 0; i < kReps; ++i) {
    for (Variant& v : variants) {
      Rep rep;
      Scope s(tr, "bench", "ablation_run");
      const ArtifactDir dir(o.out_dir);
      Options rep_o = o;
      rep_o.out_dir = dir.path();
      run_incident(rep_o, v.stack, off, rep, nullptr);
      v.wall.push_back(rep.phase_s);
    }
  }
  const std::vector<double>& full = variants.front().wall;
  const double full_med = median(full);
  const double spread =
      *std::max_element(full.begin(), full.end()) -
      *std::min_element(full.begin(), full.end());
  for (std::size_t i = 1; i < variants.size(); ++i) {
    const double without = median(variants[i].wall);
    L.set(variants[i].metric, 100.0 * (full_med - without) / without);
    if (std::abs(full_med - without) <= spread) {
      L.note[variants[i].metric] =
          "unresolved: inside the full stack's own spread";
    }
  }
}

std::string determinism(std::uint64_t seed) {
  Tracer off;
  Net a = build(seed, off);
  Net b = build(seed, off);
  Net c = build(seed + 1, off);
  const auto pairs = [](const Net& n) {
    std::vector<std::pair<NodeId, NodeId>> out;
    for (const FlowSpec& s : n.flows) out.emplace_back(s.src_host, s.dst_host);
    return out;
  };
  if (pairs(a) != pairs(b)) return "same seed gave different flow lists";
  // The seed sets the background's arrival times, which begin at 100 us.
  const Time horizon = Time{150'000'000};  // 150 us
  for (Net* n : {&a, &b, &c}) n->sim->run_until(horizon);
  if (a.sim->events_executed() != b.sim->events_executed()) {
    return "same seed gave different sim.events on a short horizon";
  }
  if (a.sim->events_executed() == c.sim->events_executed()) {
    return "different seeds gave identical sim.events";
  }
  return "";
}

}  // namespace

const Workload kIncident = {"incident", incident_rep, incident_extras,
                            determinism};

}  // namespace perfbench
