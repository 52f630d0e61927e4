// The paper workload: the paper's scenarios swept through
// campaign::CampaignExecutor at one job with no trace directory — the
// `dcdl_sweep` path. Hundreds of short runs on 2-5 switch topologies, so
// per-run build, the executor's always-on probe, watch and forensics, and a
// shallow heap dominate: the opposite regime to `fabric` for the same
// sim/device code. Every verdict is checked against the paper.
//
// Fig. 4 and Fig. 5 are left out: their verdicts depend on the seed (Fig. 4
// deadlocked for 28 of 32 seeds at the 6 ms horizon; Fig. 5 for 1 in 8 to
// 15 in 16 at every limit tried), and a flipped verdict changes a run's
// wall time 5-30x. Every cell kept has the same verdict for every seed.
#include <algorithm>
#include <cstdio>
#include <optional>

#include "bench.hpp"
#include "dcdl/analysis/bdg.hpp"
#include "dcdl/analysis/deadlock.hpp"
#include "dcdl/analysis/risk.hpp"
#include "dcdl/campaign/campaign.hpp"
#include "dcdl/device/network.hpp"
#include "dcdl/probe/profiler.hpp"

namespace perfbench {

using namespace dcdl;

namespace {

constexpr int kSeedsPerCell = 16;

struct Cell {
  const char* scenario;
  const char* set;  ///< apply_sets() text; empty = the scenario's defaults
  bool deadlock;    ///< the paper's verdict
};

/// The paper's verdicts: the Eq. 3 boundary at 5 Gbps on both sides, the
/// Fig. 1 ring, Fig. 3 (cyclic dependency, no deadlock), a transient loop
/// below and above the boundary, and the valley with and without the
/// flow that tips it.
const Cell kCells[] = {
    {"routing_loop", "inject=2", false},
    {"routing_loop", "inject=3", false},
    {"routing_loop", "inject=4", false},
    {"routing_loop", "inject=6", true},
    {"routing_loop", "inject=7", true},
    {"routing_loop", "inject=8", true},
    {"ring", "", true},
    {"four_switch", "", false},
    {"transient_loop", "inject=3", false},
    {"transient_loop", "inject=10", true},
    {"valley", "with_extra_flow=false", false},
    {"valley", "with_extra_flow=true", true},
};
constexpr std::size_t kNumCells = sizeof(kCells) / sizeof(kCells[0]);

/// The run list: every cell with its own seed stream, renumbered so the
/// list is one campaign.
std::vector<campaign::RunSpec> make_specs(std::uint64_t seed) {
  std::vector<campaign::RunSpec> specs;
  for (std::size_t c = 0; c < kNumCells; ++c) {
    campaign::SweepSpec sweep;
    sweep.scenario = kCells[c].scenario;
    campaign::apply_sets(sweep.base, kCells[c].set);
    sweep.seeds_per_cell = kSeedsPerCell;
    sweep.root_seed = mix_seed(seed, c);
    for (campaign::RunSpec& run : campaign::expand(sweep)) {
      run.cell_index = static_cast<int>(c);
      run.run_index = static_cast<int>(specs.size());
      specs.push_back(std::move(run));
    }
  }
  return specs;
}

double telemetry_value(const campaign::RunRecord& rec, const std::string& key) {
  double v = 0;
  for (const auto& [name, value] : rec.telemetry) {
    if (name == key) v = value;
  }
  return v;
}

Rep paper_rep(const Options& o, Tracer& tr, Checks& ck, Layers* L) {
  Rep rep;
  const campaign::ScenarioRegistry& registry =
      campaign::ScenarioRegistry::global();
  probe::Profiler prof;
  std::optional<probe::Profiler::ScopedInstall> prof_scope;
  if (L != nullptr) prof_scope.emplace(prof);

  std::vector<campaign::RunSpec> specs;
  {
    Scope s(tr, "campaign", "expand");
    specs = make_specs(o.seed);
  }
  // Set-up: one ready-to-run instance, the median of one build per cell.
  // The executor builds each run's own inside the timed phase, as a sweep
  // does.
  std::vector<double> build_s;
  for (std::size_t i = 0; i < specs.size(); i += kSeedsPerCell) {
    const std::int64_t t0 = now_ns();
    Scope s(tr, "scenarios", "make");
    registry.at(specs[i].scenario).make(specs[i].params);
    build_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  const std::int64_t t1 = now_ns();
  campaign::ExecutorOptions opts;
  opts.jobs = 1;
  campaign::CampaignResult result;
  {
    Scope s(tr, "campaign", "CampaignExecutor::run");
    campaign::CampaignExecutor exec(registry, opts);
    result = exec.run(specs, o.seed);
  }
  {
    Scope s(tr, "campaign", "sink");
    campaign::write_text_file(o.out_dir + "/paper.campaign.json",
                              campaign::to_json(result));
    campaign::write_text_file(o.out_dir + "/paper.campaign.csv",
                              campaign::to_csv(result));
  }
  const std::int64_t t2 = now_ns();
  rep.setup_s = median(build_s);
  rep.phase_s = static_cast<double>(t2 - t1) / 1e9;
  for (const campaign::RunSpec& spec : specs) rep.sim_ms += spec.run_for.ms();

  // Every run must match the paper's verdict for its cell. Self-test: the
  // flipped verdict table, which no run may match.
  Scope s(tr, "bench", "check");
  rep.runs = result.records.size();
  std::size_t deadlocks = 0;
  std::vector<std::size_t> cell_matches(kNumCells, 0);
  for (const campaign::RunRecord& rec : result.records) {
    const Cell& cell = kCells[static_cast<std::size_t>(rec.cell_index)];
    const bool verdict = cell.deadlock != ck.wrong();
    const bool ok = rec.status == campaign::RunStatus::kOk &&
                    rec.deadlocked == verdict;
    rep.failed_runs += ok ? 0 : 1;
    deadlocks += rec.deadlocked ? 1 : 0;
    cell_matches[static_cast<std::size_t>(rec.cell_index)] += ok ? 1 : 0;
    rep.events += rec.events;
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%d:%.6f ", rec.deadlocked ? 1 : 0,
                  rec.detect_ms);
    rep.verdicts += buf;
  }
  for (std::size_t c = 0; c < kNumCells; ++c) {
    ck.expect(std::string("paper.verdicts_matching.") + kCells[c].scenario +
                  (kCells[c].set[0] != '\0' ? std::string(".") + kCells[c].set
                                            : std::string()),
              static_cast<double>(cell_matches[c]), exactly(kSeedsPerCell));
  }
  char buf[128];
  std::snprintf(buf, sizeof(buf), "runs=%zu deadlocked=%zu events=%llu",
                result.records.size(), deadlocks,
                static_cast<unsigned long long>(rep.events));
  rep.digest = buf;

  if (L != nullptr) {
    const int run = tr.run();
    double hw = 0, grows = 0, xoff = 0, delivered = 0, drops = 0;
    double live_ms = 0, dead_ms = 0, live = 0, dead = 0;
    std::vector<double> ring_detect;
    for (const campaign::RunRecord& rec : result.records) {
      hw = std::max(hw, telemetry_value(rec, "sim.heap_high_water"));
      grows += telemetry_value(rec, "sim.slab_grows");
      xoff += telemetry_value(rec, "net.pfc_xoff_total");
      delivered += telemetry_value(rec, "net.delivered_bytes_total");
      for (int r = 0; r < kNumDropReasons; ++r) {
        drops += telemetry_value(
            rec, std::string("net.dropped_packets_total.") +
                     to_string(static_cast<DropReason>(r)));
      }
      (rec.deadlocked ? dead_ms : live_ms) += rec.wall_ms;
      (rec.deadlocked ? dead : live) += 1;
      if (rec.scenario == "ring") ring_detect.push_back(rec.detect_ms);
    }
    L->profile = prof.report();
    const auto& loop = prof.at(probe::Profiler::Span::kEventLoop);
    L->set("sim.events", static_cast<double>(rep.events));
    L->set("sim.ns_per_event", static_cast<double>(loop.wall_ns) /
                                   static_cast<double>(loop.units));
    L->set("sim.heap_high_water", hw);
    L->set("sim.slab_grows", grows);
    L->set("device.pfc_xoff", xoff);
    L->set("device.delivered_mb", delivered / 1e6);
    L->set("device.drops", drops);
    L->set("analysis.detect_ms", median(ring_detect));
    L->note["analysis.detect_ms"] = "median over the Fig. 1 ring runs";
    L->set("campaign.ms_per_live_run", live_ms / live);
    L->set("campaign.ms_per_deadlocked_run", dead_ms / dead);
    L->set("campaign.sink_s", tr.seconds(run, "campaign", "sink"));
    L->set("scenarios.build_us",
           median(tr.durations(run, "scenarios", "make")) * 1e6);
    for (const char* m : {"topo.build_s", "routing.install_s",
                          "traffic.flows_s"}) {
      L->skip(m, "inside ScenarioDef::make (see scenarios.build_us)");
    }
  }
  return rep;
}

/// Traced-run extras: the analysis layer and the Network constructor on
/// each cell's scenario once, and the same run list at 1 vs `nproc` jobs
/// (recorded only: jobs scaling stays out of the end-to-end set).
void paper_extras(const Options& o, Tracer& tr, Layers& L) {
  tr.begin_run();
  const int run = tr.run();
  const campaign::ScenarioRegistry& registry =
      campaign::ScenarioRegistry::global();
  std::vector<double> network_s;
  for (const Cell& cell : kCells) {
    campaign::ParamMap params;
    campaign::apply_sets(params, cell.set);
    scenarios::Scenario sc = registry.at(cell.scenario).make(params);
    {
      Scope s(tr, "analysis", "assess_deadlock_risk");
      analysis::assess_deadlock_risk(*sc.net, sc.flows);
    }
    {
      Scope s(tr, "analysis", "bdg_build_and_cycles");
      const auto bdg = analysis::BufferDependencyGraph::build(*sc.net,
                                                              sc.flows);
      bdg.cycles();
    }
    sc.sim->run_until(Time{2'000'000'000});
    {
      Scope s(tr, "analysis", "snapshot_wait_for");
      analysis::snapshot_wait_for(*sc.net);
    }
    Simulator sim;
    const std::int64_t t0 = now_ns();
    {
      Scope s(tr, "device", "Network");
      Network net(sim, *sc.topo, sc.net->config());
    }
    network_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  L.set("analysis.risk_s", tr.seconds(run, "analysis", "assess_deadlock_risk"));
  L.set("analysis.bdg_s", tr.seconds(run, "analysis", "bdg_build_and_cycles"));
  L.set("analysis.wait_for_us",
        tr.seconds(run, "analysis", "snapshot_wait_for") * 1e6);
  L.note["analysis.risk_s"] = "one call per cell, summed";
  L.note["analysis.bdg_s"] = "one call per cell, summed";
  L.note["analysis.wait_for_us"] = "one call per cell at 2 ms, summed";
  L.set("device.build_s", median(network_s));
  L.note["device.build_s"] = "median over the cells' topologies";

  const std::vector<campaign::RunSpec> specs = make_specs(o.seed);
  std::vector<double> one, many;
  for (int rep = 0; rep < 2; ++rep) {
    for (const int jobs : {1, o.nproc}) {
      campaign::ExecutorOptions opts;
      opts.jobs = jobs;
      campaign::CampaignExecutor exec(registry, opts);
      Scope s(tr, "campaign", "CampaignExecutor::run_jobs");
      const std::int64_t t0 = now_ns();
      exec.run(specs, o.seed);
      (jobs == 1 ? one : many)
          .push_back(static_cast<double>(now_ns() - t0) / 1e9);
    }
  }
  if (o.nproc > 1) {
    L.set("campaign.jobs_speedup", median(one) / median(many));
  } else {
    L.skip("campaign.jobs_speedup", "one CPU: no parallel run");
  }
}

std::string determinism(std::uint64_t seed) {
  const auto a = make_specs(seed);
  const auto b = make_specs(seed);
  const auto c = make_specs(seed + 1);
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].seed != b[i].seed || !(a[i].params == b[i].params)) {
      return "same seed gave different run lists";
    }
  }
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) differs |= a[i].seed != c[i].seed;
  if (!differs) return "different seeds gave one run list";
  const campaign::ScenarioRegistry& registry =
      campaign::ScenarioRegistry::global();
  for (std::size_t i = 0; i < a.size(); i += kSeedsPerCell) {
    campaign::RunSpec spec = a[i];
    spec.run_for = Time{500'000'000};  // 0.5 ms
    spec.drain_grace = Time{500'000'000};
    const auto r1 = campaign::execute_run(registry, spec);
    const auto r2 = campaign::execute_run(registry, spec);
    if (r1.events != r2.events) {
      return "same seed gave different sim.events on a short horizon";
    }
  }
  return "";
}

}  // namespace

const Workload kPaper = {"paper", paper_rep, paper_extras, determinism};

}  // namespace perfbench
