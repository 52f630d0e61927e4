// §4 "Limiting PFC pause frames propagation": threshold policies that make
// pauses originate near sources and let higher tiers absorb bursts.
//
// Workload: bursty senders (randomized on/off, ~50 KB bursts) across a
// leaf-spine fabric into one receiver. Metrics: PFC pause events split by
// tier, buffer-overflow drops (must be 0), and goodput.
//
// Policies: uniform small, uniform large, per-tier (larger upstream), and
// directional (small on downstream-facing ports, large on upstream).
//
// The four policy runs go through the dcdl::campaign engine as a sweep over
// a bench-registered "mit_thresholds" scenario whose instrumentation hook
// splits pause assertions by tier and runs the forensic cascade analysis
// (forensics::analyze) over the pause log at stop.
//
// Flags: --run_ms=10, --senders=6, --jobs, --out=mit.json, --timing.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>

#include "dcdl/campaign/campaign.hpp"
#include "dcdl/common/flags.hpp"
#include "dcdl/device/host.hpp"
#include "dcdl/forensics/causality.hpp"
#include "dcdl/mitigation/thresholds.hpp"
#include "dcdl/routing/compute.hpp"
#include "dcdl/stats/csv.hpp"
#include "dcdl/stats/hooks.hpp"
#include "dcdl/stats/pause_log.hpp"
#include "dcdl/topo/generators.hpp"

using namespace dcdl;
using namespace dcdl::literals;
using namespace dcdl::campaign;
using namespace dcdl::topo;

namespace {

void register_mit_thresholds(ScenarioRegistry& reg) {
  ScenarioDef def;
  def.name = "mit_thresholds";
  def.description =
      "paper §4: PFC threshold policy on a 3x2 leaf-spine under bursty "
      "incast";
  def.params = {
      {"policy", ParamKind::kString, "",
       "uniform_small | uniform_large | tiered | directional"},
      {"senders", ParamKind::kInt, "", "bursty sending hosts"},
      {"small_bytes", ParamKind::kInt, "", "small (edge) XOFF threshold"},
      {"large_bytes", ParamKind::kInt, "", "large (core) XOFF threshold"},
      {"hyst_bytes", ParamKind::kInt, "", "XON hysteresis"},
  };
  def.make = [](const ParamMap& pm) {
    scenarios::Scenario s;
    s.sim = std::make_unique<Simulator>();
    const LeafSpineTopo ls = make_leaf_spine(3, 2, 4);
    s.topo = std::make_unique<Topology>(ls.topo);
    s.net = std::make_unique<Network>(*s.sim, *s.topo, NetConfig{});
    routing::install_shortest_paths(*s.net);

    const std::int64_t small = pm.get_int("small_bytes", 8 * 1024);
    const std::int64_t large = pm.get_int("large_bytes", 160 * 1024);
    const std::int64_t hyst = pm.get_int("hyst_bytes", 2000);
    const std::string policy = pm.get_string("policy", "tiered");
    if (policy == "uniform_small") {
      mitigation::apply_tier_thresholds(*s.net, {small, small, small}, hyst);
    } else if (policy == "uniform_large") {
      mitigation::apply_tier_thresholds(*s.net, {large, large, large}, hyst);
    } else if (policy == "tiered") {
      mitigation::apply_tier_thresholds(*s.net, {small, small, large}, hyst);
    } else if (policy == "directional") {
      mitigation::apply_directional_thresholds(*s.net, small, large, hyst);
    } else {
      throw CampaignError("mit_thresholds: unknown policy '" + policy + "'");
    }

    const int senders = static_cast<int>(pm.get_int("senders", 6));
    const NodeId receiver = ls.hosts[0][0];
    int made = 0;
    for (int leaf = 1; leaf < 3 && made < senders; ++leaf) {
      for (int h = 0; h < 4 && made < senders; ++h) {
        FlowSpec f;
        f.id = static_cast<FlowId>(made + 1);
        f.src_host = ls.hosts[static_cast<std::size_t>(leaf)]
                             [static_cast<std::size_t>(h)];
        f.dst_host = receiver;
        f.packet_bytes = 1000;
        s.net->host_at(f.src_host).add_flow(
            f, std::make_unique<OnOffPacer>(10_us, 60_us,
                                            /*seed=*/17 * (made + 1),
                                            /*randomized=*/true));
        s.flows.push_back(f);
        ++made;
      }
    }
    return s;
  };
  def.instrument = [](scenarios::Scenario& s, const ParamMap&) {
    struct TierCounts {
      std::uint64_t tier1 = 0, tier2 = 0, host = 0;
    };
    auto counts = std::make_shared<TierCounts>();
    auto log = std::make_shared<stats::PauseEventLog>(*s.net);
    Network* net = s.net.get();
    stats::append_hook<Time, NodeId, PortId, ClassId, bool>(
        net->trace().pfc_state,
        [counts, net](Time, NodeId node, PortId port, ClassId, bool paused) {
          if (!paused) return;
          const NodeId peer = net->topo().peer(node, port).peer_node;
          if (net->topo().is_host(peer)) {
            ++counts->host;
          } else if (net->topo().node(node).tier == 1) {
            ++counts->tier1;
          } else {
            ++counts->tier2;
          }
        });
    return [counts, log, net](const RunRecord&, MetricSink& out) {
      out.emplace_back("pauses_tier1", static_cast<double>(counts->tier1));
      out.emplace_back("pauses_tier2", static_cast<double>(counts->tier2));
      out.emplace_back("pauses_host", static_cast<double>(counts->host));
      const forensics::CascadeReport cascade =
          forensics::analyze(forensics::input_from_pause_log(
              net->topo(), *log, net->sim().now()));
      int max_depth = 0;
      double depth_sum = 0;
      for (const forensics::PauseSpan& span : cascade.spans) {
        max_depth = std::max(max_depth, span.depth);
        depth_sum += span.depth;
      }
      out.emplace_back("cascade_mean_depth",
                       cascade.spans.empty()
                           ? 0.0
                           : depth_sum /
                                 static_cast<double>(cascade.spans.size()));
      out.emplace_back("cascade_max_depth", static_cast<double>(max_depth));
      out.emplace_back(
          "overflow_drops",
          static_cast<double>(net->drops(DropReason::kBufferOverflow)));
    };
  };
  reg.add(std::move(def));
}

double metric(const RunRecord& rec, const std::string& name) {
  for (const auto& [k, v] : rec.metrics) {
    if (k == name) return v;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const Time run_for = Time{flags.get_int("run_ms", 10) * 1'000'000'000};
  const int senders = static_cast<int>(flags.get_int("senders", 6));
  const int jobs = flags.jobs();
  const std::string out_path = flags.out();
  const bool timing = flags.get_bool("timing", false);
  flags.check_unused();

  ScenarioRegistry& reg = ScenarioRegistry::global();
  register_mit_thresholds(reg);

  SweepSpec spec;
  spec.scenario = "mit_thresholds";
  spec.base.set("senders", ParamValue::of_int(senders));
  GridAxis policy_axis{"policy", {}};
  for (const char* p :
       {"uniform_small", "uniform_large", "tiered", "directional"}) {
    policy_axis.values.push_back(ParamValue::of_string(p));
  }
  spec.axes = {policy_axis};
  spec.run_for = run_for;
  spec.drain_grace = 10_ms;

  ExecutorOptions opts;
  opts.jobs = jobs;
  CampaignExecutor exec(reg, opts);
  const CampaignResult result = exec.run(expand(spec), spec.root_seed);
  std::fprintf(stderr, "# campaign: %zu runs in %.0f ms wall on %d job(s)\n",
               result.records.size(), result.total_wall_ms, result.jobs);

  stats::CsvWriter csv;
  std::printf("# §4 threshold policies vs PFC pause generation "
              "(bursty incast, leaf-spine)\n");
  csv.header({"policy", "pauses_at_leaves", "pauses_at_spines",
              "pauses_on_hosts", "goodput_gbps", "cascade_mean_depth",
              "cascade_max_depth"});
  for (const RunRecord& r : result.records) {
    if (metric(r, "overflow_drops") > 0) {
      std::printf("# WARNING: overflow drops under policy %s\n",
                  r.params.get_string("policy", "?").c_str());
    }
    csv.row({r.params.get_string("policy", "?"),
             stats::CsvWriter::num(
                 static_cast<std::int64_t>(metric(r, "pauses_tier1"))),
             stats::CsvWriter::num(
                 static_cast<std::int64_t>(metric(r, "pauses_tier2"))),
             stats::CsvWriter::num(
                 static_cast<std::int64_t>(metric(r, "pauses_host"))),
             stats::CsvWriter::num(r.goodput_gbps),
             stats::CsvWriter::num(metric(r, "cascade_mean_depth")),
             stats::CsvWriter::num(
                 static_cast<std::int64_t>(metric(r, "cascade_max_depth")))});
  }
  std::printf("# paper expectation: larger thresholds at higher tiers absorb "
              "bursts -> fabric pauses drop; pauses that remain originate "
              "near the edge\n");

  if (!out_path.empty()) {
    WriteOptions wopts;
    wopts.include_timing = timing;
    write_text_file(out_path, to_json(result, wopts));
    std::fprintf(stderr, "# wrote %s\n", out_path.c_str());
  }
  return 0;
}
