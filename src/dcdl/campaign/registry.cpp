#include "dcdl/campaign/registry.hpp"

#include "dcdl/analysis/boundary.hpp"
#include "dcdl/analysis/fluid.hpp"
#include "dcdl/analysis/risk.hpp"
#include "dcdl/dataplane/dataplane.hpp"

namespace dcdl::campaign {

ScenarioRegistry& ScenarioRegistry::global() {
  static ScenarioRegistry reg = [] {
    ScenarioRegistry r;
    register_builtin_scenarios(r);
    return r;
  }();
  return reg;
}

void ScenarioRegistry::add(ScenarioDef def) {
  if (defs_.count(def.name)) {
    throw CampaignError("scenario '" + def.name + "' is already registered");
  }
  replace(std::move(def));
}

void ScenarioRegistry::replace(ScenarioDef def) {
  if (def.name.empty() || !def.make) {
    throw CampaignError("scenario definition needs a name and a factory");
  }
  defs_[def.name] = std::move(def);
}

const ScenarioDef* ScenarioRegistry::find(const std::string& name) const {
  const auto it = defs_.find(name);
  return it == defs_.end() ? nullptr : &it->second;
}

const ScenarioDef& ScenarioRegistry::at(const std::string& name) const {
  const ScenarioDef* def = find(name);
  if (!def) {
    std::string known;
    for (const auto& [n, d] : defs_) known += (known.empty() ? "" : ", ") + n;
    throw CampaignError("unknown scenario '" + name + "' (known: " + known +
                        ")");
  }
  return *def;
}

std::vector<std::string> ScenarioRegistry::names() const {
  std::vector<std::string> out;
  for (const auto& [n, d] : defs_) out.push_back(n);
  return out;
}

void ScenarioRegistry::validate_params(const std::string& scenario,
                                       const ParamMap& params) const {
  const ScenarioDef& def = at(scenario);
  for (const auto& [name, value] : params.items()) {
    if (name == "seed") continue;
    bool known = false;
    for (const ParamSpec& p : def.params) known = known || p.name == name;
    if (!known) {
      throw CampaignError("scenario '" + scenario + "' has no param '" + name +
                          "'");
    }
  }
}

namespace {

using scenarios::Scenario;

// Shared knob readers, defaulting to the scenario struct's own defaults so a
// registered scenario with no overrides is exactly the paper configuration.
Time time_us(const ParamMap& pm, const char* name, Time fallback) {
  return Time{static_cast<std::int64_t>(pm.get_double(name, fallback.us()) *
                                        1e6)};
}

/// Shared "dataplane" knob: the in-switch DCFIT pipeline's recovery policy.
ParamSpec dataplane_param_spec() {
  return {"dataplane", ParamKind::kString, "",
          "in-switch pipeline policy: off|detect|drop|reroute|pfc_lift"};
}

dataplane::DataplaneConfig dataplane_cfg(const ParamMap& pm) {
  dataplane::DataplaneConfig cfg;
  const std::string s = pm.get_string("dataplane", "off");
  if (!dataplane::parse_policy(s, &cfg.policy)) {
    throw CampaignError("unknown dataplane policy '" + s +
                        "' (off|detect|drop|reroute|pfc_lift)");
  }
  return cfg;
}

ScenarioDef::Finisher loop_threshold_metrics(int loop_len, Rate bandwidth,
                                             int ttl, Rate inject) {
  return [=](const RunRecord&, MetricSink& out) {
    const double thr =
        analysis::BoundaryModel::deadlock_threshold(loop_len, bandwidth, ttl)
            .as_gbps();
    out.emplace_back("r_threshold_gbps", thr);
    out.emplace_back("threshold_residual_gbps", inject.as_gbps() - thr);
    out.emplace_back(
        "analytic_deadlock",
        analysis::BoundaryModel::predicts_deadlock(loop_len, bandwidth, ttl,
                                                   inject)
            ? 1
            : 0);
  };
}

scenarios::RoutingLoopParams loop_params(const ParamMap& pm) {
  scenarios::RoutingLoopParams p;
  p.loop_len = static_cast<int>(pm.get_int("loop_len", p.loop_len));
  p.bandwidth = Rate::gbps(pm.get_double("bw_gbps", p.bandwidth.as_gbps()));
  p.link_delay = time_us(pm, "link_delay_us", p.link_delay);
  p.ttl = static_cast<int>(pm.get_int("ttl", p.ttl));
  p.inject = Rate::gbps(pm.get_double("inject", p.inject.as_gbps()));
  p.packet_bytes =
      static_cast<std::uint32_t>(pm.get_int("packet_bytes", p.packet_bytes));
  p.xoff_bytes = pm.get_int("xoff_bytes", p.xoff_bytes);
  p.num_classes = static_cast<int>(pm.get_int("num_classes", p.num_classes));
  p.ttl_class_band =
      static_cast<int>(pm.get_int("ttl_class_band", p.ttl_class_band));
  p.dataplane = dataplane_cfg(pm);
  return p;
}

std::vector<ParamSpec> loop_param_specs() {
  return {
      {"loop_len", ParamKind::kInt, "", "switches in the routing loop"},
      {"bw_gbps", ParamKind::kDouble, "gbps", "link bandwidth"},
      {"link_delay_us", ParamKind::kDouble, "us", "per-link propagation"},
      {"ttl", ParamKind::kInt, "", "initial packet TTL"},
      {"inject", ParamKind::kDouble, "gbps", "injection rate; 0 = greedy"},
      {"packet_bytes", ParamKind::kInt, "", "frame size"},
      {"xoff_bytes", ParamKind::kInt, "", "static PFC threshold"},
      {"num_classes", ParamKind::kInt, "", "lossless priority classes"},
      {"ttl_class_band", ParamKind::kInt, "", "TTL band width; 0 = off"},
      dataplane_param_spec(),
  };
}

void register_routing_loop(ScenarioRegistry& reg) {
  ScenarioDef def;
  def.name = "routing_loop";
  def.description =
      "paper §3.1 / Fig.2: single flow into an n-switch routing loop "
      "(deadlock iff inject > n*B/TTL)";
  def.params = loop_param_specs();
  def.make = [](const ParamMap& pm) {
    return scenarios::make_routing_loop(loop_params(pm));
  };
  def.instrument = [](Scenario&, const ParamMap& pm) {
    const auto p = loop_params(pm);
    return loop_threshold_metrics(p.loop_len, p.bandwidth, p.ttl, p.inject);
  };
  reg.add(std::move(def));
}

void register_four_switch(ScenarioRegistry& reg) {
  ScenarioDef def;
  def.name = "four_switch";
  def.description =
      "paper §3.2-3.3 / Figs.3-5: A-B-C-D ring, two crossing flows, "
      "optional third flow and Fig.5 rate limit";
  def.params = {
      {"with_flow3", ParamKind::kBool, "", "add the Fig.4 third flow"},
      {"flow3_limit", ParamKind::kDouble, "gbps",
       "Fig.5 ingress limit on flow 3; 0 = unlimited"},
      {"bw_gbps", ParamKind::kDouble, "gbps", "link bandwidth"},
      {"link_delay_us", ParamKind::kDouble, "us", "per-link propagation"},
      {"packet_bytes", ParamKind::kInt, "", "frame size"},
      {"xoff_bytes", ParamKind::kInt, "", "static PFC threshold"},
      {"buffer_bytes", ParamKind::kInt, "", "switch buffer"},
      {"ttl", ParamKind::kInt, "", "initial packet TTL"},
      {"tx_jitter_ns", ParamKind::kDouble, "ns", "inter-frame jitter"},
      dataplane_param_spec(),
  };
  def.make = [](const ParamMap& pm) {
    scenarios::FourSwitchParams p;
    p.with_flow3 = pm.get_bool("with_flow3", p.with_flow3);
    p.flow3_limit =
        Rate::gbps(pm.get_double("flow3_limit", p.flow3_limit.as_gbps()));
    p.bandwidth = Rate::gbps(pm.get_double("bw_gbps", p.bandwidth.as_gbps()));
    p.link_delay = time_us(pm, "link_delay_us", p.link_delay);
    p.packet_bytes =
        static_cast<std::uint32_t>(pm.get_int("packet_bytes", p.packet_bytes));
    p.xoff_bytes = pm.get_int("xoff_bytes", p.xoff_bytes);
    p.buffer_bytes = pm.get_int("buffer_bytes", p.buffer_bytes);
    p.ttl = static_cast<std::uint8_t>(pm.get_int("ttl", p.ttl));
    p.tx_jitter = Time{static_cast<std::int64_t>(
        pm.get_double("tx_jitter_ns", p.tx_jitter.ns()) * 1e3)};
    p.seed = static_cast<std::uint64_t>(pm.get_int("seed", 1));
    p.dataplane = dataplane_cfg(pm);
    return scenarios::make_four_switch(p);
  };
  reg.add(std::move(def));
}

void register_ring(ScenarioRegistry& reg) {
  ScenarioDef def;
  def.name = "ring";
  def.description =
      "paper Fig.1: n-switch ring with span-s circulating flows";
  def.params = {
      {"num_switches", ParamKind::kInt, "", "switches in the ring"},
      {"span", ParamKind::kInt, "", "ring links each flow traverses"},
      {"bw_gbps", ParamKind::kDouble, "gbps", "link bandwidth"},
      {"link_delay_us", ParamKind::kDouble, "us", "per-link propagation"},
      {"packet_bytes", ParamKind::kInt, "", "frame size"},
      {"xoff_bytes", ParamKind::kInt, "", "static PFC threshold"},
      {"ttl", ParamKind::kInt, "", "initial packet TTL"},
      {"num_classes", ParamKind::kInt, "", "lossless priority classes"},
      {"hop_classes", ParamKind::kBool, "", "hop-count buffer classes"},
      {"tx_jitter_ns", ParamKind::kDouble, "ns", "inter-frame jitter"},
      dataplane_param_spec(),
  };
  def.make = [](const ParamMap& pm) {
    scenarios::RingDeadlockParams p;
    p.num_switches =
        static_cast<int>(pm.get_int("num_switches", p.num_switches));
    p.span = static_cast<int>(pm.get_int("span", p.span));
    p.bandwidth = Rate::gbps(pm.get_double("bw_gbps", p.bandwidth.as_gbps()));
    p.link_delay = time_us(pm, "link_delay_us", p.link_delay);
    p.packet_bytes =
        static_cast<std::uint32_t>(pm.get_int("packet_bytes", p.packet_bytes));
    p.xoff_bytes = pm.get_int("xoff_bytes", p.xoff_bytes);
    p.ttl = static_cast<std::uint8_t>(pm.get_int("ttl", p.ttl));
    p.num_classes = static_cast<int>(pm.get_int("num_classes", p.num_classes));
    p.hop_classes = pm.get_bool("hop_classes", p.hop_classes);
    p.tx_jitter = Time{static_cast<std::int64_t>(
        pm.get_double("tx_jitter_ns", p.tx_jitter.ns()) * 1e3)};
    p.seed = static_cast<std::uint64_t>(pm.get_int("seed", 1));
    p.dataplane = dataplane_cfg(pm);
    return scenarios::make_ring_deadlock(p);
  };
  reg.add(std::move(def));
}

void register_transient_loop(ScenarioRegistry& reg) {
  ScenarioDef def;
  def.name = "transient_loop";
  def.description =
      "paper §1: routes loop during [loop_start, +duration) then repair; "
      "the deadlock outlives the loop";
  def.params = {
      {"loop_len", ParamKind::kInt, "", "switches in the transient loop"},
      {"bw_gbps", ParamKind::kDouble, "gbps", "link bandwidth"},
      {"link_delay_us", ParamKind::kDouble, "us", "per-link propagation"},
      {"ttl", ParamKind::kInt, "", "initial packet TTL"},
      {"inject", ParamKind::kDouble, "gbps", "injection rate; 0 = greedy"},
      {"packet_bytes", ParamKind::kInt, "", "frame size"},
      {"xoff_bytes", ParamKind::kInt, "", "static PFC threshold"},
      {"loop_start_us", ParamKind::kDouble, "us", "loop formation time"},
      {"loop_duration_us", ParamKind::kDouble, "us", "loop lifetime"},
      {"num_classes", ParamKind::kInt, "", "lossless priority classes"},
      {"ttl_class_band", ParamKind::kInt, "", "TTL band width; 0 = off"},
      dataplane_param_spec(),
  };
  def.make = [](const ParamMap& pm) {
    scenarios::TransientLoopParams p;
    p.loop_len = static_cast<int>(pm.get_int("loop_len", p.loop_len));
    p.bandwidth = Rate::gbps(pm.get_double("bw_gbps", p.bandwidth.as_gbps()));
    p.link_delay = time_us(pm, "link_delay_us", p.link_delay);
    p.ttl = static_cast<int>(pm.get_int("ttl", p.ttl));
    p.inject = Rate::gbps(pm.get_double("inject", p.inject.as_gbps()));
    p.packet_bytes =
        static_cast<std::uint32_t>(pm.get_int("packet_bytes", p.packet_bytes));
    p.xoff_bytes = pm.get_int("xoff_bytes", p.xoff_bytes);
    p.loop_start = time_us(pm, "loop_start_us", p.loop_start);
    p.loop_duration = time_us(pm, "loop_duration_us", p.loop_duration);
    p.num_classes = static_cast<int>(pm.get_int("num_classes", p.num_classes));
    p.ttl_class_band =
        static_cast<int>(pm.get_int("ttl_class_band", p.ttl_class_band));
    p.dataplane = dataplane_cfg(pm);
    return scenarios::make_transient_loop(p);
  };
  def.instrument = [](Scenario&, const ParamMap& pm) {
    scenarios::TransientLoopParams p;
    const int loop_len = static_cast<int>(pm.get_int("loop_len", p.loop_len));
    const Rate bw = Rate::gbps(pm.get_double("bw_gbps", p.bandwidth.as_gbps()));
    const int ttl = static_cast<int>(pm.get_int("ttl", p.ttl));
    const Rate inject = Rate::gbps(pm.get_double("inject", p.inject.as_gbps()));
    return loop_threshold_metrics(loop_len, bw, ttl, inject);
  };
  reg.add(std::move(def));
}

void register_valley(ScenarioRegistry& reg) {
  ScenarioDef def;
  def.name = "valley";
  def.description =
      "paper §2 (Guo et al.): valley-path flows close a cycle in a tree "
      "fabric; strict up-down is the fix";
  def.params = {
      {"with_extra_flow", ParamKind::kBool, "", "add the tipping flow"},
      {"strict_up_down", ParamKind::kBool, "", "route valley-free instead"},
      {"bw_gbps", ParamKind::kDouble, "gbps", "link bandwidth"},
      {"link_delay_us", ParamKind::kDouble, "us", "per-link propagation"},
      {"packet_bytes", ParamKind::kInt, "", "frame size"},
      {"xoff_bytes", ParamKind::kInt, "", "static PFC threshold"},
      {"ttl", ParamKind::kInt, "", "initial packet TTL"},
      {"tx_jitter_ns", ParamKind::kDouble, "ns", "inter-frame jitter"},
      dataplane_param_spec(),
  };
  def.make = [](const ParamMap& pm) {
    scenarios::ValleyViolationParams p;
    p.with_extra_flow = pm.get_bool("with_extra_flow", p.with_extra_flow);
    p.strict_up_down = pm.get_bool("strict_up_down", p.strict_up_down);
    p.bandwidth = Rate::gbps(pm.get_double("bw_gbps", p.bandwidth.as_gbps()));
    p.link_delay = time_us(pm, "link_delay_us", p.link_delay);
    p.packet_bytes =
        static_cast<std::uint32_t>(pm.get_int("packet_bytes", p.packet_bytes));
    p.xoff_bytes = pm.get_int("xoff_bytes", p.xoff_bytes);
    p.ttl = static_cast<std::uint8_t>(pm.get_int("ttl", p.ttl));
    p.tx_jitter = Time{static_cast<std::int64_t>(
        pm.get_double("tx_jitter_ns", p.tx_jitter.ns()) * 1e3)};
    p.seed = static_cast<std::uint64_t>(pm.get_int("seed", 1));
    p.dataplane = dataplane_cfg(pm);
    return scenarios::make_valley_violation(p);
  };
  reg.add(std::move(def));
}

void register_incast(ScenarioRegistry& reg) {
  ScenarioDef def;
  def.name = "incast";
  def.description =
      "leaf-spine N-to-1 incast (PFC propagation / DCQCN workloads)";
  def.params = {
      {"num_leaves", ParamKind::kInt, "", "leaf switches"},
      {"num_spines", ParamKind::kInt, "", "spine switches"},
      {"hosts_per_leaf", ParamKind::kInt, "", "hosts per leaf"},
      {"senders", ParamKind::kInt, "", "sending hosts"},
      {"bw_gbps", ParamKind::kDouble, "gbps", "link bandwidth"},
      {"link_delay_us", ParamKind::kDouble, "us", "per-link propagation"},
      {"packet_bytes", ParamKind::kInt, "", "frame size"},
      {"xoff_bytes", ParamKind::kInt, "", "static PFC threshold"},
      {"ecn", ParamKind::kBool, "", "enable ECN marking"},
      {"dcqcn", ParamKind::kBool, "", "enable DCQCN pacers"},
      {"phantom_speed_fraction", ParamKind::kDouble, "",
       "phantom queue drain fraction"},
  };
  def.make = [](const ParamMap& pm) {
    scenarios::IncastParams p;
    p.num_leaves = static_cast<int>(pm.get_int("num_leaves", p.num_leaves));
    p.num_spines = static_cast<int>(pm.get_int("num_spines", p.num_spines));
    p.hosts_per_leaf =
        static_cast<int>(pm.get_int("hosts_per_leaf", p.hosts_per_leaf));
    p.num_senders = static_cast<int>(pm.get_int("senders", p.num_senders));
    p.bandwidth = Rate::gbps(pm.get_double("bw_gbps", p.bandwidth.as_gbps()));
    p.link_delay = time_us(pm, "link_delay_us", p.link_delay);
    p.packet_bytes =
        static_cast<std::uint32_t>(pm.get_int("packet_bytes", p.packet_bytes));
    p.xoff_bytes = pm.get_int("xoff_bytes", p.xoff_bytes);
    p.ecn = pm.get_bool("ecn", p.ecn);
    p.dcqcn = pm.get_bool("dcqcn", p.dcqcn);
    p.phantom_speed_fraction =
        pm.get_double("phantom_speed_fraction", p.phantom_speed_fraction);
    return scenarios::make_incast(p);
  };
  reg.add(std::move(def));
}

/// One "family" of a twin scenario: the registered definition whose `make`
/// builds the packet run, plus knobs it defaults differently.
struct Family {
  std::string name;
  std::string base;
  ParamMap defaults;  ///< applied where the run leaves a knob unset
};

/// A factory that dispatches on the "family" param to the base
/// definitions' own `make`, so a twin scenario builds exactly the network
/// its base scenario does. The bases must be registered first.
std::function<Scenario(const ParamMap&)> family_make(
    const ScenarioRegistry& reg, const std::string& scenario,
    const std::string& fallback, const std::vector<Family>& families) {
  std::vector<std::pair<Family, std::function<Scenario(const ParamMap&)>>>
      table;
  std::string known;
  for (const Family& f : families) {
    table.emplace_back(f, reg.at(f.base).make);
    known += (known.empty() ? "" : " | ") + f.name;
  }
  return [=](const ParamMap& pm) {
    const std::string family = pm.get_string("family", fallback);
    for (const auto& [f, make] : table) {
      if (f.name != family) continue;
      ParamMap params = pm;
      for (const auto& [name, value] : f.defaults.items()) {
        if (!params.has(name)) params.set(name, value);
      }
      return make(params);
    }
    throw CampaignError(scenario + ": unknown family '" + family + "' (" +
                        known + ")");
  };
}

// bench_fluid_model as a campaign scenario: the packet run fills the main
// columns (deadlocked, detect_ms, goodput); the fluid twin of the same
// configuration is integrated inside the finisher and lands in the metrics,
// so one CSV row holds both verdicts and the §3.2 gap is a column diff.
void register_fluid_gap(ScenarioRegistry& reg) {
  // The four_switch twin is Fig. 4 unless the run turns flow 3 off.
  ParamMap fig4_default;
  fig4_default.set("with_flow3", ParamValue::of_bool(true));
  ScenarioDef def;
  def.name = "fluid_gap";
  def.description =
      "fluid-vs-packet twin run (paper §3.2/§3.3): packet verdict in the "
      "core columns, fluid twin verdict + Eq.3 analytics in the metrics";
  def.params = {
      {"family", ParamKind::kString, "", "loop | four_switch"},
      {"loop_len", ParamKind::kInt, "", "loop: switches in the routing loop"},
      {"inject", ParamKind::kDouble, "gbps", "loop: injection rate"},
      {"ttl", ParamKind::kInt, "", "initial packet TTL"},
      {"bw_gbps", ParamKind::kDouble, "gbps", "link bandwidth"},
      {"with_flow3", ParamKind::kBool, "", "four_switch: add the Fig.4 flow"},
      {"flow3_limit", ParamKind::kDouble, "gbps",
       "four_switch: flow-3 ingress limit; 0 = greedy"},
      {"fluid_run_ms", ParamKind::kDouble, "ms", "fluid integration horizon"},
  };
  def.make = family_make(reg, "fluid_gap", "loop",
                         {{"loop", "routing_loop", {}},
                          {"four_switch", "four_switch", fig4_default}});
  def.instrument = [](Scenario&, const ParamMap& pm) -> ScenarioDef::Finisher {
    return [pm](const RunRecord&, MetricSink& out) {
      const std::string family = pm.get_string("family", "loop");
      const Time horizon{static_cast<std::int64_t>(
          pm.get_double("fluid_run_ms", 10.0) * 1e9)};
      analysis::FluidResult fr;
      if (family == "loop") {
        const scenarios::RoutingLoopParams p = loop_params(pm);
        analysis::FluidModel fm = analysis::make_fluid_routing_loop(
            p.loop_len, p.bandwidth, p.ttl, p.inject);
        fr = fm.run(horizon);
        out.emplace_back("r_threshold_gbps",
                         analysis::BoundaryModel::deadlock_threshold(
                             p.loop_len, p.bandwidth, p.ttl)
                             .as_gbps());
        out.emplace_back("analytic_deadlock",
                         analysis::BoundaryModel::predicts_deadlock(
                             p.loop_len, p.bandwidth, p.ttl, p.inject)
                             ? 1
                             : 0);
      } else {
        const bool with_flow3 = pm.get_bool("with_flow3", true);
        const double limit = pm.get_double("flow3_limit", 0.0);
        // The fluid model needs an explicit demand; greedy = line rate.
        const Rate flow3 = Rate::gbps(
            limit > 0 ? limit : pm.get_double("bw_gbps", 40.0));
        analysis::FluidFourSwitch fs =
            analysis::make_fluid_four_switch(with_flow3, flow3);
        fr = fs.model.run(horizon);
      }
      out.emplace_back("fluid_deadlocked", fr.deadlocked ? 1 : 0);
      out.emplace_back("fluid_deadlock_at_ms",
                       fr.deadlocked ? fr.deadlock_at.ms() : -1.0);
      out.emplace_back("fluid_cycle_queues",
                       static_cast<double>(fr.deadlock_queues.size()));
      double goodput = 0;
      for (const double bps : fr.mean_goodput_bps) goodput += bps;
      out.emplace_back("fluid_goodput_gbps", goodput / 1e9);
    };
  };
  reg.add(std::move(def));
}

// bench_risk_score as a campaign scenario: the slack-link rule is scored at
// t=0 over the live network, the packet outcome lands in `deadlocked`, and
// prediction-vs-outcome agreement is a per-row comparison in the sweep CSV.
void register_risk_probe(ScenarioRegistry& reg) {
  ScenarioDef def;
  def.name = "risk_probe";
  def.description =
      "tighter-than-CBD risk scoring: slack-link rule prediction in the "
      "metrics, packet outcome in the core columns";
  def.params = {
      {"family", ParamKind::kString, "",
       "four_switch | loop | ring | incast | valley"},
      {"with_flow3", ParamKind::kBool, "", "four_switch: add the Fig.4 flow"},
      {"flow3_limit", ParamKind::kDouble, "gbps",
       "four_switch: flow-3 ingress limit; 0 = greedy"},
      {"with_extra_flow", ParamKind::kBool, "", "valley: add the tipping flow"},
      {"inject", ParamKind::kDouble, "gbps", "loop: injection rate"},
  };
  def.make = family_make(reg, "risk_probe", "four_switch",
                         {{"four_switch", "four_switch", {}},
                          {"loop", "routing_loop", {}},
                          {"ring", "ring", {}},
                          {"incast", "incast", {}},
                          {"valley", "valley", {}}});
  def.instrument = [](Scenario& s, const ParamMap& pm) {
    // Assess at t=0, before any packet moves — the same vantage point the
    // standalone bench uses. Demands mirror the knobs that cap flows.
    const std::string family = pm.get_string("family", "four_switch");
    std::vector<Rate> demands;
    if (family == "loop") {
      demands = {loop_params(pm).inject};
    } else if (family == "four_switch") {
      const double limit = pm.get_double("flow3_limit", 0.0);
      if (pm.get_bool("with_flow3", false) && limit > 0) {
        demands = {Rate::zero(), Rate::zero(), Rate::gbps(limit)};
      }
    }
    const analysis::RiskReport risk =
        analysis::assess_deadlock_risk(*s.net, s.flows, demands);
    const double cbd = risk.cbd_present ? 1 : 0;
    const double predicted = risk.deadlock_reachable() ? 1 : 0;
    const double max_risk = risk.max_risk;
    const auto cycles = static_cast<double>(risk.cycles.size());
    double min_util = 0;
    double slack = -1;
    if (!risk.cycles.empty()) {
      min_util = risk.cycles[0].min_utilization;
      slack = risk.cycles[0].slack_links;
    }
    return [=](const RunRecord&, MetricSink& out) {
      out.emplace_back("cbd_present", cbd);
      out.emplace_back("predicted_lockable", predicted);
      out.emplace_back("max_risk", max_risk);
      out.emplace_back("cycles", cycles);
      out.emplace_back("min_cycle_util", min_util);
      out.emplace_back("slack_links", slack);
    };
  };
  reg.add(std::move(def));
}

}  // namespace

void register_builtin_scenarios(ScenarioRegistry& reg) {
  register_routing_loop(reg);
  register_four_switch(reg);
  register_ring(reg);
  register_transient_loop(reg);
  register_valley(reg);
  register_incast(reg);
  register_fluid_gap(reg);
  register_risk_probe(reg);
}

}  // namespace dcdl::campaign
