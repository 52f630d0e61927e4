// dcdl::watch: rule-engine state-machine edge cases (hysteresis, arming,
// dedup boundary ticks), end-to-end early-warning behaviour on the paper's
// scenarios (positive lead time over the DeadlockMonitor on the Fig. 2
// loop and the valley cascade, silence on below-boundary transients), and
// the dcdl.alerts.v1 artifact identity contract across --jobs x --shards.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "dcdl/analysis/deadlock.hpp"
#include "dcdl/campaign/campaign.hpp"
#include "dcdl/scenarios/scenario.hpp"
#include "dcdl/sim/sharded.hpp"
#include "dcdl/watch/export.hpp"
#include "dcdl/watch/rules.hpp"
#include "dcdl/watch/watch.hpp"

namespace dcdl::watch {
namespace {

using namespace dcdl::literals;
using namespace dcdl::scenarios;

// --------------------------------------------------------------- RuleEngine

const std::vector<std::string> kSignals = {"x", "y"};

AlertRule rule(double fire, double clear, int for_ticks = 1,
               Time dedup = Time::zero(),
               Severity sev = Severity::kWarn) {
  return {"r", "x", sev, fire, clear, for_ticks, dedup};
}

TEST(RuleEngineTest, HysteresisFiresAtThresholdAndClearsBelowClear) {
  RuleEngine eng({rule(10.0, 5.0)}, kSignals);
  eng.step(Time{100}, {4.0, 0.0});
  EXPECT_TRUE(eng.events().empty()) << "below fire_above: no edge";
  eng.step(Time{200}, {10.0, 0.0});
  ASSERT_EQ(eng.events().size(), 1u) << "fire_above is inclusive";
  EXPECT_TRUE(eng.events()[0].firing);
  EXPECT_DOUBLE_EQ(eng.events()[0].value, 10.0);
  eng.step(Time{300}, {7.0, 0.0});
  EXPECT_EQ(eng.events().size(), 1u)
      << "inside the hysteresis band: still firing, no edge";
  EXPECT_TRUE(eng.firing(0));
  eng.step(Time{400}, {5.0, 0.0});
  EXPECT_EQ(eng.events().size(), 1u) << "clear_below is exclusive";
  eng.step(Time{500}, {4.9, 0.0});
  ASSERT_EQ(eng.events().size(), 2u);
  EXPECT_FALSE(eng.events()[1].firing);
  EXPECT_FALSE(eng.firing(0));
  EXPECT_EQ(eng.fires(Severity::kWarn), 1u);
}

TEST(RuleEngineTest, ArmingRequiresConsecutiveTicksAndResetsOnDip) {
  RuleEngine eng({rule(10.0, 5.0, /*for_ticks=*/3)}, kSignals);
  const double on = 12.0, off = 2.0;
  // Two over-threshold ticks, a dip, then three: only the second streak
  // completes the arming.
  int t = 0;
  for (const double v : {on, on, off, on, on}) {
    eng.step(Time{++t * 100}, {v, 0.0});
    EXPECT_TRUE(eng.events().empty()) << "tick " << t;
  }
  eng.step(Time{++t * 100}, {on, 0.0});
  ASSERT_EQ(eng.events().size(), 1u);
  EXPECT_EQ(eng.events()[0].t.ps(), 600);
}

TEST(RuleEngineTest, DedupSuppressesRefireInsideWindowInclusiveBoundary) {
  // dedup = 300; ticks every 100. Fire at t=100, clear, re-fire at t=300
  // (delta 200 < 300: suppressed, together with its clear), then the next
  // attempt at exactly t=400 (delta 300 == dedup) IS emitted.
  RuleEngine eng({rule(10.0, 5.0, 1, Time{300})}, kSignals);
  eng.step(Time{100}, {12.0, 0.0});  // fire (emitted)
  eng.step(Time{200}, {1.0, 0.0});   // clear (emitted)
  eng.step(Time{300}, {12.0, 0.0});  // fire (suppressed: 200 < 300)
  eng.step(Time{350}, {1.0, 0.0});   // clear of a suppressed fire: silent
  ASSERT_EQ(eng.events().size(), 2u);
  EXPECT_EQ(eng.suppressed(), 1u);
  eng.step(Time{400}, {12.0, 0.0});  // boundary tick: emitted
  ASSERT_EQ(eng.events().size(), 3u);
  EXPECT_TRUE(eng.events()[2].firing);
  EXPECT_EQ(eng.events()[2].t.ps(), 400);
  EXPECT_EQ(eng.rule_fires(0), 2u) << "emitted fires only";
  // The emitted stream stays strictly fire/clear alternating per rule.
  bool expect_fire = true;
  for (const AlertEvent& ev : eng.events()) {
    EXPECT_EQ(ev.firing, expect_fire);
    expect_fire = !expect_fire;
  }
}

TEST(RuleEngineTest, SeverityAccountingAndActiveCeiling) {
  std::vector<AlertRule> rules;
  rules.push_back({"low", "x", Severity::kInfo, 1.0, 1.0, 1, Time::zero()});
  rules.push_back(
      {"high", "y", Severity::kCritical, 1.0, 1.0, 1, Time::zero()});
  RuleEngine eng(rules, kSignals);
  EXPECT_FALSE(eng.active_ceiling().has_value());
  eng.step(Time{100}, {1.0, 0.0});
  ASSERT_TRUE(eng.active_ceiling().has_value());
  EXPECT_EQ(*eng.active_ceiling(), Severity::kInfo);
  eng.step(Time{200}, {1.0, 1.0});
  EXPECT_EQ(*eng.active_ceiling(), Severity::kCritical);
  EXPECT_EQ(eng.fires(Severity::kInfo), 1u);
  EXPECT_EQ(eng.fires(Severity::kCritical), 1u);
  ASSERT_TRUE(eng.first_fire(Severity::kCritical).has_value());
  EXPECT_EQ(eng.first_fire(Severity::kCritical)->ps(), 200);
}

TEST(RuleEngineTest, RejectsBadRules) {
  EXPECT_THROW(RuleEngine({{"r", "nope", Severity::kWarn, 1, 0, 1,
                            Time::zero()}},
                          kSignals),
               std::runtime_error);
  EXPECT_THROW(RuleEngine({{"r", "x", Severity::kWarn, 1.0, 2.0, 1,
                            Time::zero()}},
                          kSignals),
               std::runtime_error);
  EXPECT_THROW(RuleEngine({rule(1, 0), rule(1, 0)}, kSignals),
               std::runtime_error)
      << "duplicate rule names";
}

TEST(RuleEngineTest, EventLogIsBoundedButStateKeepsAdvancing) {
  RuleEngine eng({rule(10.0, 5.0)}, kSignals, /*max_events=*/3);
  for (int k = 0; k < 4; ++k) {
    eng.step(Time{k * 200 + 100}, {12.0, 0.0});
    eng.step(Time{k * 200 + 200}, {1.0, 0.0});
  }
  EXPECT_EQ(eng.events().size(), 3u);
  EXPECT_EQ(eng.dropped_events(), 5u);
  EXPECT_EQ(eng.rule_fires(0), 4u) << "counters keep the full truth";
}

// ------------------------------------------------------- RunWatch scenarios

struct WatchedRun {
  std::optional<Time> confirmed_at;       ///< DeadlockMonitor verdict
  std::optional<Time> first_critical;     ///< watch early warning
  std::uint64_t critical_fires = 0;
  std::uint64_t warn_fires = 0;
  std::vector<std::pair<std::string, double>> summary;
};

WatchedRun watch_scenario(Scenario s, Time run_for) {
  RunWatch watch(*s.net, s.flows);
  analysis::DeadlockMonitor monitor(*s.net);  // 100 us poll, 1 ms dwell
  monitor.start(s.sim->now(), run_for);
  watch.start(*s.sim, run_for);
  s.sim->run_until(run_for);
  WatchedRun out;
  out.confirmed_at = monitor.detected_at();
  out.first_critical = watch.first_fire(Severity::kCritical);
  out.critical_fires = watch.engine().fires(Severity::kCritical);
  out.warn_fires = watch.engine().fires(Severity::kWarn);
  out.summary = watch.summary();
  return out;
}

TEST(RunWatchTest, CriticalAlertLeadsMonitorConfirmOnFig2Loop) {
  RoutingLoopParams p;
  p.inject = Rate::gbps(7);  // above the Eq. 3 boundary: deadlock
  const WatchedRun r = watch_scenario(make_routing_loop(p), 20_ms);
  ASSERT_TRUE(r.confirmed_at.has_value()) << "the loop must deadlock";
  ASSERT_TRUE(r.first_critical.has_value())
      << "the watcher must raise a critical alert";
  EXPECT_LT(r.first_critical->ps(), r.confirmed_at->ps())
      << "early warning: critical strictly before the dwell-confirmed "
         "verdict";
}

TEST(RunWatchTest, CriticalAlertLeadsMonitorConfirmOnValleyCascade) {
  ValleyViolationParams p;  // with_extra_flow: the deadlocking Figure-4
  const WatchedRun r = watch_scenario(make_valley_violation(p), 20_ms);
  ASSERT_TRUE(r.confirmed_at.has_value()) << "the cascade must deadlock";
  ASSERT_TRUE(r.first_critical.has_value());
  EXPECT_LT(r.first_critical->ps(), r.confirmed_at->ps());
}

TEST(RunWatchTest, NoCriticalOnBelowBoundaryTransientLoop) {
  TransientLoopParams p;
  p.inject = Rate::gbps(4);  // below the 5 Gbps Eq. 3 boundary
  const WatchedRun r = watch_scenario(make_transient_loop(p), 6_ms);
  EXPECT_FALSE(r.confirmed_at.has_value())
      << "below the boundary the transient loop drains by itself";
  EXPECT_EQ(r.critical_fires, 0u)
      << "a transient must never page: zero critical alerts";
}

TEST(RunWatchTest, SummaryIsDeterministicAcrossRuns) {
  const auto run = [] {
    RoutingLoopParams p;
    p.inject = Rate::gbps(7);
    return watch_scenario(make_routing_loop(p), 4_ms).summary;
  };
  EXPECT_EQ(run(), run());
}

TEST(RunWatchTest, SummaryLayoutCarriesRulesAndSignalMaxima) {
  RoutingLoopParams p;
  p.inject = Rate::gbps(7);
  const WatchedRun r = watch_scenario(make_routing_loop(p), 4_ms);
  const auto get = [&](const std::string& key) -> std::optional<double> {
    for (const auto& [name, value] : r.summary) {
      if (name == key) return value;
    }
    return std::nullopt;
  };
  ASSERT_TRUE(get("ticks").has_value());
  EXPECT_DOUBLE_EQ(*get("ticks"), 40);  // 4 ms at 100 us
  EXPECT_GE(*get("fired.critical"), 1.0);
  EXPECT_GT(*get("first_critical_ms"), 0.0);
  EXPECT_GE(*get("rule.deadlock_imminent.fires"), 1.0);
  EXPECT_GE(*get("sig.wedge_queues.max"), 2.0)
      << "the wait-for cycle has at least two queues";
  EXPECT_GT(*get("sig.pause_frac.max"), 0.0);
}

// ------------------------------------------------- artifact identity class

std::string alerts_for_shards(int shards) {
  std::optional<ScopedShardRequest> req{std::in_place, shards};
  RoutingLoopParams p;
  p.inject = Rate::gbps(7);
  Scenario s = make_routing_loop(p);
  req.reset();
  RunWatch watch(*s.net, s.flows);
  watch.start(*s.sim, 4_ms);
  s.sim->run_until(4_ms);
  return to_alerts_jsonl(watch, *s.topo);
}

TEST(AlertsArtifactTest, ByteIdenticalAcrossShardCounts) {
  // The watcher samples at window barriers on the control simulator, so
  // the dcdl.alerts.v1 stream is one byte sequence for every shard count.
  const std::string s1 = alerts_for_shards(1);
  EXPECT_EQ(s1, alerts_for_shards(2));
  EXPECT_EQ(s1, alerts_for_shards(4));
  EXPECT_NE(s1.find("\"schema\":\"dcdl.alerts.v1\""), std::string::npos);
  EXPECT_NE(s1.find("\"kind\":\"fire\""), std::string::npos)
      << "the above-boundary loop must produce alert edges";
  EXPECT_NE(s1.find("\"summary\":{"), std::string::npos);
}

TEST(AlertsArtifactTest, PerfettoInstantsRenderDeterministically) {
  RoutingLoopParams p;
  p.inject = Rate::gbps(7);
  Scenario s = make_routing_loop(p);
  RunWatch watch(*s.net, s.flows);
  watch.start(*s.sim, 4_ms);
  s.sim->run_until(4_ms);
  const std::string json = to_perfetto_alerts(watch, *s.topo);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"critical deadlock_imminent\""),
            std::string::npos);
  EXPECT_EQ(json, to_perfetto_alerts(watch, *s.topo));
}

TEST(AlertsArtifactTest, ExecutorAlertRecordsIdenticalAcrossJobs) {
  // The campaign path: alert summaries embedded in v6 records depend only
  // on the spec, never on --jobs, and the deadlocking cell carries a
  // positive lead_ms.
  using namespace dcdl::campaign;
  ScenarioRegistry reg;
  register_builtin_scenarios(reg);
  SweepSpec spec;
  spec.scenario = "routing_loop";
  spec.axes = parse_grid("inject=4..7gbps:2");
  spec.seeds_per_cell = 1;
  spec.run_for = 4_ms;
  spec.drain_grace = 10_ms;
  const std::vector<RunSpec> runs = expand(spec);

  ExecutorOptions one, four;
  one.jobs = 1;
  four.jobs = 4;
  const CampaignResult a = CampaignExecutor(reg, one).run(runs);
  const CampaignResult b = CampaignExecutor(reg, four).run(runs);
  ASSERT_EQ(a.records.size(), b.records.size());
  double lead_ms = -1;
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].alerts, b.records[i].alerts);
    EXPECT_FALSE(a.records[i].alerts.empty());
    for (const auto& [name, value] : a.records[i].alerts) {
      if (name == "lead_ms") lead_ms = value;
    }
  }
  EXPECT_GT(lead_ms, 0.0)
      << "the above-boundary cell must report a positive early-warning "
         "lead time";
  const std::string json = to_json(a);
  EXPECT_NE(json.find("\"alerts\":{\"ticks\":"), std::string::npos);
  EXPECT_NE(json.find("\"rule.deadlock_imminent.fires\""),
            std::string::npos);
}

}  // namespace
}  // namespace dcdl::watch
