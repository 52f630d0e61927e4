#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>

#include "dcdl/campaign/campaign.hpp"
#include "dcdl/common/contract.hpp"
#include "dcdl/scenarios/scenario.hpp"

namespace dcdl::campaign {
namespace {

using namespace dcdl::literals;

// ---------------------------------------------------------------- params

TEST(CampaignParam, ParseClassifiesScalars) {
  EXPECT_EQ(ParamValue::parse("17").kind(), ParamKind::kInt);
  EXPECT_EQ(ParamValue::parse("17").as_int(), 17);
  EXPECT_EQ(ParamValue::parse("2.5").kind(), ParamKind::kDouble);
  EXPECT_DOUBLE_EQ(ParamValue::parse("2.5").as_double(), 2.5);
  EXPECT_EQ(ParamValue::parse("1e9").kind(), ParamKind::kDouble);
  EXPECT_TRUE(ParamValue::parse("true").as_bool());
  EXPECT_FALSE(ParamValue::parse("false").as_bool());
  EXPECT_EQ(ParamValue::parse("tiered").kind(), ParamKind::kString);
  EXPECT_EQ(ParamValue::parse("tiered").as_string(), "tiered");
}

TEST(CampaignParam, ParseStripsUnitSuffix) {
  std::string unit;
  const ParamValue v = ParamValue::parse("8gbps", &unit);
  EXPECT_EQ(unit, "gbps");
  EXPECT_EQ(v.as_int(), 8);
  // "2.5us" keeps its fractional value.
  EXPECT_DOUBLE_EQ(ParamValue::parse("2.5us", &unit).as_double(), 2.5);
  EXPECT_EQ(unit, "us");
}

TEST(CampaignParam, NumericAccessorsCoerceAndStringsThrow) {
  EXPECT_DOUBLE_EQ(ParamValue::of_int(3).as_double(), 3.0);
  EXPECT_EQ(ParamValue::of_double(3.7).as_int(), 3);
  EXPECT_THROW(ParamValue::of_string("x").as_double(), CampaignError);
  EXPECT_THROW(ParamValue::of_int(1).as_string(), CampaignError);
}

// ----------------------------------------------------------------- sweep

TEST(CampaignSweep, ParseGridRangeAndList) {
  const std::vector<GridAxis> axes = parse_grid("inject=2..8gbps:7;ttl=8,16,32");
  ASSERT_EQ(axes.size(), 2u);
  EXPECT_EQ(axes[0].param, "inject");
  ASSERT_EQ(axes[0].values.size(), 7u);
  EXPECT_DOUBLE_EQ(axes[0].values.front().as_double(), 2.0);
  EXPECT_DOUBLE_EQ(axes[0].values.back().as_double(), 8.0);
  EXPECT_DOUBLE_EQ(axes[0].values[1].as_double(), 3.0);
  EXPECT_EQ(axes[1].param, "ttl");
  ASSERT_EQ(axes[1].values.size(), 3u);
  EXPECT_EQ(axes[1].values[1].as_int(), 16);
}

TEST(CampaignSweep, ParseGridRejectsMalformedInput) {
  EXPECT_THROW(parse_grid("inject"), CampaignError);
  EXPECT_THROW(parse_grid("inject=2..8:0"), CampaignError);
  EXPECT_THROW(parse_grid("=3"), CampaignError);
}

TEST(CampaignSweep, ExpandIsCartesianLastAxisFastest) {
  SweepSpec spec;
  spec.scenario = "routing_loop";
  spec.axes = {GridAxis{"ttl", {ParamValue::of_int(8), ParamValue::of_int(16)}},
               GridAxis{"inject",
                        {ParamValue::of_double(2), ParamValue::of_double(4),
                         ParamValue::of_double(6)}}};
  spec.seeds_per_cell = 2;
  const std::vector<RunSpec> runs = expand(spec);
  ASSERT_EQ(runs.size(), 12u);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].run_index, static_cast<int>(i));
    EXPECT_EQ(runs[i].cell_index, static_cast<int>(i / 2));
    EXPECT_EQ(runs[i].seed_index, static_cast<int>(i % 2));
    EXPECT_TRUE(runs[i].params.has("seed"));
  }
  // ttl varies slowest, inject fastest.
  EXPECT_EQ(runs[0].params.get_int("ttl", 0), 8);
  EXPECT_DOUBLE_EQ(runs[0].params.get_double("inject", 0), 2);
  EXPECT_DOUBLE_EQ(runs[2].params.get_double("inject", 0), 4);
  EXPECT_EQ(runs[6].params.get_int("ttl", 0), 16);
}

TEST(CampaignSweep, ExpandRejectsNonPositiveHorizon) {
  SweepSpec spec;
  spec.scenario = "routing_loop";
  spec.run_for = Time::zero();
  EXPECT_THROW(expand(spec), CampaignError);
  spec.run_for = Time{-1};
  EXPECT_THROW(expand(spec), CampaignError);
  spec.run_for = Time{1};
  EXPECT_EQ(expand(spec).size(), 1u);
}

TEST(CampaignSweep, ExpandRejectsAFixedSeed) {
  // Each run's seed is derived from root_seed; a fixed one used to be
  // overwritten without a word.
  SweepSpec spec;
  spec.scenario = "four_switch";
  spec.base.set("seed", ParamValue::of_int(1));
  EXPECT_THROW(expand(spec), CampaignError);
  spec.base = ParamMap{};
  spec.axes = parse_grid("seed=1,2");
  EXPECT_THROW(expand(spec), CampaignError);
  try {
    expand(spec);
  } catch (const CampaignError& e) {
    EXPECT_NE(std::string(e.what()).find("--root_seed"), std::string::npos)
        << e.what();
  }
}

TEST(CampaignSweep, SeedStreamIsDeterministicAndSpread) {
  EXPECT_EQ(derive_seed(1, 0), derive_seed(1, 0));
  EXPECT_NE(derive_seed(1, 0), derive_seed(1, 1));
  EXPECT_NE(derive_seed(1, 0), derive_seed(2, 0));
}

// -------------------------------------------------------------- registry

TEST(CampaignSweep, FormatProgressGuardsRateAndEtaBeforeFirstRun) {
  // Before any run completes the rate/ETA are 0/0 — the line must show
  // placeholders, never an inf/nan extrapolation.
  const std::string initial = format_progress(0, 12, -1, "", 0.0);
  EXPECT_EQ(initial, "  0/12 run(s) done --.- run/s, eta --:--");
  EXPECT_EQ(initial.find("inf"), std::string::npos);
  EXPECT_EQ(initial.find("nan"), std::string::npos);

  // done > 0 with a stuck wall clock is guarded the same way.
  const std::string stuck = format_progress(3, 12, 2, "ok", 0.0);
  EXPECT_EQ(stuck, "  3/12 run(s) done (last: run 2 ok) --.- run/s, eta --:--");

  // Once real progress exists the observed rate and ETA appear.
  const std::string live = format_progress(6, 12, 5, "ok", 3.0);
  EXPECT_EQ(live, "  6/12 run(s) done (last: run 5 ok) 2.0 run/s, eta 3s");
}

TEST(CampaignRegistry, BuiltinsAreRegistered) {
  ScenarioRegistry reg;
  register_builtin_scenarios(reg);
  for (const char* name : {"routing_loop", "four_switch", "ring",
                           "transient_loop", "valley", "incast"}) {
    EXPECT_NE(reg.find(name), nullptr) << name;
  }
}

TEST(CampaignRegistry, RejectsUnknownScenarioAndParam) {
  ScenarioRegistry reg;
  register_builtin_scenarios(reg);
  EXPECT_THROW(reg.at("no_such_scenario"), CampaignError);
  ParamMap bad;
  bad.set("not_a_knob", ParamValue::of_int(1));
  EXPECT_THROW(reg.validate_params("routing_loop", bad), CampaignError);
  ParamMap good;
  good.set("inject", ParamValue::of_double(6));
  good.set("seed", ParamValue::of_int(7));  // sweep-injected, always allowed
  EXPECT_NO_THROW(reg.validate_params("routing_loop", good));
}

TEST(CampaignRegistry, DuplicateAddThrowsReplaceWins) {
  ScenarioRegistry reg;
  register_builtin_scenarios(reg);
  ScenarioDef dup;
  dup.name = "routing_loop";
  dup.make = [](const ParamMap&) { return scenarios::Scenario{}; };
  EXPECT_THROW(reg.add(dup), CampaignError);
  EXPECT_NO_THROW(reg.replace(dup));
}

RunRecord run_builtin(const std::string& scenario, const std::string& sets) {
  ScenarioRegistry reg;
  register_builtin_scenarios(reg);
  RunSpec spec;
  spec.scenario = scenario;
  apply_sets(spec.params, sets);
  spec.run_for = 4_ms;
  spec.drain_grace = 10_ms;
  return execute_run(reg, spec);
}

double metric(const RunRecord& rec, const std::string& name) {
  for (const auto& [key, value] : rec.metrics) {
    if (key == name) return value;
  }
  ADD_FAILURE() << "no metric " << name;
  return -1;
}

TEST(CampaignRegistry, FluidGapLoopTwinsAgreeAcrossTheBoundary) {
  // Eq. 3 puts the default loop's boundary at 5 Gbps: both the packet run
  // and its fluid twin deadlock above it and neither does below.
  const RunRecord above = run_builtin("fluid_gap", "family=loop;inject=8");
  ASSERT_EQ(above.status, RunStatus::kOk) << above.error;
  EXPECT_EQ(metric(above, "fluid_deadlocked"), 1);
  EXPECT_TRUE(above.deadlocked);
  const RunRecord below = run_builtin("fluid_gap", "family=loop;inject=4");
  ASSERT_EQ(below.status, RunStatus::kOk) << below.error;
  EXPECT_EQ(metric(below, "fluid_deadlocked"), 0);
  EXPECT_FALSE(below.deadlocked);
}

TEST(CampaignRegistry, FluidGapFourSwitchTwinIsFig4) {
  // The four_switch family defaults flow 3 on, and its fluid twin is the
  // paper's §3.2 case: the fluid model predicts no deadlock.
  const RunRecord rec = run_builtin("fluid_gap", "family=four_switch");
  ASSERT_EQ(rec.status, RunStatus::kOk) << rec.error;
  EXPECT_EQ(metric(rec, "fluid_deadlocked"), 0);
  ASSERT_EQ(rec.delivered.size(), 3u) << "flow 3 must be on by default";
}

TEST(CampaignRegistry, TwinFamiliesBuildTheirBaseScenario) {
  // fluid_gap and risk_probe build through the base definitions' own make,
  // so a family run is the base scenario's run, event for event.
  const RunRecord base = run_builtin("four_switch", "with_flow3=true");
  for (const auto& [twin, sets] :
       {std::pair{"fluid_gap", "family=four_switch"},
        std::pair{"risk_probe", "family=four_switch;with_flow3=true"}}) {
    const RunRecord rec = run_builtin(twin, sets);
    ASSERT_EQ(rec.status, RunStatus::kOk) << twin << ": " << rec.error;
    EXPECT_EQ(rec.events, base.events) << twin;
    EXPECT_EQ(rec.delivered, base.delivered) << twin;
    EXPECT_EQ(rec.pause_assertions, base.pause_assertions) << twin;
  }
}

TEST(CampaignRegistry, RiskProbeLoopPredictsTheEq3Boundary) {
  const RunRecord above = run_builtin("risk_probe", "family=loop;inject=6");
  ASSERT_EQ(above.status, RunStatus::kOk) << above.error;
  EXPECT_EQ(metric(above, "predicted_lockable"), 1);
  const RunRecord below = run_builtin("risk_probe", "family=loop;inject=4");
  ASSERT_EQ(below.status, RunStatus::kOk) << below.error;
  EXPECT_EQ(metric(below, "predicted_lockable"), 0);
}

// -------------------------------------------------------------- executor

SweepSpec small_loop_sweep() {
  SweepSpec spec;
  spec.scenario = "routing_loop";
  // One cell below the 5 Gbps threshold, one above -> both outcomes.
  spec.axes = {GridAxis{"inject", {ParamValue::of_double(4.5),
                                   ParamValue::of_double(6.5)}}};
  spec.seeds_per_cell = 2;
  spec.run_for = 2_ms;
  spec.drain_grace = 6_ms;
  return spec;
}

TEST(CampaignExecutorTest, ArtifactsAreByteIdenticalAcrossJobCounts) {
  ScenarioRegistry reg;
  register_builtin_scenarios(reg);
  const SweepSpec spec = small_loop_sweep();
  const std::vector<RunSpec> runs = expand(spec);

  ExecutorOptions serial;
  serial.jobs = 1;
  CampaignResult r1 = CampaignExecutor(reg, serial).run(runs, spec.root_seed);
  ExecutorOptions wide;
  wide.jobs = 8;
  CampaignResult r8 = CampaignExecutor(reg, wide).run(runs, spec.root_seed);

  ASSERT_EQ(r1.records.size(), 4u);
  EXPECT_EQ(r1.count(RunStatus::kOk), 4u);
  EXPECT_EQ(to_json(r1), to_json(r8));
  EXPECT_EQ(to_csv(r1), to_csv(r8));
  // Sanity on the physics riding along: above threshold deadlocks, below
  // does not.
  EXPECT_FALSE(r1.records[0].deadlocked);
  EXPECT_TRUE(r1.records[2].deadlocked);
}

TEST(CampaignExecutorTest, StandaloneRunReproducesCampaignRecord) {
  ScenarioRegistry reg;
  register_builtin_scenarios(reg);
  const SweepSpec spec = small_loop_sweep();
  const std::vector<RunSpec> runs = expand(spec);

  ExecutorOptions wide;
  wide.jobs = 4;
  const CampaignResult campaign =
      CampaignExecutor(reg, wide).run(runs, spec.root_seed);
  for (const RunSpec& one : runs) {
    const RunRecord standalone = execute_run(reg, one);
    EXPECT_EQ(run_to_json(standalone),
              run_to_json(campaign.records[static_cast<std::size_t>(
                  one.run_index)]))
        << "run " << one.run_index;
  }
}

TEST(CampaignExecutorTest, ProbeIntervalDrivesTheWatchToo) {
  // One sampling interval per run: the time-series and alert artifacts of
  // a run at a non-default probe_interval carry the same interval_ps.
  ScenarioRegistry reg;
  register_builtin_scenarios(reg);
  SweepSpec spec;
  spec.scenario = "routing_loop";
  apply_sets(spec.base, "inject=8");
  spec.run_for = 2_ms;
  spec.drain_grace = 6_ms;
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "campaign_interval")
          .string();
  std::filesystem::remove_all(dir);
  ensure_output_dir(dir);
  ExecutorOptions opts;
  opts.probe_interval = 50_us;
  opts.trace_dir = dir;
  const CampaignResult result =
      CampaignExecutor(reg, opts).run(expand(spec), spec.root_seed);
  ASSERT_EQ(result.count(RunStatus::kOk), 1u);
  for (const char* artifact :
       {"/run_00000.timeseries.jsonl", "/run_00000.alerts.jsonl"}) {
    std::ifstream in(dir + artifact);
    std::string header;
    ASSERT_TRUE(std::getline(in, header)) << artifact;
    EXPECT_NE(header.find("\"interval_ps\":50000000,"), std::string::npos)
        << artifact << ": " << header;
  }
  std::filesystem::remove_all(dir);
}

TEST(CampaignExecutorTest, FactoryExceptionBecomesFailedRecord) {
  ScenarioRegistry reg;
  register_builtin_scenarios(reg);
  ScenarioDef bomb;
  bomb.name = "bomb";
  bomb.params = {{"inject", ParamKind::kDouble, "gbps", "unused"}};
  bomb.make = [](const ParamMap&) -> scenarios::Scenario {
    throw std::runtime_error("boom");
  };
  reg.add(std::move(bomb));

  SweepSpec spec = small_loop_sweep();
  std::vector<RunSpec> runs = expand(spec);
  runs[1].scenario = "bomb";  // one poisoned run amid healthy ones

  const CampaignResult result = CampaignExecutor(reg).run(runs, 1);
  EXPECT_EQ(result.count(RunStatus::kOk), 3u);
  EXPECT_EQ(result.count(RunStatus::kFailed), 1u);
  EXPECT_EQ(result.records[1].status, RunStatus::kFailed);
  EXPECT_EQ(result.records[1].error, "boom");
}

TEST(CampaignExecutorTest, ContractViolationBecomesFailedRecord) {
  ScenarioRegistry reg;
  ScenarioDef bad;
  bad.name = "contract_bomb";
  bad.make = [](const ParamMap& pm) -> scenarios::Scenario {
    DCDL_EXPECTS(pm.get_int("never_set", 0) == 1);
    return scenarios::Scenario{};
  };
  reg.add(std::move(bad));

  RunSpec one;
  one.scenario = "contract_bomb";
  const RunRecord rec = execute_run(reg, one);
  EXPECT_EQ(rec.status, RunStatus::kFailed);
  EXPECT_NE(rec.error.find("precondition"), std::string::npos) << rec.error;
}

TEST(CampaignExecutorTest, WallClockBudgetStopsSpinningRun) {
  ScenarioRegistry reg;
  register_builtin_scenarios(reg);
  ScenarioDef spinner;
  spinner.name = "spinner";
  spinner.make = [](const ParamMap&) {
    scenarios::RoutingLoopParams p;
    scenarios::Scenario s = scenarios::make_routing_loop(p);
    // A self-perpetuating 1 ns event chain: simulated time crawls, wall
    // time burns — the shape of a deadlock-and-spin run. Recursion via a
    // static member so no closure owns itself (a shared_ptr cycle here
    // leaks the chain when the budget guard abandons the run mid-flight).
    struct Spin {
      static void tick(Simulator* sim) {
        sim->schedule_in(1_ns, [sim] { tick(sim); });
      }
    };
    Simulator* sim = s.sim.get();
    sim->schedule_in(1_ns, [sim] { Spin::tick(sim); });
    return s;
  };
  reg.add(std::move(spinner));

  RunSpec one;
  one.scenario = "spinner";
  one.run_for = 50_ms;
  one.drain_grace = 1_ms;
  ExecutorOptions opts;
  opts.run_wall_budget_ms = 25;
  opts.guard_poll = Time{1000};  // poll every simulated ns
  const RunRecord rec = execute_run(reg, one, nullptr, opts);
  EXPECT_EQ(rec.status, RunStatus::kTimeout);
}

TEST(CampaignExecutorTest, CancelMarksRemainingRunsCancelled) {
  ScenarioRegistry reg;
  register_builtin_scenarios(reg);
  const SweepSpec spec = small_loop_sweep();
  ExecutorOptions opts;
  opts.jobs = 1;
  CampaignExecutor exec(reg, opts);
  exec.cancel();  // cancelled before start: every run is marked, none runs
  const CampaignResult result = exec.run(expand(spec), spec.root_seed);
  EXPECT_EQ(result.count(RunStatus::kCancelled), 4u);
  for (const RunRecord& r : result.records) {
    EXPECT_EQ(r.scenario, "routing_loop");  // identity still recorded
  }
}

// ---------------------------------------------------------------- result

TEST(CampaignResultSink, JsonAndCsvCarrySchemaParamsAndMetrics) {
  ScenarioRegistry reg;
  register_builtin_scenarios(reg);
  SweepSpec spec = small_loop_sweep();
  spec.seeds_per_cell = 1;
  const CampaignResult result =
      CampaignExecutor(reg).run(expand(spec), spec.root_seed);

  const std::string json = to_json(result);
  EXPECT_NE(json.find("\"schema\":\"dcdl.campaign.v6\""), std::string::npos);
  EXPECT_NE(json.find("\"inject\":4.5"), std::string::npos);
  EXPECT_NE(json.find("\"r_threshold_gbps\":5"), std::string::npos);
  EXPECT_EQ(json.find("\"timing\""), std::string::npos) << "wall clock leaked";
  // v2: every ok run embeds its telemetry snapshot.
  EXPECT_NE(json.find("\"telemetry\":{"), std::string::npos);
  EXPECT_NE(json.find("\"net.tx_start_total\""), std::string::npos);
  EXPECT_NE(json.find("\"sim.events_executed\""), std::string::npos);

  WriteOptions timed;
  timed.include_timing = true;
  EXPECT_NE(to_json(result, timed).find("\"timing\""), std::string::npos);

  const std::string csv = to_csv(result);
  const std::string header = csv.substr(0, csv.find('\n'));
  EXPECT_NE(header.find("param.inject"), std::string::npos);
  EXPECT_NE(header.find("metric.r_threshold_gbps"), std::string::npos);
  EXPECT_NE(header.find("goodput_gbps"), std::string::npos);
  // v3: the dataplane columns are always present (pipeline off -> -1/0).
  EXPECT_NE(header.find("detection_latency_ns"), std::string::npos);
  EXPECT_NE(header.find("recovery_time_ns"), std::string::npos);
  EXPECT_NE(header.find("false_positive"), std::string::npos);
  EXPECT_NE(json.find("\"detection_latency_ns\":-1"), std::string::npos);
  EXPECT_NE(json.find("\"false_positive\":false"), std::string::npos);
  // v4: the hybrid-engine columns are always present (mode off -> "off"/0/0).
  EXPECT_NE(header.find("hybrid_mode"), std::string::npos);
  EXPECT_NE(header.find("zoom_events"), std::string::npos);
  EXPECT_NE(header.find("fluid_fraction"), std::string::npos);
  EXPECT_NE(json.find("\"hybrid_mode\":\"off\""), std::string::npos);
  EXPECT_NE(json.find("\"zoom_events\":0"), std::string::npos);
}

}  // namespace
}  // namespace dcdl::campaign
