// Statistics layer: pause-event log semantics, occupancy samplers, CSV
// output.
#include <gtest/gtest.h>

#include <cstdio>

#include "dcdl/scenarios/scenario.hpp"
#include "dcdl/stats/csv.hpp"
#include "dcdl/stats/pause_log.hpp"
#include "dcdl/stats/sampler.hpp"

namespace dcdl::stats {
namespace {

using namespace dcdl::literals;
using namespace dcdl::scenarios;

TEST(PauseLog, IntervalsPairPausesWithResumes) {
  Scenario s = make_four_switch(FourSwitchParams{});
  PauseEventLog log(*s.net);
  s.sim->run_until(5_ms);
  // L2 (ingress at C from B) pauses intermittently in the two-flow case.
  const QueueKey l2 = s.cycle_queues[1];
  const auto intervals = log.intervals(l2, s.sim->now());
  ASSERT_GT(intervals.size(), 10u);
  Time prev_end = Time::zero();
  for (const auto& [b, e] : intervals) {
    EXPECT_LT(b, e);
    EXPECT_GE(b, prev_end);
    prev_end = e;
  }
  EXPECT_EQ(log.pause_count(l2), intervals.size());
}

TEST(PauseLog, TotalPausedMatchesIntervalSum) {
  Scenario s = make_four_switch(FourSwitchParams{});
  PauseEventLog log(*s.net);
  s.sim->run_until(5_ms);
  const QueueKey l2 = s.cycle_queues[1];
  Time sum = Time::zero();
  for (const auto& [b, e] : log.intervals(l2, s.sim->now())) sum += e - b;
  EXPECT_EQ(sum, log.total_paused(l2, s.sim->now()));
  EXPECT_GT(sum, Time::zero());
  EXPECT_LT(sum, s.sim->now());
}

TEST(PauseLog, AllPausedDetection) {
  // Figure 4: the deadlock case has an instant where all four cycle links
  // are paused; Figure 3 never does.
  {
    FourSwitchParams p;
    p.with_flow3 = true;
    Scenario s = make_four_switch(p);
    PauseEventLog log(*s.net);
    s.sim->run_until(20_ms);
    EXPECT_TRUE(log.ever_all_paused(s.cycle_queues, s.sim->now()));
  }
  {
    Scenario s = make_four_switch(FourSwitchParams{});
    PauseEventLog log(*s.net);
    s.sim->run_until(20_ms);
    EXPECT_FALSE(log.ever_all_paused(s.cycle_queues, s.sim->now()));
  }
}

TEST(PauseLog, PausedAtEndTracksLastTransition) {
  FourSwitchParams p;
  p.with_flow3 = true;
  Scenario s = make_four_switch(p);
  PauseEventLog log(*s.net);
  s.sim->run_until(20_ms);  // deadlocked: cycle queues pinned
  for (const auto& key : s.cycle_queues) {
    EXPECT_TRUE(log.paused_at_end(key));
  }
}

TEST(Sampler, SamplesAtRequestedPeriod) {
  Scenario s = make_four_switch(FourSwitchParams{});
  OccupancySampler sampler(
      *s.net, {{s.node("A"), s.cycle_queues[3].port, 0, std::nullopt}}, 1_us);
  sampler.start(Time::zero(), 1_ms);
  s.sim->run_until(2_ms);
  // (0, 1, ..., 1000) us inclusive.
  EXPECT_EQ(sampler.series(0).size(), 1001u);
  EXPECT_EQ(sampler.series(0)[5].t, 5_us);
}

TEST(Sampler, PerFlowViewIsSubsetOfQueue) {
  Scenario s = make_four_switch(FourSwitchParams{});
  const auto key = s.cycle_queues[3];  // A's ingress from D (flow 2)
  OccupancySampler sampler(*s.net,
                           {{key.node, key.port, 0, std::nullopt},
                            {key.node, key.port, 0, FlowId{2}}},
                           1_us);
  sampler.start(Time::zero(), 5_ms);
  s.sim->run_until(5_ms);
  for (std::size_t i = 0; i < sampler.series(0).size(); ++i) {
    EXPECT_LE(sampler.series(1)[i].bytes, sampler.series(0)[i].bytes);
  }
  EXPECT_GT(sampler.max_bytes(1), 0);
}

TEST(Csv, FormatsRowsAndSections) {
  char buf[4096] = {};
  std::FILE* f = fmemopen(buf, sizeof(buf), "w");
  ASSERT_NE(f, nullptr);
  CsvWriter csv(f);
  csv.header({"a", "b", "c"});
  csv.row({CsvWriter::num(std::int64_t{1}), CsvWriter::num(2.5), "x"});
  csv.section("part two");
  std::fclose(f);
  EXPECT_STREQ(buf, "a,b,c\n1,2.5,x\n\n# part two\n");
}

}  // namespace
}  // namespace dcdl::stats
