// Reproducibility guarantee: identical seeds replay identically — event
// counts, pause logs, deliveries, and deadlock outcomes all match bit for
// bit. Different seeds genuinely differ in the stochastic regime.
#include <gtest/gtest.h>

#include <algorithm>

#include "dcdl/device/host.hpp"
#include "dcdl/analysis/bdg.hpp"
#include "dcdl/scenarios/scenario.hpp"
#include "dcdl/stats/pause_log.hpp"

namespace dcdl::scenarios {
namespace {

using namespace dcdl::literals;

struct Trace {
  std::vector<stats::PauseEvent> pauses;
  std::vector<std::pair<FlowId, std::int64_t>> delivered;
  std::uint64_t events;
  std::int64_t queued;
};

Trace run_fig4(std::uint64_t seed) {
  FourSwitchParams p;
  p.with_flow3 = true;
  p.seed = seed;
  Scenario s = make_four_switch(p);
  stats::PauseEventLog log(*s.net);
  s.sim->run_until(5_ms);
  Trace t;
  t.pauses = log.events();
  for (const FlowSpec& f : s.flows) {
    t.delivered.emplace_back(f.id,
                             s.net->host_at(f.dst_host).delivered_bytes(f.id));
  }
  t.events = s.sim->events_executed();
  t.queued = s.net->total_queued_bytes();
  return t;
}

TEST(Determinism, SameSeedReplaysExactly) {
  const Trace a = run_fig4(42);
  const Trace b = run_fig4(42);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.queued, b.queued);
  EXPECT_EQ(a.delivered, b.delivered);
  ASSERT_EQ(a.pauses.size(), b.pauses.size());
  for (std::size_t i = 0; i < a.pauses.size(); ++i) {
    EXPECT_EQ(a.pauses[i].t, b.pauses[i].t) << i;
    EXPECT_EQ(a.pauses[i].node, b.pauses[i].node) << i;
    EXPECT_EQ(a.pauses[i].port, b.pauses[i].port) << i;
    EXPECT_EQ(a.pauses[i].paused, b.pauses[i].paused) << i;
  }
}

TEST(Determinism, DifferentSeedsDiverge) {
  const Trace a = run_fig4(1);
  const Trace b = run_fig4(2);
  // The jittered schedules must differ somewhere observable.
  EXPECT_TRUE(a.events != b.events || a.delivered != b.delivered ||
              a.pauses.size() != b.pauses.size());
}

TEST(Determinism, AnalysisIsPure) {
  // Building BDGs and risk reports twice must not perturb the network.
  FourSwitchParams p;
  p.with_flow3 = true;
  Scenario s = make_four_switch(p);
  const auto bdg1 = analysis::BufferDependencyGraph::build(*s.net, s.flows);
  const auto bdg2 = analysis::BufferDependencyGraph::build(*s.net, s.flows);
  ASSERT_EQ(bdg1.vertices(), bdg2.vertices());
  for (std::size_t v = 0; v < bdg1.vertices().size(); ++v) {
    EXPECT_TRUE(std::ranges::equal(bdg1.successors(v), bdg2.successors(v)));
  }
  EXPECT_EQ(s.sim->events_executed(), 0u);
  EXPECT_EQ(s.net->total_queued_bytes(), 0);
}

}  // namespace
}  // namespace dcdl::scenarios
