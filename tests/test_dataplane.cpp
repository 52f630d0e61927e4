// The in-switch DCFIT detection/recovery pipeline (src/dcdl/dataplane):
// tag algebra and state machine, in-band detection at the true
// initial-trigger switch (cross-checked against the offline forensics
// attribution), all three recovery policies restoring forwarding, zero
// false positives on self-resolving transients, and byte-identical
// results across shard counts with recovery active.
#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "dcdl/analysis/deadlock.hpp"
#include "dcdl/dataplane/dataplane.hpp"
#include "dcdl/device/switch.hpp"
#include "dcdl/forensics/forensics.hpp"
#include "dcdl/scenarios/scenario.hpp"
#include "dcdl/sim/sharded.hpp"
#include "dcdl/stats/pause_log.hpp"

namespace dcdl::dataplane {
namespace {

using namespace dcdl::literals;
using scenarios::RunSummary;
using scenarios::Scenario;

// ------------------------------------------------------------- pipeline

TEST(DataplanePipeline, PolicyParsingRoundTrips) {
  RecoveryPolicy p = RecoveryPolicy::kOff;
  for (const char* name : {"off", "detect", "drop", "reroute", "pfc_lift"}) {
    ASSERT_TRUE(parse_policy(name, &p)) << name;
    EXPECT_STREQ(to_string(p), name);
  }
  EXPECT_TRUE(parse_policy("lift", &p));  // alias
  EXPECT_EQ(p, RecoveryPolicy::kPfcLift);
  p = RecoveryPolicy::kDrop;
  EXPECT_FALSE(parse_policy("bogus", &p));
  EXPECT_EQ(p, RecoveryPolicy::kDrop) << "failed parse left output untouched";
}

TEST(DataplanePipeline, TagAlgebraOriginateThenPropagate) {
  DataplaneConfig cfg;
  cfg.policy = RecoveryPolicy::kDetect;
  Pipeline a(cfg, /*self=*/3, /*ports=*/2, /*classes=*/1);
  Pipeline b(cfg, /*self=*/7, /*ports=*/2, /*classes=*/1);

  const PauseTag t0 = a.originate(1, 0);
  EXPECT_TRUE(t0.valid());
  EXPECT_TRUE(a.is_own(t0));
  EXPECT_FALSE(b.is_own(t0));
  EXPECT_EQ(t0.origin, 3u);
  EXPECT_EQ(t0.origin_port, 1u);
  EXPECT_EQ(t0.hops, 0);
  EXPECT_EQ(t0.visited, visit_bit(3));

  const PauseTag t1 = b.propagate(t0);
  EXPECT_EQ(t1.origin, 3u) << "propagation preserves the origin";
  EXPECT_EQ(t1.hops, 1);
  EXPECT_EQ(t1.seq, t0.seq) << "propagation preserves the epoch";
  EXPECT_EQ(t1.visited, visit_bit(3) | visit_bit(7));
  EXPECT_NE(a.originate(1, 0), t0)
      << "re-origination is a fresh epoch (stale loop guards must not "
         "swallow a re-formed wedge's circulation)";
  EXPECT_EQ(a.stats().tags_originated, 2u);
  EXPECT_EQ(b.stats().tags_propagated, 1u);

  EXPECT_FALSE(PauseTag{}.valid());
}

TEST(DataplanePipeline, RememberSentIsTheRePropagationLoopGuard) {
  DataplaneConfig cfg;
  cfg.policy = RecoveryPolicy::kDetect;
  Pipeline p(cfg, 1, 4, 2);
  const PauseTag t = p.originate(0, 1);
  EXPECT_TRUE(p.remember_sent(2, 1, t));
  EXPECT_FALSE(p.remember_sent(2, 1, t)) << "identical tag: do not re-send";
  PauseTag grown = p.propagate(t);
  EXPECT_TRUE(p.remember_sent(2, 1, grown)) << "changed tag sends again";
  p.clear_sent(2, 1);
  EXPECT_TRUE(p.remember_sent(2, 1, grown)) << "Xon clears the guard";
}

TEST(DataplanePipeline, CandidateLifecycleConfirmFalseAlarmAndRearm) {
  DataplaneConfig cfg;
  cfg.policy = RecoveryPolicy::kDrop;
  Pipeline p(cfg, 5, 2, 1);
  const PauseTag own = p.originate(0, 0);
  using Verdict = Pipeline::Verdict;

  ASSERT_TRUE(p.arm_candidate(own, /*origin_departures=*/10, Time{1000}));
  EXPECT_TRUE(p.candidate_pending());
  EXPECT_FALSE(p.arm_candidate(own, 10, Time{1001})) << "already dwelling";
  // Departures moved during the dwell: still draining, so the dwell renews
  // (the cycle may harden later with no new pause edge to re-arm it).
  EXPECT_EQ(p.resolve_candidate(/*still_asserted=*/true, 12),
            Verdict::kRetry);
  EXPECT_TRUE(p.candidate_pending());
  EXPECT_EQ(p.stats().false_alarms, 0u);
  // Frozen across a full dwell: confirmed.
  EXPECT_EQ(p.resolve_candidate(true, 12), Verdict::kConfirmed);
  EXPECT_EQ(p.stats().confirms, 1u);
  EXPECT_FALSE(p.candidate_pending());

  // A candidate whose origin counter resumes is a false alarm.
  ASSERT_TRUE(p.arm_candidate(own, 12, Time{2000}));
  EXPECT_EQ(p.resolve_candidate(/*still_asserted=*/false, 12),
            Verdict::kFalseAlarm);
  EXPECT_EQ(p.stats().false_alarms, 1u);
  EXPECT_FALSE(p.candidate_pending());

  p.note_recovery();
  EXPECT_FALSE(p.armed());
  EXPECT_FALSE(p.arm_candidate(own, 12, Time{3000})) << "disarmed in cooldown";
  p.rearm();
  EXPECT_TRUE(p.armed());
  EXPECT_TRUE(p.arm_candidate(own, 12, Time{4000}));
}

// ------------------------------------------------ zero cost when disabled

TEST(DataplaneSwitchIntegration, PipelineAbsentWhenPolicyOff) {
  // The golden-trace digests pin this: with the default (off) config no
  // pipeline is allocated, packets are never stamped, and the PFC path is
  // the untagged one.
  Scenario s = scenarios::make_routing_loop(scenarios::RoutingLoopParams{});
  for (const NodeId sw : s.topo->switches()) {
    EXPECT_EQ(s.net->switch_at(sw).pipeline(), nullptr);
  }
}

TEST(DataplaneSwitchIntegration, PacketsAreStampedAtFabricEntry) {
  scenarios::RoutingLoopParams p;
  p.inject = Rate::gbps(4);  // below the Eq. 3 boundary: loops but drains
  p.dataplane.policy = RecoveryPolicy::kDetect;
  Scenario s = scenarios::make_routing_loop(p);
  s.sim->run_until(2_ms);
  std::uint64_t tagged = 0, loops = 0;
  for (const NodeId sw : s.topo->switches()) {
    const Pipeline* pl = s.net->switch_at(sw).pipeline();
    ASSERT_NE(pl, nullptr);
    tagged += pl->stats().packets_tagged;
    loops += pl->stats().packet_loops;
  }
  EXPECT_GT(tagged, 0u) << "every packet is stamped once at fabric entry";
  EXPECT_GT(loops, 0u) << "looping packets revisit their entry switch";
}

// ----------------------------------------------------- in-band detection

/// Offline attribution: the node of the forensic initial-trigger span.
std::optional<NodeId> forensic_trigger(const Scenario& s,
                                       const stats::PauseEventLog& pauses,
                                       const RunSummary& r) {
  forensics::CausalInput in =
      forensics::input_from_pause_log(*s.topo, pauses, s.sim->now());
  in.deadlock_cycle = r.cycle;
  if (r.detected_at) in.deadlock_at_ps = r.detected_at->ps();
  const forensics::CascadeReport report = forensics::analyze(in);
  if (!report.initial_trigger()) return std::nullopt;
  return report.spans[*report.initial_trigger()].queue.node;
}

TEST(DataplaneDetection, RoutingLoopDetectsAtTheForensicTriggerSwitch) {
  scenarios::RoutingLoopParams p;  // inject 6 > boundary 5: deadlocks
  p.dataplane.policy = RecoveryPolicy::kDetect;
  Scenario s = scenarios::make_routing_loop(p);
  stats::PauseEventLog pauses(*s.net);
  const RunSummary r = scenarios::run_and_check(s, 10_ms, 10_ms);

  EXPECT_TRUE(r.deadlocked) << "detect-only policy never intervenes";
  ASSERT_TRUE(r.dp.detected_at.has_value());
  ASSERT_TRUE(r.dp.trigger.has_value());
  EXPECT_GE(r.dp.confirms, 1u);
  EXPECT_EQ(r.dp.recoveries, 0u);
  // In-band detection beats the centralized monitor (50 us poll + 1 ms
  // dwell) to the verdict.
  ASSERT_TRUE(r.detected_at.has_value());
  EXPECT_LT(*r.dp.detected_at, *r.detected_at);

  const std::optional<NodeId> offline = forensic_trigger(s, pauses, r);
  ASSERT_TRUE(offline.has_value());
  EXPECT_EQ(*r.dp.trigger, *offline)
      << "in-band trigger attribution disagrees with offline forensics";
}

TEST(DataplaneDetection, ValleyCascadeDetectsAtTheForensicTriggerSwitch) {
  scenarios::ValleyViolationParams p;  // tree-fabric congestion cascade
  p.dataplane.policy = RecoveryPolicy::kDetect;
  Scenario s = scenarios::make_valley_violation(p);
  stats::PauseEventLog pauses(*s.net);
  const RunSummary r = scenarios::run_and_check(s, 20_ms, 10_ms);

  EXPECT_TRUE(r.deadlocked);
  ASSERT_TRUE(r.dp.detected_at.has_value());
  ASSERT_TRUE(r.dp.trigger.has_value());

  const std::optional<NodeId> offline = forensic_trigger(s, pauses, r);
  ASSERT_TRUE(offline.has_value());
  EXPECT_EQ(*r.dp.trigger, *offline);
}

TEST(DataplaneDetection, TransientLoopBelowBoundaryZeroFalsePositives) {
  // §1's transient loop at 4 Gbps — below the Eq. 3 boundary, so the loop
  // drains by itself after the routes are repaired. The pipeline may arm
  // candidates, but the confirm dwell must reject every one.
  scenarios::TransientLoopParams p;
  p.inject = Rate::gbps(4);
  p.dataplane.policy = RecoveryPolicy::kReroute;
  Scenario s = scenarios::make_transient_loop(p);
  const RunSummary r = scenarios::run_and_check(s, 10_ms, 20_ms);
  EXPECT_FALSE(r.deadlocked);
  EXPECT_EQ(r.dp.confirms, 0u) << "self-resolving transient misclassified";
  EXPECT_EQ(r.dp.recoveries, 0u);
}

// ----------------------------------------------------- recovery policies

std::int64_t valley_delivered(RecoveryPolicy policy, RunSummary* out) {
  scenarios::ValleyViolationParams p;
  p.dataplane.policy = policy;
  Scenario s = scenarios::make_valley_violation(p);
  *out = scenarios::run_and_check(s, 20_ms, 10_ms);
  std::int64_t total = 0;
  for (const auto& [flow, bytes] : out->delivered) total += bytes;
  return total;
}

void expect_recovers(RecoveryPolicy policy) {
  // Baseline: detect-only leaves the wedge in place, so its delivered
  // total is exactly what the fabric moved before freezing. A recovery
  // policy must beat it — that surplus is post-recovery forwarding.
  RunSummary base;
  const std::int64_t wedged = valley_delivered(RecoveryPolicy::kDetect,
                                               &base);
  ASSERT_TRUE(base.deadlocked);

  RunSummary r;
  const std::int64_t total = valley_delivered(policy, &r);
  EXPECT_FALSE(r.deadlocked)
      << to_string(policy) << " left the fabric wedged";
  ASSERT_TRUE(r.dp.detected_at.has_value());
  ASSERT_TRUE(r.dp.recovered_at.has_value());
  EXPECT_GE(*r.dp.recovered_at, *r.dp.detected_at);
  EXPECT_GE(r.dp.recoveries, 1u);
  EXPECT_GT(total, wedged) << "post-recovery throughput missing";
}

TEST(DataplaneRecovery, DropPolicyRestoresForwarding) {
  expect_recovers(RecoveryPolicy::kDrop);
}

TEST(DataplaneRecovery, ReroutePolicyRestoresForwarding) {
  expect_recovers(RecoveryPolicy::kReroute);
}

TEST(DataplaneRecovery, PfcLiftPolicyRestoresForwarding) {
  expect_recovers(RecoveryPolicy::kPfcLift);
}

// ------------------------------------------------- centralized monitor

TEST(DataplaneMonitor, RearmConfirmsASecondDeadlockWithoutDoubleFiring) {
  // Valley deadlock with no recovery: after rearm() the same persistent
  // cycle must be confirmed a second time, firing on_confirmed exactly
  // once per confirmation.
  Scenario s = scenarios::make_valley_violation(
      scenarios::ValleyViolationParams{});
  analysis::DeadlockMonitor m(*s.net, Time{50'000'000}, 1_ms);
  int fired = 0;
  m.set_on_confirmed([&fired](const analysis::DeadlockMonitor&) { ++fired; });
  m.start(Time::zero(), 60_ms);
  s.sim->run_until(20_ms);
  ASSERT_TRUE(m.deadlocked());
  ASSERT_EQ(fired, 1);
  EXPECT_EQ(m.confirmations(), 1u);
  const Time first = *m.detected_at();

  m.rearm();
  EXPECT_FALSE(m.deadlocked());
  EXPECT_TRUE(m.cycle().empty());
  EXPECT_TRUE(m.detected_at().has_value()) << "history survives rearm";
  m.rearm();  // idempotent: no double-scheduled poll chain

  s.sim->run_until(40_ms);
  EXPECT_TRUE(m.deadlocked()) << "the untreated cycle is still there";
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(m.confirmations(), 2u);
  EXPECT_GT(*m.detected_at(), first);
}

// ------------------------------------------------------ shard invariance

std::string summary_digest(const RunSummary& r) {
  std::string out = r.deadlocked ? "dead;" : "ok;";
  out += std::to_string(r.trapped_bytes) + ";";
  out += (r.detected_at ? std::to_string(r.detected_at->ps()) : "-") + ";";
  out += (r.dp.detected_at ? std::to_string(r.dp.detected_at->ps()) : "-");
  out += ";";
  out += (r.dp.trigger ? std::to_string(*r.dp.trigger) : "-") + ";";
  out += (r.dp.recovered_at ? std::to_string(r.dp.recovered_at->ps()) : "-");
  out += ";";
  out += std::to_string(r.dp.candidates) + ";";
  out += std::to_string(r.dp.confirms) + ";";
  out += std::to_string(r.dp.recoveries) + ";";
  out += std::to_string(r.dp.false_alarms) + ";";
  for (const auto& [flow, bytes] : r.delivered) {
    out += std::to_string(flow) + "=" + std::to_string(bytes) + ";";
  }
  return out;
}

std::string valley_recovery_digest(int shards) {
  scenarios::ValleyViolationParams p;
  p.dataplane.policy = RecoveryPolicy::kReroute;
  std::optional<ScopedShardRequest> req{std::in_place, shards};
  Scenario s = scenarios::make_valley_violation(p);
  req.reset();
  const RunSummary r = scenarios::run_and_check(s, 20_ms, 10_ms);
  return summary_digest(r);
}

TEST(DataplaneSharded, RecoveryTimelineIsByteIdenticalAcrossShardCounts) {
  const std::string base = valley_recovery_digest(1);
  EXPECT_EQ(valley_recovery_digest(2), base);
  EXPECT_EQ(valley_recovery_digest(4), base);
}

}  // namespace
}  // namespace dcdl::dataplane
