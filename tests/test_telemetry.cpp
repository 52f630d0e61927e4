// dcdl::telemetry: flight-recorder ring semantics, metrics registry
// behaviour, exporter format guarantees, and the deadlock post-mortem path.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "dcdl/analysis/deadlock.hpp"
#include "dcdl/campaign/campaign.hpp"
#include "dcdl/scenarios/scenario.hpp"
#include "dcdl/stats/hooks.hpp"
#include "dcdl/stats/pause_log.hpp"
#include "dcdl/telemetry/telemetry.hpp"

namespace dcdl::telemetry {
namespace {

using namespace dcdl::literals;
using namespace dcdl::scenarios;

// ------------------------------------------------------------ ring buffer

TraceRecord make_record(std::int64_t t, std::uint32_t node) {
  TraceRecord r{};
  r.t_ps = t;
  r.node = node;
  r.kind = RecordKind::kTxStart;
  return r;
}

TEST(FlightRecorderTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(FlightRecorder(1).capacity(), 1u);
  EXPECT_EQ(FlightRecorder(2).capacity(), 2u);
  EXPECT_EQ(FlightRecorder(3).capacity(), 4u);
  EXPECT_EQ(FlightRecorder(1000).capacity(), 1024u);
  EXPECT_EQ(FlightRecorder(1024).capacity(), 1024u);
}

TEST(FlightRecorderTest, SnapshotBeforeWrapIsInsertionOrder) {
  FlightRecorder rec(8);
  for (int i = 0; i < 5; ++i) rec.record(make_record(i, 0));
  EXPECT_EQ(rec.total_recorded(), 5u);
  EXPECT_EQ(rec.size(), 5u);
  const auto snap = rec.snapshot();
  ASSERT_EQ(snap.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(snap[i].t_ps, i);
}

TEST(FlightRecorderTest, WrapKeepsNewestWindowOldestFirst) {
  FlightRecorder rec(8);
  for (int i = 0; i < 21; ++i) rec.record(make_record(i, 0));
  EXPECT_EQ(rec.total_recorded(), 21u);
  EXPECT_EQ(rec.size(), 8u);
  const auto snap = rec.snapshot();
  ASSERT_EQ(snap.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(snap[i].t_ps, 13 + i);

  const auto last3 = rec.last(3);
  ASSERT_EQ(last3.size(), 3u);
  EXPECT_EQ(last3[0].t_ps, 18);
  EXPECT_EQ(last3[2].t_ps, 20);
  EXPECT_EQ(rec.last(100).size(), 8u) << "last(n) clamps to size()";
}

TEST(FlightRecorderTest, FillToExactlyCapacityKeepsEveryRecord) {
  // Wrap-around boundary, part 1: total == capacity is the last state with
  // no loss. Every record present, oldest first, no duplicates.
  FlightRecorder rec(8);
  ASSERT_EQ(rec.capacity(), 8u);
  for (int i = 0; i < 8; ++i) rec.record(make_record(i, 0));
  EXPECT_EQ(rec.total_recorded(), 8u);
  EXPECT_EQ(rec.size(), 8u);
  const auto snap = rec.snapshot();
  ASSERT_EQ(snap.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(snap[i].t_ps, i);
}

TEST(FlightRecorderTest, CapacityPlusOneDropsExactlyTheOldest) {
  // Wrap-around boundary, part 2: one more record must evict record 0 and
  // nothing else — still oldest-first, no duplicate, no gap.
  FlightRecorder rec(8);
  for (int i = 0; i < 9; ++i) rec.record(make_record(i, 0));
  EXPECT_EQ(rec.total_recorded(), 9u);
  EXPECT_EQ(rec.size(), 8u);
  const auto snap = rec.snapshot();
  ASSERT_EQ(snap.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(snap[i].t_ps, 1 + i);
}

TEST(FlightRecorderTest, ClearResets) {
  FlightRecorder rec(4);
  rec.record(make_record(1, 0));
  rec.clear();
  EXPECT_EQ(rec.total_recorded(), 0u);
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_TRUE(rec.snapshot().empty());
}

// --------------------------------------------------------------- metrics

/// The value recorded under `name` in a flat snapshot; NaN when absent.
double value_of(const std::vector<std::pair<std::string, double>>& flat,
                const std::string& name) {
  for (const auto& [n, v] : flat) {
    if (n == name) return v;
  }
  return std::numeric_limits<double>::quiet_NaN();
}

TEST(MetricsRegistryTest, CountersGaugesHistograms) {
  // Counters and gauges only: distributions live in probe::LogHistogram,
  // and the per-run size "histogram" is three gauges (RunTelemetry).
  MetricsRegistry reg;
  const CounterId c = reg.counter("c");
  const GaugeId g = reg.gauge("g");
  const CounterId d = reg.counter("d");

  reg.add(c);
  reg.add(c, 41);
  reg.set(g, -2.5);

  EXPECT_EQ(reg.counter_value(c), 42u);
  EXPECT_EQ(reg.counter_value(d), 0u);
  EXPECT_DOUBLE_EQ(reg.gauge_value(g), -2.5);
  const std::vector<std::pair<std::string, double>> expected = {
      {"c", 42}, {"g", -2.5}, {"d", 0}};
  EXPECT_EQ(reg.snapshot(), expected) << "flat, in registration order";
}

TEST(RunTelemetryTest, EveryDropReasonRoutesToItsOwnCounter) {
  // Each net.dropped_packets_total.<reason> entry reads Network::drops for
  // exactly that reason. The loop drains by TTL expiry; a valley cascade
  // with the in-band pipeline on recovers by flushing (dataplane_reset).
  const auto check = [](Scenario s, DropReason seen) {
    RunTelemetry telem(*s.net);
    s.sim->run_until(6_ms);
    const auto snap = telem.snapshot();
    ASSERT_GT(s.net->drops(seen), 0u) << to_string(seen);
    for (int r = 0; r < kNumDropReasons; ++r) {
      const auto reason = static_cast<DropReason>(r);
      EXPECT_EQ(value_of(snap, std::string("net.dropped_packets_total.") +
                                   to_string(reason)),
                static_cast<double>(s.net->drops(reason)))
          << "reason " << to_string(reason);
    }
  };
  RoutingLoopParams loop;
  loop.inject = Rate::gbps(4);
  check(make_routing_loop(loop), DropReason::kTtlExpired);
  ValleyViolationParams valley;
  valley.dataplane.policy = dataplane::RecoveryPolicy::kDrop;
  check(make_valley_violation(valley), DropReason::kDataplaneReset);
}

TEST(MetricsRegistryTest, RegistrationIsIdempotentButKindChecked) {
  MetricsRegistry reg;
  const CounterId a = reg.counter("x");
  const CounterId b = reg.counter("x");
  EXPECT_EQ(a.v, b.v);
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_THROW(reg.gauge("x"), std::invalid_argument);
  const GaugeId g = reg.gauge("y");
  EXPECT_EQ(reg.gauge("y").v, g.v);
  EXPECT_THROW(reg.counter("y"), std::invalid_argument);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(RunTelemetryTest, CountsMatchIndependentObservers) {
  RoutingLoopParams p;
  p.inject = Rate::gbps(7);
  Scenario s = make_routing_loop(p);
  stats::PauseEventLog pauses(*s.net);
  RunTelemetry telem(*s.net);
  s.sim->run_until(3_ms);

  std::uint64_t xoff = 0, xon = 0;
  for (const auto& e : pauses.events()) (e.paused ? xoff : xon) += 1;
  const MetricsRegistry& reg = telem.registry();
  EXPECT_EQ(reg.counter_value(telem.ids().pfc_xoff), xoff);
  EXPECT_EQ(reg.counter_value(telem.ids().pfc_xon), xon);

  const auto snap = telem.snapshot();
  EXPECT_DOUBLE_EQ(value_of(snap, "sim.events_executed"),
                   static_cast<double>(s.sim->events_executed()));
  EXPECT_GT(value_of(snap, "net.tx_start_total"), 0);
  EXPECT_GT(value_of(snap, "net.dropped_packets_total.ttl_expired"), 0)
      << "the routing loop drains by TTL expiry";

  // The delivered-size triple against an observer of its own (the loop
  // delivers nothing, so count deliveries on the Fig. 3 two-flow case).
  Scenario f = make_four_switch(FourSwitchParams{});
  std::uint64_t delivered = 0, delivered_bytes = 0;
  stats::append_hook(f.net->trace().delivered,
                     [&](Time, const Packet& pkt) {
                       ++delivered;
                       delivered_bytes += pkt.size_bytes;
                     });
  RunTelemetry delivered_telem(*f.net);
  f.sim->run_until(2_ms);
  const auto sizes = delivered_telem.snapshot();
  ASSERT_GT(delivered, 0u);
  EXPECT_DOUBLE_EQ(value_of(sizes, "net.delivered_packet_bytes.count"),
                   static_cast<double>(delivered));
  EXPECT_DOUBLE_EQ(value_of(sizes, "net.delivered_packet_bytes.sum"),
                   static_cast<double>(delivered_bytes));
  EXPECT_DOUBLE_EQ(value_of(sizes, "net.delivered_packet_bytes.mean"),
                   static_cast<double>(delivered_bytes) /
                       static_cast<double>(delivered));
}

TEST(RunTelemetryTest, SnapshotIsDeterministicAcrossRuns) {
  auto run = [] {
    RoutingLoopParams p;
    p.inject = Rate::gbps(6);
    Scenario s = make_routing_loop(p);
    RunTelemetry telem(*s.net);
    s.sim->run_until(2_ms);
    return telem.snapshot();
  };
  EXPECT_EQ(run(), run());
}

// -------------------------------------------------------------- exporters

std::vector<TraceRecord> fig2_records(Scenario& s, FlightRecorder& rec) {
  rec.attach(*s.net);
  s.sim->run_until(2_ms);
  return rec.snapshot();
}

TEST(PerfettoExportTest, SpansNestAndCountersMatchRecords) {
  RoutingLoopParams p;
  p.inject = Rate::gbps(7);
  Scenario s = make_routing_loop(p);
  FlightRecorder rec;
  const auto records = fig2_records(s, rec);
  const std::string json = to_perfetto_json(*s.topo, records);

  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"PFC pause\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);

  // Every "B" has a matching later "E" (the exporter closes open spans at
  // the window end): equal counts is the cheap proxy chrome://tracing
  // enforces per track.
  std::size_t b = 0, e = 0, pos = 0;
  while ((pos = json.find("\"ph\":\"B\"", pos)) != std::string::npos) {
    ++b; pos += 8;
  }
  pos = 0;
  while ((pos = json.find("\"ph\":\"E\"", pos)) != std::string::npos) {
    ++e; pos += 8;
  }
  EXPECT_GT(b, 0u);
  EXPECT_EQ(b, e);

  // Deterministic: the same record stream renders to the same bytes.
  EXPECT_EQ(json, to_perfetto_json(*s.topo, records));
}

TEST(PerfettoExportTest, DropAndResumeInstantsAreEmittedAndDeterministic) {
  // The routing loop produces both TTL-expiry drops and PFC resumes; the
  // export must carry an instant marker for each, and stay byte-identical
  // across renders (the determinism contract covers the instant paths too).
  RoutingLoopParams p;
  p.inject = Rate::gbps(7);
  Scenario s = make_routing_loop(p);
  FlightRecorder rec;
  const auto records = fig2_records(s, rec);
  bool saw_drop = false, saw_xon = false;
  for (const TraceRecord& r : records) {
    saw_drop |= r.kind == RecordKind::kDropped;
    saw_xon |= r.kind == RecordKind::kPfcXon;
  }
  ASSERT_TRUE(saw_drop) << "the loop must age packets out by TTL";
  ASSERT_TRUE(saw_xon);

  const std::string json = to_perfetto_json(*s.topo, records);
  EXPECT_NE(json.find("\"drop ttl_expired\""), std::string::npos);
  EXPECT_NE(json.find("\"pfc resume\""), std::string::npos);
  EXPECT_EQ(json, to_perfetto_json(*s.topo, records));

  // Both families are opt-out.
  PerfettoOptions off;
  off.drop_instants = false;
  off.xon_instants = false;
  const std::string bare = to_perfetto_json(*s.topo, records, off);
  EXPECT_EQ(bare.find("\"drop ttl_expired\""), std::string::npos);
  EXPECT_EQ(bare.find("\"pfc resume\""), std::string::npos);
}

TEST(JsonlExportTest, HeaderAndRecordCount) {
  RoutingLoopParams p;
  p.inject = Rate::gbps(7);
  Scenario s = make_routing_loop(p);
  FlightRecorder rec;
  const auto records = fig2_records(s, rec);
  const std::string jsonl = to_jsonl(*s.topo, records);

  const std::string header = jsonl.substr(0, jsonl.find('\n'));
  EXPECT_NE(header.find("\"schema\":\"dcdl.telemetry.v1\""),
            std::string::npos);
  EXPECT_NE(header.find("\"topology\":{"), std::string::npos);
  EXPECT_NE(header.find("\"links\":["), std::string::npos);
  EXPECT_NE(header.find("\"record_count\":" +
                        std::to_string(records.size())),
            std::string::npos);
  const std::size_t lines =
      static_cast<std::size_t>(std::count(jsonl.begin(), jsonl.end(), '\n'));
  EXPECT_EQ(lines, records.size() + 1);  // header + one line per record
}

TEST(PostMortemTest, ConfirmedDeadlockDumpNamesCycleAndPauseEvents) {
  // Fig. 2 above the deadlock boundary: the monitor confirms a cycle, the
  // callback snapshots the recorder, and the dump must carry (a) the cycle
  // queues in its header and (b) the pause assertions that closed it.
  RoutingLoopParams p;
  p.inject = Rate::gbps(7);
  Scenario s = make_routing_loop(p);
  FlightRecorder rec;
  rec.attach(*s.net);
  analysis::DeadlockMonitor monitor(*s.net, Time{50'000'000}, 1_ms);
  std::string dump;
  monitor.set_on_confirmed([&](const analysis::DeadlockMonitor& m) {
    dump = post_mortem_jsonl(*s.topo, rec, m.cycle(), *m.detected_at(), 1024);
  });
  monitor.start(Time::zero(), 20_ms);
  s.sim->run_until(20_ms);

  ASSERT_TRUE(monitor.deadlocked());
  ASSERT_FALSE(dump.empty()) << "on_confirmed must have fired";

  const std::string header = dump.substr(0, dump.find('\n'));
  EXPECT_NE(header.find("\"post_mortem\":true"), std::string::npos);
  EXPECT_NE(header.find("\"cycle\":["), std::string::npos);
  for (const auto& q : monitor.cycle()) {
    const std::string entry = "{\"node\":" + std::to_string(q.node) +
                              ",\"port\":" + std::to_string(q.port) +
                              ",\"cls\":" + std::to_string(q.cls) + "}";
    EXPECT_NE(header.find(entry), std::string::npos)
        << "cycle queue missing from header: " << entry;
  }
  EXPECT_NE(dump.find("\"kind\":\"pfc_xoff\""), std::string::npos)
      << "the window must contain the pause assertions that closed the "
         "cycle";
}

TEST(PostMortemTest, ExecutorWritesIdenticalRecordAcrossJobs) {
  // The campaign integration end-to-end knob: telemetry embedded in the
  // v2 record depends only on the spec, never on --jobs or interleaving.
  // (File outputs are exercised by the CLI; here we check the record.)
  using namespace dcdl::campaign;
  ScenarioRegistry reg;
  register_builtin_scenarios(reg);
  SweepSpec spec;
  spec.scenario = "routing_loop";
  spec.axes = parse_grid("inject=4..7gbps:2");
  spec.seeds_per_cell = 1;
  spec.run_for = 2_ms;
  spec.drain_grace = 10_ms;
  const std::vector<RunSpec> runs = expand(spec);

  ExecutorOptions one, four;
  one.jobs = 1;
  four.jobs = 4;
  const CampaignResult a = CampaignExecutor(reg, one).run(runs);
  const CampaignResult b = CampaignExecutor(reg, four).run(runs);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].telemetry, b.records[i].telemetry);
    EXPECT_FALSE(a.records[i].telemetry.empty());
  }
}

// ------------------------------------------------------------ POD record

TEST(TraceRecordTest, LayoutIsPinned) {
  // The static_asserts in record.hpp are the real gate; this documents the
  // numbers where a human will read them.
  EXPECT_EQ(sizeof(TraceRecord), 32u);
  EXPECT_TRUE(std::is_trivially_copyable_v<TraceRecord>);
  EXPECT_EQ(std::string(to_string(RecordKind::kPfcXoff)), "pfc_xoff");
  EXPECT_EQ(std::string(to_string(RecordKind::kQueueBytes)), "queue_bytes");
}

}  // namespace
}  // namespace dcdl::telemetry
