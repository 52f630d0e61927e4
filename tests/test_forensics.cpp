// dcdl::forensics: causality-DAG construction, initial-trigger attribution,
// renderer format guarantees, offline JSONL round-trips, and determinism of
// the forensic artifacts across campaign --jobs levels.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "dcdl/analysis/deadlock.hpp"
#include "dcdl/campaign/campaign.hpp"
#include "dcdl/device/host.hpp"
#include "dcdl/device/network.hpp"
#include "dcdl/forensics/forensics.hpp"
#include "dcdl/hybrid/hybrid.hpp"
#include "dcdl/routing/compute.hpp"
#include "dcdl/scenarios/scenario.hpp"
#include "dcdl/stats/hooks.hpp"
#include "dcdl/stats/pause_log.hpp"
#include "dcdl/telemetry/telemetry.hpp"
#include "dcdl/topo/generators.hpp"
#include "dcdl/traffic/flow.hpp"

namespace dcdl::forensics {
namespace {

using namespace dcdl::literals;
using namespace dcdl::scenarios;

// ----------------------------------------------------- hand-built cascades

/// A 3-switch chain (s0 — s1 — s2, 1 us links, no hosts), driving the
/// analyzer through a hand-assembled CausalInput so every edge and depth is
/// pinned to a known event order.
struct Chain {
  Topology topo;
  NodeId s0, s1, s2;
  CausalInput in;

  Chain() {
    s0 = topo.add_switch("s0");
    s1 = topo.add_switch("s1");
    s2 = topo.add_switch("s2");
    topo.add_link(s0, s1);  // 1 us default delay
    topo.add_link(s1, s2);
    in = make_input(topo);
  }

  QueueKey queue(NodeId at, NodeId from, ClassId cls = 0) const {
    return QueueKey{at, *topo.port_towards(at, from), cls};
  }

  void fire(int t_us, QueueKey q, bool paused) {
    in.pauses.push_back(
        {static_cast<std::int64_t>(t_us) * 1'000'000, q.node, q.port, q.cls,
         paused});
  }
};

TEST(CausalityTest, ChainAttributesOriginAndPropagatedDepths) {
  // Congestion starts at s2's ingress from s1 (depth 0); at 1 us spacing
  // over 1 us links every pause frame has just arrived, so the DAG is the
  // full chain 0 -> 1 -> 2.
  Chain c;
  c.fire(1, c.queue(c.s2, c.s1), true);
  c.fire(2, c.queue(c.s1, c.s0), true);
  c.fire(3, c.queue(c.s0, c.s1), true);
  const CascadeReport r = analyze(c.in);
  ASSERT_EQ(r.spans.size(), 3u);
  EXPECT_EQ(r.spans[0].depth, 0);
  EXPECT_EQ(r.spans[1].depth, 1);
  EXPECT_EQ(r.spans[2].depth, 2);
  ASSERT_EQ(r.components.size(), 1u);
  EXPECT_EQ(r.components[0].max_depth, 2);
  EXPECT_EQ(r.components[0].max_width, 1);
  EXPECT_EQ(r.components[0].root, 0u);
  ASSERT_TRUE(r.initial_trigger().has_value());
  EXPECT_EQ(*r.initial_trigger(), 0u);
  EXPECT_EQ(r.spans[0].queue, c.queue(c.s2, c.s1));
}

TEST(CausalityTest, SimultaneousParentsTakeMaxDepthPlusOne) {
  Chain c;
  c.fire(1, c.queue(c.s2, c.s1), true);
  c.fire(2, c.queue(c.s1, c.s0), true);
  c.fire(3, c.queue(c.s0, c.s1), true);
  c.fire(4, c.queue(c.s1, c.s2), true);  // parents: s0 (depth 2), s2 (0)
  const CascadeReport r = analyze(c.in);
  ASSERT_EQ(r.spans.size(), 4u);
  EXPECT_EQ(r.spans[3].depth, 3);
  EXPECT_EQ(r.spans[3].causes.size(), 2u);
  ASSERT_EQ(r.components.size(), 1u);
  EXPECT_EQ(r.components[0].max_depth, 3);
}

TEST(CausalityTest, XonSplitsSpansAndResetsAttribution) {
  Chain c;
  c.fire(1, c.queue(c.s2, c.s1), true);
  c.fire(2, c.queue(c.s2, c.s1), false);  // released
  c.fire(3, c.queue(c.s1, c.s0), true);   // no active parent: origin again
  const CascadeReport r = analyze(c.in);
  ASSERT_EQ(r.spans.size(), 2u);
  EXPECT_EQ(r.spans[0].end_ps, 2'000'000);
  EXPECT_EQ(r.spans[1].depth, 0);
  EXPECT_EQ(r.components.size(), 2u);
}

TEST(CausalityTest, ClassesDoNotCrossAttribute) {
  Chain c;
  c.fire(1, c.queue(c.s2, c.s1, 1), true);
  c.fire(2, c.queue(c.s1, c.s0, 0), true);
  const CascadeReport r = analyze(c.in);
  ASSERT_EQ(r.spans.size(), 2u);
  EXPECT_EQ(r.spans[1].depth, 0) << "class 1 must not parent class 0";
  EXPECT_EQ(r.components.size(), 2u);
}

TEST(CausalityTest, PauseFrameMustHaveArrivedToBeACause) {
  // The arrival-time filter: a downstream pause asserted 0.5 us before the
  // upstream one cannot be its cause over a 1 us link — the Xoff frame was
  // still in flight.
  Chain c;
  c.in.pauses.push_back({1'000'000, c.queue(c.s2, c.s1).node,
                         c.queue(c.s2, c.s1).port, 0, true});
  c.in.pauses.push_back({1'500'000, c.queue(c.s1, c.s0).node,
                         c.queue(c.s1, c.s0).port, 0, true});
  const CascadeReport r = analyze(c.in);
  ASSERT_EQ(r.spans.size(), 2u);
  EXPECT_EQ(r.spans[1].depth, 0) << "cause must be filtered by arrival time";
  EXPECT_TRUE(r.spans[1].causes.empty());
  EXPECT_EQ(r.components.size(), 2u);
}

TEST(CausalityTest, OpenSpansReachTheWindowEnd) {
  Chain c;
  c.in.window_end_ps = 9'000'000;
  c.fire(1, c.queue(c.s2, c.s1), true);  // never released
  const CascadeReport r = analyze(c.in);
  ASSERT_EQ(r.spans.size(), 1u);
  EXPECT_EQ(r.spans[0].end_ps, -1);
  EXPECT_EQ(r.window_end_ps, 9'000'000);
}

TEST(CausalityTest, OccupancyAnnotatesTheThresholdCrossing) {
  Chain c;
  const QueueKey q = c.queue(c.s2, c.s1);
  c.in.occupancy.push_back({500'000, q.node, q.port, q.cls, 39'000});
  c.in.occupancy.push_back({900'000, q.node, q.port, q.cls, 41'000});
  c.in.occupancy.push_back({2'000'000, q.node, q.port, q.cls, 50'000});
  c.fire(1, q, true);
  const CascadeReport r = analyze(c.in);
  ASSERT_EQ(r.spans.size(), 1u);
  EXPECT_EQ(r.spans[0].bytes_at_assert, 41'000u)
      << "last observation at/before the assertion, not a later one";
}

TEST(CausalityTest, TtlDropsClassifyTheCascadeAsRoutingLoop) {
  Chain c;
  c.fire(1, c.queue(c.s2, c.s1), true);
  c.in.drops.push_back(
      {500'000, c.s2, static_cast<std::uint8_t>(DropReason::kTtlExpired)});
  const CascadeReport loop = analyze(c.in);
  ASSERT_EQ(loop.components.size(), 1u);
  EXPECT_EQ(loop.components[0].trigger, TriggerKind::kRoutingLoop);

  // A non-TTL drop at the same switch is not loop evidence; with no hosts
  // attached the trigger stays a congestion cascade.
  c.in.drops[0].reason =
      static_cast<std::uint8_t>(DropReason::kBufferOverflow);
  const CascadeReport other = analyze(c.in);
  EXPECT_EQ(other.components[0].trigger, TriggerKind::kCongestionCascade);
}

TEST(CausalityTest, EdgeQueueClassifiesAsHostPause) {
  Topology topo;
  const NodeId sw = topo.add_switch("s");
  const NodeId host = topo.add_host("h");
  topo.add_link(sw, host);
  CausalInput in = make_input(topo);
  in.pauses.push_back({1'000'000, sw, *topo.port_towards(sw, host), 0, true});
  const CascadeReport r = analyze(in);
  ASSERT_EQ(r.components.size(), 1u);
  EXPECT_EQ(r.components[0].trigger, TriggerKind::kHostPause);
}

TEST(CausalityTest, DeadlockCycleMarksSpansAndPicksTheTrigger) {
  Chain c;
  c.fire(1, c.queue(c.s2, c.s1), true);
  c.fire(2, c.queue(c.s1, c.s0), true);
  c.fire(3, c.queue(c.s0, c.s1), true);
  c.in.deadlock_cycle = {c.queue(c.s1, c.s0), c.queue(c.s0, c.s1)};
  c.in.deadlock_at_ps = 5'000'000;
  const CascadeReport r = analyze(c.in);
  ASSERT_EQ(r.spans.size(), 3u);
  EXPECT_FALSE(r.spans[0].in_deadlock_cycle);
  EXPECT_TRUE(r.spans[1].in_deadlock_cycle);
  EXPECT_TRUE(r.spans[2].in_deadlock_cycle);
  ASSERT_TRUE(r.deadlock_trigger.has_value());
  EXPECT_EQ(*r.deadlock_trigger, 0u)
      << "the trigger is the root of the cascade holding the cycle";
  EXPECT_EQ(r.time_to_deadlock_ps, 4'000'000);
  ASSERT_EQ(r.components.size(), 1u);
  EXPECT_TRUE(r.components[0].contains_deadlock_cycle);
}

// ------------------------------------------------- end-to-end attribution

/// Fig. 2 routing-loop scenario above the deadlock boundary, fully
/// instrumented: recorder + pause log + monitor verdict.
struct LoopRun {
  Scenario s;
  telemetry::FlightRecorder rec;
  CascadeReport report;
  std::vector<telemetry::TraceRecord> records;
  std::vector<stats::QueueKey> cycle;
  Time detected_at = Time::zero();

  LoopRun() : s([] {
    RoutingLoopParams p;
    p.inject = Rate::gbps(7);
    return make_routing_loop(p);
  }()) {
    rec.attach(*s.net);
    analysis::DeadlockMonitor monitor(*s.net, Time{50'000'000}, 1_ms);
    monitor.start(Time::zero(), 20_ms);
    s.sim->run_until(20_ms);
    EXPECT_TRUE(monitor.deadlocked());
    records = rec.snapshot();
    cycle = monitor.cycle();
    detected_at = *monitor.detected_at();
    CausalInput in = input_from_records(*s.topo, records);
    in.deadlock_cycle = cycle;
    in.deadlock_at_ps = detected_at.ps();
    report = analyze(in);
  }
};

TEST(AttributionTest, Fig2LoopTriggerIsARecordedPauseWithLoopOrigin) {
  LoopRun run;
  ASSERT_TRUE(run.report.deadlock_trigger.has_value());
  const PauseSpan& t = run.report.spans[*run.report.deadlock_trigger];

  // The attributed trigger must be a real recorded Xoff: same switch,
  // port, class, and assertion instant as a pfc_xoff record.
  bool found = false;
  for (const telemetry::TraceRecord& r : run.records) {
    if (r.kind == telemetry::RecordKind::kPfcXoff && r.node == t.queue.node &&
        r.port == t.queue.port && r.cls == t.queue.cls &&
        r.t_ps == t.start_ps) {
      found = true;
      break;
    }
  }
  EXPECT_TRUE(found) << "trigger does not match any recorded pfc_xoff";

  // It is the *first* pause of its cascade, on a queue of the confirmed
  // wait-for cycle, and classified as a routing-loop origin (the scenario's
  // injected root cause).
  const CascadeComponent& comp =
      run.report.components[static_cast<std::size_t>(t.component)];
  EXPECT_EQ(comp.root, *run.report.deadlock_trigger);
  for (const PauseSpan& s : run.report.spans) {
    if (s.component == t.component) {
      EXPECT_GE(s.start_ps, t.start_ps);
    }
  }
  EXPECT_EQ(comp.trigger, TriggerKind::kRoutingLoop);
  EXPECT_TRUE(comp.contains_deadlock_cycle);
  bool in_cycle = false;
  for (const stats::QueueKey& q : run.cycle) in_cycle |= (q == t.queue);
  EXPECT_TRUE(in_cycle);
  EXPECT_EQ(run.report.time_to_deadlock_ps,
            run.detected_at.ps() - t.start_ps);
}

TEST(AttributionTest, Fig1RingTriggerSitsOnTheConfirmedCycle) {
  Scenario s = make_ring_deadlock(RingDeadlockParams{});
  stats::PauseEventLog pauses(*s.net);
  const RunSummary r = run_and_check(s, 20_ms, 30_ms);
  ASSERT_TRUE(r.deadlocked);
  ASSERT_TRUE(r.detected_at.has_value());
  ASSERT_FALSE(r.cycle.empty());

  CausalInput in = input_from_pause_log(*s.topo, pauses, s.sim->now());
  in.deadlock_cycle = r.cycle;
  in.deadlock_at_ps = r.detected_at->ps();
  const CascadeReport report = analyze(in);
  ASSERT_TRUE(report.deadlock_trigger.has_value());
  const PauseSpan& t = report.spans[*report.deadlock_trigger];
  bool in_cycle = false;
  for (const stats::QueueKey& q : r.cycle) in_cycle |= (q == t.queue);
  EXPECT_TRUE(in_cycle) << "the ring's trigger is one of the cycle queues";
  EXPECT_TRUE(t.in_deadlock_cycle);
  EXPECT_EQ(t.end_ps, -1) << "a deadlocked queue never releases its pause";
  EXPECT_GT(report.time_to_deadlock_ps, 0);

  // The first pfc assertion of the deadlock component matches the pause
  // log exactly (queue identity and first-pause instant).
  bool found = false;
  for (const stats::PauseEvent& e : pauses.events()) {
    if (e.paused && stats::QueueKey{e.node, e.port, e.cls} == t.queue &&
        e.t.ps() == t.start_ps) {
      found = true;
      break;
    }
  }
  EXPECT_TRUE(found);
}

// -------------------------------------------------------------- renderers

TEST(ReportTest, TextNamesTriggerDepthAndDeadlock) {
  LoopRun run;
  const std::string text = to_text(run.report);
  EXPECT_NE(text.find("deadlock: confirmed at t="), std::string::npos);
  EXPECT_NE(text.find("initial trigger:"), std::string::npos);
  EXPECT_NE(text.find("routing-loop origin"), std::string::npos);
  EXPECT_NE(text.find("cascade depth"), std::string::npos);
  EXPECT_NE(text.find("time-to-deadlock"), std::string::npos);
  EXPECT_NE(text.find("pause-storm fan-out:"), std::string::npos);
  EXPECT_EQ(text, to_text(run.report)) << "rendering must be deterministic";
}

TEST(ReportTest, DotIsAValidDigraphWithCycleHighlight) {
  LoopRun run;
  const std::string dot = to_dot(run.report);
  EXPECT_EQ(dot.rfind("digraph pause_cascade {", 0), 0u);
  EXPECT_EQ(dot.substr(dot.size() - 2), "}\n");
  std::size_t open = 0, close = 0;
  for (const char ch : dot) {
    open += ch == '{';
    close += ch == '}';
  }
  EXPECT_EQ(open, close);
  // One node statement per span, each with a label.
  for (std::size_t i = 0; i < run.report.spans.size(); ++i) {
    const std::string node = "  s" + std::to_string(i) + " [label=";
    EXPECT_NE(dot.find(node), std::string::npos) << "missing node " << i;
  }
  EXPECT_NE(dot.find("color=red"), std::string::npos)
      << "the wait-for cycle must be highlighted";
  EXPECT_NE(dot.find("peripheries=2"), std::string::npos)
      << "triggers are double-bordered";
  EXPECT_NE(dot.find(" -> "), std::string::npos);
}

TEST(ReportTest, FlowArrowsLandInPerfettoExportAsFlowEvents) {
  LoopRun run;
  const std::vector<telemetry::FlowArrow> arrows = flow_arrows(run.report);
  ASSERT_FALSE(arrows.empty()) << "a deadlock cascade must have edges";
  const std::string json =
      to_perfetto_json(*run.s.topo, run.records, {}, arrows);

  // Shape: legacy flow events come in s/f pairs with binding point "e",
  // one pair per arrow, same id on both halves.
  std::size_t starts = 0, finishes = 0, pos = 0;
  while ((pos = json.find("\"ph\":\"s\"", pos)) != std::string::npos) {
    ++starts;
    pos += 8;
  }
  pos = 0;
  while ((pos = json.find("\"ph\":\"f\"", pos)) != std::string::npos) {
    ++finishes;
    pos += 8;
  }
  EXPECT_EQ(starts, arrows.size());
  EXPECT_EQ(finishes, arrows.size());
  EXPECT_NE(json.find("\"bt\":\"e\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"pause cascade\""), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json, to_perfetto_json(*run.s.topo, run.records, {}, arrows));
}

// ------------------------------------------------------ offline round-trip

TEST(TraceIoTest, JsonlRoundTripPreservesRecordsAndTopology) {
  LoopRun run;
  const std::string jsonl = telemetry::to_jsonl(*run.s.topo, run.records);
  const LoadedTrace trace = parse_jsonl(jsonl);
  ASSERT_TRUE(trace.has_topology);
  EXPECT_FALSE(trace.post_mortem);
  ASSERT_EQ(trace.records.size(), run.records.size());
  for (std::size_t i = 0; i < trace.records.size(); ++i) {
    EXPECT_EQ(trace.records[i].t_ps, run.records[i].t_ps);
    EXPECT_EQ(trace.records[i].kind, run.records[i].kind);
    EXPECT_EQ(trace.records[i].node, run.records[i].node);
  }
  EXPECT_EQ(trace.topo.node_count(), run.s.topo->node_count());
  EXPECT_EQ(trace.topo.link_count(), run.s.topo->link_count());
  // Replayed links must reproduce port numbering and delays exactly: the
  // offline analysis of the parsed trace matches the live one byte for
  // byte.
  CausalInput offline = input_from_trace(trace);
  offline.deadlock_cycle = run.cycle;
  offline.deadlock_at_ps = run.detected_at.ps();
  EXPECT_EQ(to_text(analyze(offline)), to_text(run.report));
  EXPECT_EQ(to_dot(analyze(offline)), to_dot(run.report));
}

TEST(TraceIoTest, PostMortemRoundTripCarriesTheVerdict) {
  LoopRun run;
  // Re-record through a recorder-backed dump so the header carries cycle +
  // detection time + topology.
  telemetry::FlightRecorder rec2;
  for (const telemetry::TraceRecord& r : run.records) rec2.record(r);
  const std::string dump = telemetry::post_mortem_jsonl(
      *run.s.topo, rec2, run.cycle, run.detected_at, 1u << 16);
  const LoadedTrace trace = parse_jsonl(dump);
  EXPECT_TRUE(trace.post_mortem);
  ASSERT_TRUE(trace.has_topology);
  ASSERT_TRUE(trace.detected_at_ps.has_value());
  EXPECT_EQ(*trace.detected_at_ps, run.detected_at.ps());
  ASSERT_EQ(trace.cycle.size(), run.cycle.size());
  for (std::size_t i = 0; i < trace.cycle.size(); ++i) {
    EXPECT_EQ(trace.cycle[i], run.cycle[i]);
  }
  // input_from_trace carries the verdict into the analysis unprompted.
  const CascadeReport offline = analyze(input_from_trace(trace));
  ASSERT_TRUE(offline.deadlock_trigger.has_value());
  EXPECT_EQ(to_text(offline), to_text(run.report));
}

TEST(TraceIoTest, MalformedInputThrowsWithLineNumbers) {
  EXPECT_THROW(parse_jsonl(""), std::runtime_error);
  EXPECT_THROW(parse_jsonl("{\"schema\":\"something.else\"}\n"),
               std::runtime_error);
  EXPECT_THROW(load_jsonl_file("/nonexistent/trace.jsonl"),
               std::runtime_error);
  // Topology-less dumps parse but cannot feed the causal analysis.
  const LoadedTrace trace =
      parse_jsonl("{\"schema\":\"dcdl.telemetry.v1\",\"record_count\":0}\n");
  EXPECT_FALSE(trace.has_topology);
  EXPECT_THROW(input_from_trace(trace), std::runtime_error);
  // A topology header whose links Topology::add_link would reject (an
  // undeclared or negative endpoint, a self-link, a negative delay) and an
  // integer beyond int64_t each fail the parse with the line named.
  const auto header = [](const std::string& link) {
    return "{\"schema\":\"dcdl.telemetry.v1\",\"topology\":{\"nodes\":["
           "{\"kind\":\"switch\",\"name\":\"s0\"},"
           "{\"kind\":\"switch\",\"name\":\"s1\"}],\"links\":[" +
           link + "]}}\n";
  };
  EXPECT_NO_THROW(parse_jsonl(header("{\"a\":0,\"b\":1,\"delay_ps\":1}")));
  for (const char* link : {"{\"a\":99,\"b\":1,\"delay_ps\":1}",
                           "{\"a\":-1,\"b\":1,\"delay_ps\":1}",
                           "{\"a\":1,\"b\":1,\"delay_ps\":1}",
                           "{\"a\":0,\"b\":1,\"delay_ps\":-5}"}) {
    EXPECT_THROW(parse_jsonl(header(link)), std::runtime_error) << link;
  }
  const auto expect_line = [](const std::string& dump, const char* line) {
    try {
      parse_jsonl(dump);
      ADD_FAILURE() << "must not parse:\n" << dump.substr(0, 400);
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(line), std::string::npos)
          << e.what();
    }
  };
  expect_line("{\"schema\":\"dcdl.telemetry.v1\"}\n"
              "{\"t_ps\":12345678901234567890123,\"kind\":\"tx_start\"}\n",
              "line 2");

  // A real 4-node dump (the routing loop: two switches, two hosts). Each
  // record field is range-checked against the header's topology and its
  // own width, and the header's record_count against the records read.
  RoutingLoopParams p;
  p.inject = Rate::gbps(7);
  Scenario s = make_routing_loop(p);
  telemetry::FlightRecorder rec;
  rec.attach(*s.net);
  s.sim->run_until(1_ms);
  const std::string dump = telemetry::to_jsonl(*s.topo, rec.snapshot());
  ASSERT_EQ(s.topo->node_count(), 4u);
  // The header of a one-record dump of the same fabric.
  const std::string one = telemetry::to_jsonl(
      *s.topo, std::vector<telemetry::TraceRecord>(1));
  const std::string head = one.substr(0, one.find('\n') + 1);
  const std::string xoff = "{\"t_ps\":5,\"kind\":\"pfc_xoff\",";
  for (const std::string& bad :
       {xoff + "\"node\":99,\"port\":0,\"cls\":0}",
        xoff + "\"node\":0,\"port\":65536,\"cls\":256}",
        xoff + "\"node\":0,\"port\":1,\"cls\":256}",
        xoff + "\"node\":1.5,\"port\":0,\"cls\":0}",
        xoff + "\"node\":0,\"port\":9,\"cls\":0}",
        xoff + "\"node\":0,\"port\":0,\"cls\":0",
        xoff + "\"node\":0,\"port\":0,\"cls\":0} trailing",
        std::string("{\"t_ps\":5,\"kind\":\"delivered\",\"node\":2,") +
            "\"cls\":0,\"flow\":4294967296,\"bytes\":1000}"}) {
    expect_line(head + bad + "\n", "line 2");
  }
  std::size_t cut = 0;
  for (int line = 0; line < 100; ++line) cut = dump.find('\n', cut) + 1;
  ASSERT_LT(cut, dump.size()) << "the dump must outlast 100 lines";
  expect_line(dump.substr(0, cut), "line 1");

  // An absent port stays kInvalidPort; a region_state record's node is a
  // region index, not a NodeId; without a topology only widths apply.
  const auto one_record = [](const std::string& header,
                             const std::string& record) {
    const LoadedTrace t = parse_jsonl(header + record + "\n");
    EXPECT_EQ(t.records.size(), 1u);
    return t.records.empty() ? telemetry::TraceRecord{} : t.records.front();
  };
  EXPECT_EQ(one_record(head, "{\"t_ps\":5,\"kind\":\"delivered\",\"node\":3,"
                             "\"cls\":0,\"flow\":1,\"bytes\":1000}")
                .port,
            kInvalidPort);
  EXPECT_EQ(one_record(head, "{\"t_ps\":5,\"kind\":\"region_state\","
                             "\"region\":99,\"level\":\"packet\"}")
                .node,
            99u);
  const std::string bare_head = "{\"schema\":\"dcdl.telemetry.v1\"}\n";
  EXPECT_EQ(one_record(bare_head, xoff + "\"node\":99,\"port\":7,\"cls\":7}")
                .node,
            99u);
  expect_line(bare_head + xoff + "\"node\":99,\"port\":65536,\"cls\":0}\n",
              "line 2");
}

TEST(TraceIoTest, DataplaneRecordsRoundTripAndRerenderByteIdentically) {
  // A run with the in-band pipeline on writes kDataplaneDetect (and, under
  // destructive policies, kDataplaneRecover) records into the v1 stream.
  // Parsing the JSONL and re-rendering it must be a fixed point: every
  // dataplane field survives one hop through dcdl_forensics' loader.
  ValleyViolationParams p;
  p.dataplane.policy = dataplane::RecoveryPolicy::kPfcLift;
  Scenario s = make_valley_violation(p);
  telemetry::FlightRecorder rec;
  rec.attach(*s.net);
  s.sim->run_until(20_ms);
  const std::vector<telemetry::TraceRecord> records = rec.snapshot();

  std::size_t detects = 0, recovers = 0;
  for (const telemetry::TraceRecord& r : records) {
    detects += r.kind == telemetry::RecordKind::kDataplaneDetect ? 1 : 0;
    recovers += r.kind == telemetry::RecordKind::kDataplaneRecover ? 1 : 0;
  }
  ASSERT_GT(detects, 0u) << "pipeline must reach kConfirmed within 20 ms";
  ASSERT_GT(recovers, 0u) << "kPfcLift acts and re-arms";

  const std::string jsonl = telemetry::to_jsonl(*s.topo, records);
  const LoadedTrace trace = parse_jsonl(jsonl);
  ASSERT_EQ(trace.records.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(trace.records[i].t_ps, records[i].t_ps);
    EXPECT_EQ(trace.records[i].kind, records[i].kind);
    EXPECT_EQ(trace.records[i].node, records[i].node);
    EXPECT_EQ(trace.records[i].bytes, records[i].bytes);
    EXPECT_EQ(trace.records[i].reason, records[i].reason);
  }
  EXPECT_EQ(telemetry::to_jsonl(trace.topo, trace.records), jsonl);
}

TEST(TraceIoTest, HybridRegionRecordsRoundTripAndRerenderByteIdentically) {
  // A hybrid (v4) run that escalates emits kRegionState transitions; the
  // round trip must preserve region index and level direction exactly.
  Simulator sim;
  topo::FatTreeTopo ft = topo::make_fat_tree(4);
  Network net(sim, ft.topo, NetConfig{});
  routing::install_shortest_paths(net);
  const int half = 2, hp = 4;
  std::vector<FlowSpec> flows;
  FlowId id = 1;
  for (int i = 1; i < hp; ++i) {  // greedy incast onto pod-0 host 0
    FlowSpec f;
    f.id = id++;
    f.src_host = ft.all_hosts[static_cast<std::size_t>(i)];
    f.dst_host = ft.all_hosts[0];
    f.packet_bytes = 1000;
    net.host_at(f.src_host).add_flow(f);
    flows.push_back(f);
  }
  for (int pod = 1; pod < 4; ++pod) {  // steady CBR background
    for (int i = 0; i < hp; ++i) {
      FlowSpec f;
      f.id = id++;
      f.src_host = ft.all_hosts[static_cast<std::size_t>(pod * hp + i)];
      f.dst_host = ft.all_hosts[static_cast<std::size_t>(
          pod * hp + (i + half) % hp)];
      f.packet_bytes = 1000;
      net.host_at(f.src_host).add_flow(
          f, std::make_unique<TokenBucketPacer>(Rate::gbps(4),
                                                2 * f.packet_bytes));
      flows.push_back(f);
    }
  }
  telemetry::FlightRecorder rec;
  rec.attach(net);
  hybrid::HybridConfig hc;
  hc.mode = hybrid::Mode::kRisk;
  hybrid::HybridController ctl(net, flows, hc);
  sim.run_until(1_ms);
  ctl.finalize();
  ASSERT_GE(ctl.stats().escalations, 1u);

  const std::vector<telemetry::TraceRecord> records = rec.snapshot();
  std::size_t regions = 0;
  for (const telemetry::TraceRecord& r : records) {
    regions += r.kind == telemetry::RecordKind::kRegionState ? 1 : 0;
  }
  ASSERT_GT(regions, 0u) << "escalations must land in the flight recorder";

  const std::string jsonl = telemetry::to_jsonl(ft.topo, records);
  const LoadedTrace trace = parse_jsonl(jsonl);
  ASSERT_EQ(trace.records.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(trace.records[i].kind, records[i].kind);
    EXPECT_EQ(trace.records[i].node, records[i].node)
        << "kRegionState carries the region index in `node`";
    EXPECT_EQ(trace.records[i].bytes, records[i].bytes);
  }
  EXPECT_EQ(telemetry::to_jsonl(trace.topo, trace.records), jsonl);
}

// ---------------------------------------------------------------- summary

TEST(MetricsTest, CascadeSummaryLandsInTheRegistry) {
  Chain c;
  c.fire(1, c.queue(c.s2, c.s1), true);
  c.fire(2, c.queue(c.s1, c.s0), true);
  c.fire(3, c.queue(c.s0, c.s1), true);
  c.in.deadlock_cycle = {c.queue(c.s0, c.s1)};
  c.in.deadlock_at_ps = 5'000'000;
  const CascadeReport report = analyze(c.in);

  // The flat summary every campaign record's telemetry carries, in its
  // fixed order.
  const std::vector<std::pair<std::string, double>> expected = {
      {"forensics.pause_spans", 3},
      {"forensics.cascades", 1},
      {"forensics.cascade_max_depth", 2},
      {"forensics.cascade_max_width", 1},
      {"forensics.triggers.routing_loop", 0},
      {"forensics.triggers.host_pause", 0},
      {"forensics.triggers.congestion", 1},
      {"forensics.time_to_deadlock_ms", 4e6 / 1e9},
      {"forensics.fanout.count", 3},
      {"forensics.fanout.sum", 2},
      {"forensics.fanout.mean", 2.0 / 3},
  };
  EXPECT_EQ(summary(report), expected);
}

TEST(MetricsTest, ExecutorAppendsForensicsToEveryRecord) {
  using namespace dcdl::campaign;
  ScenarioRegistry reg;
  register_builtin_scenarios(reg);
  SweepSpec spec;
  spec.scenario = "routing_loop";
  spec.axes = parse_grid("inject=7..7gbps:1");
  spec.run_for = 3_ms;
  spec.drain_grace = 10_ms;
  const CampaignResult result =
      CampaignExecutor(reg, {}).run(expand(spec));
  ASSERT_EQ(result.records.size(), 1u);
  const RunRecord& rec = result.records.front();
  ASSERT_EQ(rec.status, RunStatus::kOk);
  double spans = -1, loops = -1, ttd = -2;
  for (const auto& [name, value] : rec.telemetry) {
    if (name == "forensics.pause_spans") spans = value;
    if (name == "forensics.triggers.routing_loop") loops = value;
    if (name == "forensics.time_to_deadlock_ms") ttd = value;
  }
  EXPECT_GT(spans, 0) << "forensics.* must ride in RunRecord.telemetry";
  EXPECT_GT(loops, 0) << "the loop scenario's cascades are loop-origin";
  EXPECT_TRUE(rec.deadlocked);
  EXPECT_GT(ttd, 0);
}

// ------------------------------------------------------------ determinism

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << path;
  std::ostringstream out;
  out << f.rdbuf();
  return out.str();
}

TEST(DeterminismTest, ForensicArtifactsAreByteIdenticalAcrossJobs) {
  // The --jobs gate for the new artifacts: report text, DOT, annotated
  // Perfetto trace, and post-mortem must not depend on scheduling.
  using namespace dcdl::campaign;
  ScenarioRegistry reg;
  register_builtin_scenarios(reg);
  SweepSpec spec;
  spec.scenario = "routing_loop";
  spec.axes = parse_grid("inject=4..7gbps:2");
  spec.run_for = 3_ms;
  spec.drain_grace = 10_ms;
  const std::vector<RunSpec> runs = expand(spec);

  const std::string base =
      (std::filesystem::path(::testing::TempDir()) / "forensics_jobs")
          .string();
  std::vector<std::string> dirs = {base + "_1", base + "_4"};
  for (const std::string& d : dirs) {
    std::filesystem::remove_all(d);
    ensure_output_dir(d);
  }
  ExecutorOptions one, four;
  one.jobs = 1;
  one.trace_dir = dirs[0];
  four.jobs = 4;
  four.trace_dir = dirs[1];
  CampaignExecutor(reg, one).run(runs);
  CampaignExecutor(reg, four).run(runs);

  std::size_t compared = 0;
  for (const char* suffix :
       {".forensics.txt", ".forensics.dot", ".trace.json",
        ".telemetry.jsonl", ".postmortem.jsonl", ".counters.json",
        ".alerts.perfetto.json"}) {
    for (const RunSpec& r : runs) {
      char idx[32];
      std::snprintf(idx, sizeof(idx), "run_%05d", r.run_index);
      const std::string a = dirs[0] + "/" + idx + suffix;
      if (!std::filesystem::exists(a)) continue;  // e.g. no post-mortem
      ++compared;
      EXPECT_EQ(slurp(a), slurp(dirs[1] + "/" + idx + suffix))
          << idx << suffix << " differs between --jobs 1 and --jobs 4";
    }
  }
  EXPECT_GE(compared, 2u * runs.size())
      << "forensics.txt and .dot must exist for every run";
  for (const std::string& d : dirs) std::filesystem::remove_all(d);
}

TEST(OutputDirTest, EnsureOutputDirRejectsUnwritablePaths) {
  using namespace dcdl::campaign;
  const std::string ok =
      (std::filesystem::path(::testing::TempDir()) / "forensics_probe/a/b")
          .string();
  EXPECT_NO_THROW(ensure_output_dir(ok));
  EXPECT_TRUE(std::filesystem::is_directory(ok));
  // A path whose parent is a *file* can never become a directory.
  const std::string file =
      (std::filesystem::path(::testing::TempDir()) / "forensics_probe/f")
          .string();
  { std::ofstream(file) << "x"; }
  EXPECT_THROW(ensure_output_dir(file + "/sub"), CampaignError);
  std::filesystem::remove_all(
      (std::filesystem::path(::testing::TempDir()) / "forensics_probe")
          .string());
}

}  // namespace
}  // namespace dcdl::forensics
