// dcdl::json: the strict reader's grammar and bounds, every artifact
// writer's output parsing back, and a deterministic truncation/mutation
// sweep over one short-run artifact of each schema, which must only ever
// return or throw std::runtime_error (tools/asan.sh runs it under ASan and
// UBSan).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "dcdl/analysis/deadlock.hpp"
#include "dcdl/campaign/campaign.hpp"
#include "dcdl/common/json.hpp"
#include "dcdl/common/rng.hpp"
#include "dcdl/forensics/forensics.hpp"
#include "dcdl/probe/export.hpp"
#include "dcdl/probe/probe.hpp"
#include "dcdl/routing/compute.hpp"
#include "dcdl/scenarios/scenario.hpp"
#include "dcdl/telemetry/telemetry.hpp"
#include "dcdl/watch/export.hpp"
#include "dcdl/watch/watch.hpp"

namespace dcdl {
namespace {

using namespace dcdl::literals;
using namespace dcdl::scenarios;

// ------------------------------------------------------------ reader cases

TEST(JsonReaderTest, DeepNestingIsAnErrorNotAStackOverflow) {
  EXPECT_THROW(json::parse(std::string(100000, '[')), json::Error);
  const std::string deepest = std::string(json::kMaxDepth, '[') +
                              std::string(json::kMaxDepth, ']');
  EXPECT_NO_THROW(json::parse(deepest));
  EXPECT_THROW(json::parse("[" + deepest + "]"), json::Error);
}

TEST(JsonReaderTest, AsIntIsExactAtTheInt64Bounds) {
  EXPECT_EQ(json::parse("9223372036854775807").as_int(),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(json::parse("-9223372036854775808").as_int(),
            std::numeric_limits<std::int64_t>::min());
  // 2^53 + 1 has no double; the source text converts exactly.
  EXPECT_EQ(json::parse("9007199254740993").as_int(), 9007199254740993);
  for (const char* bad : {"1.5", "1e300", "9223372036854775808",
                          "-9223372036854775809", "\"1\"", "true"}) {
    EXPECT_THROW(json::parse(bad).as_int(), json::Error) << bad;
  }
  EXPECT_EQ(json::parse("1.5").as_double(), 1.5);
  EXPECT_EQ(json::parse("-2.5e+3").text(), "-2.5e+3");
}

TEST(JsonReaderTest, RejectsWhatNoWriterEmits) {
  for (const char* bad :
       {"nan", "inf", "NaN", "-inf", "Infinity", "1e400", "null", "", " ",
        "[1] x", "{\"a\":1}{}", "{\"a\":1,\"a\":2}", "[1,]", "{\"a\" 1}",
        "01", "1.", ".5", "-", "+1", "tru", "\"open", "\"\\u0041\"",
        "\"\\/\"", "\"tab\there\"", "{1:2}"}) {
    EXPECT_THROW(json::parse(bad), json::Error) << bad;
  }
  try {
    json::parse("{\"a\":[1, x]}");
    ADD_FAILURE() << "x is not a value";
  } catch (const json::Error& e) {
    EXPECT_NE(std::string(e.what()).find("at byte 9"), std::string::npos)
        << e.what();
  }
  const json::Value v = json::parse(" {\"b\":true,\"a\":[false,0]} ");
  EXPECT_EQ(v.members().front().key, "b");
  EXPECT_TRUE(v.at("b").as_bool());
  EXPECT_EQ(v.at("a").items().size(), 2u);
  EXPECT_EQ(v.find("c"), nullptr);
  EXPECT_THROW(v.at("c"), json::Error);
  EXPECT_THROW(v.at("a").as_string(), json::Error);
  EXPECT_THROW(v.at("a").text(), json::Error);
}

TEST(JsonReaderTest, EveryEmitterEscapeRoundTrips) {
  // run_to_json writes strings through the campaign's Json emitter: every
  // control character, the quote and the backslash come back unchanged.
  std::string every(1, '\0');
  for (char c = 1; c < 0x20; ++c) every += c;
  every += "\"\\ plain";
  campaign::RunRecord r;
  r.scenario = every;
  r.status = campaign::RunStatus::kFailed;
  r.error = "line one\nline two";
  const std::string text = campaign::run_to_json(r);
  EXPECT_NE(text.find("\\u0001"), std::string::npos) << text;
  const json::Value v = json::parse(text);
  EXPECT_EQ(v.at("scenario").as_string(), every);
  EXPECT_EQ(v.at("error").as_string(), r.error);
}

// ---------------------------------------------- one run, every artifact

/// Every artifact schema the tools write, from short runs: a 3 ms routing
/// loop at 7 Gbps (it deadlocks, so the post-mortem fires) with every
/// layer attached, and a two-run campaign.
struct Artifacts {
  std::string campaign_json, telemetry, post_mortem, perfetto, timeseries,
      counters, alerts, alerts_perfetto;

  Artifacts() {
    RoutingLoopParams p;
    p.inject = Rate::gbps(7);
    Scenario s = make_routing_loop(p);
    telemetry::FlightRecorder rec;
    rec.attach(*s.net);
    probe::RunProbe rp(*s.net);
    watch::RunWatch rw(*s.net, s.flows);
    analysis::DeadlockMonitor monitor(*s.net, Time{50'000'000}, 1_ms);
    monitor.set_on_confirmed([&](const analysis::DeadlockMonitor& m) {
      post_mortem = telemetry::post_mortem_jsonl(*s.topo, rec, m.cycle(),
                                                 *m.detected_at(), 48);
    });
    monitor.start(Time::zero(), 3_ms);
    rp.start(*s.sim, 3_ms);
    rw.start(*s.sim, 3_ms);
    s.sim->run_until(3_ms);
    rp.finalize();
    const std::vector<telemetry::TraceRecord> window = rec.last(48);
    telemetry = telemetry::to_jsonl(*s.topo, window);
    perfetto = telemetry::to_perfetto_json(*s.topo, window);
    timeseries = probe::to_timeseries_jsonl(rp);
    counters = probe::to_perfetto_counters(rp);
    alerts = watch::to_alerts_jsonl(rw, *s.topo);
    alerts_perfetto = watch::to_perfetto_alerts(rw, *s.topo);

    campaign::ScenarioRegistry reg;
    campaign::register_builtin_scenarios(reg);
    campaign::SweepSpec spec;
    spec.scenario = "routing_loop";
    spec.axes = {campaign::GridAxis{"inject",
                                    {campaign::ParamValue::of_double(4.5),
                                     campaign::ParamValue::of_double(6.5)}}};
    spec.run_for = 1_ms;
    spec.drain_grace = 1_ms;
    campaign::ExecutorOptions opts;
    opts.jobs = 1;
    campaign_json = campaign::to_json(
        campaign::CampaignExecutor(reg, opts).run(campaign::expand(spec),
                                                  spec.root_seed));
  }
};

const Artifacts& artifacts() {
  static const Artifacts a;
  return a;
}

/// Parses every non-empty line of a JSONL artifact.
std::size_t parse_lines(const std::string& text) {
  std::size_t lines = 0, pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    if (eol > pos) {
      json::parse(std::string_view(text).substr(pos, eol - pos));
      ++lines;
    }
    pos = eol + 1;
  }
  return lines;
}

/// What dcdl_forensics does with a dump: load it, then (with a topology)
/// analyze and render it.
void load_and_analyze(const std::string& dump) {
  const forensics::LoadedTrace trace = forensics::parse_jsonl(dump);
  if (!trace.has_topology) return;
  const forensics::CascadeReport report =
      forensics::analyze(forensics::input_from_trace(trace));
  (void)forensics::to_text(report);
}

TEST(JsonWriterRoundTripTest, EveryArtifactWriterEmitsJson) {
  const Artifacts& a = artifacts();
  ASSERT_FALSE(a.post_mortem.empty()) << "the loop must deadlock by 3 ms";
  for (const std::string* doc :
       {&a.campaign_json, &a.perfetto, &a.counters, &a.alerts_perfetto}) {
    EXPECT_NO_THROW(json::parse(*doc)) << doc->substr(0, 200);
  }
  const json::Value runs = json::parse(a.campaign_json).at("runs");
  ASSERT_EQ(runs.items().size(), 2u);
  EXPECT_EQ(runs.items()[1].at("params").at("inject").text(), "6.5");
  EXPECT_GT(json::parse(a.perfetto).at("traceEvents").items().size(), 0u);

  for (const std::string* jsonl :
       {&a.telemetry, &a.post_mortem, &a.timeseries, &a.alerts}) {
    EXPECT_GT(parse_lines(*jsonl), 1u) << jsonl->substr(0, 200);
  }
  EXPECT_EQ(forensics::parse_jsonl(a.telemetry).records.size(), 48u);
  const forensics::LoadedTrace pm = forensics::parse_jsonl(a.post_mortem);
  EXPECT_TRUE(pm.post_mortem);
  EXPECT_FALSE(pm.cycle.empty());
}

// ------------------------------------------ names that need escaping

/// The first line of a JSONL artifact, parsed.
json::Value header(const std::string& jsonl) {
  return json::parse(std::string_view(jsonl).substr(0, jsonl.find('\n')));
}

TEST(JsonWriterRoundTripTest, NamesThatNeedEscapingReadBackEqual) {
  // Node, series, rule and summary names are user text. A quote, a
  // backslash or a control byte in one must come back equal from every
  // artifact instead of breaking the line it is written on.
  const std::string odd_switch = "s\"0\\";
  const std::string odd_host = "h\t\x01";
  const std::string odd_rule = "r\"1";
  Simulator sim;
  Topology t;
  const NodeId s0 = t.add_switch(odd_switch);
  const NodeId s1 = t.add_switch("s1");
  const NodeId a = t.add_host(odd_host);
  const NodeId b = t.add_host("b");
  const NodeId dst = t.add_host("dst");
  t.add_link(s0, s1, Rate::gbps(40), 1_us);
  t.add_link(s0, a, Rate::gbps(40), 1_us);
  t.add_link(s0, b, Rate::gbps(40), 1_us);
  t.add_link(s1, dst, Rate::gbps(40), 1_us);
  Network net(sim, t, NetConfig{});
  routing::install_shortest_paths(net);
  // Two greedy senders share the s0 -> s1 link: queues build and PFC
  // pauses both hosts.
  std::vector<FlowSpec> flows;
  for (const NodeId src : {a, b}) {
    FlowSpec f;
    f.id = static_cast<FlowId>(flows.size() + 1);
    f.src_host = src;
    f.dst_host = dst;
    net.host_at(src).add_flow(f);
    flows.push_back(f);
  }
  telemetry::FlightRecorder rec;
  rec.attach(net);
  probe::RunProbe rp(net);
  watch::WatchOptions wo;
  wo.rules = {{odd_rule, "queue_bytes", watch::Severity::kWarn, 1.0, 1.0, 1,
               Time::zero()}};
  watch::RunWatch rw(net, flows, wo);
  rp.start(sim, 1_ms);
  rw.start(sim, 1_ms);
  sim.run_until(1_ms);
  rp.finalize();
  const std::vector<telemetry::TraceRecord> window = rec.last(64);

  // dcdl.telemetry.v1 and its post-mortem form carry the topology.
  for (const std::string& dump :
       {telemetry::to_jsonl(t, window),
        telemetry::post_mortem_jsonl(t, rec, {}, sim.now(), 64)}) {
    EXPECT_GT(parse_lines(dump), 1u);
    const json::Value head = header(dump);
    const json::Value& nodes = head.at("topology").at("nodes");
    EXPECT_EQ(nodes.items()[s0].at("name").as_string(), odd_switch);
    EXPECT_EQ(nodes.items()[a].at("name").as_string(), odd_host);
    EXPECT_NO_THROW(load_and_analyze(dump));
  }
  // Perfetto: the per-node process names.
  std::vector<std::string> processes;
  const json::Value perfetto =
      json::parse(telemetry::to_perfetto_json(t, window));
  for (const json::Value& ev : perfetto.at("traceEvents").items()) {
    const json::Value* name = ev.find("name");
    if (name != nullptr && name->as_string() == "process_name") {
      processes.push_back(ev.at("args").at("name").as_string());
    }
  }
  EXPECT_NE(std::find(processes.begin(), processes.end(),
                      "switch " + odd_switch + " (0)"),
            processes.end());

  // dcdl.timeseries.v1 and the probe's Perfetto counters: the per-port
  // utilization series are named after their node.
  const std::string util = "util." + odd_switch + ":0";
  const std::string timeseries = probe::to_timeseries_jsonl(rp);
  EXPECT_GT(parse_lines(timeseries), 1u);
  const json::Value head = header(timeseries);
  const auto& series = head.at("series").items();
  EXPECT_TRUE(std::any_of(series.begin(), series.end(), [&](const auto& v) {
    return v.as_string() == util;
  }));
  const json::Value counters = json::parse(probe::to_perfetto_counters(rp));
  const auto& events = counters.at("traceEvents").items();
  EXPECT_TRUE(std::any_of(events.begin(), events.end(), [&](const auto& v) {
    return v.at("name").as_string() == util;
  }));

  // dcdl.alerts.v1: rule name, the events' rule and node, summary keys.
  const std::string alerts = watch::to_alerts_jsonl(rw, t);
  ASSERT_GT(rw.engine().fires(watch::Severity::kWarn), 0u);
  std::size_t pos = alerts.find('\n') + 1;
  EXPECT_EQ(header(alerts).at("rules").items()[0].at("name").as_string(),
            odd_rule);
  bool saw_event = false;
  bool saw_summary = false;
  while (pos < alerts.size()) {
    const std::size_t eol = alerts.find('\n', pos);
    const json::Value line =
        json::parse(std::string_view(alerts).substr(pos, eol - pos));
    pos = eol + 1;
    if (const json::Value* summary = line.find("summary")) {
      saw_summary = summary->find("rule." + odd_rule + ".fires") != nullptr;
      continue;
    }
    saw_event = true;
    EXPECT_EQ(line.at("rule").as_string(), odd_rule);
    const std::string node = line.at("node").as_string();
    EXPECT_TRUE(node == "-" || node == odd_switch || node == "s1") << node;
  }
  EXPECT_TRUE(saw_event);
  EXPECT_TRUE(saw_summary);
  const json::Value instants =
      json::parse(watch::to_perfetto_alerts(rw, t)).at("traceEvents");
  EXPECT_EQ(instants.items()[1].at("name").as_string(), "warn " + odd_rule);
}

// ------------------------------------------- truncation and mutation

/// Feeds `artifact` through `load`: every prefix at a fixed stride (each
/// must throw when `prefixes_throw`, since it cuts the artifact short),
/// then `mutations` seeded single-byte changes. Every outcome must be a
/// return or a std::runtime_error; anything else fails the test or, under
/// the sanitizers, aborts it.
void sweep(const std::string& artifact,
           const std::function<void(const std::string&)>& load,
           bool prefixes_throw, std::uint64_t seed, int mutations = 300) {
  ASSERT_NO_THROW(load(artifact));
  const std::size_t content = artifact.find_last_not_of('\n') + 1;
  const std::size_t stride = std::max<std::size_t>(1, content / 150);
  for (std::size_t n = 0; n < content; n += stride) {
    bool threw = false;
    try {
      load(artifact.substr(0, n));
    } catch (const std::runtime_error&) {
      threw = true;
    }
    if (prefixes_throw) {
      EXPECT_TRUE(threw) << "prefix of " << n << " bytes";
    }
  }
  // Bytes that steer a JSON reader: structure, quotes, escapes, digits,
  // signs, exponents and line breaks; every fourth pick is any byte.
  const std::string steering = "{}[]:,\"\\-+.eE019 \nutfn\x01";
  Rng rng(seed);
  for (int i = 0; i < mutations; ++i) {
    std::string m = artifact;
    const std::size_t at = rng.uniform(m.size());
    m[at] = rng.uniform(4) == 0
                ? static_cast<char>(rng.uniform(256))
                : steering[rng.uniform(steering.size())];
    try {
      load(m);
    } catch (const std::runtime_error&) {
    }
  }
}

TEST(JsonMutationTest, TruncatedAndMutatedArtifactsOnlyEverThrow) {
  const Artifacts& a = artifacts();
  const auto parse = [](const std::string& s) { json::parse(s); };
  const auto lines = [](const std::string& s) { parse_lines(s); };
  sweep(a.campaign_json, parse, true, 1);
  sweep(a.perfetto, parse, true, 2);
  sweep(a.counters, parse, true, 3);
  sweep(a.alerts_perfetto, parse, true, 4);
  // A dump's header declares its record count, so any cut is caught.
  sweep(a.telemetry, load_and_analyze, true, 5);
  sweep(a.post_mortem, load_and_analyze, true, 6);
  sweep(a.timeseries, lines, false, 7);
  sweep(a.alerts, lines, false, 8);
}

}  // namespace
}  // namespace dcdl
