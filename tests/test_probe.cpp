// dcdl::probe: log-histogram exactness and percentile error bounds, series
// ring semantics, the RunProbe end-to-end path on real scenarios, and the
// artifact identity contract (byte-identical dcdl.timeseries.v1 across
// --jobs x --shards).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dcdl/campaign/campaign.hpp"
#include "dcdl/common/json.hpp"
#include "dcdl/probe/export.hpp"
#include "dcdl/probe/histogram.hpp"
#include "dcdl/probe/probe.hpp"
#include "dcdl/probe/profiler.hpp"
#include "dcdl/probe/series.hpp"
#include "dcdl/scenarios/scenario.hpp"
#include "dcdl/sim/sharded.hpp"

namespace dcdl::probe {
namespace {

using namespace dcdl::literals;
using namespace dcdl::scenarios;

// ------------------------------------------------------------ LogHistogram

TEST(LogHistogramTest, CountSumMinMaxAreExact) {
  LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(0.5), 0);
  h.record(3);
  h.record(700);
  h.record(123'456'789);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 3 + 700 + 123'456'789);
  EXPECT_EQ(h.min(), 3);
  EXPECT_EQ(h.max(), 123'456'789);
}

TEST(LogHistogramTest, SmallValuesAreExactAndNegativesClampToZero) {
  // Values below the sub-bucket resolution (64) get one bucket each: the
  // reported percentile is the exact value, not an octave edge.
  LogHistogram h;
  for (int v = 0; v < 64; ++v) h.record(v);
  for (int v = 0; v < 64; ++v) {
    EXPECT_EQ(h.percentile((v + 1) / 64.0), v);
  }
  LogHistogram neg;
  neg.record(-5);
  EXPECT_EQ(neg.count(), 1u);
  EXPECT_EQ(neg.min(), 0) << "negative durations clamp to zero";
}

TEST(LogHistogramTest, PercentileErrorIsBoundedAndClampedToMax) {
  // Sub-bucketed octaves (32 sub-buckets per half-octave) bound the
  // percentile overshoot at ~3.2% of the true value; the top percentile is
  // clamped to the exact max. Use a deterministic skewed sequence spanning
  // several octaves.
  LogHistogram h;
  std::vector<std::int64_t> values;
  std::uint64_t x = 0x2545F4914F6CDD1Dull;
  for (int i = 0; i < 20'000; ++i) {
    x ^= x << 13; x ^= x >> 7; x ^= x << 17;  // xorshift: stable sequence
    values.push_back(static_cast<std::int64_t>(x % 50'000'000));
  }
  for (const std::int64_t v : values) h.record(v);
  std::sort(values.begin(), values.end());
  for (const double q : {0.5, 0.9, 0.99}) {
    const std::size_t rank = static_cast<std::size_t>(
        q * static_cast<double>(values.size()));
    const std::int64_t exact = values[std::min(rank, values.size() - 1)];
    const std::int64_t est = h.percentile(q);
    EXPECT_GE(est, exact - exact / 16) << "q=" << q;
    EXPECT_LE(est, exact + exact / 16) << "q=" << q;
  }
  EXPECT_EQ(h.percentile(1.0), values.back());
  EXPECT_LE(h.percentile(0.999999), values.back())
      << "percentiles never exceed the exact max";
}

TEST(LogHistogramTest, BucketEdgesCoverTheirValues) {
  // for_each_bucket reports inclusive upper edges: every recorded value
  // must be <= the edge of the bucket it landed in, and > the previous
  // visited edge (buckets are visited in ascending order).
  LogHistogram h;
  for (const std::int64_t v :
       {std::int64_t{1}, std::int64_t{63}, std::int64_t{64},
        std::int64_t{65}, std::int64_t{1'000}, std::int64_t{1'000'000},
        std::int64_t{123'456'789'012}}) {
    h.record(v);
  }
  std::int64_t prev_edge = -1;
  std::uint64_t visited = 0;
  h.for_each_bucket([&](std::int64_t edge, std::uint64_t count) {
    EXPECT_GT(edge, prev_edge) << "edges ascend";
    EXPECT_GT(count, 0u) << "only non-empty buckets are visited";
    prev_edge = edge;
    visited += count;
  });
  EXPECT_EQ(visited, h.count());
}

// ------------------------------------------------------------- SeriesStore

TEST(SeriesStoreTest, RingEvictsOldestAndKeepsOrder) {
  SeriesStore store(4);
  const std::uint32_t a = store.add("a");
  const std::uint32_t b = store.add("b");
  for (int k = 0; k < 7; ++k) {
    store.begin_tick(Time{(k + 1) * 100});
    store.set(a, k);
    store.set(b, 10.0 * k);
  }
  EXPECT_EQ(store.ticks(), 4u);
  EXPECT_EQ(store.total_ticks(), 7u);
  EXPECT_EQ(store.dropped_ticks(), 3u);
  // Retained rows are ticks 3..6, oldest first.
  for (std::size_t k = 0; k < 4; ++k) {
    EXPECT_EQ(store.tick_time(k).ps(), static_cast<std::int64_t>(k + 4) * 100);
    EXPECT_DOUBLE_EQ(store.value(k, a), static_cast<double>(k + 3));
    EXPECT_DOUBLE_EQ(store.value(k, b), 10.0 * static_cast<double>(k + 3));
  }
  EXPECT_DOUBLE_EQ(store.series_max(a), 6);
  EXPECT_DOUBLE_EQ(store.series_mean(a), (3 + 4 + 5 + 6) / 4.0);
}

TEST(SeriesStoreTest, RowsAreZeroFilledOnOpen) {
  SeriesStore store(2);
  const std::uint32_t a = store.add("a");
  store.begin_tick(Time{1});
  store.set(a, 42);
  store.begin_tick(Time{2});  // not set: must read back 0, not 42
  EXPECT_DOUBLE_EQ(store.value(1, a), 0.0);
}

// ---------------------------------------------------------------- RunProbe

TEST(RunProbeTest, SamplesAtTheConfiguredIntervalAndFeedsHistograms) {
  RoutingLoopParams p;
  p.inject = Rate::gbps(7);  // above the Eq. 3 boundary: pauses + drops
  Scenario s = make_routing_loop(p);
  RunProbe rp(*s.net);
  rp.start(*s.sim, 2_ms);
  s.sim->run_until(2_ms);
  rp.finalize();

  // 2 ms at the default 100 us: ticks at 100 us .. 2000 us inclusive.
  EXPECT_EQ(rp.series().ticks(), 20u);
  EXPECT_EQ(rp.fct().count(), 0u)
      << "the routing loop never delivers: TTL is the only drain";
  EXPECT_GT(rp.hop_wait().count(), 0u)
      << "the hop_wait hook fires on every store-and-forward dequeue";
  EXPECT_GT(rp.pfc_pause().count(), 0u)
      << "above the boundary the loop asserts and releases PFC";
  EXPECT_EQ(rp.dp_detect().count(), 0u) << "dataplane off in this scenario";

  const auto summary = rp.summary();
  ASSERT_FALSE(summary.empty());
  EXPECT_EQ(summary.front().first, "ticks");
  EXPECT_DOUBLE_EQ(summary.front().second, 20);
}

TEST(RunProbeTest, DeliveringScenarioRecordsFctAndPacketLatency) {
  IncastParams p;
  Scenario s = make_incast(p);
  RunProbe rp(*s.net);
  rp.start(*s.sim, 2_ms);
  s.sim->run_until(2_ms);
  rp.finalize();
  EXPECT_EQ(rp.fct().count(), static_cast<std::uint64_t>(p.num_senders))
      << "one FCT per delivering flow, closed at finalize()";
  EXPECT_GT(rp.pkt_latency().count(), 0u);
  EXPECT_GT(rp.pkt_latency().min(), 0)
      << "per-packet latency includes at least the link delays";
  EXPECT_GE(rp.fct().max(), rp.pkt_latency().min());
  rp.finalize();  // idempotent: a second call must not double-record FCTs
  EXPECT_EQ(rp.fct().count(), static_cast<std::uint64_t>(p.num_senders));
}

TEST(RunProbeTest, DataplaneDetectionLatencyLandsInTheHistogram) {
  RoutingLoopParams p;
  p.inject = Rate::gbps(7);
  p.dataplane.policy = dataplane::RecoveryPolicy::kDetect;
  Scenario s = make_routing_loop(p);
  RunProbe rp(*s.net);
  rp.start(*s.sim, 20_ms);
  s.sim->run_until(20_ms);
  rp.finalize();
  EXPECT_GT(rp.dp_detect().count(), 0u)
      << "the in-band pipeline must confirm the loop deadlock";
  EXPECT_GT(rp.dp_detect().max(), 0);
}

TEST(RunProbeTest, SummaryIsDeterministicAcrossRuns) {
  auto run = [] {
    RoutingLoopParams p;
    p.inject = Rate::gbps(6);
    Scenario s = make_routing_loop(p);
    RunProbe rp(*s.net);
    rp.start(*s.sim, 2_ms);
    s.sim->run_until(2_ms);
    rp.finalize();
    return rp.summary();
  };
  EXPECT_EQ(run(), run());
}

TEST(RunProbeTest, PerChannelUtilizationSeriesStopAbove128Channels) {
  // A one-switch star of n hosts has 2n directed channels: 64 hosts get a
  // util.<node>:<port> series per channel besides util.max, 65 hosts get
  // util.max only.
  const auto util_series = [](int hosts) {
    Simulator sim;
    Topology t;
    const NodeId sw = t.add_switch("s");
    for (int h = 0; h < hosts; ++h) {
      t.add_link(sw, t.add_host("h" + std::to_string(h)), Rate::gbps(40),
                 1_us);
    }
    Network net(sim, t, NetConfig{});
    RunProbe rp(net);
    std::vector<std::string> names;
    for (std::uint32_t id = 0; id < rp.series().num_series(); ++id) {
      const std::string& name = rp.series().name(id);
      if (name.rfind("util.", 0) == 0) names.push_back(name);
    }
    return names;
  };
  const std::vector<std::string> at_cap = util_series(64);
  ASSERT_EQ(at_cap.size(), 129u);
  EXPECT_EQ(at_cap[0], "util.max");
  EXPECT_EQ(at_cap[1], "util.s:0");
  EXPECT_EQ(at_cap[64], "util.s:63");
  EXPECT_EQ(at_cap[65], "util.h0:0");
  EXPECT_EQ(at_cap[128], "util.h63:0");
  EXPECT_EQ(util_series(65), std::vector<std::string>{"util.max"});
}

// ------------------------------------------------- artifact identity class

std::string timeseries_for_shards(int shards) {
  std::optional<ScopedShardRequest> req{std::in_place, shards};
  RoutingLoopParams p;
  p.inject = Rate::gbps(7);
  Scenario s = make_routing_loop(p);
  req.reset();
  RunProbe rp(*s.net);
  rp.start(*s.sim, 2_ms);
  s.sim->run_until(2_ms);
  rp.finalize();
  return to_timeseries_jsonl(rp);
}

TEST(TimeseriesArtifactTest, ByteIdenticalAcrossShardCounts) {
  // The sampler rides the control simulator: its ticks execute at window
  // barriers after every device observation up to the barrier, so the
  // exported artifact is one byte stream for every shard count.
  const std::string s1 = timeseries_for_shards(1);
  EXPECT_EQ(s1, timeseries_for_shards(2));
  EXPECT_EQ(s1, timeseries_for_shards(4));
  EXPECT_NE(s1.find("\"schema\":\"dcdl.timeseries.v1\""), std::string::npos);
}

TEST(TimeseriesArtifactTest, HeaderRowsAndHistogramsAreWellFormed) {
  const std::string art = timeseries_for_shards(1);
  const std::string header = art.substr(0, art.find('\n'));
  EXPECT_NE(header.find("\"schema\":\"dcdl.timeseries.v1\""),
            std::string::npos);
  EXPECT_NE(header.find("\"interval_ps\":100000000"), std::string::npos);
  EXPECT_NE(header.find("\"ticks\":20"), std::string::npos);
  EXPECT_NE(header.find("\"queue_bytes\""), std::string::npos);
  EXPECT_NE(header.find("\"pfc.active_pauses\""), std::string::npos);
  EXPECT_EQ(header.find("\"engine."), std::string::npos)
      << "no series may depend on the shard plan";
  const std::size_t rows = static_cast<std::size_t>(
      std::count(art.begin(), art.end(), '\n'));
  // header + 20 ticks + one line per histogram.
  EXPECT_EQ(rows, 1 + 20 + 6u);
  EXPECT_NE(art.find("\"hist\":\"fct\""), std::string::npos);
  EXPECT_NE(art.find("\"hist\":\"hop_wait\""), std::string::npos);
}

TEST(TimeseriesArtifactTest, HistogramPercentilesRoundTripThroughJsonl) {
  // The p50/p99/p999 written to the hist lines must read back as exactly
  // the histogram's own percentiles (and the summary carries them in
  // microseconds) — the satellite round-trip for the report's new columns.
  RoutingLoopParams p;
  p.inject = Rate::gbps(7);
  Scenario s = make_routing_loop(p);
  RunProbe rp(*s.net);
  rp.start(*s.sim, 2_ms);
  s.sim->run_until(2_ms);
  rp.finalize();
  ASSERT_GT(rp.pfc_pause().count(), 0u);
  const std::string art = to_timeseries_jsonl(rp);
  const std::size_t pos = art.find("{\"hist\":\"pfc_pause\"");
  ASSERT_NE(pos, std::string::npos);
  const json::Value line = json::parse(
      std::string_view(art).substr(pos, art.find('\n', pos) - pos));
  EXPECT_EQ(line.at("p50").as_int(), rp.pfc_pause().percentile(0.50));
  EXPECT_EQ(line.at("p99").as_int(), rp.pfc_pause().percentile(0.99));
  EXPECT_EQ(line.at("p999").as_int(), rp.pfc_pause().percentile(0.999));
  bool found = false;
  for (const auto& [name, value] : rp.summary()) {
    if (name == "pfc_pause.p999_us") {
      found = true;
      EXPECT_DOUBLE_EQ(
          value,
          static_cast<double>(rp.pfc_pause().percentile(0.999)) / 1e6);
    }
  }
  EXPECT_TRUE(found) << "summary must carry the p999_us column";
}

TEST(TimeseriesArtifactTest, PerfettoCountersRenderDeterministically) {
  RoutingLoopParams p;
  p.inject = Rate::gbps(6);
  Scenario s = make_routing_loop(p);
  RunProbe rp(*s.net);
  rp.start(*s.sim, 1_ms);
  s.sim->run_until(1_ms);
  rp.finalize();
  const std::string json = to_perfetto_counters(rp);
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_EQ(json, to_perfetto_counters(rp));
}

TEST(TimeseriesArtifactTest, ExecutorProbeRecordsIdenticalAcrossJobs) {
  // The campaign path: probe summaries embedded in v5 records depend only
  // on the spec, never on --jobs.
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
    EXPECT_EQ(a.records[i].probe, b.records[i].probe);
    EXPECT_FALSE(a.records[i].probe.empty());
  }
  const std::string json = to_json(a);
  EXPECT_NE(json.find("\"schema\":\"dcdl.campaign.v6\""), std::string::npos);
  EXPECT_NE(json.find("\"probe\":{\"ticks\":"), std::string::npos);
  EXPECT_NE(json.find("\"fct.count\""), std::string::npos);
}

// ---------------------------------------------------------------- Profiler

TEST(ProfilerTest, ScopesAccumulateOnlyWhileInstalled) {
  // Not installed: a Scope records nothing (and reads no clock).
  {
    Profiler::Scope idle(Profiler::Span::kEventLoop);
    idle.add_units(5);
  }
  Profiler prof;
  EXPECT_EQ(prof.at(Profiler::Span::kEventLoop).calls, 0u);
  {
    Profiler::ScopedInstall install(prof);
    Profiler::Scope s(Profiler::Span::kEventLoop);
    s.add_units(3);
  }
  EXPECT_EQ(prof.at(Profiler::Span::kEventLoop).calls, 1u);
  EXPECT_EQ(prof.at(Profiler::Span::kEventLoop).units, 3u);
  EXPECT_EQ(Profiler::current(), nullptr) << "install is scoped";
  const std::string report = prof.report();
  EXPECT_NE(report.find("event_loop"), std::string::npos);
}

TEST(ProfilerTest, InstalledRunRecordsEventLoopSpans) {
  Profiler prof;
  {
    Profiler::ScopedInstall install(prof);
    RoutingLoopParams p;
    Scenario s = make_routing_loop(p);
    s.sim->run_until(1_ms);
  }
  const Profiler::Accum& loop = prof.at(Profiler::Span::kEventLoop);
  EXPECT_GT(loop.calls, 0u);
  EXPECT_GT(loop.units, 0u) << "the span carries the executed-event delta";
  EXPECT_GT(loop.wall_ns, 0u);
}

}  // namespace
}  // namespace dcdl::probe
