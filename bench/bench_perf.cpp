// Simulator performance benchmarks.
//
// Four modes:
//   bench_perf [google-benchmark flags]   microbenchmark suite (BM_*)
//   bench_perf --json [PATH]              fixed scenario timings written as
//                                         dcdl.bench_perf.v7 JSON (default
//                                         PATH: BENCH_perf.json)
//   bench_perf --baseline PATH            rerun the fixed scenarios and
//                                         compare events/sec against a
//                                         committed v1-v7 artifact; exits
//                                         non-zero on a >10% regression
//   bench_perf --shards N [--k K] [--ms M]
//                                         sharded-scaling probe: run the
//                                         fat-tree permutation at 1 and N
//                                         shards and print the speedup (the
//                                         manual dimension for large-k runs
//                                         on multi-core machines)
//
// The --json mode measures events/sec on the paper's scenarios (Fig. 1
// ring, Fig. 2 routing loop, fat-tree permutation) plus the pure scheduler
// churn micro, so the perf trajectory of the hot path is tracked as a
// committed artifact from PR 3 onward. Each scenario is run once to warm
// the allocator, then `reps` times; the best run is reported (events/sec is
// a throughput metric — best-of-N rejects scheduler noise). v2 added the
// simulator's allocation-shape counters (slab slots/grows, heap high water,
// cancellations); v3 adds sharded fat-tree entries (fat_tree_s2/_s4) with
// the engine's window statistics — shard count, windows, stalled (idle)
// windows, cross-shard mailbox deliveries, and per-shard event counts — so
// both raw throughput and the window protocol's efficiency are tracked;
// v4 adds routing_loop_dp — the same routing-loop steady state with the
// in-switch dataplane pipeline armed (policy=detect) — so the per-packet
// tag-stage overhead rides the same >10% regression gate as everything
// else; v5 adds the hybrid fluid/packet pair fat_tree_local /
// fat_tree_local_hy — a k=8 fat-tree with congestion localized to pod 0
// (intra-pod incast) and CBR background inside every other pod, run pure
// packet and under the risk-guided hybrid engine — with sim_ms /
// sim_ms_per_sec so the speedup is measured as simulated-time per wall
// second (the event streams intentionally differ); v6 adds
// routing_loop_probe — the routing-loop steady state with the always-on
// dcdl::probe sampling at 100 us — so the time-series layer's hot-path
// overhead (hook observers plus sampler events) rides the same regression
// gate; v7 adds routing_loop_watch — the same steady state with the
// dcdl::watch early-warning stack attached (wait-for snapshots, the alert
// rule engine, periodic risk reassessment) — so the watch layer's
// overhead is gated the same way. The emission keeps one scenario object
// per line with "name" before "events_per_sec", so a v7 artifact still
// parses as a --baseline input for older binaries and vice versa.
//
//   bench_perf --hybrid [--k K] [--ms M]  hybrid-speedup probe: run the
//                                         localized-congestion fat-tree
//                                         (default k=16) pure packet and
//                                         under --hybrid risk, print the
//                                         simulated-time/sec speedup and
//                                         the fluid-time fraction
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "dcdl/common/flags.hpp"
#include "dcdl/device/host.hpp"
#include "dcdl/hybrid/hybrid.hpp"
#include "dcdl/probe/probe.hpp"
#include "dcdl/routing/compute.hpp"
#include "dcdl/scenarios/scenario.hpp"
#include "dcdl/sim/sharded.hpp"
#include "dcdl/topo/generators.hpp"
#include "dcdl/traffic/flow.hpp"
#include "dcdl/watch/watch.hpp"

using namespace dcdl;
using namespace dcdl::literals;
using namespace dcdl::scenarios;

namespace {

void BM_FourSwitchMillisecond(benchmark::State& state) {
  for (auto _ : state) {
    Scenario s = make_four_switch(FourSwitchParams{});
    s.sim->run_until(1_ms);
    state.counters["events"] = static_cast<double>(s.sim->events_executed());
    benchmark::DoNotOptimize(s.net->total_queued_bytes());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FourSwitchMillisecond)->Unit(benchmark::kMillisecond);

void BM_RoutingLoopMillisecond(benchmark::State& state) {
  for (auto _ : state) {
    RoutingLoopParams p;
    p.inject = Rate::gbps(8);
    Scenario s = make_routing_loop(p);
    s.sim->run_until(1_ms);
    benchmark::DoNotOptimize(s.net->total_queued_bytes());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RoutingLoopMillisecond)->Unit(benchmark::kMillisecond);

void BM_IncastMillisecond(benchmark::State& state) {
  for (auto _ : state) {
    IncastParams p;
    p.num_senders = static_cast<int>(state.range(0));
    Scenario s = make_incast(p);
    s.sim->run_until(1_ms);
    benchmark::DoNotOptimize(s.net->total_queued_bytes());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IncastMillisecond)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_FatTreePermutation(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    Simulator sim;
    const topo::FatTreeTopo ft = topo::make_fat_tree(4);
    Topology topo = ft.topo;
    Network net(sim, topo, NetConfig{});
    routing::install_shortest_paths(net);
    const auto n = ft.all_hosts.size();
    for (std::size_t i = 0; i < n; ++i) {
      FlowSpec f;
      f.id = static_cast<FlowId>(i + 1);
      f.src_host = ft.all_hosts[i];
      f.dst_host = ft.all_hosts[(i + n / 2) % n];
      f.packet_bytes = 1000;
      net.host_at(f.src_host).add_flow(f);
    }
    state.ResumeTiming();
    sim.run_until(200_us);
    benchmark::DoNotOptimize(net.total_queued_bytes());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FatTreePermutation)->Unit(benchmark::kMillisecond);

void BM_EventQueueChurn(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    std::int64_t fired = 0;
    for (int i = 0; i < 100'000; ++i) {
      sim.schedule_at(Time{(i * 7919) % 1'000'000}, [&fired] { ++fired; });
    }
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 100'000);
}
BENCHMARK(BM_EventQueueChurn)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// --json mode: fixed scenario timings as a committed artifact.

/// Everything one timed run yields. Runs on a Network add the engine's
/// window statistics, and their allocation-shape counters are summed over
/// the control plus all shard simulators so slab/heap shapes remain
/// comparable across shard counts.
struct RunOutcome {
  Simulator::Counters counters{};
  int shards = 0;  ///< 0 = no Network (bare scheduler churn)
  std::uint64_t windows = 0;
  std::uint64_t device_passes = 0;
  std::uint64_t stalled_windows = 0;  ///< shard-passes that fired 0 events
  std::uint64_t cross_shard_events = 0;
  std::vector<std::uint64_t> shard_events;
  /// Hybrid fluid/packet engine (v5 scenarios only).
  bool hybrid = false;
  double fluid_fraction = 0;
  std::uint64_t zoom_events = 0;
  std::uint64_t credited_packets = 0;
};

struct JsonResult {
  std::string name;
  std::uint64_t events = 0;
  double best_wall_ms = 0;
  double events_per_sec = 0;
  /// Simulated horizon (0 = not tracked for this scenario); with
  /// best_wall_ms this yields sim_ms_per_sec, the hybrid speedup metric.
  double sim_ms = 0;
  RunOutcome outcome{};
};

/// Runs `body` (which returns the run's outcome) once to warm up, then
/// `reps` times; reports the fastest run.
template <typename Body>
JsonResult measure(const std::string& name, int reps, Body body) {
  JsonResult r;
  r.name = name;
  body();  // warm-up: page in code, size allocator pools
  for (int i = 0; i < reps; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    const RunOutcome outcome = body();
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    if (i == 0 || ms < r.best_wall_ms) {
      r.best_wall_ms = ms;
      r.events = outcome.counters.executed;
      r.outcome = outcome;
    }
  }
  r.events_per_sec = static_cast<double>(r.events) / (r.best_wall_ms / 1e3);
  return r;
}

/// The outcome of a run on `net`, driven through its control simulator
/// `sim`. counters() already folds in the shard simulators' event counts;
/// the allocation shape is summed here.
RunOutcome outcome_of(Simulator& sim, Network& net) {
  RunOutcome out;
  out.counters = sim.counters();
  ShardedEngine& eng = net.engine();
  out.shards = eng.num_shards();
  const ShardedEngine::Stats& st = eng.stats();
  out.windows = st.windows;
  out.device_passes = st.device_passes;
  out.cross_shard_events = st.cross_shard_events;
  for (const ShardedEngine::ShardStats& sh : st.shard) {
    out.shard_events.push_back(sh.executed);
    out.stalled_windows += sh.idle_windows;
  }
  for (int i = 0; i < eng.num_shards(); ++i) {
    const Simulator::Counters c =
        eng.shard_sim(static_cast<std::uint32_t>(i)).counters();
    out.counters.slab_grows += c.slab_grows;
    out.counters.slab_slots += c.slab_slots;
    out.counters.heap_high_water += c.heap_high_water;
  }
  return out;
}

RunOutcome run_ring() {
  RingDeadlockParams p;
  Scenario s = make_ring_deadlock(p);
  s.sim->run_until(2_ms);
  benchmark::DoNotOptimize(s.net->total_queued_bytes());
  return outcome_of(*s.sim, *s.net);
}

RunOutcome run_routing_loop() {
  // Below the Eq. 3 boundary: packets circulate until TTL expiry forever,
  // the sustained per-packet/per-event steady state the refactor targets.
  RoutingLoopParams p;
  p.inject = Rate::gbps(4);
  Scenario s = make_routing_loop(p);
  s.sim->run_until(4_ms);
  benchmark::DoNotOptimize(s.net->total_queued_bytes());
  return outcome_of(*s.sim, *s.net);
}

RunOutcome run_routing_loop_probe() {
  // The routing-loop steady state with the always-on dcdl::probe attached
  // at its default 100 us interval — hop-wait/latency histograms, PFC pause
  // tracking, per-link utilization accumulators, the sampler event stream.
  // Compare against routing_loop, which differs only in this instrument;
  // the acceptance budget is < 5% events/sec (the probe also rides the
  // shared >10% --baseline regression gate).
  RoutingLoopParams p;
  p.inject = Rate::gbps(4);
  Scenario s = make_routing_loop(p);
  probe::RunProbe rp(*s.net);
  rp.start(*s.sim, 4_ms);
  s.sim->run_until(4_ms);
  rp.finalize();
  benchmark::DoNotOptimize(rp.fct().count());
  benchmark::DoNotOptimize(s.net->total_queued_bytes());
  return outcome_of(*s.sim, *s.net);
}

RunOutcome run_routing_loop_watch() {
  // The routing-loop steady state with the always-on dcdl::watch
  // early-warning layer attached at its default 100 us tick — wait-for
  // graph snapshots, pause-pressure/slope signals, the rule engine, and
  // the periodic risk reassessment. Compare against routing_loop, which
  // differs only in this instrument; the acceptance budget is < 5%
  // events/sec (the watch also rides the shared >10% --baseline gate).
  RoutingLoopParams p;
  p.inject = Rate::gbps(4);
  Scenario s = make_routing_loop(p);
  watch::RunWatch rw(*s.net, s.flows, {});
  rw.start(*s.sim, 4_ms);
  s.sim->run_until(4_ms);
  benchmark::DoNotOptimize(rw.engine().fires(watch::Severity::kWarn));
  benchmark::DoNotOptimize(s.net->total_queued_bytes());
  return outcome_of(*s.sim, *s.net);
}

RunOutcome run_routing_loop_dp() {
  // The same steady state with the dataplane pipeline armed in its
  // detect-only policy: every forwarded packet takes the tag stage and
  // every Xoff carries a PauseTag, isolating the pipeline's hot-path cost
  // (compare against routing_loop, which differs only in this knob).
  RoutingLoopParams p;
  p.inject = Rate::gbps(4);
  p.dataplane.policy = dataplane::RecoveryPolicy::kDetect;
  Scenario s = make_routing_loop(p);
  s.sim->run_until(4_ms);
  benchmark::DoNotOptimize(s.net->total_queued_bytes());
  return outcome_of(*s.sim, *s.net);
}

/// Fat-tree permutation at `shards` shards. The scenario is identical for
/// every shard count — so are the delivered streams; only the wall clock
/// and the window statistics differ.
RunOutcome run_fat_tree(int shards, int k, Time run_for) {
  Simulator sim;
  const topo::FatTreeTopo ft = topo::make_fat_tree(k);
  Topology topo = ft.topo;
  std::optional<ScopedShardRequest> req{std::in_place, shards};
  Network net(sim, topo, NetConfig{});
  req.reset();
  routing::install_shortest_paths(net);
  const auto n = ft.all_hosts.size();
  for (std::size_t i = 0; i < n; ++i) {
    FlowSpec f;
    f.id = static_cast<FlowId>(i + 1);
    f.src_host = ft.all_hosts[i];
    f.dst_host = ft.all_hosts[(i + n / 2) % n];
    f.packet_bytes = 1000;
    net.host_at(f.src_host).add_flow(f);
  }
  sim.run_until(run_for);
  benchmark::DoNotOptimize(net.total_queued_bytes());
  return outcome_of(sim, net);
}

/// Localized congestion on a k-ary fat-tree: pod 0 runs a greedy intra-pod
/// incast (every pod-0 host blasts host 0, crossing the aggregation layer),
/// while pods 1..k-1 carry a steady intra-pod CBR permutation at ~10% line
/// rate. The hot traffic never leaves pod 0 and the background never touches
/// it, so under the risk-guided hybrid engine the background pods fluidize
/// (token-bucket pacers, unsaturated paths, link-disjoint from every packet
/// flow) while pod 0 stays packet-accurate — the workload the zoom was built
/// for. The event streams differ between modes by design; compare
/// simulated-time per wall second, not events/sec.
RunOutcome run_fat_tree_localized(int k, Time run_for, hybrid::Mode mode) {
  Simulator sim;
  const topo::FatTreeTopo ft = topo::make_fat_tree(k);
  Topology topo = ft.topo;
  Network net(sim, topo, NetConfig{});
  routing::install_shortest_paths(net);

  const int half = k / 2;
  const int hp = half * half;  // hosts per pod
  std::vector<FlowSpec> flows;
  FlowId next_id = 1;
  // Hot pod: every pod-0 host except the victim sends greedy (no pacer) to
  // pod-0 host 0. Greedy flows are never fluidization-eligible.
  for (int i = 1; i < hp; ++i) {
    FlowSpec f;
    f.id = next_id++;
    f.src_host = ft.all_hosts[static_cast<std::size_t>(i)];
    f.dst_host = ft.all_hosts[0];
    f.packet_bytes = 1000;
    net.host_at(f.src_host).add_flow(f);
    flows.push_back(f);
  }
  // Background pods: host i -> host (i + half) % hp inside the same pod — a
  // bijection that always crosses to the next edge switch, exercising the
  // pod's aggregation layer without ever reaching the core tier.
  for (int pod = 1; pod < k; ++pod) {
    for (int i = 0; i < hp; ++i) {
      FlowSpec f;
      f.id = next_id++;
      f.src_host = ft.all_hosts[static_cast<std::size_t>(pod * hp + i)];
      f.dst_host =
          ft.all_hosts[static_cast<std::size_t>(pod * hp + (i + half) % hp)];
      f.packet_bytes = 1000;
      net.host_at(f.src_host).add_flow(
          f, std::make_unique<TokenBucketPacer>(Rate::gbps(4),
                                                2 * f.packet_bytes));
      flows.push_back(f);
    }
  }

  std::optional<hybrid::HybridController> ctl;
  if (mode != hybrid::Mode::kOff) {
    hybrid::HybridConfig hc;
    hc.mode = mode;
    ctl.emplace(net, flows, hc);
  }
  sim.run_until(run_for);
  benchmark::DoNotOptimize(net.total_queued_bytes());

  RunOutcome out = outcome_of(sim, net);
  if (ctl) {
    ctl->finalize();
    out.hybrid = true;
    out.fluid_fraction = ctl->stats().fluid_fraction;
    out.zoom_events = ctl->stats().zoom_events;
    out.credited_packets = ctl->stats().credited_packets;
  }
  return out;
}

RunOutcome run_event_churn() {
  Simulator sim;
  std::int64_t fired = 0;
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 100'000; ++i) {
      sim.schedule_in(Time{(i * 7919) % 1'000'000 + 1},
                      [&fired] { ++fired; });
    }
    sim.run();
  }
  benchmark::DoNotOptimize(fired);
  return RunOutcome{sim.counters()};
}

std::vector<JsonResult> run_suite() {
  constexpr int kReps = 5;
  std::vector<JsonResult> results;
  results.push_back(measure("ring", kReps, run_ring));
  results.push_back(measure("routing_loop", kReps, run_routing_loop));
  results.push_back(
      measure("routing_loop_probe", kReps, run_routing_loop_probe));
  results.push_back(
      measure("routing_loop_watch", kReps, run_routing_loop_watch));
  results.push_back(measure("routing_loop_dp", kReps, run_routing_loop_dp));
  results.push_back(measure("fat_tree", kReps,
                            [] { return run_fat_tree(1, 4, 500_us); }));
  results.push_back(measure("fat_tree_s2", kReps,
                            [] { return run_fat_tree(2, 4, 500_us); }));
  results.push_back(measure("fat_tree_s4", kReps,
                            [] { return run_fat_tree(4, 4, 500_us); }));
  {
    JsonResult r = measure("fat_tree_local", kReps, [] {
      return run_fat_tree_localized(8, 500_us, hybrid::Mode::kOff);
    });
    r.sim_ms = 0.5;
    results.push_back(std::move(r));
    r = measure("fat_tree_local_hy", kReps, [] {
      return run_fat_tree_localized(8, 500_us, hybrid::Mode::kRisk);
    });
    r.sim_ms = 0.5;
    results.push_back(std::move(r));
  }
  results.push_back(measure("event_churn", kReps, run_event_churn));
  return results;
}

void print_suite(const std::vector<JsonResult>& results) {
  for (const JsonResult& r : results) {
    std::printf("%-14s %10llu events  %8.2f ms  %12.0f events/sec  "
                "(slab %zu, heap hw %zu, cancelled %llu)\n",
                r.name.c_str(), static_cast<unsigned long long>(r.events),
                r.best_wall_ms, r.events_per_sec, r.outcome.counters.slab_slots,
                r.outcome.counters.heap_high_water,
                static_cast<unsigned long long>(r.outcome.counters.cancelled));
    if (r.outcome.shards > 0) {
      std::printf("  %-12s %d shards, %llu windows (%llu passes, %llu "
                  "stalled), %llu cross-shard events\n",
                  "", r.outcome.shards,
                  static_cast<unsigned long long>(r.outcome.windows),
                  static_cast<unsigned long long>(r.outcome.device_passes),
                  static_cast<unsigned long long>(r.outcome.stalled_windows),
                  static_cast<unsigned long long>(
                      r.outcome.cross_shard_events));
    }
    if (r.sim_ms > 0) {
      std::printf("  %-12s %.1f sim ms (%.2f sim-ms/sec)", "", r.sim_ms,
                  r.sim_ms / (r.best_wall_ms / 1e3));
      if (r.outcome.hybrid) {
        std::printf(", fluid fraction %.3f, %llu zoom event(s), %llu "
                    "credited pkt(s)",
                    r.outcome.fluid_fraction,
                    static_cast<unsigned long long>(r.outcome.zoom_events),
                    static_cast<unsigned long long>(
                        r.outcome.credited_packets));
      }
      std::printf("\n");
    }
  }
}

int run_json_mode(const std::string& path) {
  const std::vector<JsonResult> results = run_suite();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_perf: cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"schema\": \"dcdl.bench_perf.v7\",\n");
  std::fprintf(f, "  \"scenarios\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const JsonResult& r = results[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"events\": %llu, "
                 "\"best_wall_ms\": %.3f, \"events_per_sec\": %.0f, "
                 "\"events_cancelled\": %llu, \"slab_slots\": %zu, "
                 "\"slab_grows\": %llu, \"heap_high_water\": %zu",
                 r.name.c_str(),
                 static_cast<unsigned long long>(r.events), r.best_wall_ms,
                 r.events_per_sec,
                 static_cast<unsigned long long>(r.outcome.counters.cancelled),
                 r.outcome.counters.slab_slots,
                 static_cast<unsigned long long>(r.outcome.counters.slab_grows),
                 r.outcome.counters.heap_high_water);
    if (r.outcome.shards > 0) {
      std::fprintf(
          f,
          ", \"shards\": %d, \"windows\": %llu, \"device_passes\": %llu, "
          "\"stalled_windows\": %llu, \"cross_shard_events\": %llu, "
          "\"shard_events\": [",
          r.outcome.shards, static_cast<unsigned long long>(r.outcome.windows),
          static_cast<unsigned long long>(r.outcome.device_passes),
          static_cast<unsigned long long>(r.outcome.stalled_windows),
          static_cast<unsigned long long>(r.outcome.cross_shard_events));
      for (std::size_t s = 0; s < r.outcome.shard_events.size(); ++s) {
        std::fprintf(f, "%s%llu", s > 0 ? ", " : "",
                     static_cast<unsigned long long>(
                         r.outcome.shard_events[s]));
      }
      std::fprintf(f, "]");
    }
    if (r.sim_ms > 0) {
      std::fprintf(f, ", \"sim_ms\": %.3f, \"sim_ms_per_sec\": %.2f",
                   r.sim_ms, r.sim_ms / (r.best_wall_ms / 1e3));
    }
    if (r.outcome.hybrid) {
      std::fprintf(f,
                   ", \"hybrid\": true, \"fluid_fraction\": %.4f, "
                   "\"zoom_events\": %llu, \"credited_packets\": %llu",
                   r.outcome.fluid_fraction,
                   static_cast<unsigned long long>(r.outcome.zoom_events),
                   static_cast<unsigned long long>(
                       r.outcome.credited_packets));
    }
    std::fprintf(f, "}%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  print_suite(results);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// --baseline mode: regression gate against a committed artifact.

/// Pulls {name -> events_per_sec} out of a dcdl.bench_perf.v1/v2/v3 JSON
/// file with a purpose-built scan (all schemas emit one scenario object per
/// line with "name" before "events_per_sec").
std::vector<std::pair<std::string, double>> parse_baseline(
    const std::string& text) {
  std::vector<std::pair<std::string, double>> out;
  std::size_t pos = 0;
  while ((pos = text.find("\"name\"", pos)) != std::string::npos) {
    const std::size_t open = text.find('"', pos + 6 + 1);
    if (open == std::string::npos) break;
    const std::size_t close = text.find('"', open + 1);
    if (close == std::string::npos) break;
    const std::string name = text.substr(open + 1, close - open - 1);
    const std::size_t eps = text.find("\"events_per_sec\"", close);
    if (eps == std::string::npos) break;
    const std::size_t colon = text.find(':', eps);
    if (colon == std::string::npos) break;
    out.emplace_back(name, std::strtod(text.c_str() + colon + 1, nullptr));
    pos = close;
  }
  return out;
}

int run_baseline_mode(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_perf: cannot read baseline %s\n",
                 path.c_str());
    return 1;
  }
  std::string text;
  char buf[4096];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof(buf), f)) > 0;) {
    text.append(buf, n);
  }
  std::fclose(f);
  const auto baseline = parse_baseline(text);
  if (baseline.empty()) {
    std::fprintf(stderr, "bench_perf: no scenarios found in %s\n",
                 path.c_str());
    return 1;
  }

  const std::vector<JsonResult> results = run_suite();
  print_suite(results);

  constexpr double kRegressionTolerance = 0.10;
  int regressions = 0;
  for (const auto& [name, base_eps] : baseline) {
    const JsonResult* cur = nullptr;
    for (const JsonResult& r : results) {
      if (r.name == name) { cur = &r; break; }
    }
    if (cur == nullptr) {
      std::printf("%-14s MISSING (in baseline, not in suite)\n",
                  name.c_str());
      ++regressions;
      continue;
    }
    const double ratio = base_eps > 0 ? cur->events_per_sec / base_eps : 1.0;
    const bool regressed = ratio < 1.0 - kRegressionTolerance;
    std::printf("%-14s %12.0f -> %12.0f events/sec  %+6.1f%%  %s\n",
                name.c_str(), base_eps, cur->events_per_sec,
                (ratio - 1.0) * 100, regressed ? "REGRESSED" : "ok");
    regressions += regressed ? 1 : 0;
  }
  if (regressions > 0) {
    std::fprintf(stderr,
                 "bench_perf: %d scenario(s) regressed more than %.0f%% vs "
                 "%s\n",
                 regressions, kRegressionTolerance * 100, path.c_str());
    return 1;
  }
  std::printf("bench_perf: no events/sec regression beyond %.0f%% vs %s\n",
              kRegressionTolerance * 100, path.c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// --shards mode: sharded-scaling probe.

int run_shards_mode(int shards, int k, double sim_ms) {
  if (k < 4 || k % 2 != 0 || sim_ms <= 0) {
    std::fprintf(stderr, "bench_perf: --shards needs even k >= 4, ms > 0\n");
    return 1;
  }
  const Time run_for = Time{static_cast<std::int64_t>(sim_ms * 1e9)};
  constexpr int kReps = 3;
  std::printf("fat-tree k=%d, %.1f simulated ms, best of %d:\n", k, sim_ms,
              kReps);
  const JsonResult one = measure(
      "fat_tree_s1", kReps, [k, run_for] { return run_fat_tree(1, k, run_for); });
  const JsonResult n = measure(
      "fat_tree_s" + std::to_string(shards), kReps,
      [shards, k, run_for] { return run_fat_tree(shards, k, run_for); });
  print_suite({one, n});
  std::printf("speedup (%d shards vs 1): %.2fx\n", n.outcome.shards,
              one.best_wall_ms / n.best_wall_ms);
  return 0;
}

// ---------------------------------------------------------------------------
// --hybrid mode: fluid/packet zoom speedup probe.

int run_hybrid_mode(int k, double sim_ms) {
  if (k < 4 || k % 2 != 0 || sim_ms <= 0) {
    std::fprintf(stderr, "bench_perf: --hybrid needs even k >= 4, ms > 0\n");
    return 1;
  }
  const Time run_for = Time{static_cast<std::int64_t>(sim_ms * 1e9)};
  constexpr int kReps = 3;
  std::printf(
      "fat-tree k=%d localized congestion, %.1f simulated ms, best of %d:\n",
      k, sim_ms, kReps);
  JsonResult off = measure("local_packet", kReps, [k, run_for] {
    return run_fat_tree_localized(k, run_for, hybrid::Mode::kOff);
  });
  off.sim_ms = sim_ms;
  JsonResult hy = measure("local_hybrid", kReps, [k, run_for] {
    return run_fat_tree_localized(k, run_for, hybrid::Mode::kRisk);
  });
  hy.sim_ms = sim_ms;
  print_suite({off, hy});
  std::printf("simulated-time/sec speedup (hybrid risk vs packet): %.2fx\n",
              off.best_wall_ms / hy.best_wall_ms);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  int k = 16;
  double sim_ms = 1.0;
  bool shards_mode = false, hybrid_mode = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      const std::string path =
          i + 1 < argc && argv[i + 1][0] != '-' ? argv[i + 1]
                                                : "BENCH_perf.json";
      return run_json_mode(path);
    }
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      return run_json_mode(argv[i] + 7);
    }
    if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
      return run_baseline_mode(argv[i + 1]);
    }
    if (std::strncmp(argv[i], "--baseline=", 11) == 0) {
      return run_baseline_mode(argv[i] + 11);
    }
    if (std::strncmp(argv[i], "--shards", 8) == 0) {
      shards_mode = true;
      continue;
    }
    if (std::strcmp(argv[i], "--hybrid") == 0) {
      hybrid_mode = true;
      continue;
    }
    if (std::strcmp(argv[i], "--k") == 0 && i + 1 < argc) {
      k = std::atoi(argv[++i]);
      continue;
    }
    if (std::strcmp(argv[i], "--ms") == 0 && i + 1 < argc) {
      sim_ms = std::atof(argv[++i]);
      continue;
    }
  }
  if (shards_mode) {
    return run_shards_mode(Flags(argc, argv).shards(), k, sim_ms);
  }
  if (hybrid_mode) return run_hybrid_mode(k, sim_ms);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
