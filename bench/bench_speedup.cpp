// Simulator speedups that perfbench/, the benchmark of record, does not
// measure. Series 1: a k-ary fat-tree permutation at line rate (host i to
// host i + n/2) at 1 and at --shards shards; the event stream is the same
// at every shard count, so events/sec compares directly. Series 2: a
// k-ary fat-tree with congestion localized to pod 0 while the other pods
// carry paced intra-pod traffic, pure packet and under the risk-guided
// hybrid engine; the event streams differ by design, so the speedup is
// simulated time per wall second. Each row is the fastest of 3 timed runs
// after a warm-up run; event counts and hybrid statistics do not depend
// on the host.
//
// Flags: --k=4 (even, >= 4), --ms=0.5 (simulated ms), --shards=2.
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dcdl/common/flags.hpp"
#include "dcdl/device/host.hpp"
#include "dcdl/hybrid/hybrid.hpp"
#include "dcdl/routing/compute.hpp"
#include "dcdl/sim/sharded.hpp"
#include "dcdl/stats/csv.hpp"
#include "dcdl/topo/generators.hpp"
#include "dcdl/traffic/flow.hpp"

using namespace dcdl;
using stats::CsvWriter;

namespace {

struct RunOutcome {
  double wall_ms = 0;
  std::uint64_t events = 0;
  std::uint64_t windows = 0;
  std::uint64_t stalled_windows = 0;  ///< shard-passes that fired 0 events
  std::uint64_t cross_shard_events = 0;
  double fluid_fraction = 0;
  std::uint64_t zoom_events = 0;
  std::uint64_t credited_packets = 0;
};

/// Runs `body` once to warm up, then 3 times; returns the fastest run.
template <typename Body>
RunOutcome fastest_of_3(Body body) {
  RunOutcome best;
  body();  // warm-up: page in code, size allocator pools
  for (int i = 0; i < 3; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    RunOutcome run = body();
    run.wall_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    if (i == 0 || run.wall_ms < best.wall_ms) best = run;
  }
  return best;
}

RunOutcome outcome_of(Simulator& sim, Network& net) {
  RunOutcome out;
  out.events = sim.counters().executed;
  const ShardedEngine::Stats& st = net.engine().stats();
  out.windows = st.windows;
  out.cross_shard_events = st.cross_shard_events;
  for (const ShardedEngine::ShardStats& sh : st.shard) {
    out.stalled_windows += sh.idle_windows;
  }
  return out;
}

/// Fat-tree permutation at `shards` shards.
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
  return outcome_of(sim, net);
}

/// Localized congestion on a k-ary fat-tree: the hot traffic never leaves
/// pod 0 and the background never touches it, so under the hybrid engine
/// the background pods fluidize while pod 0 stays packet-accurate.
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

  RunOutcome out = outcome_of(sim, net);
  if (ctl) {
    ctl->finalize();
    out.fluid_fraction = ctl->stats().fluid_fraction;
    out.zoom_events = ctl->stats().zoom_events;
    out.credited_packets = ctl->stats().credited_packets;
  }
  return out;
}

std::string num(std::uint64_t v) {
  return CsvWriter::num(static_cast<std::int64_t>(v));
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const auto k = static_cast<int>(flags.get_int("k", 4));
  const double sim_ms = flags.get_double("ms", 0.5);
  const int shards = flags.shards(2);
  flags.check_unused();
  if (k < 4 || k % 2 != 0 || sim_ms <= 0) {
    std::fprintf(stderr,
                 "bench_speedup: needs an even --k >= 4 and --ms > 0\n");
    return 2;
  }
  const Time run_for = Time{static_cast<std::int64_t>(sim_ms * 1e9)};
  const std::string fabric = "fat-tree k=" + std::to_string(k);
  const std::string horizon = CsvWriter::num(sim_ms) + " simulated ms";
  CsvWriter csv;
  std::printf("# simulator speedups, fastest of 3 runs per row\n");

  csv.section("series 1: " + fabric + " permutation, " + horizon);
  csv.header({"shards", "events", "wall_ms", "events_per_sec", "speedup",
              "windows", "stalled_windows", "cross_shard_events"});
  double base_ms = 0;
  for (const int s : {1, shards}) {
    const RunOutcome r =
        fastest_of_3([s, k, run_for] { return run_fat_tree(s, k, run_for); });
    if (s == 1) base_ms = r.wall_ms;
    csv.row({CsvWriter::num(std::int64_t{s}), num(r.events),
             CsvWriter::num(r.wall_ms),
             num(std::llround(static_cast<double>(r.events) * 1e3 /
                              r.wall_ms)),
             CsvWriter::num(base_ms / r.wall_ms), num(r.windows),
             num(r.stalled_windows), num(r.cross_shard_events)});
  }

  csv.section("series 2: " + fabric + ", congestion localized to pod 0, " +
              horizon);
  csv.header({"engine", "events", "wall_ms", "sim_ms_per_sec", "speedup",
              "fluid_fraction", "zoom_events", "credited_packets"});
  for (const hybrid::Mode mode : {hybrid::Mode::kOff, hybrid::Mode::kRisk}) {
    const RunOutcome r = fastest_of_3([mode, k, run_for] {
      return run_fat_tree_localized(k, run_for, mode);
    });
    if (mode == hybrid::Mode::kOff) base_ms = r.wall_ms;
    csv.row({mode == hybrid::Mode::kOff ? "packet" : "hybrid_risk",
             num(r.events), CsvWriter::num(r.wall_ms),
             CsvWriter::num(sim_ms / r.wall_ms * 1e3),
             CsvWriter::num(base_ms / r.wall_ms),
             CsvWriter::num(r.fluid_fraction), num(r.zoom_events),
             num(r.credited_packets)});
  }
  return 0;
}
