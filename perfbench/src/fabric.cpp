// The two k=16 fat-tree workloads.
//
// fabric: every host sends one Poisson flow at half line rate to a seeded
// random-permutation partner over ECMP shortest paths, on the default
// engine with nothing attached. The packet engine does all the work (heap
// of ~17.5k entries, PFC reacting to ECMP collisions); set-up is almost
// all routing.
//
// hybrid: the same fabric with congestion localized to pod 0 (a greedy
// incast onto one host) while the other 15 pods carry seeded intra-pod
// permutations through 4 Gbps token buckets, run under the risk-guided
// hybrid engine. 960 of the 1023 flows run as fluid, so the controller's
// fluid step and its periodic risk reassessment dominate: the mirror image
// of `fabric` for the same topology.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>

#include "bench.hpp"
#include "dcdl/analysis/bdg.hpp"
#include "dcdl/analysis/deadlock.hpp"
#include "dcdl/analysis/risk.hpp"
#include "dcdl/device/host.hpp"
#include "dcdl/hybrid/hybrid.hpp"
#include "dcdl/probe/profiler.hpp"
#include "dcdl/routing/compute.hpp"
#include "dcdl/sim/sharded.hpp"
#include "dcdl/stats/hooks.hpp"
#include "dcdl/topo/generators.hpp"

namespace perfbench {

using namespace dcdl;

namespace {

constexpr int kK = 16;
/// Fixed simulated horizons: long enough that the timed phase dwarfs the
/// clock reads around it, short enough for several repetitions per run.
constexpr Time kFabricHorizon = Time{60'000'000};     // 60 us
constexpr Time kHybridHorizon = Time{20'000'000'000};  // 20 ms

struct FatTree {
  std::unique_ptr<Simulator> sim;
  std::unique_ptr<topo::FatTreeTopo> ft;
  std::unique_ptr<Network> net;
  std::vector<FlowSpec> flows;
};

enum class Traffic { kPermutation, kLocalized };

/// Topology, Network, routes and flows; `shards` >= 1 builds the network
/// on the sharded engine (traced-run scaling probe only).
FatTree build(std::uint64_t seed, Traffic traffic, Tracer& tr,
              int shards = 0) {
  FatTree f;
  f.sim = std::make_unique<Simulator>();
  {
    Scope s(tr, "topo", "make_fat_tree");
    f.ft = std::make_unique<topo::FatTreeTopo>(topo::make_fat_tree(kK));
  }
  {
    Scope s(tr, "device", "Network");
    std::optional<ScopedShardRequest> req;
    if (shards >= 1) req.emplace(shards);
    f.net = std::make_unique<Network>(*f.sim, f.ft->topo, NetConfig{});
  }
  {
    Scope s(tr, "routing", "install_shortest_paths");
    routing::install_shortest_paths(*f.net);
  }
  Scope s(tr, "traffic", "add_flows");
  const std::vector<NodeId>& hosts = f.ft->all_hosts;
  Rng rng(mix_seed(seed, 0));
  const auto add = [&](NodeId src, NodeId dst, std::unique_ptr<Pacer> p) {
    FlowSpec spec;
    spec.id = static_cast<FlowId>(f.flows.size() + 1);
    spec.src_host = src;
    spec.dst_host = dst;
    spec.packet_bytes = 1000;
    f.net->host_at(src).add_flow(spec, std::move(p));
    f.flows.push_back(spec);
  };
  if (traffic == Traffic::kPermutation) {
    const std::vector<std::size_t> perm =
        random_derangement(hosts.size(), rng);
    for (std::size_t i = 0; i < hosts.size(); ++i) {
      add(hosts[i], hosts[perm[i]],
          std::make_unique<PoissonPacer>(Rate::gbps(20), 1000,
                                         mix_seed(seed, i + 1)));
    }
  } else {
    const std::size_t per_pod = (kK / 2) * (kK / 2);
    for (std::size_t i = 1; i < per_pod; ++i) add(hosts[i], hosts[0], {});
    for (std::size_t pod = 1; pod < static_cast<std::size_t>(kK); ++pod) {
      const std::vector<std::size_t> perm = random_derangement(per_pod, rng);
      for (std::size_t i = 0; i < per_pod; ++i) {
        add(hosts[pod * per_pod + i], hosts[pod * per_pod + perm[i]],
            std::make_unique<TokenBucketPacer>(Rate::gbps(4), 2000));
      }
    }
  }
  return f;
}

std::uint64_t total_drops(const Network& net) {
  std::uint64_t n = 0;
  for (int r = 0; r < kNumDropReasons; ++r) {
    n += net.drops(static_cast<DropReason>(r));
  }
  return n;
}

/// Frees the instance inside a span, so traced repetitions account for it.
void teardown(FatTree& f, Tracer& tr) {
  Scope s(tr, "device", "teardown");
  f.net.reset();
  f.ft.reset();
  f.sim.reset();
}

/// Counting observers on the trace hooks (traced repetitions only).
struct Counts {
  std::uint64_t pfc_xoff = 0;
  std::int64_t delivered_bytes = 0;
};

void attach_counts(Network& net, Counts& c) {
  stats::append_hook(net.trace().pfc_state,
                     [&c](Time, NodeId, PortId, ClassId, bool paused) {
                       c.pfc_xoff += paused ? 1 : 0;
                     });
  stats::append_hook(net.trace().delivered, [&c](Time, const Packet& p) {
    c.delivered_bytes += p.size_bytes;
  });
}

/// Per-layer values every fat-tree repetition yields when traced.
void fill_common_layers(const FatTree& f, Tracer& tr, const Counts& c,
                        const probe::Profiler& prof, Layers& L) {
  const int run = tr.run();
  const Simulator::Counters sc = f.sim->counters();
  L.set("topo.build_s", tr.seconds(run, "topo", "make_fat_tree"));
  L.set("device.build_s", tr.seconds(run, "device", "Network"));
  L.set("routing.install_s",
        tr.seconds(run, "routing", "install_shortest_paths"));
  L.set("traffic.flows_s", tr.seconds(run, "traffic", "add_flows"));
  L.set("sim.events", static_cast<double>(sc.executed));
  L.set("sim.ns_per_event", tr.seconds(run, "sim", "run_until") * 1e9 /
                                static_cast<double>(sc.executed));
  L.set("sim.heap_high_water", static_cast<double>(sc.heap_high_water));
  L.set("sim.slab_grows", static_cast<double>(sc.slab_grows));
  L.set("device.pfc_xoff", static_cast<double>(c.pfc_xoff));
  L.set("device.delivered_mb", static_cast<double>(c.delivered_bytes) / 1e6);
  L.set("device.drops", static_cast<double>(total_drops(*f.net)));
  L.set("device.dataplane_ms",
        static_cast<double>(
            prof.at(probe::Profiler::Span::kDataplane).wall_ns) /
            1e6);
  L.profile = prof.report();
}

/// One risk assessment, one dependency-graph build with cycle search and
/// one wait-for snapshot on the live network (traced repetitions only).
void analysis_probes(FatTree& f, Tracer& tr, Layers& L) {
  const int run = tr.run();
  {
    Scope s(tr, "analysis", "assess_deadlock_risk");
    analysis::assess_deadlock_risk(*f.net, f.flows);
  }
  {
    Scope s(tr, "analysis", "bdg_build_and_cycles");
    const auto bdg = analysis::BufferDependencyGraph::build(*f.net, f.flows);
    bdg.cycles();
  }
  {
    Scope s(tr, "analysis", "snapshot_wait_for");
    analysis::snapshot_wait_for(*f.net);
  }
  L.set("analysis.risk_s", tr.seconds(run, "analysis", "assess_deadlock_risk"));
  L.set("analysis.bdg_s", tr.seconds(run, "analysis", "bdg_build_and_cycles"));
  L.set("analysis.wait_for_us",
        tr.seconds(run, "analysis", "snapshot_wait_for") * 1e6);
}

std::string delivered_digest(const FatTree& f, std::int64_t* total) {
  std::int64_t bytes = 0;
  std::size_t delivering = 0;
  for (const FlowSpec& spec : f.flows) {
    const std::int64_t b =
        f.net->host_at(spec.dst_host).delivered_bytes(spec.id);
    bytes += b;
    delivering += b > 0 ? 1 : 0;
  }
  *total = bytes;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "flows=%zu delivering=%zu delivered=%lld",
                f.flows.size(), delivering, static_cast<long long>(bytes));
  return buf;
}

/// What a fabric repetition must show: PFC keeps the fabric lossless, and
/// every host's flow delivers within the horizon.
struct FabricExpect {
  Range drops;  ///< of each reason
  Range flows_delivering;
};
constexpr FabricExpect kFabricExpect = {exactly(0), exactly(kK * kK * kK / 4)};
/// Self-test: a fabric without PFC drops on overflow, and a k=8 fat-tree
/// has 128 flows.
constexpr FabricExpect kFabricWrong = {at_least(1), exactly(8 * 8 * 8 / 4)};

Rep fabric_rep(const Options& o, Tracer& tr, Checks& ck, Layers* L) {
  Rep r;
  probe::Profiler prof;
  std::optional<probe::Profiler::ScopedInstall> prof_scope;
  if (L != nullptr) prof_scope.emplace(prof);

  const std::int64_t t0 = now_ns();
  FatTree f = build(o.seed, Traffic::kPermutation, tr);
  Counts counts;
  if (L != nullptr) attach_counts(*f.net, counts);
  const std::int64_t t1 = now_ns();
  {
    Scope s(tr, "sim", "run_until");
    f.sim->run_until(kFabricHorizon);
  }
  const std::int64_t t2 = now_ns();
  r.setup_s = static_cast<double>(t1 - t0) / 1e9;
  r.phase_s = static_cast<double>(t2 - t1) / 1e9;
  r.sim_ms = kFabricHorizon.ms();

  {
    Scope s(tr, "bench", "check");
    std::size_t delivering = 0;
    for (const FlowSpec& spec : f.flows) {
      delivering +=
          f.net->host_at(spec.dst_host).delivered_bytes(spec.id) > 0 ? 1 : 0;
    }
    const FabricExpect& want = ck.wrong() ? kFabricWrong : kFabricExpect;
    for (int reason = 0; reason < kNumDropReasons; ++reason) {
      const auto dr = static_cast<DropReason>(reason);
      ck.expect(std::string("fabric.drops.") + to_string(dr),
                static_cast<double>(f.net->drops(dr)), want.drops);
    }
    ck.expect("fabric.flows_delivering", static_cast<double>(delivering),
              want.flows_delivering);
    std::int64_t delivered = 0;
    r.events = f.sim->events_executed();
    r.digest = delivered_digest(f, &delivered);
    r.verdicts = "delivered=" + std::to_string(delivered);
    if (L != nullptr) {
      fill_common_layers(f, tr, counts, prof, *L);
      analysis_probes(f, tr, *L);
    }
  }
  teardown(f, tr);
  return r;
}

/// What a hybrid repetition must show: no wait-for cycle and no drops, and
/// the outcome recorded for every seed (seeds 1-5 and 31-46: fluid fraction
/// 0.938416, sim.events 655266): every region stays fluid except pod 0,
/// which the incast escalates once at start-up.
struct HybridExpect {
  Range wait_for_cycle;
  Range drops;
  Range zoom_events;
  Range fluid_fraction;
};
constexpr HybridExpect kHybridExpect = {exactly(0), exactly(0), exactly(1),
                                        {0.93841, 0.93842}};
/// Self-test: a wedged, lossy fabric; no zoom, as with the controller off;
/// and the fluid fraction recorded on the k=8 localized fabric (112 of 127
/// flows, EXPERIMENTS.md).
constexpr HybridExpect kHybridWrong = {exactly(1), at_least(1), exactly(0),
                                       {0.88188, 0.88190}};

Rep hybrid_rep(const Options& o, Tracer& tr, Checks& ck, Layers* L) {
  Rep r;
  probe::Profiler prof;
  std::optional<probe::Profiler::ScopedInstall> prof_scope;
  if (L != nullptr) prof_scope.emplace(prof);

  const std::int64_t t0 = now_ns();
  FatTree f = build(o.seed, Traffic::kLocalized, tr);
  Counts counts;
  if (L != nullptr) attach_counts(*f.net, counts);
  hybrid::HybridConfig hc;
  hc.mode = hybrid::Mode::kRisk;
  std::unique_ptr<hybrid::HybridController> ctl;
  {
    Scope s(tr, "hybrid", "HybridController");
    ctl = std::make_unique<hybrid::HybridController>(*f.net, f.flows, hc);
  }
  const std::int64_t t1 = now_ns();
  {
    Scope s(tr, "sim", "run_until");
    f.sim->run_until(kHybridHorizon);
  }
  {
    Scope s(tr, "hybrid", "finalize");
    ctl->finalize();
  }
  const std::int64_t t2 = now_ns();
  r.setup_s = static_cast<double>(t1 - t0) / 1e9;
  r.phase_s = static_cast<double>(t2 - t1) / 1e9;
  r.sim_ms = kHybridHorizon.ms();

  const hybrid::HybridStats& hs = ctl->stats();
  bool wedged = false;
  {
    Scope s(tr, "analysis", "snapshot_wait_for");
    wedged = analysis::snapshot_wait_for(*f.net).has_cycle;
  }
  {
    Scope s(tr, "bench", "check");
    const HybridExpect& want = ck.wrong() ? kHybridWrong : kHybridExpect;
    ck.expect("hybrid.wait_for_cycle", wedged ? 1 : 0, want.wait_for_cycle);
    ck.expect("hybrid.drops", static_cast<double>(total_drops(*f.net)),
              want.drops);
    ck.expect("hybrid.zoom_events", static_cast<double>(hs.zoom_events),
              want.zoom_events);
    ck.expect("hybrid.fluid_fraction", hs.fluid_fraction,
              want.fluid_fraction);
    std::int64_t delivered = 0;
    r.events = f.sim->events_executed();
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  " steps=%llu reassessments=%llu zoom=%llu fluid=%.6f "
                  "credited=%llu",
                  static_cast<unsigned long long>(hs.steps),
                  static_cast<unsigned long long>(hs.risk_reassessments),
                  static_cast<unsigned long long>(hs.zoom_events),
                  hs.fluid_fraction,
                  static_cast<unsigned long long>(hs.credited_packets));
    r.digest = delivered_digest(f, &delivered) + buf;
    r.verdicts = "delivered=" + std::to_string(delivered) + buf;
    if (L != nullptr) {
      const int run = tr.run();
      fill_common_layers(f, tr, counts, prof, *L);
      analysis_probes(f, tr, *L);
      L->set("hybrid.ctor_s", tr.seconds(run, "hybrid", "HybridController"));
      L->set("hybrid.step_ms",
             static_cast<double>(
                 prof.at(probe::Profiler::Span::kFluidStep).wall_ns) /
                 1e6);
      L->set("hybrid.steps", static_cast<double>(hs.steps));
      L->set("hybrid.risk_reassessments",
             static_cast<double>(hs.risk_reassessments));
      L->set("hybrid.fluid_fraction", hs.fluid_fraction);
      L->set("hybrid.zoom_events", static_cast<double>(hs.zoom_events));
      L->set("hybrid.credited_packets",
             static_cast<double>(hs.credited_packets));
    }
  }
  {
    Scope s(tr, "hybrid", "teardown");
    ctl.reset();
  }
  teardown(f, tr);
  return r;
}

/// Traced-run extra on `fabric`: the same horizon at 1 and `nproc` shards,
/// interleaved. Recorded only; the ratio is steadier than either time.
void fabric_extras(const Options& o, Tracer& tr, Layers& L) {
  const int n = o.nproc;
  if (n < 2) {
    for (const char* m : {"sim.shard_speedup", "sim.shard_wait_share",
                          "sim.shard_replay_ms", "sim.shard_imbalance",
                          "sim.cross_shard_events"}) {
      L.skip(m, "one CPU: no sharded run");
    }
    return;
  }
  std::vector<double> wall1, walln, wait_share, replay_ms, imbalance;
  double cross = 0;
  std::uint64_t events1 = 0, eventsn = 0;
  for (int rep = 0; rep < 2; ++rep) {
    for (const int shards : {1, n}) {
      tr.begin_run();
      FatTree f = build(o.seed, Traffic::kPermutation, tr, shards);
      probe::Profiler prof;
      const std::int64_t t0 = now_ns();
      {
        probe::Profiler::ScopedInstall install(prof);
        Scope s(tr, "sim", "run_until_sharded");
        f.sim->run_until(kFabricHorizon);
      }
      const double wall = static_cast<double>(now_ns() - t0) / 1e9;
      if (shards == 1) {
        wall1.push_back(wall);
        events1 = f.sim->events_executed();
        continue;
      }
      walln.push_back(wall);
      eventsn = f.sim->events_executed();
      const auto& pass = prof.at(probe::Profiler::Span::kDevicePass);
      const auto& wait = prof.at(probe::Profiler::Span::kBarrierWait);
      wait_share.push_back(100.0 * static_cast<double>(wait.wall_ns) /
                           static_cast<double>(pass.wall_ns));
      replay_ms.push_back(
          static_cast<double>(
              prof.at(probe::Profiler::Span::kReplay).wall_ns) /
          1e6);
      const ShardedEngine::Stats& st = f.net->engine().stats();
      double max_ev = 0, sum_ev = 0;
      for (const auto& sh : st.shard) {
        max_ev = std::max(max_ev, static_cast<double>(sh.executed));
        sum_ev += static_cast<double>(sh.executed);
      }
      imbalance.push_back(max_ev * static_cast<double>(st.shard.size()) /
                          sum_ev);
      cross = static_cast<double>(st.cross_shard_events);
    }
  }
  if (events1 != eventsn) {
    std::printf("warning: sharded runs disagree on events (%llu vs %llu)\n",
                static_cast<unsigned long long>(events1),
                static_cast<unsigned long long>(eventsn));
  }
  L.set("sim.shard_speedup", median(wall1) / median(walln));
  L.set("sim.shard_wait_share", median(wait_share));
  L.set("sim.shard_replay_ms", median(replay_ms));
  L.set("sim.shard_imbalance", median(imbalance));
  L.set("sim.cross_shard_events", cross);
}

void no_extras(const Options&, Tracer&, Layers&) {}

std::vector<std::pair<NodeId, NodeId>> pairs(const FatTree& f) {
  std::vector<std::pair<NodeId, NodeId>> out;
  for (const FlowSpec& s : f.flows) out.emplace_back(s.src_host, s.dst_host);
  return out;
}

std::string determinism(std::uint64_t seed, Traffic traffic) {
  Tracer off;
  FatTree a = build(seed, traffic, off);
  FatTree b = build(seed, traffic, off);
  FatTree c = build(seed + 1, traffic, off);
  if (pairs(a) != pairs(b)) return "same seed gave different flow lists";
  if (pairs(a) == pairs(c)) return "different seeds gave one flow list";
  const Time horizon = Time{5'000'000};  // 5 us
  a.sim->run_until(horizon);
  b.sim->run_until(horizon);
  if (a.sim->events_executed() != b.sim->events_executed()) {
    return "same seed gave different sim.events on a short horizon";
  }
  return "";
}

}  // namespace

const Workload kFabric = {"fabric", fabric_rep, fabric_extras,
                           [](std::uint64_t seed) {
                             return determinism(seed, Traffic::kPermutation);
                           }};
const Workload kHybrid = {"hybrid", hybrid_rep, no_extras,
                          [](std::uint64_t seed) {
                            return determinism(seed, Traffic::kLocalized);
                          }};

}  // namespace perfbench
