// Steady-state allocation audit.
//
// The hot-path refactor's headline invariant: once a scenario's arenas have
// grown to their high-water marks (event slab, packet rings, dense
// accounting vectors), the simulation loop performs ZERO heap allocations.
// This test replaces the global allocator with a counting one and asserts
// an exact zero over a 100k+ event window of the paper's routing-loop
// scenario — every schedule/fire/cancel, packet hop, PFC pause/resume and
// TTL drop in the window must run out of recycled storage.
//
// The overrides are global for this binary (gtest allocates too), so the
// measurement brackets exactly one run_until call with no test machinery in
// between.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>

#include "dcdl/analysis/fluid.hpp"
#include "dcdl/device/host.hpp"
#include "dcdl/hybrid/hybrid.hpp"
#include "dcdl/routing/compute.hpp"
#include "dcdl/scenarios/scenario.hpp"
#include "dcdl/telemetry/metrics.hpp"
#include "dcdl/telemetry/recorder.hpp"
#include "dcdl/topo/generators.hpp"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t n) { return ::operator new(n); }

void* operator new(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(al);
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}

// The nothrow forms too (std::stable_sort's temporary buffer uses them):
// every allocation is counted, and each one is released by the matching
// free below even where a sanitizer intercepts the default forms.
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}

void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return ::operator new(n, std::nothrow);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace dcdl {
namespace {

using namespace dcdl::literals;
using namespace dcdl::scenarios;

TEST(ZeroAlloc, RoutingLoopSteadyStateAllocatesNothing) {
  // Below-boundary routing loop (Fig. 2 regime that reaches a perpetual
  // steady state): hosts inject, packets circulate the loop, TTLs expire,
  // PFC duty-cycles — indefinitely.
  RoutingLoopParams p;
  p.inject = Rate::gbps(4);
  Scenario s = make_routing_loop(p);

  // Warm-up: grow every arena to its high-water mark.
  s.sim->run_until(2_ms);

  const std::uint64_t events_before = s.sim->events_executed();
  const std::uint64_t allocs_before =
      g_allocs.load(std::memory_order_relaxed);
  s.sim->run_until(12_ms);
  const std::uint64_t allocs =
      g_allocs.load(std::memory_order_relaxed) - allocs_before;
  const std::uint64_t events = s.sim->events_executed() - events_before;

  ASSERT_GE(events, 100'000u) << "window too small to be meaningful";
  EXPECT_EQ(allocs, 0u) << "heap allocations leaked into the steady state "
                           "across " << events << " events";
}

TEST(ZeroAlloc, TelemetryAttachedSteadyStateAllocatesNothing) {
  // The observability invariant: a fully attached metrics registry AND a
  // flight recorder subscribed to every trace slot (including per-packet
  // queue_bytes) must not add a single allocation to the steady state —
  // record() is a masked store, counter bumps are dense vector ops.
  RoutingLoopParams p;
  p.inject = Rate::gbps(4);
  Scenario s = make_routing_loop(p);
  telemetry::RunTelemetry run_telemetry(*s.net);
  telemetry::FlightRecorder recorder;  // default 64Ki-record ring
  recorder.attach(*s.net);

  s.sim->run_until(2_ms);  // warm-up: arenas reach high water

  const std::uint64_t events_before = s.sim->events_executed();
  const std::uint64_t records_before = recorder.total_recorded();
  const std::uint64_t allocs_before =
      g_allocs.load(std::memory_order_relaxed);
  s.sim->run_until(12_ms);
  const std::uint64_t allocs =
      g_allocs.load(std::memory_order_relaxed) - allocs_before;
  const std::uint64_t events = s.sim->events_executed() - events_before;

  ASSERT_GE(events, 100'000u) << "window too small to be meaningful";
  EXPECT_GT(recorder.total_recorded(), records_before)
      << "recorder saw no traffic; the measurement is vacuous";
  EXPECT_GT(run_telemetry.registry().counter_value(
                run_telemetry.ids().tx_starts), 0u);
  EXPECT_EQ(allocs, 0u) << "telemetry leaked heap allocations into the "
                           "steady state across " << events << " events";
}

TEST(ZeroAlloc, FatTreeEcmpSteadyStateAllocatesNothing) {
  // The destination-routed fabric path: a k=4 fat-tree on ECMP shortest
  // paths, every host sending one token-bucket flow at half line rate to a
  // host in another pod, so every forward goes through an ECMP group
  // lookup at the edge and aggregation tiers.
  Simulator sim;
  const topo::FatTreeTopo ft = topo::make_fat_tree(4);
  Network net(sim, ft.topo, NetConfig{});
  routing::install_shortest_paths(net);
  const std::vector<NodeId>& hosts = ft.all_hosts;
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    FlowSpec f;
    f.id = static_cast<FlowId>(i + 1);
    f.src_host = hosts[i];
    f.dst_host = hosts[(i + 5) % hosts.size()];  // 5 hosts on: another pod
    f.packet_bytes = 1000;
    net.host_at(f.src_host).add_flow(
        f, std::make_unique<TokenBucketPacer>(Rate::gbps(20), 1000));
  }

  // Warm-up: ECMP collisions and PFC keep raising some egress FIFOs' high
  // water through the second millisecond (ring growth); by 3 ms every
  // queue and the slab have settled.
  sim.run_until(3_ms);

  const std::uint64_t events_before = sim.events_executed();
  const std::uint64_t allocs_before =
      g_allocs.load(std::memory_order_relaxed);
  sim.run_until(5_ms);
  const std::uint64_t allocs =
      g_allocs.load(std::memory_order_relaxed) - allocs_before;
  const std::uint64_t events = sim.events_executed() - events_before;

  ASSERT_GE(events, 100'000u) << "window too small to be meaningful";
  EXPECT_GT(net.host_at(hosts[5]).delivered_bytes(1), 0)
      << "no traffic crossed the fabric; the measurement is vacuous";
  EXPECT_EQ(allocs, 0u) << "the ECMP forwarding path leaked heap "
                           "allocations across " << events << " events";
}

TEST(ZeroAlloc, EventChurnSteadyStateAllocatesNothing) {
  // Pure scheduler churn: self-rescheduling timers exercise the slab
  // free-list recycling with no device layer involved.
  Simulator sim;
  struct Churn {
    Simulator& sim;
    std::uint64_t fired = 0;
    void tick() {
      ++fired;
      sim.schedule_in(1_ns, [this] { tick(); });
    }
  } churn{sim};
  for (int i = 0; i < 16; ++i) {
    sim.schedule_in(1_ns, [&churn] { churn.tick(); });
  }
  sim.run_until(1_us);  // warm-up: slab and heap reach high water

  const std::uint64_t allocs_before =
      g_allocs.load(std::memory_order_relaxed);
  sim.run_until(10_us);
  const std::uint64_t allocs =
      g_allocs.load(std::memory_order_relaxed) - allocs_before;

  ASSERT_GE(churn.fired, 100'000u);
  EXPECT_EQ(allocs, 0u);
}

TEST(ZeroAlloc, QueueOverflowAndTiesAllocateNothing) {
  // The queue's other paths under churn: timers beyond the wheel's ~4.2 us
  // span wait in the overflow heap and migrate into the wheel as it
  // advances, and same-timestamp ties — unkeyed and keyed — are inserted
  // into the current run in order.
  Simulator sim;
  struct Churn {
    Simulator& sim;
    std::uint64_t fired = 0;
    std::uint64_t ties = 0;
    std::uint64_t seq = 0;
    void near() {
      ++fired;
      sim.schedule_in(1_ns, [this] { near(); });
    }
    void far() {
      ++fired;
      sim.schedule_in(10_us, [this] { far(); });
    }
    void burst() {
      ++fired;
      for (int i = 0; i < 3; ++i) {
        sim.schedule_in(Time::zero(), [this] { ++ties; });
        sim.schedule_keyed(sim.now(), 1 + static_cast<std::uint64_t>(i),
                           ++seq, [this] { ++ties; });
      }
      sim.schedule_in(1_ns, [this] { burst(); });
    }
  } churn{sim};
  for (int i = 0; i < 16; ++i) {
    sim.schedule_in(1_ns, [&churn] { churn.near(); });
  }
  for (int i = 0; i < 64; ++i) {
    sim.schedule_in(Time{1'000 + i * 156'250}, [&churn] { churn.far(); });
  }
  sim.schedule_in(1_ns, [&churn] { churn.burst(); });
  sim.run_until(25_us);  // warm-up: two far periods reach every high water

  const std::uint64_t fired_before = churn.fired;
  const std::uint64_t ties_before = churn.ties;
  const std::uint64_t allocs_before =
      g_allocs.load(std::memory_order_relaxed);
  sim.run_until(45_us);
  const std::uint64_t allocs =
      g_allocs.load(std::memory_order_relaxed) - allocs_before;

  ASSERT_GE(churn.fired - fired_before, 300'000u);
  ASSERT_GE(churn.ties - ties_before, 100'000u);
  EXPECT_EQ(allocs, 0u);
}

/// Counts the heap allocations and pause/resume toggles of the first
/// `steps` steps after begin().
struct FluidWindow {
  std::uint64_t allocs = 0;
  std::uint64_t toggles = 0;
};
FluidWindow fluid_window(analysis::FluidModel& m, int steps) {
  m.begin(100_ns);
  const int nq = static_cast<int>(m.queues().size());
  std::array<bool, 16> asserted{};  // fixed size: no allocation in the window
  EXPECT_LE(nq, 16);
  FluidWindow w;
  const std::uint64_t allocs_before =
      g_allocs.load(std::memory_order_relaxed);
  for (int s = 0; s < steps; ++s) {
    m.step();
    for (int q = 0; q < nq && q < 16; ++q) {
      const bool on = m.queue_asserted(q);
      w.toggles += on != asserted[static_cast<std::size_t>(q)] ? 1 : 0;
      asserted[static_cast<std::size_t>(q)] = on;
    }
  }
  w.allocs = g_allocs.load(std::memory_order_relaxed) - allocs_before;
  return w;
}

TEST(ZeroAlloc, FluidStepAllocatesNothing) {
  // begin() sizes the incidence and every scratch buffer; step() then only
  // refills caps and water-fills, including across PFC transitions.
  analysis::FluidModel loop = analysis::make_fluid_routing_loop(
      3, Rate::gbps(40), 16, Rate::gbps(8));
  const FluidWindow lw = fluid_window(loop, 20'000);
  EXPECT_GT(lw.toggles, 0u) << "no PFC transition; the window is vacuous";
  EXPECT_EQ(lw.allocs, 0u);

  analysis::FluidFourSwitch fs =
      analysis::make_fluid_four_switch(true, Rate::gbps(40));
  const FluidWindow fw = fluid_window(fs.model, 2'000);
  EXPECT_GT(fw.toggles, 10u) << "no PFC sawtooth; the window is vacuous";
  EXPECT_EQ(fw.allocs, 0u);
}

TEST(ZeroAlloc, HybridStepsBetweenReassessmentsAllocateNothing) {
  // The all-fluid k=4 fabric of HybridZoom.SteadyFabricFluidizes...: every
  // pod runs an intra-pod 4 Gbps CBR permutation. Between two risk
  // reassessments each controller step advances the fluid components,
  // credits deliveries, scans the regions and re-checks the fluid set —
  // all on storage sized at construction.
  Simulator sim;
  const topo::FatTreeTopo ft = topo::make_fat_tree(4);
  Network net(sim, ft.topo, NetConfig{});
  routing::install_shortest_paths(net);
  std::vector<FlowSpec> flows;
  FlowId id = 1;
  for (int pod = 0; pod < 4; ++pod) {
    for (int i = 0; i < 4; ++i) {
      FlowSpec f;
      f.id = id++;
      f.src_host = ft.all_hosts[static_cast<std::size_t>(pod * 4 + i)];
      f.dst_host =
          ft.all_hosts[static_cast<std::size_t>(pod * 4 + (i + 2) % 4)];
      f.packet_bytes = 1000;
      net.host_at(f.src_host).add_flow(
          f, std::make_unique<TokenBucketPacer>(Rate::gbps(4),
                                                2 * f.packet_bytes));
      flows.push_back(f);
    }
  }
  hybrid::HybridConfig hc;
  hc.mode = hybrid::Mode::kRisk;
  hybrid::HybridController ctl(net, flows, hc);

  // Warm-up through the 10th step's reassessment (t = 1 ms).
  sim.run_until(Time{1'050'000'000});
  const std::uint64_t steps_before = ctl.stats().steps;
  const std::uint64_t reassess_before = ctl.stats().risk_reassessments;
  const std::uint64_t credited_before = ctl.stats().credited_packets;
  const std::uint64_t allocs_before =
      g_allocs.load(std::memory_order_relaxed);
  sim.run_until(Time{1'950'000'000});  // steps 11..19
  const std::uint64_t allocs =
      g_allocs.load(std::memory_order_relaxed) - allocs_before;

  EXPECT_EQ(ctl.stats().steps - steps_before, 9u);
  EXPECT_EQ(ctl.stats().risk_reassessments, reassess_before)
      << "the window must lie between two reassessments";
  EXPECT_EQ(ctl.fluid_flows(), flows.size());
  EXPECT_GT(ctl.stats().credited_packets, credited_before)
      << "no fluid delivery in the window; the measurement is vacuous";
  EXPECT_EQ(allocs, 0u) << "controller steps leaked heap allocations";
  ctl.finalize();
}

}  // namespace
}  // namespace dcdl
