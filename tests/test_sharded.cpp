// Sharded-engine determinism suite.
//
// The sharded conservative engine's contract: for every shard count >= 1,
// the observable stream — every PFC transition, delivery, drop, tx-start,
// in order — is byte-identical to the single-shard run of the same
// scenario. These tests pin that contract three ways:
//   - FNV-1a digests over the full observation stream (the same fold the
//     golden-trace tests use) compared across shard counts on the paper's
//     ring, routing-loop, and two k=4 fat-tree loads, the fat-tree ones
//     also against committed literals;
//   - run_and_check summaries (deadlock verdict, detection instant,
//     wait-for cycle, trapped bytes, per-flow delivered) and the rendered
//     forensics report, compared byte-for-byte;
//   - the zero-alloc steady-state invariant, re-asserted with worker
//     threads, mailboxes, and window barriers in the loop.
// Plus unit tests for the topology partitioner (cut-link enumeration on a
// hand-built line, pod integrity on a fat-tree) and the engine's stats
// surface.
//
// This binary replaces the global allocator with a counting one (same
// pattern as test_zero_alloc.cpp); the counter is atomic because shard
// workers allocate during warm-up (slab growth, mailbox capacity).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <set>
#include <string>

#include "dcdl/device/host.hpp"
#include "dcdl/forensics/causality.hpp"
#include "dcdl/forensics/report.hpp"
#include "dcdl/mitigation/class_policy.hpp"
#include "dcdl/routing/compute.hpp"
#include "dcdl/scenarios/scenario.hpp"
#include "dcdl/sim/sharded.hpp"
#include "dcdl/stats/hooks.hpp"
#include "dcdl/stats/pause_log.hpp"
#include "dcdl/topo/generators.hpp"
#include "dcdl/topo/partition.hpp"

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

// The nothrow forms (std::stable_sort's temporary buffer) must come from
// the same malloc as the deletes below, or AddressSanitizer reports an
// alloc-dealloc mismatch.
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return ::operator new(n, t);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
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

/// Order-sensitive FNV-1a over 64-bit words (mirrors test_golden_trace.cpp;
/// any reordering, retiming, or recounting of observations changes it).
class TraceDigest {
 public:
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFFu;
      h_ *= 1099511628211ULL;
    }
  }
  void event(std::uint8_t kind, Time t, std::uint64_t a, std::uint64_t b) {
    mix(kind);
    mix(static_cast<std::uint64_t>(t.ps()));
    mix(a);
    mix(b);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

/// Attaches digest observers to every trace slot, runs to `run_for`, seals
/// with the executed-event count and residual buffered bytes. Identical
/// fold to the golden-trace pins. Most tests here compare against
/// "whatever shards=1 produced"; the fat-tree digests are also committed
/// literals.
std::uint64_t digest_net(Simulator& sim, Network& net, Time run_for) {
  TraceDigest d;
  Trace& tr = net.trace();
  stats::append_hook<Time, NodeId, PortId, ClassId, bool>(
      tr.pfc_state,
      [&d](Time t, NodeId node, PortId port, ClassId cls, bool paused) {
        d.event(1, t,
                (static_cast<std::uint64_t>(node) << 32) |
                    (static_cast<std::uint64_t>(port) << 8) | cls,
                paused ? 1 : 0);
      });
  stats::append_hook<Time, const Packet&>(
      tr.delivered, [&d](Time t, const Packet& pkt) {
        d.event(2, t, (static_cast<std::uint64_t>(pkt.dst) << 32) | pkt.flow,
                pkt.id);
      });
  stats::append_hook<Time, const Packet&, NodeId, DropReason>(
      tr.dropped, [&d](Time t, const Packet& pkt, NodeId node, DropReason r) {
        d.event(3, t,
                (static_cast<std::uint64_t>(node) << 32) |
                    static_cast<std::uint64_t>(r),
                pkt.id);
      });
  stats::append_hook<Time, const Packet&, NodeId, PortId>(
      tr.tx_start, [&d](Time t, const Packet& pkt, NodeId node, PortId port) {
        d.event(4, t,
                (static_cast<std::uint64_t>(node) << 32) | port, pkt.id);
      });
  sim.run_until(run_for);
  d.mix(sim.events_executed());
  d.mix(static_cast<std::uint64_t>(net.total_queued_bytes()));
  return d.value();
}

std::uint64_t ring_digest(int shards, Time run_for) {
  RingDeadlockParams p;
  p.num_switches = 6;  // 6 arcs to cut: supports 2, 4, and 8-way requests
  p.span = 2;
  std::optional<ScopedShardRequest> req{std::in_place, shards};
  Scenario s = make_ring_deadlock(p);
  req.reset();
  return digest_net(*s.sim, *s.net, run_for);
}

std::uint64_t routing_loop_digest(int shards, Rate inject, Time run_for) {
  RoutingLoopParams p;
  p.inject = inject;
  std::optional<ScopedShardRequest> req{std::in_place, shards};
  Scenario s = make_routing_loop(p);
  req.reset();
  return digest_net(*s.sim, *s.net, run_for);
}

/// Traffic on the k=4 fat-tree (16 hosts) of fat_tree_digest.
enum class FatTreeLoad {
  /// The bench's throughput scenario: host i sends to host (i + 8) mod 16
  /// through a 10 Gbps token bucket — every flow crosses pods, so every
  /// packet crosses shards under per-pod sharding.
  kPermutation,
  /// Hot enough to trip PFC in both classes: hosts 2j and 2j+1 both send
  /// Poisson traffic at 30 Gbps to host (2j + 8) mod 16 (60 Gbps into one
  /// 40 Gbps downlink), two classes assigned by hop count
  /// (mitigation::hop_class_mapper), and 10 ns of transmit jitter.
  kHotTwoClass,
};

/// Digest of a k=4 fat-tree run under `load`; `xoffs`, when given, counts
/// the Xoff transitions of each class.
std::uint64_t fat_tree_digest(int shards, Time run_for,
                              FatTreeLoad load = FatTreeLoad::kPermutation,
                              std::array<std::uint64_t, 2>* xoffs = nullptr) {
  Simulator sim;
  const topo::FatTreeTopo ft = topo::make_fat_tree(4);
  NetConfig cfg;
  const bool hot = load == FatTreeLoad::kHotTwoClass;
  if (hot) {
    cfg.num_classes = 2;
    cfg.reclass = mitigation::hop_class_mapper(2);
    cfg.tx_jitter = 10_ns;
  }
  std::optional<ScopedShardRequest> req{std::in_place, shards};
  auto net = std::make_unique<Network>(sim, ft.topo, cfg);
  req.reset();
  routing::install_shortest_paths(*net);
  const int n = static_cast<int>(ft.all_hosts.size());
  for (int i = 0; i < n; ++i) {
    FlowSpec f;
    f.id = static_cast<FlowId>(i + 1);
    f.src_host = ft.all_hosts[static_cast<std::size_t>(i)];
    const int dst = hot ? (i / 2 * 2 + n / 2) % n : (i + n / 2) % n;
    f.dst_host = ft.all_hosts[static_cast<std::size_t>(dst)];
    f.packet_bytes = 1000;
    std::unique_ptr<Pacer> pacer;
    if (hot) {
      pacer = std::make_unique<PoissonPacer>(Rate::gbps(30), f.packet_bytes,
                                             static_cast<std::uint64_t>(i + 1));
    } else {
      pacer = std::make_unique<TokenBucketPacer>(Rate::gbps(10), 2000);
    }
    net->host_at(f.src_host).add_flow(f, std::move(pacer));
  }
  if (xoffs != nullptr) {
    *xoffs = {};
    stats::append_hook<Time, NodeId, PortId, ClassId, bool>(
        net->trace().pfc_state,
        [xoffs](Time, NodeId, PortId, ClassId cls, bool paused) {
          if (paused) ++(*xoffs)[cls];
        });
  }
  return digest_net(sim, *net, run_for);
}

TEST(ShardedDigest, RingInvariantAcrossShardCounts) {
  const std::uint64_t base = ring_digest(1, 2_ms);
  EXPECT_EQ(ring_digest(2, 2_ms), base);
  EXPECT_EQ(ring_digest(4, 2_ms), base);
  EXPECT_EQ(ring_digest(8, 2_ms), base);  // clamps to 6 effective shards
}

TEST(ShardedDigest, RoutingLoopAboveBoundaryInvariant) {
  // 8 Gbps > the Eq. 3 boundary: the loop deadlocks; the pause cascade and
  // freeze order must not depend on how the two loop switches are sharded.
  const std::uint64_t base = routing_loop_digest(1, Rate::gbps(8), 2_ms);
  EXPECT_EQ(routing_loop_digest(2, Rate::gbps(8), 2_ms), base);
}

TEST(ShardedDigest, RoutingLoopBelowBoundaryInvariant) {
  // 4 Gbps: TTL drain keeps the loop alive forever — a drop-heavy stream
  // where every TTL expiry is a cross-shard arrival under 2-way sharding.
  const std::uint64_t base = routing_loop_digest(1, Rate::gbps(4), 2_ms);
  EXPECT_EQ(routing_loop_digest(2, Rate::gbps(4), 2_ms), base);
}

// Committed fat-tree digests, computed before the device layer's storage
// was flattened (wire table, per-(port, class) switch arrays): a layout
// change that altered behaviour identically at every shard count would
// pass a 1-vs-K comparison, but not these.
constexpr std::uint64_t kFatTreePermutationDigest = 0xDAB434CF3E92A1D1ULL;
constexpr std::uint64_t kFatTreeHotTwoClassDigest = 0x709C7CD70DD5E4BCULL;

TEST(ShardedDigest, FatTreePermutationInvariant) {
  EXPECT_EQ(fat_tree_digest(1, 500_us), kFatTreePermutationDigest);
  EXPECT_EQ(fat_tree_digest(2, 500_us), kFatTreePermutationDigest);
  EXPECT_EQ(fat_tree_digest(4, 500_us), kFatTreePermutationDigest);
}

TEST(ShardedDigest, FatTreeHotTwoClassPinnedAndInvariant) {
  std::array<std::uint64_t, 2> xoffs{};
  EXPECT_EQ(fat_tree_digest(1, 500_us, FatTreeLoad::kHotTwoClass, &xoffs),
            kFatTreeHotTwoClassDigest);
  // The input must reach PFC in both classes, or it pins nothing the
  // permutation digest does not.
  EXPECT_GT(xoffs[0], 0u);
  EXPECT_GT(xoffs[1], 0u);
  EXPECT_EQ(fat_tree_digest(2, 500_us, FatTreeLoad::kHotTwoClass),
            kFatTreeHotTwoClassDigest);
  EXPECT_EQ(fat_tree_digest(4, 500_us, FatTreeLoad::kHotTwoClass),
            kFatTreeHotTwoClassDigest);
}

// ---------------------------------------------------------------------------
// End-to-end artifact invariance: monitor verdicts and forensics reports.

struct RingOutcome {
  RunSummary summary;
  std::string forensics_text;
};

RingOutcome ring_outcome(int shards) {
  RingDeadlockParams p;
  p.num_switches = 6;
  p.span = 2;
  std::optional<ScopedShardRequest> req{std::in_place, shards};
  Scenario s = make_ring_deadlock(p);
  req.reset();
  stats::PauseEventLog pauses(*s.net);
  RingOutcome out;
  out.summary = run_and_check(s, 4_ms, 2_ms);
  forensics::CausalInput in =
      forensics::input_from_pause_log(*s.topo, pauses, s.sim->now());
  in.deadlock_cycle = out.summary.cycle;
  if (out.summary.detected_at) {
    in.deadlock_at_ps = out.summary.detected_at->ps();
  }
  out.forensics_text = forensics::to_text(forensics::analyze(in));
  return out;
}

TEST(ShardedRun, SummaryAndForensicsInvariant) {
  const RingOutcome one = ring_outcome(1);
  const RingOutcome four = ring_outcome(4);

  // The ring still deadlocks when sharded — the pause cycle spans all four
  // shard boundaries and the online monitor (a control-phase poller) must
  // still see the closed wait-for cycle.
  EXPECT_TRUE(one.summary.deadlocked);
  EXPECT_TRUE(one.summary.detected_at.has_value());
  EXPECT_FALSE(one.summary.cycle.empty());

  EXPECT_EQ(four.summary.deadlocked, one.summary.deadlocked);
  EXPECT_EQ(four.summary.detected_at, one.summary.detected_at);
  EXPECT_EQ(four.summary.cycle, one.summary.cycle);
  EXPECT_EQ(four.summary.trapped_bytes, one.summary.trapped_bytes);
  EXPECT_EQ(four.summary.delivered, one.summary.delivered);
  EXPECT_EQ(four.forensics_text, one.forensics_text);
}

// ---------------------------------------------------------------------------
// Partitioner unit tests.

TEST(ShardPlan, LinePartitionCutsExactlyTheBoundaryLink) {
  // Hand-built: s0 -2us- s1 -3us- s2, one host per switch on 1 us links.
  Topology t;
  const NodeId s0 = t.add_switch("s0");
  const NodeId s1 = t.add_switch("s1");
  const NodeId s2 = t.add_switch("s2");
  const NodeId h0 = t.add_host("h0");
  const NodeId h1 = t.add_host("h1");
  const NodeId h2 = t.add_host("h2");
  t.add_link(s0, s1, Rate::gbps(40), Time{2'000'000});
  const std::uint32_t l12 = t.add_link(s1, s2, Rate::gbps(40), Time{3'000'000});
  t.add_link(s0, h0, Rate::gbps(40), Time{1'000'000});
  t.add_link(s1, h1, Rate::gbps(40), Time{1'000'000});
  t.add_link(s2, h2, Rate::gbps(40), Time{1'000'000});

  const topo::ShardPlan plan = topo::assign_shards(t, 2);
  EXPECT_EQ(plan.num_shards, 2);
  // Contiguous-block fallback: {s0, s1} | {s2}.
  EXPECT_EQ(plan.node_shard[s0], plan.node_shard[s1]);
  EXPECT_NE(plan.node_shard[s1], plan.node_shard[s2]);
  // Hosts follow their switch — host links are never cut.
  EXPECT_EQ(plan.node_shard[h0], plan.node_shard[s0]);
  EXPECT_EQ(plan.node_shard[h1], plan.node_shard[s1]);
  EXPECT_EQ(plan.node_shard[h2], plan.node_shard[s2]);
  ASSERT_EQ(plan.cut_links.size(), 1u);
  EXPECT_EQ(plan.cut_links[0].link, l12);
  EXPECT_EQ(plan.min_cut_delay, Time{3'000'000});
}

TEST(ShardPlan, FatTreePodsStayWholeAndOnlyCoreLinksAreCut) {
  const topo::FatTreeTopo ft = topo::make_fat_tree(4);
  const topo::ShardPlan plan = topo::assign_shards(ft.topo, 4);
  EXPECT_EQ(plan.num_shards, 4);

  std::set<std::uint32_t> pod_shards;
  for (int p = 0; p < 4; ++p) {
    const std::uint32_t s = plan.node_shard[ft.edge[p][0]];
    for (const NodeId sw : ft.edge[p]) EXPECT_EQ(plan.node_shard[sw], s);
    for (const NodeId sw : ft.agg[p]) EXPECT_EQ(plan.node_shard[sw], s);
    pod_shards.insert(s);
  }
  EXPECT_EQ(pod_shards.size(), 4u) << "pods must land on distinct shards";

  // Every cut link is an agg<->core link: pods are internally whole and
  // hosts follow their edge switch, so only the top tier can be severed.
  const int core_tier = ft.topo.node(ft.core[0]).tier;
  EXPECT_FALSE(plan.cut_links.empty());
  for (const topo::CutLink& c : plan.cut_links) {
    const LinkSpec& l = ft.topo.link(c.link);
    EXPECT_TRUE(ft.topo.is_switch(l.a) && ft.topo.is_switch(l.b));
    EXPECT_TRUE(ft.topo.node(l.a).tier == core_tier ||
                ft.topo.node(l.b).tier == core_tier);
  }
  EXPECT_EQ(plan.min_cut_delay, Time{1'000'000});
}

TEST(ShardPlan, EffectiveShardCountIsClamped) {
  // More shards requested than structural units: clamp to the unit count.
  const topo::RingTopo line = topo::make_line(2, 1);
  const topo::ShardPlan plan = topo::assign_shards(line.topo, 8);
  EXPECT_EQ(plan.num_shards, 2);

  // A single switch cannot shard at all: one shard, nothing cut.
  Topology t;
  const NodeId sw = t.add_switch("s");
  const NodeId h = t.add_host("h");
  t.add_link(sw, h);
  const topo::ShardPlan single = topo::assign_shards(t, 4);
  EXPECT_EQ(single.num_shards, 1);
  EXPECT_TRUE(single.cut_links.empty());
  EXPECT_EQ(single.min_cut_delay, Time::max());
}

TEST(ShardPlan, ScopedRequestNestsAndRestores) {
  EXPECT_EQ(ScopedShardRequest::active(), 1);
  {
    ScopedShardRequest outer(4);
    EXPECT_EQ(ScopedShardRequest::active(), 4);
    {
      ScopedShardRequest inner(2);
      EXPECT_EQ(ScopedShardRequest::active(), 2);
    }
    EXPECT_EQ(ScopedShardRequest::active(), 4);
  }
  EXPECT_EQ(ScopedShardRequest::active(), 1);
}

// ---------------------------------------------------------------------------
// Engine wiring and statistics surface.

TEST(ShardedEngineStats, WindowsAndCrossShardTrafficAreCounted) {
  RingDeadlockParams p;
  p.num_switches = 6;
  p.span = 2;
  std::optional<ScopedShardRequest> req{std::in_place, 4};
  Scenario s = make_ring_deadlock(p);
  req.reset();

  ShardedEngine& eng = s.net->engine();
  EXPECT_EQ(eng.num_shards(), 4);
  EXPECT_EQ(s.net->shard_plan().num_shards, 4);
  EXPECT_FALSE(s.net->shard_plan().cut_links.empty());
  // Ring links propagate in 1 us and no out-of-band feedback is enabled,
  // so the conservative lookahead is exactly the cut-link delay.
  EXPECT_EQ(eng.lookahead(), Time{1'000'000});

  s.sim->run_until(1_ms);

  const ShardedEngine::Stats& st = eng.stats();
  EXPECT_GT(st.windows, 0u);
  EXPECT_GE(st.device_passes, st.windows);
  EXPECT_GT(st.cross_shard_events, 0u)
      << "ring flows span shard boundaries; mailboxes cannot be idle";
  ASSERT_EQ(st.shard.size(), 4u);
  std::uint64_t executed = 0;
  for (const ShardedEngine::ShardStats& sh : st.shard) executed += sh.executed;
  EXPECT_GT(executed, 0u);
  // Shard events are credited to the control simulator's counter, so
  // events_executed() is comparable across engines and shard counts.
  EXPECT_GE(s.sim->events_executed(), executed);
}

Simulator::Counters ring_counters(int shards) {
  RingDeadlockParams p;
  p.num_switches = 6;
  p.span = 2;
  std::optional<ScopedShardRequest> req{std::in_place, shards};
  Scenario s = make_ring_deadlock(p);
  req.reset();
  s.sim->run_until(1_ms);
  return s.sim->counters();
}

TEST(ShardedEngineStats, EventCountsAreEngineWideAndShardInvariant) {
  // counters() on the control simulator folds in every shard simulator's
  // event counts, so the books balance over the whole engine and read the
  // same for every shard count.
  const Simulator::Counters one = ring_counters(1);
  EXPECT_EQ(one.scheduled, one.executed + one.cancelled + one.pending);
  EXPECT_GT(one.executed, 1000u) << "device events must be counted";
  for (const int shards : {2, 4}) {
    const Simulator::Counters c = ring_counters(shards);
    EXPECT_EQ(c.scheduled, c.executed + c.cancelled + c.pending);
    EXPECT_EQ(c.scheduled, one.scheduled) << shards << " shards";
    EXPECT_EQ(c.executed, one.executed) << shards << " shards";
    EXPECT_EQ(c.cancelled, one.cancelled) << shards << " shards";
    EXPECT_EQ(c.pending, one.pending) << shards << " shards";
  }
}

// ---------------------------------------------------------------------------
// Zero-alloc steady state, sharded edition.

TEST(ShardedZeroAlloc, RoutingLoopSteadyStateAllocatesNothing) {
  // Same regime as test_zero_alloc.cpp's headline test — below-boundary
  // routing loop in perpetual steady state — but on two shards: every
  // window crosses two barriers, every loop packet crosses a mailbox, and
  // none of it may allocate once the warm-up has grown slab, mailbox, and
  // record buffers to their high-water marks.
  RoutingLoopParams p;
  p.inject = Rate::gbps(4);
  std::optional<ScopedShardRequest> req{std::in_place, 2};
  Scenario s = make_routing_loop(p);
  req.reset();
  ASSERT_EQ(s.net->engine().num_shards(), 2);

  s.sim->run_until(2_ms);  // warm-up: arenas and mailboxes reach high water

  const std::uint64_t events_before = s.sim->events_executed();
  const std::uint64_t allocs_before =
      g_allocs.load(std::memory_order_relaxed);
  s.sim->run_until(12_ms);
  const std::uint64_t allocs =
      g_allocs.load(std::memory_order_relaxed) - allocs_before;
  const std::uint64_t events = s.sim->events_executed() - events_before;

  ASSERT_GE(events, 100'000u) << "window too small to be meaningful";
  EXPECT_EQ(allocs, 0u) << "sharded steady state leaked heap allocations "
                           "across " << events << " events";
}

}  // namespace
}  // namespace dcdl
