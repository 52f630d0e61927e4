// Golden-trace determinism pins for the hot-path refactors.
//
// Each test replays a canonical paper scenario (Fig. 1 ring deadlock,
// Fig. 2 routing loop) and folds the *ordered* observation stream — every
// PFC transition, delivery, drop, and tx-start, each tagged with its
// timestamp and location — into an FNV-1a digest, then compares against a
// committed constant. Any change to event ordering, timing arithmetic, or
// accounting anywhere in the sim/device stack changes the digest; a
// refactor that claims to be behaviour-preserving must keep these bytes.
//
// The digests were first pinned on the pre-slab (std::function + hash-set)
// engine, which the slab-allocated engine reproduced exactly. They were
// re-pinned once when the insertion-order device engine was retired and
// every network moved onto the keyed (time, channel, sequence) engine,
// whose same-timestamp tie-breaking differs; each new value equals the
// same scenario's digest at 2 and 4 shards:
//   Fig1RingDeadlock               0x1f910508462cb0de -> 0xede40e865aa6e9c6
//   Fig2RoutingLoop                0xf0b42047ad726071 -> 0x895f3f92f941b44e
//   Fig2RoutingLoopBelowBoundary   0x2e71b4119a39bab9 -> 0xfa46d8e1ec40f00f
//
// CampaignRecordDigest pins one level up: the per-record digest a campaign
// writes (pause_assertions and the flat telemetry list that RunTelemetry
// and forensics::summary produce), so a refactor of either cannot drift
// the campaign.v6 artifact unnoticed.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "dcdl/campaign/campaign.hpp"
#include "dcdl/scenarios/scenario.hpp"
#include "dcdl/stats/hooks.hpp"

namespace dcdl {
namespace {

using namespace dcdl::literals;

/// Order-sensitive FNV-1a over 64-bit words (each mixed byte-by-byte).
class TraceDigest {
 public:
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFFu;
      h_ *= 1099511628211ULL;
    }
  }
  void mix(const std::string& s) {
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 1099511628211ULL;
    }
    mix(s.size());
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

/// Attaches digest observers to every trace slot (through the same
/// append_hook path the stats layer uses), runs to `run_for`, and seals the
/// digest with the executed-event count and the residual buffered bytes.
std::uint64_t digest_run(scenarios::Scenario& s, Time run_for) {
  TraceDigest d;
  Trace& tr = s.net->trace();
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
  s.sim->run_until(run_for);
  d.mix(s.sim->events_executed());
  d.mix(static_cast<std::uint64_t>(s.net->total_queued_bytes()));
  return d.value();
}

TEST(GoldenTrace, Fig1RingDeadlock) {
  scenarios::RingDeadlockParams p;  // 3 switches, span 2, jittered, seed 1
  scenarios::Scenario s = scenarios::make_ring_deadlock(p);
  EXPECT_EQ(digest_run(s, 2_ms), 0xede40e865aa6e9c6ULL);
}

TEST(GoldenTrace, Fig2RoutingLoop) {
  scenarios::RoutingLoopParams p;  // 2-switch loop, TTL 16, 6 Gbps inject
  p.inject = Rate::gbps(8);        // above the Eq. 3 boundary: deadlocks
  scenarios::Scenario s = scenarios::make_routing_loop(p);
  EXPECT_EQ(digest_run(s, 2_ms), 0x895f3f92f941b44eULL);
}

TEST(GoldenTrace, Fig2RoutingLoopBelowBoundary) {
  // Below the boundary the loop drains by TTL alone and never deadlocks —
  // a digest over a drop-heavy (TTL-expiry) stream pins that path too.
  scenarios::RoutingLoopParams p;
  p.inject = Rate::gbps(4);
  scenarios::Scenario s = scenarios::make_routing_loop(p);
  EXPECT_EQ(digest_run(s, 2_ms), 0xfa46d8e1ec40f00fULL);
}

TEST(GoldenTrace, CampaignRecordDigest) {
  // Four cells: a deadlocking and a TTL-draining loop (ttl_expired drops,
  // routing-loop triggers), a valley cascade whose dataplane recovery
  // flushes queues (dataplane_reset drops), and the Fig. 4 ring. Values
  // are mixed as the JSON sink prints them.
  campaign::ScenarioRegistry reg;
  campaign::register_builtin_scenarios(reg);
  std::vector<campaign::RunSpec> runs;
  for (const auto& [scenario, sets] :
       {std::pair{"routing_loop", "inject=8"},
        std::pair{"routing_loop", "inject=4"},
        std::pair{"valley", "dataplane=drop"},
        std::pair{"four_switch", "with_flow3=true"}}) {
    campaign::SweepSpec spec;
    spec.scenario = scenario;
    campaign::apply_sets(spec.base, sets);
    spec.run_for = 4_ms;
    spec.drain_grace = 10_ms;
    for (campaign::RunSpec& r : campaign::expand(spec)) {
      runs.push_back(std::move(r));
    }
  }
  campaign::ExecutorOptions opts;
  opts.jobs = 1;
  const campaign::CampaignResult result =
      campaign::CampaignExecutor(reg, opts).run(runs);
  ASSERT_EQ(result.records.size(), 4u);
  TraceDigest d;
  for (const campaign::RunRecord& rec : result.records) {
    ASSERT_EQ(rec.status, campaign::RunStatus::kOk) << rec.error;
    ASSERT_EQ(rec.telemetry.size(), 33u)
        << "22 net.*/sim.* entries + 11 forensics.*";
    d.mix(rec.pause_assertions);
    for (const auto& [name, value] : rec.telemetry) {
      d.mix(name);
      d.mix(campaign::format_double(value));
    }
  }
  EXPECT_EQ(d.value(), 0x0d0942a26a8a93efULL);
}

}  // namespace
}  // namespace dcdl
