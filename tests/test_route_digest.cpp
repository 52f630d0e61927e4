// Route-choice digests: every forwarding decision the installers produce,
// pinned. For each topology and routing scheme, the test hashes
// RouteTable::lookup(flow, dst) with FNV-1a over every switch, every host
// destination and flows 0-47 (enough to exercise every ECMP candidate of
// the widest groups here). Any change to route storage, candidate order,
// the ECMP hash or the installers that moves even one choice changes a
// digest. The values were pinned on the map-based route table and the
// one-BFS-per-host installer that the dense table and the one-BFS-per-
// attachment-switch installer replaced; they must never move.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "dcdl/device/switch.hpp"
#include "dcdl/routing/compute.hpp"
#include "dcdl/topo/generators.hpp"

namespace dcdl {
namespace {

using namespace dcdl::topo;

constexpr FlowId kFlows = 48;

/// FNV-1a over the four little-endian bytes of `v`.
void fnv1a(std::uint64_t& h, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    h ^= (v >> (8 * i)) & 0xFFu;
    h *= 0x100000001B3ULL;
  }
}

enum class Scheme { kShortest, kUpDown };

std::uint64_t route_digest(const Topology& topo, Scheme scheme, bool ecmp) {
  Simulator sim;
  Network net(sim, topo, NetConfig{});
  if (scheme == Scheme::kShortest) {
    routing::install_shortest_paths(net, ecmp);
  } else {
    routing::install_up_down(net, ecmp);
  }
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const NodeId sw : topo.switches()) {
    const RouteTable& rt = net.switch_at(sw).routes();
    for (const NodeId dst : topo.hosts()) {
      for (FlowId flow = 0; flow < kFlows; ++flow) {
        const auto egress = rt.lookup(flow, dst);
        fnv1a(h, egress ? *egress : 0xFFFFFFFFu);
      }
    }
  }
  return h;
}

struct Expected {
  std::uint64_t shortest_ecmp;
  std::uint64_t shortest_single;
  std::uint64_t updown_ecmp;
  std::uint64_t updown_single;
};

void expect_digests(const Topology& topo, const Expected& want) {
  const auto check = [&](const char* what, std::uint64_t got,
                         std::uint64_t expected) {
    EXPECT_EQ(got, expected) << what << ": got 0x" << std::hex << got
                             << "ULL";
  };
  check("shortest/ecmp", route_digest(topo, Scheme::kShortest, true),
        want.shortest_ecmp);
  check("shortest/single", route_digest(topo, Scheme::kShortest, false),
        want.shortest_single);
  check("updown/ecmp", route_digest(topo, Scheme::kUpDown, true),
        want.updown_ecmp);
  check("updown/single", route_digest(topo, Scheme::kUpDown, false),
        want.updown_single);
}

TEST(RouteDigest, FatTree8) {
  expect_digests(make_fat_tree(8).topo,
                 {0xa868220fb80bc095ULL, 0x2cf0091042a20325ULL,
                  0x888ef359552e0ca5ULL, 0xc7d95613a7b98325ULL});
}

TEST(RouteDigest, LeafSpine6x4x3) {
  expect_digests(make_leaf_spine(6, 4, 3).topo,
                 {0x8be07ab4dbc720b6ULL, 0x327e4d38c4e40625ULL,
                  0x1340b20c70068525ULL, 0x1340b20c70068525ULL});
}

TEST(RouteDigest, Jellyfish24) {
  expect_digests(make_jellyfish(24, 5, 2, 7).topo,
                 {0xc2d4f2ed26d66fc1ULL, 0x41b58d8cf1b6db25ULL,
                  0x32183e903c8c8296ULL, 0x74310ba5d6994725ULL});
}

TEST(RouteDigest, BCubeRelay3x1) {
  expect_digests(make_bcube_relay(3, 1).topo,
                 {0x9e546243fc178b44ULL, 0xb78a2ac4c10d1f25ULL,
                  0xece5bf1c466a7425ULL, 0xece5bf1c466a7425ULL});
}

TEST(RouteDigest, Ring5x2) {
  expect_digests(make_ring(5, 2).topo,
                 {0x8fa7535ff728eda5ULL, 0x8fa7535ff728eda5ULL,
                  0x41c44fa77438eda5ULL, 0x41c44fa77438eda5ULL});
}

TEST(RouteDigest, Mesh4x4) {
  expect_digests(make_mesh(4, 4).topo,
                 {0x26ac704606b2db07ULL, 0x0286651d34ca1225ULL,
                  0x039d1f097315b0a5ULL, 0x13ccd2d51db5de25ULL});
}

}  // namespace
}  // namespace dcdl
