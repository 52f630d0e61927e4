#include <gtest/gtest.h>

#include "dcdl/device/switch.hpp"
#include "dcdl/routing/compute.hpp"
#include "dcdl/topo/generators.hpp"

namespace dcdl::routing {
namespace {

using namespace dcdl::topo;

struct Fixture {
  Simulator sim;
  Topology topo;
  std::unique_ptr<Network> net;

  explicit Fixture(Topology t) : topo(std::move(t)) {
    net = std::make_unique<Network>(sim, topo, NetConfig{});
  }
};

// Follows installed tables from a source host; returns the node sequence.
std::vector<NodeId> walk(const Network& net, FlowId flow, NodeId src,
                         NodeId dst, int hop_limit = 64) {
  std::vector<NodeId> path{src};
  NodeId cur = net.topo().peer(src, 0).peer_node;
  for (int i = 0; i < hop_limit; ++i) {
    path.push_back(cur);
    if (cur == dst) return path;
    if (!net.topo().is_switch(cur)) return path;  // wrong host
    const auto eg = net.switch_at(cur).routes().lookup(flow, dst);
    if (!eg) return path;
    cur = net.topo().peer(cur, *eg).peer_node;
  }
  path.push_back(cur);
  return path;
}

TEST(HopDistances, LineTopology) {
  const RingTopo l = make_line(4, 1);
  const auto d = hop_distances(l.topo, l.hosts[3][0]);
  EXPECT_EQ(d[l.switches[3]], 1);
  EXPECT_EQ(d[l.switches[0]], 4);
  EXPECT_EQ(d[l.hosts[0][0]], 5);
}

TEST(ShortestPath, EndsAtDestination) {
  const FatTreeTopo ft = make_fat_tree(4);
  const auto path =
      shortest_path(ft.topo, ft.all_hosts[0], ft.all_hosts[15]);
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path.front(), ft.all_hosts[0]);
  EXPECT_EQ(path.back(), ft.all_hosts[15]);
  // Cross-pod in fat-tree: host-edge-agg-core-agg-edge-host = 7 nodes.
  EXPECT_EQ(path.size(), 7u);
}

TEST(ShortestPath, SameRackIsTwoHops) {
  const FatTreeTopo ft = make_fat_tree(4);
  const auto path = shortest_path(ft.topo, ft.all_hosts[0], ft.all_hosts[1]);
  EXPECT_EQ(path.size(), 3u);  // host-edge-host
}

TEST(InstallShortestPaths, EveryPairConnected) {
  Fixture f(make_fat_tree(4).topo);
  install_shortest_paths(*f.net);
  const auto hosts = f.topo.hosts();
  for (const NodeId src : hosts) {
    for (const NodeId dst : hosts) {
      if (src == dst) continue;
      const auto path = walk(*f.net, /*flow=*/1, src, dst);
      EXPECT_EQ(path.back(), dst)
          << f.topo.node(src).name << " -> " << f.topo.node(dst).name;
      EXPECT_LE(path.size(), 7u);
    }
  }
}

TEST(InstallShortestPaths, EcmpUsesMultiplePaths) {
  Fixture f(make_leaf_spine(2, 4, 1).topo);
  install_shortest_paths(*f.net);
  const LeafSpineTopo ls = make_leaf_spine(2, 4, 1);  // same layout
  // From leaf0, destination on leaf1: 4 equal-cost spine choices.
  const auto cands = f.net->switch_at(ls.leaves[0])
                         .routes()
                         .dst_candidates(ls.hosts[1][0]);
  EXPECT_EQ(cands.size(), 4u);
}

TEST(InstallFlowPath, PinsExactRoute) {
  const RingTopo r = make_ring(4, 1);
  Fixture f(r.topo);
  // The long way round: h0 -> S0 -> S3 -> S2 -> h2.
  install_flow_path(*f.net, 5,
                    {r.hosts[0][0], r.switches[0], r.switches[3],
                     r.switches[2], r.hosts[2][0]});
  const auto path = walk(*f.net, 5, r.hosts[0][0], r.hosts[2][0]);
  const std::vector<NodeId> want{r.hosts[0][0], r.switches[0], r.switches[3],
                                 r.switches[2], r.hosts[2][0]};
  EXPECT_EQ(path, want);
}

TEST(InstallLoopRoute, CreatesForwardingLoop) {
  const RingTopo r = make_ring(3, 1);
  Fixture f(r.topo);
  install_loop_route(*f.net, r.hosts[1][0], r.switches);
  const auto loop = find_forwarding_loop(*f.net, r.hosts[1][0]);
  ASSERT_TRUE(loop.has_value());
  EXPECT_EQ(loop->size(), 3u);
}

TEST(FindForwardingLoop, NoneOnCorrectRoutes) {
  Fixture f(make_fat_tree(4).topo);
  install_shortest_paths(*f.net);
  for (const NodeId dst : f.topo.hosts()) {
    EXPECT_FALSE(find_forwarding_loop(*f.net, dst).has_value());
  }
}

// Up*/down* routing: every path must be valley-free — once it goes down
// (by the algorithm's own BFS-level ordering), it never goes up again.
bool valley_free(const Topology& topo, const std::vector<NodeId>& path) {
  const std::vector<int> level = up_down_levels(topo);
  const auto up = [&](NodeId a, NodeId b) {
    if (level[b] != level[a]) return level[b] < level[a];
    return b < a;
  };
  bool went_down = false;
  for (std::size_t i = 1; i + 1 < path.size(); ++i) {
    if (!topo.is_switch(path[i]) || !topo.is_switch(path[i + 1])) continue;
    if (up(path[i], path[i + 1])) {
      if (went_down) return false;
    } else {
      went_down = true;
    }
  }
  return true;
}

TEST(UpDown, FatTreePathsAreValleyFreeAndComplete) {
  Fixture f(make_fat_tree(4).topo);
  install_up_down(*f.net);
  const auto hosts = f.topo.hosts();
  for (const NodeId src : hosts) {
    for (const NodeId dst : hosts) {
      if (src == dst) continue;
      const auto path = walk(*f.net, 1, src, dst);
      ASSERT_EQ(path.back(), dst);
      EXPECT_TRUE(valley_free(f.topo, path));
    }
  }
}

TEST(UpDown, JellyfishPathsAreValleyFreeAndComplete) {
  const JellyfishTopo j = make_jellyfish(10, 3, 1, 5);
  Fixture f(j.topo);
  install_up_down(*f.net);
  const auto hosts = f.topo.hosts();
  int reachable = 0;
  for (const NodeId src : hosts) {
    for (const NodeId dst : hosts) {
      if (src == dst) continue;
      const auto path = walk(*f.net, 1, src, dst);
      if (path.back() == dst) {
        ++reachable;
        EXPECT_TRUE(valley_free(f.topo, path));
      }
    }
  }
  // Up*/down* on a connected graph reaches everything (possibly via the
  // highest-ordered node).
  EXPECT_EQ(reachable, static_cast<int>(hosts.size() * (hosts.size() - 1)));
}

TEST(UpDown, NeverLoops) {
  const JellyfishTopo j = make_jellyfish(12, 4, 1, 9);
  Fixture f(j.topo);
  install_up_down(*f.net);
  for (const NodeId dst : f.topo.hosts()) {
    EXPECT_FALSE(find_forwarding_loop(*f.net, dst).has_value());
  }
}

}  // namespace
}  // namespace dcdl::routing
