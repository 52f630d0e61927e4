#include "dcdl/topo/partition.hpp"

#include <algorithm>
#include <numeric>

#include "dcdl/common/contract.hpp"

namespace dcdl::topo {

namespace {

/// Union-find over node ids (path halving, no rank — determinism over
/// asymptotics; these graphs have a few hundred switches).
class DisjointSet {
 public:
  explicit DisjointSet(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0u);
  }
  std::uint32_t find(std::uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(std::uint32_t a, std::uint32_t b) {
    a = find(a);
    b = find(b);
    if (a != b) parent_[std::max(a, b)] = std::min(a, b);
  }

 private:
  std::vector<std::uint32_t> parent_;
};

/// Assigns each group (a list of switch ids) to the currently least-loaded
/// shard, by switch count, lowest shard id on ties. Groups are visited in
/// the deterministic order they were built (ascending representative id).
void pack_groups(const std::vector<std::vector<NodeId>>& groups, int shards,
                 std::vector<std::uint32_t>& node_shard) {
  std::vector<std::size_t> load(static_cast<std::size_t>(shards), 0);
  for (const std::vector<NodeId>& g : groups) {
    std::uint32_t best = 0;
    for (std::uint32_t s = 1; s < load.size(); ++s) {
      if (load[s] < load[best]) best = s;
    }
    for (const NodeId n : g) node_shard[n] = best;
    load[best] += g.size();
  }
}

}  // namespace

ShardPlan assign_shards(const Topology& topo, int requested_shards) {
  DCDL_EXPECTS(requested_shards >= 1);
  ShardPlan plan;
  plan.node_shard.assign(topo.node_count(), 0);
  if (requested_shards == 1) return plan;

  const std::vector<NodeId> switches = topo.switches();
  if (switches.size() <= 1) {
    plan.num_shards = 1;
    return plan;
  }

  // Distinguish a top tier only when something lies below it: fat-tree
  // cores (tier 3 over 1/2), leaf-spine spines (2 over 1). Rings and meshes
  // have a single tier and take the fallback path.
  int min_tier = switches.empty() ? 0 : topo.node(switches[0]).tier;
  int max_tier = min_tier;
  for (const NodeId sw : switches) {
    min_tier = std::min(min_tier, topo.node(sw).tier);
    max_tier = std::max(max_tier, topo.node(sw).tier);
  }
  const bool has_core = max_tier > min_tier;

  // Pods: connected components of the switch graph with the top tier
  // removed (per-pod fat-tree, per-leaf leaf-spine, per-group dragonfly).
  std::vector<std::vector<NodeId>> pods;
  std::vector<NodeId> core;
  if (has_core) {
    DisjointSet dsu(topo.node_count());
    for (std::uint32_t l = 0; l < topo.link_count(); ++l) {
      const LinkSpec& link = topo.link(l);
      if (!topo.is_switch(link.a) || !topo.is_switch(link.b)) continue;
      if (topo.node(link.a).tier == max_tier ||
          topo.node(link.b).tier == max_tier) {
        continue;
      }
      dsu.unite(link.a, link.b);
    }
    std::vector<std::uint32_t> rep_to_pod(topo.node_count(), 0xFFFFFFFFu);
    for (const NodeId sw : switches) {
      if (topo.node(sw).tier == max_tier) {
        core.push_back(sw);
        continue;
      }
      const std::uint32_t rep = dsu.find(sw);
      if (rep_to_pod[rep] == 0xFFFFFFFFu) {
        rep_to_pod[rep] = static_cast<std::uint32_t>(pods.size());
        pods.emplace_back();
      }
      pods[rep_to_pod[rep]].push_back(sw);
    }
  }

  if (pods.size() >= 2) {
    const int shards =
        std::min<int>(requested_shards, static_cast<int>(pods.size()));
    pack_groups(pods, shards, plan.node_shard);
    // Top-tier switches are pod-less by construction; spread them with the
    // same balancing rule, one switch per "group".
    std::vector<std::vector<NodeId>> singles;
    singles.reserve(core.size());
    for (const NodeId sw : core) singles.push_back({sw});
    {
      // Seed the balancer with the pod loads so cores fill the gaps.
      std::vector<std::size_t> load(static_cast<std::size_t>(shards), 0);
      for (const NodeId sw : switches) {
        if (topo.node(sw).tier != max_tier) ++load[plan.node_shard[sw]];
      }
      for (const NodeId sw : core) {
        std::uint32_t best = 0;
        for (std::uint32_t s = 1; s < load.size(); ++s) {
          if (load[s] < load[best]) best = s;
        }
        plan.node_shard[sw] = best;
        ++load[best];
      }
    }
    plan.num_shards = shards;
  } else {
    // Fallback: contiguous blocks over the switch id order. Generator
    // topologies number neighbours consecutively, so blocks are compact
    // (ring arcs, mesh strips).
    const int shards =
        std::min<int>(requested_shards, static_cast<int>(switches.size()));
    const std::size_t n = switches.size();
    for (std::size_t i = 0; i < n; ++i) {
      plan.node_shard[switches[i]] = static_cast<std::uint32_t>(
          i * static_cast<std::size_t>(shards) / n);
    }
    plan.num_shards = shards;
  }

  // Hosts join their switch's shard; hosts attach to exactly one device.
  for (const NodeId h : topo.hosts()) {
    const PortPeer& pp = topo.peer(h, 0);
    plan.node_shard[h] = plan.node_shard[pp.peer_node];
  }

  // Cut enumeration + the lookahead ingredient.
  for (std::uint32_t l = 0; l < topo.link_count(); ++l) {
    const LinkSpec& link = topo.link(l);
    const std::uint32_t sa = plan.node_shard[link.a];
    const std::uint32_t sb = plan.node_shard[link.b];
    if (sa == sb) continue;
    plan.cut_links.push_back(CutLink{l, sa, sb});
    plan.min_cut_delay = std::min(plan.min_cut_delay, link.delay);
  }
  return plan;
}

}  // namespace dcdl::topo
