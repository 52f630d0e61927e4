// Per-device forwarding state.
//
// Lookup order: exact per-flow routes (used by the paper's case studies,
// which pin flow paths with static routing), then destination-based entries
// (possibly ECMP sets, selected by a deterministic flow hash salted per
// switch). Tables are mutable at runtime so the BGP-convergence and
// SDN-update substrates can produce transient loops.
//
// Storage is dense because every switch hop looks up a route: per-flow
// overrides live in a FlowMap, and destinations index a vector of group
// ids. A group is an ordered candidate list stored contiguously in one port
// pool. Installing a list the table already holds reuses its group, so a
// fat-tree edge switch keeps one uplink group for every remote host, and
// runtime churn (BGP, SDN updates) grows the pool only by lists it has
// never seen.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "dcdl/common/flow_map.hpp"
#include "dcdl/net/packet.hpp"

namespace dcdl {

class RouteTable {
 public:
  void set_flow_route(FlowId flow, PortId egress);

  void set_dst_route(NodeId dst, PortId egress) {
    set_dst_ecmp(dst, std::span<const PortId>(&egress, 1));
  }

  /// Installs the ordered ECMP candidate list for `dst`; an empty list
  /// removes the destination's route.
  void set_dst_ecmp(NodeId dst, std::span<const PortId> egresses);

  void clear_dst_route(NodeId dst);

  void clear();

  /// Salt mixed into the ECMP hash so distinct switches spread flows
  /// differently (mirrors per-switch hash seeds in real fabrics).
  void set_ecmp_salt(std::uint64_t salt) {
    salt_mix_ = salt * 0x9E3779B97F4A7C15ULL;
  }

  std::optional<PortId> lookup(FlowId flow, NodeId dst) const {
    if (const FlowRoute* r = by_flow_.find(flow);
        r != nullptr && r->egress != kInvalidPort) {
      return r->egress;
    }
    if (dst >= dst_group_.size() || dst_group_[dst] == kNoGroup) {
      return std::nullopt;
    }
    const Group& g = groups_[dst_group_[dst]];
    if (g.size == 1) return pool_[g.begin];
    const std::uint64_t h =
        mix((static_cast<std::uint64_t>(flow) << 32) ^ dst ^ salt_mix_);
    return pool_[g.begin + h % g.size];
  }

  /// ECMP candidate list for a destination, in install order (empty if
  /// none). Valid until the table is next modified.
  std::span<const PortId> dst_candidates(NodeId dst) const {
    if (dst >= dst_group_.size() || dst_group_[dst] == kNoGroup) return {};
    return candidates(dst_group_[dst]);
  }

  std::optional<PortId> flow_route(FlowId flow) const {
    const FlowRoute* r = by_flow_.find(flow);
    if (r == nullptr || r->egress == kInvalidPort) return std::nullopt;
    return r->egress;
  }

  /// Monotonic change counter, bumped by every mutation: two equal reads
  /// bracket a window in which forwarding did not change.
  std::uint64_t version() const { return version_; }

 private:
  static constexpr std::uint32_t kNoGroup = 0xFFFFFFFFu;

  struct FlowRoute {
    PortId egress = kInvalidPort;
  };

  struct Group {
    std::uint32_t begin = 0;  ///< offset of the first candidate in pool_
    std::uint32_t size = 0;
    std::uint32_t next = kNoGroup;  ///< next group with the same list hash
  };

  /// 64-bit mix (SplitMix64 finalizer) for ECMP selection.
  static std::uint64_t mix(std::uint64_t x) {
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
  }

  std::span<const PortId> candidates(std::uint32_t group) const {
    const Group& g = groups_[group];
    return {pool_.data() + g.begin, g.size};
  }

  /// The group holding exactly `egresses`, appended if new.
  std::uint32_t intern(std::span<const PortId> egresses);

  // lookup() reads the members up to salt_mix_, which sit together.
  FlowMap<FlowRoute> by_flow_;
  std::vector<std::uint32_t> dst_group_;  ///< dst -> group, or kNoGroup
  std::vector<Group> groups_;
  std::vector<PortId> pool_;
  std::uint64_t salt_mix_ = 0;
  std::uint64_t version_ = 0;
  /// FNV-1a of a candidate list -> newest group with that hash (older ones
  /// chain through Group::next).
  std::unordered_map<std::uint64_t, std::uint32_t> group_index_;
};

}  // namespace dcdl
