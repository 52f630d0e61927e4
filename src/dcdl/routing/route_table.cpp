#include "dcdl/routing/route_table.hpp"

#include <algorithm>

#include "dcdl/common/contract.hpp"

namespace dcdl {

void RouteTable::set_flow_route(FlowId flow, PortId egress) {
  by_flow_.at_or_insert(flow).egress = egress;
  ++version_;
}

void RouteTable::set_dst_ecmp(NodeId dst, std::span<const PortId> egresses) {
  if (egresses.empty()) {
    clear_dst_route(dst);
    return;
  }
  DCDL_EXPECTS(dst != kInvalidNode);
  if (dst >= dst_group_.size()) dst_group_.resize(dst + 1, kNoGroup);
  dst_group_[dst] = intern(egresses);
  ++version_;
}

void RouteTable::clear_dst_route(NodeId dst) {
  if (dst < dst_group_.size()) dst_group_[dst] = kNoGroup;
  ++version_;
}

void RouteTable::clear() {
  by_flow_ = {};
  dst_group_.clear();
  groups_.clear();
  pool_.clear();
  group_index_.clear();
  ++version_;
}

std::uint32_t RouteTable::intern(std::span<const PortId> egresses) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const PortId p : egresses) h = (h ^ p) * 0x100000001B3ULL;
  const auto it = group_index_.try_emplace(h, kNoGroup).first;
  for (std::uint32_t g = it->second; g != kNoGroup; g = groups_[g].next) {
    if (std::ranges::equal(candidates(g), egresses)) return g;
  }
  const auto group = static_cast<std::uint32_t>(groups_.size());
  groups_.push_back(Group{static_cast<std::uint32_t>(pool_.size()),
                          static_cast<std::uint32_t>(egresses.size()),
                          it->second});
  pool_.insert(pool_.end(), egresses.begin(), egresses.end());
  it->second = group;
  return group;
}

}  // namespace dcdl
