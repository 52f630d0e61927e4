// Flow-id keyed map with dense array access on the packet path.
//
// Every scenario in the repo numbers flows from 1 upward, so the per-packet
// lookup (sink statistics, per-flow route overrides) is a single vector
// index.
// Arbitrarily large ids remain legal through a hash-map fallback that the
// hot path never touches.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "dcdl/net/packet.hpp"

namespace dcdl {

template <typename T>
class FlowMap {
 public:
  /// Value for `id`, default-constructing on first access.
  T& at_or_insert(FlowId id) {
    if (id < kDenseIds) {
      if (id >= dense_.size()) grow(id);
      return dense_[id];
    }
    return sparse_[id];
  }

  const T* find(FlowId id) const {
    if (id < kDenseIds) {
      return id < dense_.size() ? &dense_[id] : nullptr;
    }
    const auto it = sparse_.find(id);
    return it == sparse_.end() ? nullptr : &it->second;
  }

 private:
  void grow(FlowId id) {
    std::size_t cap = dense_.empty() ? 64 : dense_.size();
    while (cap <= id) cap *= 2;
    if (cap > kDenseIds) cap = kDenseIds;
    dense_.resize(cap);
  }

  /// Ids below this live in the dense vector (worst case a few hundred KB
  /// for typical T); beyond it the hash fallback bounds memory.
  static constexpr FlowId kDenseIds = 65536;

  std::vector<T> dense_;
  std::unordered_map<FlowId, T> sparse_;
};

}  // namespace dcdl
