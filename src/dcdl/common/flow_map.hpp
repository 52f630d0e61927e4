// Flow-id keyed map for the packet path (host sink statistics, per-flow
// route overrides).
//
// One open-addressed table: keys and values live together in one array of
// power-of-two capacity, probed linearly from a multiplicative hash of the
// id and kept at most half full, so a lookup touches one or two adjacent
// entries and a probe always ends at an empty one. Memory follows the
// number of flows stored, not the largest id: a host that sinks one flow
// holds 8 entries whatever that flow's id. Every 32-bit id is legal; an
// empty map allocates nothing and finds nothing without hashing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dcdl/net/packet.hpp"

namespace dcdl {

template <typename T>
class FlowMap {
 public:
  /// Value for `id`, default-constructing on first access. The reference
  /// is valid until the next insertion of a new id.
  T& at_or_insert(FlowId id) {
    if (2 * (size_ + 1) > entries_.size()) grow();
    Entry& e = entries_[probe(id)];
    if (!e.used) {
      e.used = true;
      e.key = id;
      ++size_;
    }
    return e.value;
  }

  /// Value stored for `id`, or nullptr if `id` was never inserted.
  const T* find(FlowId id) const {
    if (size_ == 0) return nullptr;
    const Entry& e = entries_[probe(id)];
    return e.used ? &e.value : nullptr;
  }

  std::size_t size() const { return size_; }
  /// Entries allocated (a power of two, at least twice size(), or 0).
  std::size_t capacity() const { return entries_.size(); }

 private:
  struct Entry {
    FlowId key = 0;
    bool used = false;
    T value{};
  };

  static constexpr std::size_t kMinCapacity = 8;

  /// Index of `id`'s entry, or of the empty entry where it would go.
  std::size_t probe(FlowId id) const {
    const std::size_t mask = entries_.size() - 1;
    std::size_t i = static_cast<std::size_t>(
        (std::uint64_t{id} * 0x9E3779B97F4A7C15ULL) >> shift_);
    while (entries_[i].used && entries_[i].key != id) i = (i + 1) & mask;
    return i;
  }

  void grow() {
    std::vector<Entry> old = std::move(entries_);
    const std::size_t cap = old.empty() ? kMinCapacity : 2 * old.size();
    entries_.assign(cap, Entry{});
    shift_ = 64;
    for (std::size_t c = cap; c > 1; c >>= 1) --shift_;
    for (Entry& e : old) {
      if (e.used) entries_[probe(e.key)] = std::move(e);
    }
  }

  std::size_t size_ = 0;  ///< first: find() on an empty map reads only this
  /// 64 - log2(capacity): the hash keeps the product's top bits.
  unsigned shift_ = 64;
  std::vector<Entry> entries_;
};

}  // namespace dcdl
