// FlowMap: the open-addressed flow-id table behind host sink statistics and
// per-flow route overrides. Every 32-bit id is a legal key, the table stays
// at most half full, and growth rehashes without losing a value.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "dcdl/common/flow_map.hpp"

namespace dcdl {
namespace {

struct Stats {
  std::int64_t bytes = 0;
  std::uint64_t packets = 0;
};

bool power_of_two(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

TEST(FlowMap, IdZeroIsAnOrdinaryKey) {
  FlowMap<Stats> m;
  m.at_or_insert(0).bytes = 7;
  ASSERT_NE(m.find(0), nullptr);
  EXPECT_EQ(m.find(0)->bytes, 7);
  EXPECT_EQ(m.find(1), nullptr);
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlowMap, IdsAroundTheOldDenseCutover) {
  // 65536 was where the former dense vector handed over to a hash map.
  const std::vector<FlowId> ids = {1, 64, 65534, 65535, 65536, 65537, 131072};
  FlowMap<Stats> m;
  for (const FlowId id : ids) m.at_or_insert(id).bytes = id + 1;
  for (const FlowId id : ids) {
    ASSERT_NE(m.find(id), nullptr) << id;
    EXPECT_EQ(m.find(id)->bytes, static_cast<std::int64_t>(id) + 1) << id;
  }
  EXPECT_EQ(m.find(65533), nullptr);
  EXPECT_EQ(m.find(65538), nullptr);
  EXPECT_EQ(m.size(), ids.size());
}

TEST(FlowMap, IdsNearUint32Max) {
  constexpr FlowId kMax = std::numeric_limits<FlowId>::max();
  FlowMap<Stats> m;
  m.at_or_insert(kMax).packets = 1;
  m.at_or_insert(kMax - 1).packets = 2;
  m.at_or_insert(0).packets = 3;
  ASSERT_NE(m.find(kMax), nullptr);
  EXPECT_EQ(m.find(kMax)->packets, 1u);
  EXPECT_EQ(m.find(kMax - 1)->packets, 2u);
  EXPECT_EQ(m.find(0)->packets, 3u);
  EXPECT_EQ(m.find(kMax - 2), nullptr);
}

TEST(FlowMap, RepeatedInsertReturnsTheSameValue) {
  FlowMap<Stats> m;
  m.at_or_insert(42).bytes += 1000;
  m.at_or_insert(42).bytes += 1000;
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(m.find(42)->bytes, 2000);
}

TEST(FlowMap, GrowthThroughSeveralRehashesKeepsEveryValue) {
  FlowMap<Stats> m;
  std::vector<FlowId> ids;
  std::size_t rehashes = 0;
  for (FlowId i = 0; i < 3000; ++i) {
    // Strided and sparse: neighbouring ids, large gaps, and wrap-around.
    const FlowId id = i * 2654435761u;
    const std::size_t cap = m.capacity();
    Stats& s = m.at_or_insert(id);
    s.bytes = static_cast<std::int64_t>(i);
    s.packets = i + 1;
    ids.push_back(id);
    if (m.capacity() != cap) {
      ++rehashes;
      // Every value survives each rehash.
      for (std::size_t j = 0; j < ids.size(); ++j) {
        const Stats* got = m.find(ids[j]);
        ASSERT_NE(got, nullptr) << "id " << ids[j] << " lost at rehash "
                                << rehashes;
        ASSERT_EQ(got->bytes, static_cast<std::int64_t>(j));
        ASSERT_EQ(got->packets, j + 1);
      }
    }
    ASSERT_TRUE(power_of_two(m.capacity()));
    ASSERT_LE(2 * m.size(), m.capacity()) << "more than half full";
  }
  EXPECT_GE(rehashes, 8u);
  EXPECT_EQ(m.size(), ids.size());
}

TEST(FlowMap, FindAbsentOnEmptyAndOnFullMap) {
  FlowMap<Stats> m;
  EXPECT_EQ(m.find(0), nullptr);
  EXPECT_EQ(m.find(5), nullptr);
  EXPECT_EQ(m.capacity(), 0u) << "an empty map allocates nothing";

  // Fill to the load limit: capacity / 2 entries, no growth yet.
  m.at_or_insert(1);
  const std::size_t cap = m.capacity();
  for (FlowId id = 2; m.size() < cap / 2; ++id) m.at_or_insert(id);
  ASSERT_EQ(m.capacity(), cap);
  ASSERT_EQ(2 * m.size(), cap);
  for (FlowId id = 1000; id < 1100; ++id) {
    EXPECT_EQ(m.find(id), nullptr) << id;
  }
  EXPECT_EQ(m.find(std::numeric_limits<FlowId>::max()), nullptr);
}

}  // namespace
}  // namespace dcdl
