#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "dcdl/routing/route_table.hpp"

namespace dcdl {
namespace {

TEST(RouteTable, DstRouteLookup) {
  RouteTable rt;
  rt.set_dst_route(7, 3);
  EXPECT_EQ(rt.lookup(1, 7), PortId{3});
  EXPECT_FALSE(rt.lookup(1, 8).has_value());
}

TEST(RouteTable, FlowRouteOverridesDst) {
  RouteTable rt;
  rt.set_dst_route(7, 3);
  rt.set_flow_route(42, 5);
  EXPECT_EQ(rt.lookup(42, 7), PortId{5});
  EXPECT_EQ(rt.lookup(41, 7), PortId{3});
}

TEST(RouteTable, EcmpIsDeterministicPerFlow) {
  RouteTable rt;
  rt.set_dst_ecmp(9, std::vector<PortId>{0, 1, 2, 3});
  for (FlowId f = 0; f < 50; ++f) {
    const auto first = rt.lookup(f, 9);
    for (int i = 0; i < 5; ++i) EXPECT_EQ(rt.lookup(f, 9), first);
  }
}

TEST(RouteTable, EcmpSpreadsFlows) {
  RouteTable rt;
  rt.set_dst_ecmp(9, std::vector<PortId>{0, 1, 2, 3});
  std::map<PortId, int> hits;
  for (FlowId f = 0; f < 4000; ++f) hits[*rt.lookup(f, 9)]++;
  EXPECT_EQ(hits.size(), 4u);
  for (const auto& [port, n] : hits) {
    EXPECT_GT(n, 700) << "port " << port;  // expectation 1000
    EXPECT_LT(n, 1300) << "port " << port;
  }
}

TEST(RouteTable, SaltChangesEcmpSpread) {
  RouteTable a, b;
  a.set_dst_ecmp(9, std::vector<PortId>{0, 1, 2, 3});
  b.set_dst_ecmp(9, std::vector<PortId>{0, 1, 2, 3});
  a.set_ecmp_salt(1);
  b.set_ecmp_salt(2);
  int differ = 0;
  for (FlowId f = 0; f < 200; ++f) {
    if (a.lookup(f, 9) != b.lookup(f, 9)) ++differ;
  }
  EXPECT_GT(differ, 50);
}

TEST(RouteTable, ClearDstRemovesEntry) {
  RouteTable rt;
  rt.set_dst_route(7, 3);
  rt.clear_dst_route(7);
  EXPECT_FALSE(rt.lookup(0, 7).has_value());
}

TEST(RouteTable, VersionBumpsOnEveryMutation) {
  RouteTable rt;
  const auto v0 = rt.version();
  rt.set_dst_route(1, 0);
  const auto v1 = rt.version();
  rt.set_flow_route(1, 0);
  const auto v2 = rt.version();
  rt.clear_dst_route(1);
  const auto v3 = rt.version();
  EXPECT_LT(v0, v1);
  EXPECT_LT(v1, v2);
  EXPECT_LT(v2, v3);
}

TEST(RouteTable, DstCandidatesExposesEcmpSet) {
  RouteTable rt;
  rt.set_dst_ecmp(4, std::vector<PortId>{2, 5});
  ASSERT_EQ(rt.dst_candidates(4).size(), 2u);
  EXPECT_EQ(rt.dst_candidates(4)[0], PortId{2});
  EXPECT_EQ(rt.dst_candidates(4)[1], PortId{5});
  EXPECT_TRUE(rt.dst_candidates(6).empty());
}

TEST(RouteTable, IdenticalCandidateListsShareStorage) {
  // Candidate lists are interned: every destination installed with the
  // same ordered list reads the same pooled group, and route churn between
  // lists already seen (BGP re-convergence, SDN updates) adds nothing.
  RouteTable rt;
  rt.set_dst_ecmp(3, std::vector<PortId>{1, 2});
  rt.set_dst_ecmp(8, std::vector<PortId>{1, 2});
  rt.set_dst_ecmp(9, std::vector<PortId>{2, 1});
  EXPECT_EQ(rt.dst_candidates(3).data(), rt.dst_candidates(8).data());
  EXPECT_NE(rt.dst_candidates(3).data(), rt.dst_candidates(9).data());
  rt.set_dst_route(5, 4);
  const PortId* four = rt.dst_candidates(5).data();
  const PortId* pair = rt.dst_candidates(3).data();
  for (int i = 0; i < 1000; ++i) {
    rt.set_dst_route(5, i % 2 == 0 ? 0 : 4);
    rt.clear_dst_route(5);
    rt.set_dst_route(5, 4);
  }
  EXPECT_EQ(rt.dst_candidates(5).data(), four) << "churn grew the pool";
  EXPECT_EQ(rt.dst_candidates(3).data(), pair);
  EXPECT_EQ(rt.lookup(0, 5), PortId{4});
}

}  // namespace
}  // namespace dcdl
