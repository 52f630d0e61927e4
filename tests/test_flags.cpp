#include <gtest/gtest.h>

#include <vector>

#include "dcdl/common/flags.hpp"

namespace dcdl {
namespace {

Flags make(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return Flags(static_cast<int>(args.size()),
               const_cast<char**>(args.data()));
}

TEST(Flags, EqualsSyntax) {
  Flags f = make({"--rate=5.5", "--n=3", "--name=loop"});
  EXPECT_DOUBLE_EQ(f.get_double("rate", 0), 5.5);
  EXPECT_EQ(f.get_int("n", 0), 3);
  EXPECT_EQ(f.get_string("name", ""), "loop");
}

TEST(Flags, SpaceSyntax) {
  Flags f = make({"--rate", "7", "--name", "x"});
  EXPECT_EQ(f.get_int("rate", 0), 7);
  EXPECT_EQ(f.get_string("name", ""), "x");
}

TEST(Flags, BareBooleans) {
  Flags f = make({"--verbose", "--fast=false", "--slow=0"});
  EXPECT_TRUE(f.get_bool("verbose", false));
  EXPECT_FALSE(f.get_bool("fast", true));
  EXPECT_FALSE(f.get_bool("slow", true));
  EXPECT_TRUE(f.get_bool("absent", true));
}

TEST(Flags, DefaultsWhenAbsent) {
  Flags f = make({});
  EXPECT_EQ(f.get_int("n", 42), 42);
  EXPECT_DOUBLE_EQ(f.get_double("x", 1.5), 1.5);
  EXPECT_EQ(f.get_string("s", "dft"), "dft");
}

TEST(Flags, Positional) {
  Flags f = make({"alpha", "--n=1", "beta"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "alpha");
  EXPECT_EQ(f.positional()[1], "beta");
}

TEST(Flags, CheckUnusedPassesWhenAllQueried) {
  Flags f = make({"--n=1"});
  f.get_int("n", 0);
  f.check_unused();  // must not exit
}

TEST(FlagsDeath, CheckUnusedCatchesTypos) {
  Flags f = make({"--rtae=5"});
  f.get_int("rate", 0);
  EXPECT_EXIT(f.check_unused(), testing::ExitedWithCode(2), "unknown flag");
}

TEST(Flags, ShardsDefaultsToOne) {
  EXPECT_EQ(make({}).shards(), 1);
  EXPECT_EQ(make({"--shards=4"}).shards(), 4);
}

TEST(FlagsDeath, ShardsBelowOneIsRejected) {
  EXPECT_EXIT(make({"--shards=0"}).shards(), testing::ExitedWithCode(2),
              "--shards must be >= 1");
  EXPECT_EXIT(make({"--shards", "-1"}).shards(), testing::ExitedWithCode(2),
              "--shards must be >= 1");
}

TEST(Flags, SignedAndFractionalValuesParse) {
  Flags f = make({"--n", "-1", "--x=2.5", "--y", "-3"});
  EXPECT_EQ(f.get_int("n", 0), -1);
  EXPECT_DOUBLE_EQ(f.get_double("x", 0), 2.5);
  EXPECT_DOUBLE_EQ(f.get_double("y", 0), -3);
}

TEST(FlagsDeath, RepeatedFlagIsRejected) {
  // Keeping the last value would run this sweep without with_flow3.
  EXPECT_EXIT(make({"--set", "with_flow3=true", "--set", "tx_jitter_ns=0"}),
              testing::ExitedWithCode(2), "--set given more than once");
  EXPECT_EXIT(make({"--n=1", "--n", "2"}), testing::ExitedWithCode(2),
              "--n given more than once");
}

TEST(FlagsDeath, MalformedIntIsRejected) {
  EXPECT_EXIT(make({"--run_ms", "0.5"}).get_int("run_ms", 20),
              testing::ExitedWithCode(2),
              "--run_ms expects an integer, got '0.5'");
  EXPECT_EXIT(make({"--run_ms=1ms"}).get_int("run_ms", 20),
              testing::ExitedWithCode(2),
              "--run_ms expects an integer, got '1ms'");
}

TEST(FlagsDeath, MalformedDoubleIsRejected) {
  EXPECT_EXIT(make({"--inject_gbps", "abc"}).get_double("inject_gbps", 8),
              testing::ExitedWithCode(2),
              "--inject_gbps expects a finite number, got 'abc'");
}

}  // namespace
}  // namespace dcdl
