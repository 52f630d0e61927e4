#include <gtest/gtest.h>

#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "dcdl/net/packet.hpp"
#include "dcdl/sim/simulator.hpp"

namespace dcdl {
namespace {

using namespace dcdl::literals;

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(30_ns, [&] { order.push_back(3); });
  sim.schedule_at(10_ns, [&] { order.push_back(1); });
  sim.schedule_at(20_ns, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30_ns);
  EXPECT_EQ(sim.events_executed(), 3u);
}

TEST(Simulator, TiesFireInSchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(5_ns, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator sim;
  Time fired = Time::zero();
  sim.schedule_at(100_ns, [&] {
    sim.schedule_in(50_ns, [&] { fired = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired, 150_ns);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  int fired = 0;
  const EventId id = sim.schedule_at(10_ns, [&] { ++fired; });
  sim.schedule_at(5_ns, [&] { sim.cancel(id); });
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(Simulator, CancelAfterFireIsHarmless) {
  Simulator sim;
  int fired = 0;
  const EventId id = sim.schedule_at(1_ns, [&] { ++fired; });
  sim.run();
  sim.cancel(id);  // no crash, no effect
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, RunUntilAdvancesClockToDeadline) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(10_ns, [&] { ++fired; });
  sim.schedule_at(100_ns, [&] { ++fired; });
  EXPECT_TRUE(sim.run_until(50_ns));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 50_ns);
  // The later event still fires on the next run.
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunUntilExecutesEventExactlyAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(50_ns, [&] { ++fired; });
  sim.run_until(50_ns);
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, StopHaltsRun) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1_ns, [&] {
    ++fired;
    sim.stop();
  });
  sim.schedule_at(2_ns, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  sim.run();  // resumes
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, EventsCanScheduleAtCurrentTime) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(10_ns, [&] {
    order.push_back(1);
    sim.schedule_in(Time::zero(), [&] { order.push_back(2); });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Simulator, PendingEventsAccountsForCancellations) {
  Simulator sim;
  const EventId a = sim.schedule_at(1_ns, [] {});
  sim.schedule_at(2_ns, [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.cancel(a);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(Simulator, CancelOfFiredEventLeavesNoResidue) {
  // Regression: cancelling an already-fired event used to insert its seq
  // into a tombstone set that nothing ever drained, so long-lived sims
  // (device timers follow exactly this schedule/fire/cancel pattern) grew
  // their bookkeeping without bound.
  Simulator sim;
  for (int i = 0; i < 1'000'000; ++i) {
    const EventId id = sim.schedule_in(1_ns, [] {});
    sim.run();
    sim.cancel(id);  // already fired: must be a true no-op
    if (sim.pending_events() != 0 || sim.heap_entries() != 0) {
      FAIL() << "residue after cycle " << i
             << ": pending=" << sim.pending_events()
             << " heap=" << sim.heap_entries();
    }
  }
  EXPECT_EQ(sim.events_executed(), 1'000'000u);
}

TEST(Simulator, CancelledHusksAreReclaimedOnPop) {
  // Cancel-before-fire leaves a husk in the heap; every husk must be
  // reclaimed as the clock passes it, so churn stays bounded too.
  Simulator sim;
  for (int i = 0; i < 100'000; ++i) {
    sim.schedule_in(1_ns, [] {});
    const EventId dropped = sim.schedule_in(2_ns, [] {});
    sim.cancel(dropped);
    sim.run();
    if (sim.pending_events() != 0 || sim.heap_entries() != 0) {
      FAIL() << "residue after cycle " << i
             << ": pending=" << sim.pending_events()
             << " heap=" << sim.heap_entries();
    }
  }
  EXPECT_EQ(sim.events_executed(), 100'000u);
}

TEST(Simulator, CancelAtCurrentTimeInsideRunUntil) {
  // The cancelled event sits exactly at now(); run_until must skip it and
  // reclaim the husk rather than execute it.
  Simulator sim;
  int fired = 0;
  EventId victim;
  sim.schedule_at(10_ns, [&] {
    victim = sim.schedule_in(Time::zero(), [&] { ++fired; });
    sim.cancel(victim);
  });
  sim.run_until(20_ns);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.heap_entries(), 0u);
}

TEST(Simulator, SelfCancelDuringFireIsNoOp) {
  // An event that cancels *itself* from inside its own callback. The slot
  // retires (generation bump + free-list push) before the callback runs, so
  // the cancel must be a guaranteed no-op — in particular it must not push
  // the slot onto the free list a second time, which would hand one slot to
  // two future events.
  Simulator sim;
  int fired = 0;
  int later = 0;
  EventId self;
  self = sim.schedule_at(10_ns, [&] {
    ++fired;
    sim.cancel(self);  // stale by construction: no-op
    // Likely recycles the very slot `self` pointed at (LIFO free list).
    sim.schedule_in(1_ns, [&] { ++later; });
    sim.cancel(self);  // still a no-op, even after the slot was reused
  });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(later, 1);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.heap_entries(), 0u);
}

TEST(Simulator, StaleIdDoesNotCancelRecycledSlot) {
  // A handle kept across its event's firing goes stale; once the slot is
  // recycled for a new event, cancelling through the stale handle must not
  // touch the new occupant (the generation tag disambiguates).
  Simulator sim;
  int a = 0;
  int b = 0;
  const EventId first = sim.schedule_at(1_ns, [&] { ++a; });
  sim.run();  // fires; the slot returns to the free list
  const EventId second = sim.schedule_at(2_ns, [&] { ++b; });
  ASSERT_EQ(first.slot, second.slot) << "expected LIFO slot recycling";
  ASSERT_NE(first.gen, second.gen);
  sim.cancel(first);  // stale generation: must not cancel `second`
  sim.run();
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 1);
}

TEST(Simulator, SlabStaysBoundedUnderSteadyChurn) {
  // Eight self-rescheduling timers firing a million times total: the slab
  // must stay at the in-flight high-water mark (eight), not grow with
  // lifetime churn — retired slots recycle through the free list.
  Simulator sim;
  struct Churn {
    Simulator& sim;
    std::uint64_t fired = 0;
    void tick() {
      if (++fired < 1'000'000) {
        sim.schedule_in(1_ns, [this] { tick(); });
      }
    }
  } churn{sim};
  for (int i = 0; i < 8; ++i) {
    sim.schedule_in(1_ns, [&churn] { churn.tick(); });
  }
  sim.run();
  EXPECT_GE(churn.fired, 1'000'000u);
  EXPECT_LE(sim.slab_slots(), 16u);
}

TEST(InplaceFn, TrivialClosureSurvivesRelocation) {
  // The transmit closure's shape: a pointer, a port and a Packet by value
  // (64 bytes). Trivially copyable, so every move is a buffer copy.
  int fired = 0;
  Packet pkt;
  pkt.id = 0xABCDEF;
  pkt.size_bytes = 1000;
  auto body = [out = &fired, port = PortId{3}, pkt]() {
    *out += static_cast<int>(port + pkt.size_bytes + (pkt.id == 0xABCDEF));
  };
  static_assert(std::is_trivially_copyable_v<decltype(body)>);
  static_assert(sizeof(body) == 64, "the largest device closure");
  EventFn a(body);
  EventFn b(std::move(a));
  EXPECT_FALSE(a);
  EventFn c;
  c = std::move(b);
  EXPECT_FALSE(b);
  ASSERT_TRUE(c);
  c();
  EXPECT_EQ(fired, 1004);
}

TEST(InplaceFn, NonTrivialClosureIsDestroyedExactlyOnce) {
  // A closure owning a resource still goes through its manager: moves
  // transfer ownership and the last holder releases it.
  auto owned = std::make_shared<int>(5);
  std::weak_ptr<int> watch = owned;
  {
    EventFn a([p = std::move(owned)] { ++*p; });
    EventFn b(std::move(a));
    EventFn c;
    c = std::move(b);
    c();
    ASSERT_FALSE(watch.expired());
    EXPECT_EQ(*watch.lock(), 6);
  }
  EXPECT_TRUE(watch.expired());
}

TEST(SimulatorDeath, RejectsSchedulingInThePast) {
  Simulator sim;
  sim.schedule_at(10_ns, [] {});
  sim.run();
  EXPECT_DEATH(sim.schedule_at(5_ns, [] {}), "precondition");
}

}  // namespace
}  // namespace dcdl
