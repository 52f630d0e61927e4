#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "dcdl/common/rng.hpp"
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
  // Cancel-before-fire leaves a husk in the queue; every husk must be
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

/// Drives one Simulator with a seeded random interleaving of every queue
/// operation and checks it against a reference: a sorted map of every
/// queued (at, chan, seq) key, live or cancelled. Each fired event must be
/// the reference's first live key, and heap_entries() must equal the
/// reference's size after every operation — a cancelled husk counts until
/// it reaches the front, where the engine drops it.
class QueueDifferential {
 public:
  using Key = std::tuple<std::int64_t, std::uint64_t, std::uint64_t>;

  explicit QueueDifferential(std::uint64_t seed) : rng_(seed) {}

  void run(int operations) {
    for (int op = 0; op < operations && !::testing::Test::HasFailure();
         ++op) {
      step();
      check_sizes();
    }
    sim_.run();
    check_sizes();
    EXPECT_TRUE(queued_.empty());
    EXPECT_EQ(fired_ + cancelled_, scheduled_);
    EXPECT_GT(cancelled_, 0u);
  }

 private:
  /// A delay drawn to hit every part of the queue: same-time ties, the
  /// current bucket, the wheel's span and its edge, the overflow heap, and
  /// gaps long enough to wrap the wheel many times.
  Time delay() {
    switch (rng_.uniform(8)) {
      case 0:
        return Time::zero();
      case 1:
        return Time{rng_.uniform_int(1, 1023)};
      case 2:
      case 3:
        return Time{rng_.uniform_int(1, 4'000'000)};
      case 4:
        return Time{rng_.uniform_int(4'000'000, 4'400'000)};
      case 5:
        return Time{rng_.uniform_int(4'400'000, 50'000'000)};
      case 6:  // a few shared timestamps: many ties at each
        return Time{500'000 * rng_.uniform_int(0, 3)};
      default:
        return Time{rng_.uniform_int(50'000'000, 2'000'000'000)};
    }
  }

  void schedule(Time at) {
    Key key;
    EventId id;
    if (rng_.uniform(2) == 0) {
      key = Key{at.ps(), 0, next_unkeyed_seq_++};
      id = sim_.schedule_at(at, [this, key] { fired(key); });
    } else {
      const std::uint64_t chan = 1 + rng_.uniform(5);
      key = Key{at.ps(), chan, next_keyed_seq_++};
      id = sim_.schedule_keyed(at, chan, std::get<2>(key),
                               [this, key] { fired(key); });
    }
    queued_.emplace(key, true);
    ++live_;
    ++scheduled_;
    ids_.emplace_back(id, key);
  }

  /// Cancels a random id ever issued: live, fired, or already cancelled.
  void cancel_any() {
    if (ids_.empty()) return;
    const auto& [id, key] = ids_[rng_.uniform(ids_.size())];
    sim_.cancel(id);
    const auto it = queued_.find(key);
    if (it != queued_.end() && it->second) {
      it->second = false;
      --live_;
      ++cancelled_;
    }
  }

  void fired(const Key& key) {
    ++fired_;
    EXPECT_EQ(sim_.now().ps(), std::get<0>(key));
    EXPECT_EQ(sim_.current_chan(), std::get<1>(key));
    EXPECT_EQ(sim_.current_seq(), std::get<2>(key));
    // Everything queued before the fired key must be a husk.
    while (!queued_.empty() && queued_.begin()->first < key) {
      EXPECT_FALSE(queued_.begin()->second)
          << "live event at " << std::get<0>(queued_.begin()->first)
          << " ps skipped by one at " << std::get<0>(key) << " ps";
      queued_.erase(queued_.begin());
    }
    ASSERT_FALSE(queued_.empty());
    ASSERT_EQ(queued_.begin()->first, key) << "fired a cancelled event";
    queued_.erase(queued_.begin());
    --live_;
    check_sizes();
    // Same-time follow-ups and cancels from inside a callback.
    const std::uint64_t r = rng_.uniform(8);
    if (r == 0) schedule(sim_.now());
    if (r == 1) schedule(sim_.now() + delay());
    if (r == 2) cancel_any();
  }

  /// The engine drops cancelled husks off the front when it peeks.
  void skim() {
    while (!queued_.empty() && !queued_.begin()->second) {
      queued_.erase(queued_.begin());
    }
  }

  Time next_live() {
    skim();
    return queued_.empty() ? Time::max()
                           : Time{std::get<0>(queued_.begin()->first)};
  }

  void check_sizes() {
    EXPECT_EQ(sim_.heap_entries(), queued_.size());
    EXPECT_EQ(sim_.pending_events(), live_);
  }

  void step() {
    switch (rng_.uniform(9)) {
      case 0:
      case 1:
      case 2: {
        const int n = 1 + static_cast<int>(rng_.uniform(6));
        const Time at = sim_.now() + delay();
        // Often several events at one timestamp.
        for (int i = 0; i < n; ++i) {
          schedule(rng_.uniform(2) == 0 ? at : sim_.now() + delay());
        }
        break;
      }
      case 3:
        cancel_any();
        break;
      case 4: {
        // A window limit, then a push at the clock: earlier than the top
        // the window peeked at and left queued.
        const Time limit = sim_.now() + delay();
        const std::uint64_t chans[] = {0, 3, Simulator::kAllChannels};
        sim_.run_keyed_window(limit, chans[rng_.uniform(3)]);
        skim();
        EXPECT_EQ(sim_.now(), limit);
        if (rng_.uniform(2) == 0) schedule(sim_.now());
        break;
      }
      case 5: {
        EXPECT_EQ(sim_.next_event_time(), next_live());
        // The peek may have loaded a far bucket; schedule before it.
        if (rng_.uniform(2) == 0) schedule(sim_.now() + delay());
        break;
      }
      case 6: {
        // An idle gap (up to the next live event, as the sharded engine's
        // barriers do), often many wheel spans long.
        const Time gap = sim_.now() + delay();
        const Time next = sim_.next_event_time();
        skim();
        sim_.advance_to(gap < next ? gap : next);
        break;
      }
      case 7: {
        const Time deadline = sim_.now() + delay();
        EXPECT_TRUE(sim_.run_until(deadline));
        skim();
        EXPECT_EQ(sim_.now(), deadline);
        break;
      }
      default: {
        const Time deadline = sim_.now() + delay();
        EXPECT_TRUE(sim_.drain_through(deadline));
        skim();
        break;
      }
    }
  }

  Simulator sim_;
  Rng rng_;
  std::map<Key, bool> queued_;  // key -> live
  std::vector<std::pair<EventId, Key>> ids_;
  std::size_t live_ = 0;
  std::uint64_t next_unkeyed_seq_ = 1;  // schedule_at's own tie counter
  std::uint64_t next_keyed_seq_ = 1;
  std::uint64_t scheduled_ = 0;
  std::uint64_t fired_ = 0;
  std::uint64_t cancelled_ = 0;
};

TEST(SimulatorQueue, MatchesReferenceOrderUnderRandomInterleavings) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(seed);
    QueueDifferential(seed).run(2'000);
  }
}

TEST(SimulatorQueue, RecycledArenaFiresNothingStale) {
  Simulator::ScopedArenaRecycling scope;
  int donor_fired = 0;
  {
    Simulator donor;
    // Entries in every part of the queue: ties in one bucket, the wheel,
    // the overflow heap, and a cancelled husk.
    for (int i = 0; i < 300; ++i) {
      donor.schedule_at(Time{i * 997}, [&donor_fired] { ++donor_fired; });
    }
    for (const Time at : {0_ns, 0_ns, 3_us, 20_us, 1_ms}) {
      donor.schedule_at(at, [&donor_fired] { ++donor_fired; });
    }
    donor.cancel(donor.schedule_at(2_us, [&donor_fired] { ++donor_fired; }));
    donor.run_until(100_ns);
    donor.next_event_time();  // leaves a loaded bucket behind too
    ASSERT_GT(donor.pending_events(), 0u);
  }  // destroyed with events pending: donates its arena
  const int before = donor_fired;

  Simulator sim;  // adopts the donor's arena
  EXPECT_EQ(sim.heap_entries(), 0u);
  EXPECT_EQ(sim.pending_events(), 0u);
  std::vector<int> order;
  const Time ats[] = {20_us, 0_ns, 100_ns, 3_us, 1_ms, 0_ns, 50_ns};
  for (int i = 0; i < 7; ++i) {
    sim.schedule_at(ats[i], [&order, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 5, 6, 2, 3, 0, 4}));
  EXPECT_EQ(donor_fired, before) << "an event of the destroyed simulator fired";
  EXPECT_EQ(sim.heap_entries(), 0u);
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
