// Discrete-event simulation engine: one event queue and its clock.
//
// Two ways to order events at one timestamp:
//   - schedule_at() breaks ties by scheduling order (a monotonically
//     increasing sequence number) — control simulators (monitors,
//     samplers, route flaps) and standalone uses;
//   - schedule_keyed() orders events by an explicit (time, channel,
//     sequence) key. Channel/sequence pairs are assigned by the caller from
//     topology-derived identities (wire, per-node timer, out-of-band path),
//     so the execution order is a pure function of the scenario —
//     independent of how many shard simulators a run is split across
//     (every device event is keyed; see sim/sharded.hpp).
// schedule_at() uses channel 0, which no keyed event may use, so both
// kinds share one comparator.
//
// The queue is a time wheel of kWheelBuckets buckets, each
// 2^kBucketShift ps wide. An entry within the wheel's span is linked into
// its bucket in O(1); one beyond it waits in a small overflow heap and
// moves into the wheel as the wheel's base advances. The due bucket is
// copied out into the current run, sorted by the full key and popped from
// its end, so events fire in exactly (at, chan, seq) order. A push into
// the run's bucket is inserted into the run in order; a push before it
// (possible after a peek such as next_event_time() loaded a later bucket)
// re-anchors the wheel there first.
//
// Hot-path memory architecture (see DESIGN.md): callbacks live in a
// generation-tagged slab of fixed-size records recycled through a free
// list, the queue holds only POD (time, chan, seq, slot, gen) entries,
// and closures are stored inline via InplaceFn — steady-state scheduling,
// firing, and cancelling perform zero heap allocation and zero hashing.
// Device closures are trivially copyable, so moving one into and out of
// its slot is a fixed-size copy (InplaceFn's relocation rule). A cancelled
// event leaves a husk in the queue that is dropped when it reaches the
// front. The window loop (run_keyed_window) reads the queue front once per
// event — husk check, limit check, pop — and prefetches the next event's
// slab slot while the current callback runs.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "dcdl/common/inplace_fn.hpp"
#include "dcdl/common/units.hpp"

namespace dcdl {

/// Event callbacks are stored inline in the event slab. 64 bytes covers
/// every closure the device layer schedules (the largest captures a Packet
/// by value plus a device pointer); larger captures still work via
/// InplaceFn's heap fallback but are not allocation-free.
using EventFn = InplaceFn<void(), 64>;

/// Opaque handle for cancelling a scheduled event. {slot, generation} into
/// the event slab: a stale handle (fired, cancelled, or recycled slot)
/// carries an old generation and is rejected by an O(1) array check.
struct EventId {
  std::uint32_t slot = 0xFFFFFFFFu;
  std::uint32_t gen = 0;
  bool valid() const { return slot != 0xFFFFFFFFu; }
};

class Simulator {
 public:
  /// Channel limit meaning "every channel at this timestamp" for
  /// run_keyed_window (no real channel ever uses this value).
  static constexpr std::uint64_t kAllChannels = ~std::uint64_t{0};

  /// Lifetime counters of the engine's hot path, exposed for the telemetry
  /// layer and perfbench. All are monotonic except `pending`; none cost
  /// more than an integer bump per schedule/cancel to maintain.
  struct Counters {
    std::uint64_t scheduled = 0;  ///< schedule_at/schedule_keyed calls
    std::uint64_t executed = 0;   ///< callbacks fired
    std::uint64_t cancelled = 0;  ///< effective cancels (stale ids excluded)
    /// Times the event slab grew by a slot because the free list was empty.
    /// A grow allocates only when it exceeds the slab's capacity, which a
    /// recycled arena (ScopedArenaRecycling) keeps from the previous run.
    std::uint64_t slab_grows = 0;
    std::size_t slab_slots = 0;       ///< slab high-water (slabs never shrink)
    /// Max queue entries ever pending, cancelled husks included.
    std::size_t heap_high_water = 0;
    std::size_t pending = 0;          ///< live events right now
  };

  /// A run driver substituted for the local event loop: when set, run() /
  /// run_until() on this simulator delegate to the coordinator (the sharded
  /// engine), so code holding a Simulator& — scenario helpers, the deadlock
  /// monitor's stop-and-drain — transparently drives the whole run.
  class RunDelegate {
   public:
    virtual ~RunDelegate() = default;
    virtual bool delegate_run_until(Time deadline) = 0;
    virtual void delegate_run() = 0;
    /// Adds the event counts (scheduled, executed, cancelled, pending) of
    /// the simulators the delegate runs on this one's behalf, so counters()
    /// here reports the whole run — identically for every shard count.
    virtual void add_event_counts(Counters& c) const = 0;
  };

  Simulator();
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Time now() const { return now_; }

  /// Schedules `fn` to run at absolute time `at` (must be >= now()).
  EventId schedule_at(Time at, EventFn fn);

  /// Schedules `fn` to run `delay` after now().
  EventId schedule_in(Time delay, EventFn fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }

  /// Schedules `fn` under an explicit ordering key (at, chan, seq). Keys
  /// must be unique per simulator; `chan` must be non-zero (channel 0 is
  /// schedule_at's scheduling-order channel). Events fire in key order.
  EventId schedule_keyed(Time at, std::uint64_t chan, std::uint64_t seq,
                         EventFn&& fn);

  /// Cancels a pending event. Cancelling an already-fired or already
  /// cancelled event is a harmless no-op and never accumulates state: the
  /// slot's generation tag was bumped when it retired, so a stale id fails
  /// the O(1) generation check. This also makes cancelling an event from
  /// inside its own callback a guaranteed no-op (the slot retires *before*
  /// the callback runs).
  void cancel(EventId id);

  /// Runs until the event queue is empty or stop() is called.
  void run();

  /// Runs events with timestamp <= deadline; afterwards now() == deadline
  /// (unless stop() fired earlier). Returns false if stopped early.
  bool run_until(Time deadline);

  /// Stops the current run() / run_until() after the current event returns.
  void stop() { stopped_ = true; }

  // --- sharded-engine interface (see sim/sharded.hpp) -------------------
  // These never allocate; they are grouped so the coordination protocol
  // reads in one place.

  /// Executes every event with key < (limit_at, limit_chan); afterwards
  /// now() == max(now, limit_at). Returns the number of events executed.
  /// This is one shard's share of a conservative time window: the limit is
  /// the window boundary the coordinator proved safe.
  std::uint64_t run_keyed_window(Time limit_at, std::uint64_t limit_chan);

  /// Like run_until, but never routes through the run delegate and does not
  /// clear a pending stop() — the engine's internal control-phase drain.
  bool drain_through(Time deadline);

  /// Timestamp of the earliest live event, or Time::max() when idle.
  Time next_event_time();

  /// Fast-forwards the clock without executing anything (t < now is a
  /// no-op). Used to align shard clocks at window barriers so control-phase
  /// observations carry shard-count-invariant timestamps.
  void advance_to(Time t) {
    if (t > now_) now_ = t;
  }

  void set_run_delegate(RunDelegate* d) { delegate_ = d; }
  void clear_stop() { stopped_ = false; }

  /// Ordering key of the event currently executing (valid inside a
  /// callback). Used to tag buffered trace records for the global merge.
  std::uint64_t current_chan() const { return cur_chan_; }
  std::uint64_t current_seq() const { return cur_seq_; }
  /// Per-event intra counter: 0, 1, 2, ... for successive calls during one
  /// callback — orders multiple trace records emitted by a single event.
  std::uint32_t next_intra() { return intra_++; }
  // ----------------------------------------------------------------------

  std::uint64_t events_executed() const { return counters().executed; }
  std::size_t pending_events() const { return counters().pending; }

  /// This simulator's counters plus, through the run delegate, the event
  /// counts of the shard simulators it drives. The allocation-shape fields
  /// (slab_*, heap_high_water) stay this simulator's own.
  Counters counters() const;

  /// Diagnostic: queue entries (current run, wheel and overflow heap),
  /// including cancelled husks, which count until they reach the front.
  /// Bounded by the number of still-scheduled timestamps; the regression
  /// test for the cancel-tombstone leak asserts on this.
  std::size_t heap_entries() const { return queued_; }

  /// Diagnostic: slab slots currently allocated (live + free-listed).
  std::size_t slab_slots() const { return slab_.size(); }

  /// While an object of this type is alive on a thread, Simulators
  /// destroyed on that thread donate their slab and queue storage to a
  /// thread-local last-in-first-out stash and newly constructed ones adopt
  /// the most recent donation — so a worker that runs many simulations
  /// back-to-back (the campaign executor) pays the arena growth once
  /// instead of once per run. LIFO matters: a network's shard simulators
  /// die before the control simulator and are built after it, so each
  /// simulator gets back the arena its predecessor in the same role grew.
  /// Scopes nest; the stash is freed when the outermost scope exits. No
  /// effect on behaviour, only on allocation traffic.
  class ScopedArenaRecycling {
   public:
    ScopedArenaRecycling();
    ~ScopedArenaRecycling();
    ScopedArenaRecycling(const ScopedArenaRecycling&) = delete;
    ScopedArenaRecycling& operator=(const ScopedArenaRecycling&) = delete;
  };

 private:
  /// Queue entries are POD: the queue copies 32 bytes, never a closure.
  struct Entry {
    Time at;
    std::uint64_t chan;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };

  /// "a fires after b" on (at, chan, seq). Unkeyed events all carry chan
  /// 0, so among themselves they fire in (at, seq) order. The current run
  /// is sorted by it (latest first); the overflow heap is a std::push_heap
  /// min-heap under it.
  struct EntryAfter {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at > b.at;
      if (a.chan != b.chan) return a.chan > b.chan;
      return a.seq > b.seq;
    }
  };

  struct Slot {
    EventFn fn;
    std::uint32_t gen = 0;
    bool live = false;
  };

  /// Time-wheel geometry: 4096 buckets of 1024 ps, a span of about 4.2 us.
  /// On 1 us links at 40 Gbps a hop's transmit completion (200 ns ahead)
  /// and its wire arrival (1.2 us ahead) both land inside the span.
  static constexpr int kBucketShift = 10;
  static constexpr std::uint64_t kWheelBuckets = 4096;
  static constexpr std::uint32_t kBlockEntries = 8;
  static constexpr std::uint32_t kNoBlock = 0xFFFFFFFFu;

  /// A wheel bucket is an intrusive singly linked list of blocks drawn
  /// from one recycled pool; only its first block may be partly filled.
  /// Loading a bucket chases one link per block, not per entry.
  struct Block {
    std::uint32_t next;
    std::uint32_t count;  ///< entries used
    Entry e[kBlockEntries];
  };

  /// Recyclable storage (see ScopedArenaRecycling).
  struct Arena {
    std::vector<Slot> slab;
    std::vector<std::uint32_t> free_slots;
    std::vector<Block> blocks;
    std::vector<Entry> run;
    std::vector<Entry> overflow;
  };

  static std::uint64_t bucket_of(Time t) {
    return static_cast<std::uint64_t>(t.ps()) >> kBucketShift;
  }

  EventId push_entry(Time at, std::uint64_t chan, std::uint64_t seq,
                     EventFn&& fn);
  void enqueue(const Entry& e);
  void wheel_push(const Entry& e, std::uint64_t bucket);
  void overflow_push(const Entry& e);
  /// Empties the occupied wheel bucket `bucket`, handing its entries to
  /// `sink(first, count)` block by block and its blocks back to the pool.
  template <class Sink>
  void take_bucket(std::uint64_t bucket, Sink&& sink);
  /// Re-anchors the wheel at `bucket`, before base_ (see the file comment).
  void rewind(std::uint64_t bucket);
  /// Moves the earliest occupied bucket into the empty run, advancing
  /// base_ to it; false if the queue is empty.
  bool refill();
  /// Distance from bucket `from` to the first occupied wheel bucket at or
  /// after it, modulo the wheel; kWheelBuckets if the wheel is empty.
  std::uint64_t occupied_distance(std::uint64_t from) const;
  /// The earliest queued entry, live or husk; nullptr if the queue is
  /// empty. Valid until the next push or pop.
  const Entry* front() {
    if (run_.empty() && !refill()) return nullptr;
    return &run_.back();
  }
  void pop_front() {
    run_.pop_back();
    --queued_;
  }
  /// Drops cancelled husks off the front; returns the live front, or
  /// nullptr if the queue is empty.
  const Entry* live_front();
  bool step();  // pops and runs one live event; false if queue empty
  /// True if `e` is a cancelled event's leftover queue entry.
  bool is_husk(const Entry& e) const {
    const Slot& s = slab_[e.slot];
    return s.gen != e.gen || !s.live;
  }
  /// Retires the live event `top` (already popped) and runs it.
  void fire(const Entry& top);

  static thread_local int arena_scope_depth_;
  static thread_local std::vector<Arena>* arena_stash_;

  Time now_ = Time::zero();
  std::uint64_t next_seq_ = 1;
  std::uint64_t scheduled_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t slab_grows_ = 0;
  std::size_t heap_high_water_ = 0;
  std::size_t live_ = 0;
  std::size_t queued_ = 0;
  bool stopped_ = false;
  std::uint64_t cur_chan_ = 0;
  std::uint64_t cur_seq_ = 0;
  std::uint32_t intra_ = 0;
  RunDelegate* delegate_ = nullptr;
  std::vector<Slot> slab_;
  std::vector<std::uint32_t> free_slots_;
  /// The wheel covers buckets [base_, base_ + kWheelBuckets) while the run
  /// is empty; once base_'s bucket is loaded, the run holds every entry in
  /// buckets <= base_ and the wheel the rest of the span. Later buckets
  /// wait in overflow_.
  std::uint64_t base_ = 0;
  std::vector<Entry> run_;  ///< sorted latest first; pops from the back
  std::vector<Block> blocks_;
  std::uint32_t free_block_ = kNoBlock;
  /// Each bucket's head block, meaningful only where its occupied_ bit is
  /// set: left uninitialized, so a new simulator pays no 16 KB reset.
  std::array<std::uint32_t, kWheelBuckets> buckets_;
  std::array<std::uint64_t, kWheelBuckets / 64> occupied_{};
  std::vector<Entry> overflow_;
};

}  // namespace dcdl
