#include "dcdl/sim/simulator.hpp"

#include <algorithm>
#include <bit>

#include "dcdl/common/contract.hpp"
#include "dcdl/probe/profiler.hpp"

namespace dcdl {

thread_local int Simulator::arena_scope_depth_ = 0;
thread_local std::vector<Simulator::Arena>* Simulator::arena_stash_ = nullptr;

Simulator::Simulator() {
  if (arena_scope_depth_ > 0 && arena_stash_ != nullptr &&
      !arena_stash_->empty()) {
    Arena& a = arena_stash_->back();
    slab_ = std::move(a.slab);
    free_slots_ = std::move(a.free_slots);
    blocks_ = std::move(a.blocks);
    run_ = std::move(a.run);
    overflow_ = std::move(a.overflow);
    arena_stash_->pop_back();
  }
}

Simulator::~Simulator() {
  if (arena_scope_depth_ > 0) {
    // clear() destroys pending closures but keeps vector capacity — the
    // next Simulator on this thread starts with a warmed arena.
    slab_.clear();
    free_slots_.clear();
    blocks_.clear();
    run_.clear();
    overflow_.clear();
    if (arena_stash_ == nullptr) arena_stash_ = new std::vector<Arena>();
    arena_stash_->push_back(Arena{std::move(slab_), std::move(free_slots_),
                                  std::move(blocks_), std::move(run_),
                                  std::move(overflow_)});
  }
}

Simulator::ScopedArenaRecycling::ScopedArenaRecycling() {
  ++arena_scope_depth_;
}

Simulator::ScopedArenaRecycling::~ScopedArenaRecycling() {
  if (--arena_scope_depth_ == 0) {
    delete arena_stash_;
    arena_stash_ = nullptr;
  }
}

Simulator::Counters Simulator::counters() const {
  Counters c{scheduled_,   executed_,        cancelled_, slab_grows_,
             slab_.size(), heap_high_water_, live_};
  if (delegate_ != nullptr) delegate_->add_event_counts(c);
  return c;
}

EventId Simulator::push_entry(Time at, std::uint64_t chan, std::uint64_t seq,
                              EventFn&& fn) {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.emplace_back();
    ++slab_grows_;
  }
  Slot& s = slab_[slot];
  s.fn = std::move(fn);
  s.live = true;
  ++live_;
  ++scheduled_;
  enqueue(Entry{at, chan, seq, slot, s.gen});
  if (++queued_ > heap_high_water_) heap_high_water_ = queued_;
  return EventId{slot, s.gen};
}

void Simulator::enqueue(const Entry& e) {
  const std::uint64_t b = bucket_of(e.at);
  if (b < base_) rewind(b);
  if (b == base_ && !run_.empty()) {
    // Into the loaded bucket: same-time pushes land near the run's back,
    // so the insert moves few entries.
    run_.insert(std::upper_bound(run_.begin(), run_.end(), e, EntryAfter{}),
                e);
  } else if (b - base_ < kWheelBuckets) {
    wheel_push(e, b);
  } else {
    overflow_push(e);
  }
}

void Simulator::wheel_push(const Entry& e, std::uint64_t bucket) {
  const std::size_t i = bucket & (kWheelBuckets - 1);
  std::uint64_t& word = occupied_[i >> 6];
  const std::uint64_t bit = std::uint64_t{1} << (i & 63);
  if ((word & bit) == 0 || blocks_[buckets_[i]].count == kBlockEntries) {
    std::uint32_t n = free_block_;
    if (n != kNoBlock) {
      free_block_ = blocks_[n].next;
    } else {
      n = static_cast<std::uint32_t>(blocks_.size());
      blocks_.emplace_back();
    }
    blocks_[n].next = (word & bit) != 0 ? buckets_[i] : kNoBlock;
    blocks_[n].count = 0;
    buckets_[i] = n;
    word |= bit;
  }
  Block& blk = blocks_[buckets_[i]];
  blk.e[blk.count++] = e;
}

void Simulator::overflow_push(const Entry& e) {
  overflow_.push_back(e);
  std::push_heap(overflow_.begin(), overflow_.end(), EntryAfter{});
}

template <class Sink>
void Simulator::take_bucket(std::uint64_t bucket, Sink&& sink) {
  const std::size_t i = bucket & (kWheelBuckets - 1);
  std::uint32_t n = buckets_[i];
  for (;;) {
    const Block& blk = blocks_[n];
    if (blk.next != kNoBlock) __builtin_prefetch(&blocks_[blk.next]);
    sink(blk.e, blk.count);
    if (blk.next == kNoBlock) break;
    n = blk.next;
  }
  blocks_[n].next = free_block_;
  free_block_ = buckets_[i];
  occupied_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
}

std::uint64_t Simulator::occupied_distance(std::uint64_t from) const {
  constexpr std::size_t kWords = kWheelBuckets / 64;
  const std::size_t i = from & (kWheelBuckets - 1);
  std::size_t w = i >> 6;
  // `from`'s word from its bit up, the other words in order, then the
  // first word again, whose low bits are the last buckets of the span.
  std::uint64_t bits = occupied_[w] & (~std::uint64_t{0} << (i & 63));
  for (std::size_t k = 0; k <= kWords; ++k) {
    if (bits != 0) {
      const std::size_t slot =
          w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      return (slot - i) & (kWheelBuckets - 1);
    }
    w = (w + 1) % kWords;
    bits = occupied_[w];
  }
  return kWheelBuckets;
}

void Simulator::rewind(std::uint64_t bucket) {
  const std::uint64_t old = base_;
  base_ = bucket;
  // Buckets [bucket + span, old + span) fall beyond the narrower span;
  // they sit in the slots of buckets [bucket, old).
  const std::uint64_t moved = std::min(old - bucket, kWheelBuckets);
  for (std::uint64_t d; (d = occupied_distance(bucket)) < moved;) {
    take_bucket(bucket + d, [this](const Entry* e, std::uint32_t count) {
      for (std::uint32_t k = 0; k < count; ++k) overflow_push(e[k]);
    });
  }
  // The run's entries after `bucket` (its latest, at the front) go back
  // to the wheel, or beyond the span to the overflow heap.
  std::size_t k = 0;
  while (k < run_.size() && bucket_of(run_[k].at) > bucket) ++k;
  for (std::size_t j = 0; j < k; ++j) {
    const std::uint64_t b = bucket_of(run_[j].at);
    if (b - bucket < kWheelBuckets) {
      wheel_push(run_[j], b);
    } else {
      overflow_push(run_[j]);
    }
  }
  run_.erase(run_.begin(), run_.begin() + static_cast<std::ptrdiff_t>(k));
}

bool Simulator::refill() {
  if (queued_ == 0) return false;
  if (queued_ > overflow_.size()) {
    base_ += occupied_distance(base_);
  } else {
    base_ = bucket_of(overflow_.front().at);
  }
  // Overflow entries the advanced span now covers move into the wheel.
  while (!overflow_.empty() &&
         bucket_of(overflow_.front().at) < base_ + kWheelBuckets) {
    const Entry e = overflow_.front();
    std::pop_heap(overflow_.begin(), overflow_.end(), EntryAfter{});
    overflow_.pop_back();
    wheel_push(e, bucket_of(e.at));
  }
  take_bucket(base_, [this](const Entry* e, std::uint32_t count) {
    run_.insert(run_.end(), e, e + count);
  });
  std::sort(run_.begin(), run_.end(), EntryAfter{});
  return true;
}

EventId Simulator::schedule_at(Time at, EventFn fn) {
  DCDL_EXPECTS(at >= now_);
  DCDL_EXPECTS(static_cast<bool>(fn));
  return push_entry(at, /*chan=*/0, next_seq_++, std::move(fn));
}

EventId Simulator::schedule_keyed(Time at, std::uint64_t chan,
                                  std::uint64_t seq, EventFn&& fn) {
  DCDL_EXPECTS(at >= now_);
  DCDL_EXPECTS(chan != 0 && chan != kAllChannels);
  DCDL_EXPECTS(static_cast<bool>(fn));
  return push_entry(at, chan, seq, std::move(fn));
}

void Simulator::cancel(EventId id) {
  if (!id.valid() || id.slot >= slab_.size()) return;
  Slot& s = slab_[id.slot];
  if (s.gen != id.gen || !s.live) return;  // fired/cancelled/recycled: no-op
  s.fn.reset();
  s.live = false;
  ++s.gen;  // invalidates the queued husk and any other stale handle
  free_slots_.push_back(id.slot);
  --live_;
  ++cancelled_;
}

void Simulator::fire(const Entry& top) {
  DCDL_ASSERT(top.at >= now_);
  Slot& s = slab_[top.slot];
  // Retire the slot *before* firing: a cancel() of this event from inside
  // its own callback sees a bumped generation and is a no-op, and the
  // callback may immediately reschedule into the recycled slot.
  EventFn fn = std::move(s.fn);
  s.live = false;
  ++s.gen;
  free_slots_.push_back(top.slot);
  --live_;
  now_ = top.at;
  cur_chan_ = top.chan;
  cur_seq_ = top.seq;
  intra_ = 0;
  ++executed_;
  fn();
}

const Simulator::Entry* Simulator::live_front() {
  const Entry* f;
  while ((f = front()) != nullptr && is_husk(*f)) pop_front();
  return f;
}

bool Simulator::step() {
  const Entry* f = live_front();
  if (f == nullptr) return false;
  const Entry top = *f;
  pop_front();
  fire(top);
  return true;
}

void Simulator::run() {
  if (delegate_ != nullptr) {
    delegate_->delegate_run();
    return;
  }
  stopped_ = false;
  // One span per drain, not per event: the profiler's contract is no
  // per-event clock reads (see probe/profiler.hpp). The executed delta
  // rides along so ns/event is still derivable.
  probe::Profiler::Scope span(probe::Profiler::Span::kEventLoop);
  const std::uint64_t before = executed_;
  while (!stopped_ && step()) {
  }
  span.add_units(executed_ - before);
}

bool Simulator::run_until(Time deadline) {
  DCDL_EXPECTS(deadline >= now_);
  if (delegate_ != nullptr) return delegate_->delegate_run_until(deadline);
  stopped_ = false;
  probe::Profiler::Scope span(probe::Profiler::Span::kEventLoop);
  const std::uint64_t before = executed_;
  while (!stopped_) {
    // Peek past cancelled husks without executing live entries beyond the
    // deadline.
    const Entry* f = live_front();
    if (f == nullptr || f->at > deadline) break;
    step();
  }
  span.add_units(executed_ - before);
  if (!stopped_) {
    now_ = deadline;
    return true;
  }
  return false;
}

std::uint64_t Simulator::run_keyed_window(Time limit_at,
                                          std::uint64_t limit_chan) {
  std::uint64_t executed = 0;
  while (const Entry* f = front()) {
    const Entry top = *f;
    if (is_husk(top)) {
      pop_front();
      continue;
    }
    if (top.at > limit_at ||
        (top.at == limit_at && top.chan >= limit_chan)) {
      break;
    }
    pop_front();
    if (!run_.empty()) {
      // The run's next entry is the likeliest next event: start loading
      // its slot (closure, generation) while this one runs.
      const char* next =
          reinterpret_cast<const char*>(&slab_[run_.back().slot]);
      __builtin_prefetch(next);
      __builtin_prefetch(next + sizeof(Slot) - 1);
    }
    fire(top);
    ++executed;
  }
  advance_to(limit_at);
  return executed;
}

bool Simulator::drain_through(Time deadline) {
  while (!stopped_) {
    const Entry* f = live_front();
    if (f == nullptr || f->at > deadline) break;
    step();
  }
  if (!stopped_) {
    advance_to(deadline);
    return true;
  }
  return false;
}

Time Simulator::next_event_time() {
  const Entry* f = live_front();
  return f == nullptr ? Time::max() : f->at;
}

}  // namespace dcdl
