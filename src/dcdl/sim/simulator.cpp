#include "dcdl/sim/simulator.hpp"

#include <algorithm>

#include "dcdl/common/contract.hpp"
#include "dcdl/probe/profiler.hpp"

namespace dcdl {

thread_local int Simulator::arena_scope_depth_ = 0;
thread_local std::vector<Simulator::Arena>* Simulator::arena_stash_ = nullptr;

Simulator::Simulator() {
  if (arena_scope_depth_ > 0 && arena_stash_ != nullptr &&
      !arena_stash_->empty()) {
    Arena& a = arena_stash_->back();
    heap_ = std::move(a.heap);
    slab_ = std::move(a.slab);
    free_slots_ = std::move(a.free_slots);
    arena_stash_->pop_back();
  }
}

Simulator::~Simulator() {
  if (arena_scope_depth_ > 0) {
    // clear() destroys pending closures but keeps vector capacity — the
    // next Simulator on this thread starts with a warmed arena.
    heap_.clear();
    slab_.clear();
    free_slots_.clear();
    if (arena_stash_ == nullptr) arena_stash_ = new std::vector<Arena>();
    arena_stash_->push_back(
        Arena{std::move(heap_), std::move(slab_), std::move(free_slots_)});
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
  heap_.push_back(Entry{at, chan, seq, slot, s.gen});
  if (heap_.size() > heap_high_water_) heap_high_water_ = heap_.size();
  std::push_heap(heap_.begin(), heap_.end(), EntryAfter{});
  return EventId{slot, s.gen};
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
  ++s.gen;  // invalidates the heap husk and any other stale handle
  free_slots_.push_back(id.slot);
  --live_;
  ++cancelled_;
}

void Simulator::pop_top() {
  std::pop_heap(heap_.begin(), heap_.end(), EntryAfter{});
  heap_.pop_back();
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

bool Simulator::step() {
  while (!heap_.empty()) {
    const Entry top = heap_.front();
    pop_top();
    if (is_husk(top)) continue;  // cancelled husk: reclaim
    fire(top);
    return true;
  }
  return false;
}

void Simulator::skim_husks() {
  while (!heap_.empty() && is_husk(heap_.front())) pop_top();
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
    skim_husks();
    if (heap_.empty() || heap_.front().at > deadline) break;
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
  while (!heap_.empty()) {
    const Entry top = heap_.front();
    if (is_husk(top)) {
      pop_top();
      continue;
    }
    if (top.at > limit_at ||
        (top.at == limit_at && top.chan >= limit_chan)) {
      break;
    }
    pop_top();
    if (!heap_.empty()) {
      // The next top is the likeliest next event: start loading its slot
      // (closure, generation) while this one runs.
      const char* next =
          reinterpret_cast<const char*>(&slab_[heap_.front().slot]);
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
    skim_husks();
    if (heap_.empty() || heap_.front().at > deadline) break;
    step();
  }
  if (!stopped_) {
    advance_to(deadline);
    return true;
  }
  return false;
}

Time Simulator::next_event_time() {
  skim_husks();
  return heap_.empty() ? Time::max() : heap_.front().at;
}

}  // namespace dcdl
