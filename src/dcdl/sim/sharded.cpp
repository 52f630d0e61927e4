#include "dcdl/sim/sharded.hpp"

#include <algorithm>

#include "dcdl/common/contract.hpp"
#include "dcdl/probe/profiler.hpp"

namespace dcdl {

namespace {

thread_local int tls_shard_request = 1;
/// Shard owned by the calling thread; -1 off worker threads (coordinator,
/// setup, control phases).
thread_local int tls_worker_shard = -1;

Time saturating_add(Time a, Time b) {
  if (a == Time::max() || b == Time::max()) return Time::max();
  if (a.ps() > Time::max().ps() - b.ps()) return Time::max();
  return a + b;
}

}  // namespace

ScopedShardRequest::ScopedShardRequest(int shards) : prev_(tls_shard_request) {
  DCDL_EXPECTS(shards >= 1);
  tls_shard_request = shards;
}

ScopedShardRequest::~ScopedShardRequest() { tls_shard_request = prev_; }

int ScopedShardRequest::active() { return tls_shard_request; }

ShardedEngine::ShardedEngine(Simulator& control, int num_shards,
                             Time lookahead)
    : ctl_(&control), lookahead_(lookahead) {
  DCDL_EXPECTS(num_shards >= 1);
  DCDL_EXPECTS(num_shards == 1 || lookahead > Time::zero());
  shards_.reserve(static_cast<std::size_t>(num_shards));
  for (int i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Simulator>());
  }
  const std::size_t k = static_cast<std::size_t>(num_shards);
  stats_.shard.resize(k);
  if (k == 1) {
    single_ = shards_[0].get();
  } else {
    mail_.resize(k * k);
    records_.resize(k);
    merge_cursor_.resize(k);
    round_executed_.assign(k, 0);
  }
  ctl_->set_run_delegate(this);
}

ShardedEngine::~ShardedEngine() {
  ctl_->set_run_delegate(nullptr);
  if (workers_started_) {
    quit_ = true;
    start_gate_->arrive_and_wait();
    for (std::thread& t : workers_) t.join();
  }
}

void ShardedEngine::ensure_workers() {
  if (workers_started_ || single_ != nullptr) return;
  workers_started_ = true;
  const std::ptrdiff_t parties = num_shards() + 1;  // workers + coordinator
  start_gate_.emplace(parties);
  end_gate_.emplace(parties);
  workers_.reserve(shards_.size());
  for (std::uint32_t i = 0; i < shards_.size(); ++i) {
    workers_.emplace_back([this, i] { worker_main(i); });
  }
}

void ShardedEngine::worker_main(std::uint32_t shard) {
  tls_worker_shard = static_cast<int>(shard);
  if (on_worker_start_) on_worker_start_(shard);
  for (;;) {
    start_gate_->arrive_and_wait();
    if (quit_) break;
    round_executed_[shard] =
        shards_[shard]->run_keyed_window(round_at_, round_chan_);
    end_gate_->arrive_and_wait();
  }
}

void ShardedEngine::post_across(std::uint32_t dst_shard, Time at,
                                std::uint64_t chan, std::uint64_t seq,
                                EventFn&& fn) {
  const int from = tls_worker_shard;
  if (from < 0 || from == static_cast<int>(dst_shard)) {
    // Same shard, coordinator, or setup code: the destination simulator is
    // quiescent or owned by this thread — schedule directly.
    shards_[dst_shard]->schedule_keyed(at, chan, seq, std::move(fn));
    return;
  }
  mail_[static_cast<std::size_t>(from) * shards_.size() + dst_shard]
      .push_back(RemoteEvent{at, chan, seq, std::move(fn)});
}

void ShardedEngine::drain_mailboxes() {
  probe::Profiler::Scope span(probe::Profiler::Span::kMailboxes);
  // Fixed (src, dst, FIFO) order. Delivery order does not affect execution
  // order (events fire by key), but keeping it fixed means the slab/queue
  // layouts — and hence allocation behaviour — are deterministic too.
  const std::size_t k = shards_.size();
  for (std::size_t src = 0; src < k; ++src) {
    for (std::size_t dst = 0; dst < k; ++dst) {
      std::vector<RemoteEvent>& box = mail_[src * k + dst];
      for (RemoteEvent& ev : box) {
        // The conservative contract: a cross-shard event sent during the
        // window that just closed lands at or beyond the next window's
        // start, never inside territory the destination already executed.
        DCDL_ASSERT(ev.at >= shards_[dst]->now());
        stats_.cross_shard_events++;
        shards_[dst]->schedule_keyed(ev.at, ev.chan, ev.seq,
                                     std::move(ev.fn));
      }
      box.clear();  // keeps capacity: zero-alloc steady state
    }
  }
}

void ShardedEngine::replay_records() {
  if (!replay_) {
    for (std::vector<TraceRec>& r : records_) r.clear();
    return;
  }
  probe::Profiler::Scope span(probe::Profiler::Span::kReplay);
  for (const std::vector<TraceRec>& r : records_) span.add_units(r.size());
  // K-way merge by (at, chan, seq, intra). Each shard's buffer is already
  // sorted by that key: a shard executes its events in key order, and
  // same-timestamp events scheduled *during* the window always target a
  // channel >= the one executing (self > oob > wire, and every inter-node
  // latency is strictly positive), so append order == key order.
  const std::size_t k = records_.size();
  std::fill(merge_cursor_.begin(), merge_cursor_.end(), std::size_t{0});
  for (;;) {
    std::size_t best = k;
    for (std::size_t s = 0; s < k; ++s) {
      if (merge_cursor_[s] >= records_[s].size()) continue;
      if (best == k) {
        best = s;
        continue;
      }
      const TraceRec& a = records_[s][merge_cursor_[s]];
      const TraceRec& b = records_[best][merge_cursor_[best]];
      if (a.at != b.at ? a.at < b.at
          : a.chan != b.chan ? a.chan < b.chan
          : a.seq != b.seq   ? a.seq < b.seq
                             : a.intra < b.intra) {
        best = s;
      }
    }
    if (best == k) break;
    replay_(records_[best][merge_cursor_[best]]);
    ++merge_cursor_[best];
  }
  for (std::vector<TraceRec>& r : records_) r.clear();
}

void ShardedEngine::device_pass(Time limit_at, std::uint64_t limit_chan) {
  stats_.device_passes++;
  if (single_ != nullptr) {
    // One shard: the window runs right here, and its trace hooks already
    // fired from the events themselves, in key order.
    probe::Profiler::Scope span(probe::Profiler::Span::kEventLoop);
    const std::uint64_t n = single_->run_keyed_window(limit_at, limit_chan);
    span.add_units(n);
    stats_.shard[0].executed += n;
    if (n == 0) stats_.shard[0].idle_windows++;
    return;
  }
  probe::Profiler::Scope pass(probe::Profiler::Span::kDevicePass);
  round_at_ = limit_at;
  round_chan_ = limit_chan;
  {
    // Coordinator-side view: between the two gates the workers own the
    // window, so this span is "waiting on device execution".
    probe::Profiler::Scope wait(probe::Profiler::Span::kBarrierWait);
    start_gate_->arrive_and_wait();
    end_gate_->arrive_and_wait();
  }
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    total += round_executed_[s];
    stats_.shard[s].executed += round_executed_[s];
    if (round_executed_[s] == 0) stats_.shard[s].idle_windows++;
  }
  pass.add_units(total);
  drain_mailboxes();
  replay_records();
}

Time ShardedEngine::min_shard_event_time() {
  Time tmin = Time::max();
  for (const std::unique_ptr<Simulator>& s : shards_) {
    tmin = std::min(tmin, s->next_event_time());
  }
  return tmin;
}

bool ShardedEngine::run_core(Time deadline) {
  ensure_workers();
  if (on_run_start_) on_run_start_();
  ctl_->clear_stop();
  for (;;) {
    const Time tmin = min_shard_event_time();
    const Time tctl = ctl_->next_event_time();
    const Time first = std::min(tmin, tctl);
    if (first == Time::max() || first > deadline) break;
    const Time horizon = saturating_add(tmin, lookahead_);
    if (tctl <= deadline && tctl < horizon) {
      // Control phase at Tc = tctl. Finish all device events with time
      // <= Tc first (their buffered observations replay before control
      // runs, exactly as in a sequential execution), then drain control on
      // this thread, then re-pass for any device events control injected
      // at Tc — repeat until quiescent at Tc.
      device_pass(tctl, Simulator::kAllChannels);
      stats_.windows++;
      for (;;) {
        bool control_ok;
        {
          probe::Profiler::Scope ctl_span(
              probe::Profiler::Span::kControlPhase);
          control_ok = ctl_->drain_through(tctl);
        }
        if (!control_ok) {
          // stop() fired inside a control event (deadlock monitor halting
          // the run, campaign guard tripping).
          return false;
        }
        stats_.control_phases++;
        if (min_shard_event_time() > tctl) break;
        device_pass(tctl, Simulator::kAllChannels);
      }
    } else if (horizon <= deadline && horizon != Time::max()) {
      // Plain conservative window [tmin, horizon): every shard executes
      // keys < (horizon, 0) — boundary exclusive, so an event exactly at
      // the horizon (the earliest possible cross-shard delivery) is safe.
      device_pass(horizon, 0);
      stats_.windows++;
    } else {
      // Tail window: nothing (device or control) beyond `first` needs
      // cross-window coordination before the deadline.
      device_pass(deadline, Simulator::kAllChannels);
      stats_.windows++;
    }
  }
  return true;
}

bool ShardedEngine::run_until(Time deadline) {
  if (!run_core(deadline)) return false;
  for (const std::unique_ptr<Simulator>& s : shards_) s->advance_to(deadline);
  ctl_->advance_to(deadline);
  return true;
}

void ShardedEngine::run_all() { run_core(Time::max()); }

void ShardedEngine::add_event_counts(Simulator::Counters& c) const {
  for (const std::unique_ptr<Simulator>& s : shards_) {
    const Simulator::Counters sc = s->counters();
    c.scheduled += sc.scheduled;
    c.executed += sc.executed;
    c.cancelled += sc.cancelled;
    c.pending += sc.pending;
  }
}

}  // namespace dcdl
