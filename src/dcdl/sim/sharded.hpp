// Sharded conservative parallel discrete-event engine — the one engine
// every Network runs on.
//
// One simulation run executes across K shards (K >= 1), each a Simulator
// owning one topology shard, coordinated by conservative time windows:
//
//   window protocol
//     T_min  = earliest pending event across all shards
//     L      = lookahead = min cross-shard latency (cut-link propagation
//              delay, clamped by the out-of-band CNP/RTT feedback delay)
//     every shard may safely execute events with key < (T_min + L, 0):
//     a cross-shard effect of any event at time s >= T_min becomes visible
//     at s + L' >= T_min + L (L' >= L by construction, serialization adds
//     strictly positive margin), i.e. never inside the window.
//
// PFC pause propagation is what makes the paper's deadlocks spread — and
// its delay is exactly this lookahead: an Xoff/Xon crossing a shard
// boundary incurs the same cut-link propagation as data, so the pause
// cascade can never outrun the window either.
//
// Every event carries a canonical (time, channel, sequence) key assigned by
// the sender, and each shard's queue fires in key order. The observable
// stream is therefore the key-sorted event sequence — a pure function of
// the scenario, byte-identical for every shard count.
//
// K = 1 (the default) runs each window inline on the calling thread: no
// worker thread, no barrier, no mailbox, and trace hooks fire directly
// from the executing event — already in key order. K >= 2 adds what
// threads need:
//   - one worker thread per shard, synchronized by two std::barriers per
//     device pass and nothing else: everything a worker reads was written
//     before the start barrier, everything the coordinator reads before the
//     end barrier. No locks, no atomics on the event path —
//     ThreadSanitizer-clean by construction;
//   - per-(src-shard, dst-shard) mailboxes: a worker posts cross-shard
//     events into its own row (single writer), the coordinator drains all
//     rows between windows in fixed (src, dst, FIFO) order;
//   - per-shard trace-record buffers, k-way merged by key at each barrier
//     and replayed into the real hooks on the coordinator thread.
//
// Control events (deadlock-monitor polls, route flaps, campaign guards,
// stats samplers) live on the *control* simulator — the one the Scenario
// owns. The engine installs itself as that simulator's run delegate, so
// run_until() on it drives the whole run; at each control timestamp Tc the
// engine finishes all device events with time <= Tc, drains the control
// events at Tc on the calling thread (devices frozen between windows —
// control code may call into them synchronously), and repeats the device
// pass for any same-time events control injected (see DESIGN.md "Sharded
// simulation architecture").
#pragma once

#include <barrier>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "dcdl/common/units.hpp"
#include "dcdl/net/packet.hpp"
#include "dcdl/sim/simulator.hpp"

namespace dcdl {

/// Declares, for the current thread, that Networks constructed while this
/// object is alive run with (up to) `shards` shards (>= 1). Scenario
/// factories don't take engine parameters; this is how callers (CLI
/// --shards, campaign executor, tests) choose a construction's shard count.
class ScopedShardRequest {
 public:
  explicit ScopedShardRequest(int shards);
  ~ScopedShardRequest();
  ScopedShardRequest(const ScopedShardRequest&) = delete;
  ScopedShardRequest& operator=(const ScopedShardRequest&) = delete;

  /// The innermost active request on this thread (1 when none is active).
  static int active();

 private:
  int prev_;
};

class ShardedEngine final : public Simulator::RunDelegate {
 public:
  /// A buffered observation (K >= 2), tagged with the ordering key of the
  /// event that emitted it. Workers append these instead of firing Trace
  /// hooks; the coordinator k-way-merges all shard buffers by
  /// (at, chan, seq, intra) and replays them into the real hooks —
  /// observers see one globally ordered stream, identical for every shard
  /// count.
  enum class RecKind : std::uint8_t {
    kPfcState,
    kQueueBytes,
    kDelivered,
    kDropped,
    kTxStart,
    kCnp,
    kDataplane,
    kHopWait,  ///< per-hop queuing delay; value = waited picoseconds
  };
  struct TraceRec {
    Time at = Time::zero();
    std::uint64_t chan = 0;
    std::uint64_t seq = 0;
    std::uint32_t intra = 0;
    RecKind kind = RecKind::kPfcState;
    Packet pkt{};  ///< kDelivered / kDropped / kTxStart
    NodeId node = 0;
    PortId port = 0;
    ClassId cls = 0;
    std::uint8_t flag = 0;    ///< pfc pause bit / drop reason / dp event
    std::int64_t value = 0;   ///< queue_bytes / dataplane detail
    FlowId flow = 0;          ///< kCnp
  };

  struct ShardStats {
    std::uint64_t executed = 0;      ///< events fired on this shard
    std::uint64_t idle_windows = 0;  ///< device passes with zero events
  };
  struct Stats {
    std::uint64_t windows = 0;        ///< conservative windows completed
    std::uint64_t device_passes = 0;  ///< barrier round-trips at K >= 2,
                                      ///< inline windows at K = 1
    std::uint64_t control_phases = 0;
    std::uint64_t cross_shard_events = 0;  ///< mailbox deliveries
    std::vector<ShardStats> shard;
  };

  /// `control` is the scenario-owned simulator; the engine installs itself
  /// as its run delegate and removes itself on destruction. `lookahead`
  /// must be > 0 when num_shards > 1 (it is unused at one shard).
  ShardedEngine(Simulator& control, int num_shards, Time lookahead);
  ~ShardedEngine() override;
  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  int num_shards() const { return static_cast<int>(shards_.size()); }
  Time lookahead() const { return lookahead_; }
  Simulator& shard_sim(std::uint32_t shard) { return *shards_[shard]; }

  /// Schedules a keyed event on `dst_shard`'s simulator. At one shard, from
  /// the destination shard's own worker, or from the coordinator (where all
  /// shards are quiescent) this is a direct schedule; from another shard's
  /// worker it is appended to the mailbox and delivered at the next window
  /// barrier. `at` must lie beyond the current window for cross-shard posts
  /// — guaranteed by the lookahead contract, asserted at drain time.
  void post(std::uint32_t dst_shard, Time at, std::uint64_t chan,
            std::uint64_t seq, EventFn&& fn) {
    if (single_ != nullptr) {
      single_->schedule_keyed(at, chan, seq, std::move(fn));
      return;
    }
    post_across(dst_shard, at, chan, seq, std::move(fn));
  }

  /// Appends a trace record to `shard`'s buffer (worker-side, K >= 2).
  void push_record(std::uint32_t shard, const TraceRec& rec) {
    records_[shard].push_back(rec);
  }

  /// Sink for merged trace records (the Network's hook replayer, K >= 2).
  void set_replay(std::function<void(const TraceRec&)> fn) {
    replay_ = std::move(fn);
  }
  /// Invoked at the start of every run_until (coordinator thread, workers
  /// idle) — the Network re-arms per-shard trace buffering to match the
  /// hooks currently attached.
  void set_on_run_start(std::function<void()> fn) {
    on_run_start_ = std::move(fn);
  }
  /// Invoked once on each worker thread before its first window (sets up
  /// thread-local state such as the Network's trace redirection).
  void set_on_worker_start(std::function<void(std::uint32_t)> fn) {
    on_worker_start_ = std::move(fn);
  }

  /// Drives the whole run to `deadline` (all simulators end at deadline).
  /// Returns false if the control simulator's stop() fired.
  bool run_until(Time deadline);
  /// Runs until every simulator is idle. Like Simulator::run(), leaves the
  /// clocks wherever the last window put them.
  void run_all();

  const Stats& stats() const { return stats_; }

  // Simulator::RunDelegate
  bool delegate_run_until(Time deadline) override {
    return run_until(deadline);
  }
  void delegate_run() override { run_all(); }
  void add_event_counts(Simulator::Counters& c) const override;

 private:
  struct RemoteEvent {
    Time at;
    std::uint64_t chan;
    std::uint64_t seq;
    EventFn fn;
  };

  void post_across(std::uint32_t dst_shard, Time at, std::uint64_t chan,
                   std::uint64_t seq, EventFn&& fn);
  void ensure_workers();
  void worker_main(std::uint32_t shard);
  /// One device pass: every shard executes events with key <
  /// (limit_at, limit_chan) — inline at one shard; at K >= 2 as one barrier
  /// round, after which the coordinator drains mailboxes and replays merged
  /// trace records.
  void device_pass(Time limit_at, std::uint64_t limit_chan);
  void drain_mailboxes();
  void replay_records();
  bool run_core(Time deadline);
  Time min_shard_event_time();

  Simulator* ctl_;
  Time lookahead_;
  std::vector<std::unique_ptr<Simulator>> shards_;
  /// The only shard's simulator when K = 1 (inline mode), else null.
  Simulator* single_ = nullptr;
  /// mail_[src * K + dst]: single writer (src worker between barriers),
  /// single reader (coordinator at the barrier).
  std::vector<std::vector<RemoteEvent>> mail_;
  std::vector<std::vector<TraceRec>> records_;
  std::vector<std::size_t> merge_cursor_;

  // Round publication: written by the coordinator before the start
  // barrier, read by workers after it (and vice versa for the results via
  // the end barrier). The barriers provide the happens-before edges.
  Time round_at_ = Time::zero();
  std::uint64_t round_chan_ = 0;
  bool quit_ = false;
  std::vector<std::uint64_t> round_executed_;

  std::optional<std::barrier<>> start_gate_;
  std::optional<std::barrier<>> end_gate_;
  std::vector<std::thread> workers_;
  bool workers_started_ = false;

  std::function<void(const TraceRec&)> replay_;
  std::function<void()> on_run_start_;
  std::function<void(std::uint32_t)> on_worker_start_;

  Stats stats_;
};

}  // namespace dcdl
