// dcdl::probe — always-on time-series and latency-distribution layer.
//
// RunProbe bundles three instruments over one run:
//
//   * An IntervalSampler (kSampleInterval, 100 us, unless the caller
//     passes another interval) scheduled on the scenario's externally
//     visible simulator — the engine's control simulator, whose events
//     execute at window barriers after every device observation up to the
//     barrier has reached the hooks in (time, channel, sequence) order — so
//     every sampled value is a pure function of the scenario, and the
//     resulting series are byte-identical across --jobs x --shards.
//     Samples land in a ring-buffered SeriesStore (its default 4096 rows:
//     409.6 ms of history at 100 us; longer runs keep the most recent
//     window and report dropped_ticks in the artifact header).
//
//   * Log-bucketed LogHistograms fed from trace hooks: flow completion
//     time, per-packet sojourn, per-hop queuing delay (the new
//     Trace::hop_wait hook), PFC pause duration (Xoff -> Xon per queue),
//     and dataplane detection / recovery latency.
//
//   * Per-interval accumulators behind the series: per-link utilization
//     and drops are read as device state at each tick (the devices keep
//     cumulative per-egress tx-byte and drop counters natively, so the
//     probe adds no per-transmission hook cost); delivered bytes and the
//     active-pause count plus its time integral (mean simultaneous pauses
//     per interval — the cascade-growth trajectory the paper's Section 2
//     narrates) come from the endpoint-rate trace hooks. A topology with
//     at most 128 directed channels gets one `util.<node>:<port>` series
//     per channel; a larger one keeps the aggregate `util.max` only, so
//     artifact width stays bounded.
//
// The wall-clock self-profiler lives separately in probe/profiler.hpp;
// its output is nondeterministic and never mixes with these artifacts.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dcdl/common/units.hpp"
#include "dcdl/device/network.hpp"
#include "dcdl/probe/histogram.hpp"
#include "dcdl/probe/series.hpp"
#include "dcdl/sim/simulator.hpp"

namespace dcdl::probe {

/// Default sampling interval of the probe and the watch (dcdl_sim's and
/// dcdl_sweep's --probe_us default, ExecutorOptions::probe_interval's).
inline constexpr Time kSampleInterval{100'000'000};  // 100 us

/// One recurring sim-time callback: fires at now + interval, re-arming
/// itself until `until` (inclusive). Scheduling on a network's control
/// simulator makes each firing a window-barrier control event.
class IntervalSampler {
 public:
  IntervalSampler(Simulator& sim, Time interval, std::function<void(Time)> fn)
      : sim_(sim), interval_(interval), fn_(std::move(fn)) {}

  void start(Time until) {
    until_ = until;
    arm();
  }

 private:
  void arm() {
    const Time next = sim_.now() + interval_;
    if (next > until_) return;
    sim_.schedule_at(next, [this] {
      fn_(sim_.now());
      arm();
    });
  }

  Simulator& sim_;
  Time interval_;
  Time until_ = Time::zero();
  std::function<void(Time)> fn_;
};

class RunProbe {
 public:
  /// Chains observers onto `net`'s trace hooks; the probe must outlive the
  /// network's dispatches. Construct after the network, before the run.
  /// Ticks fire at start + k * interval.
  explicit RunProbe(Network& net, Time interval = kSampleInterval);
  RunProbe(const RunProbe&) = delete;
  RunProbe& operator=(const RunProbe&) = delete;

  /// Registers an extra gauge sampled at every tick (e.g. the hybrid
  /// engine's fluid fraction). Call before start().
  void add_gauge_series(std::string name, std::function<double()> fn);

  /// Schedules the sampler on `sim`: ticks at now + k*interval up to and
  /// including `until`.
  void start(Simulator& sim, Time until);

  /// Closes per-flow bookkeeping: records one FCT observation per flow
  /// that delivered at least one packet (last delivery minus first
  /// injection — the completion span of dcdl's open-ended flows).
  /// Idempotent; call after the run, before exporting.
  void finalize();

  const SeriesStore& series() const { return series_; }
  Time interval() const { return interval_; }
  Time start_time() const { return start_; }

  const LogHistogram& fct() const { return fct_; }
  const LogHistogram& pkt_latency() const { return pkt_latency_; }
  const LogHistogram& hop_wait() const { return hop_wait_; }
  const LogHistogram& pfc_pause() const { return pfc_pause_; }
  const LogHistogram& dp_detect() const { return dp_detect_; }
  const LogHistogram& dp_recover() const { return dp_recover_; }

  struct NamedHist {
    const char* name;
    const LogHistogram* hist;
  };
  /// Export view, fixed order (part of the dcdl.timeseries.v1 layout).
  std::vector<NamedHist> histograms() const;

  /// Deterministic scalar digest for campaign records: tick count, series
  /// aggregates, and count/mean/p50/p90/p99/p999/max (microseconds) per
  /// non-empty histogram.
  std::vector<std::pair<std::string, double>> summary() const;

 private:
  void attach_hooks();
  void tick(Time t);
  void advance_pause_integral(Time t);
  std::uint64_t total_drops() const;
  static std::uint64_t queue_key(NodeId node, PortId port, ClassId cls) {
    return (static_cast<std::uint64_t>(node) << 24) |
           (static_cast<std::uint64_t>(port) << 8) |
           static_cast<std::uint64_t>(cls);
  }

  Network& net_;
  Time interval_;
  Simulator* sim_ = nullptr;
  std::unique_ptr<IntervalSampler> sampler_;
  Time start_ = Time::zero();
  Time last_tick_ = Time::zero();
  bool finalized_ = false;

  SeriesStore series_;
  std::uint32_t queue_bytes_id_ = 0;
  std::uint32_t delivered_id_ = 0;
  std::uint32_t drops_id_ = 0;
  std::uint32_t active_pauses_id_ = 0;
  std::uint32_t paused_frac_id_ = 0;
  std::uint32_t util_max_id_ = 0;
  std::vector<std::uint32_t> util_ids_;  ///< per channel, empty when capped
  struct CustomGauge {
    std::uint32_t id;
    std::function<double()> fn;
  };
  std::vector<CustomGauge> gauges_;

  // Per-channel (node, egress port) accounting. Utilization diffs the
  // devices' cumulative tx-byte counters at each tick.
  std::vector<std::uint32_t> chan_offset_;  ///< node -> first channel index
  std::vector<std::int64_t> chan_rate_bps_;
  std::vector<std::uint64_t> last_tx_bytes_;  ///< cumulative, at last tick

  std::int64_t delivered_bytes_tick_ = 0;
  std::uint64_t last_drops_ = 0;  ///< cumulative, at last tick

  // PFC pause tracking.
  std::unordered_map<std::uint64_t, Time> open_xoff_;
  std::int64_t active_pauses_ = 0;
  std::int64_t pause_integral_ps_ = 0;  ///< sum of active * elapsed
  Time pause_integral_t_ = Time::zero();
  std::int64_t pause_integral_mark_ = 0;  ///< integral at last tick

  // Per-flow FCT bookkeeping.
  struct FlowObs {
    Time first_injected = Time::zero();
    Time last_delivered = Time::zero();
    bool any = false;
  };
  std::vector<FlowObs> flows_;

  // Dataplane latency bookkeeping.
  std::unordered_map<std::uint32_t, Time> last_confirm_;

  LogHistogram fct_;
  LogHistogram pkt_latency_;
  LogHistogram hop_wait_;
  LogHistogram pfc_pause_;
  LogHistogram dp_detect_;
  LogHistogram dp_recover_;
};

}  // namespace dcdl::probe
