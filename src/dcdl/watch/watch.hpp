// dcdl::watch — online early-warning engine.
//
// RunWatch is the live-monitoring counterpart to dcdl::probe's recorder: it
// samples the network's health at a fixed cadence *while the run executes*
// and drives the declarative alert-rule engine (rules.hpp), so a wedging
// cascade raises structured alerts with lead time over the centralized
// DeadlockMonitor's dwell-confirmed verdict.
//
// Determinism contract (identical to RunProbe's): the sampler is an
// IntervalSampler scheduled on the scenario's externally visible simulator
// — the engine's control simulator, whose events execute at window
// barriers after every device observation up to the barrier has reached
// the hooks in globally merged order — so every signal read is a pure
// function of the scenario, and the alert stream (dcdl.alerts.v1) is
// byte-identical across --jobs x --shards.
//
// Signals sampled per tick (fixed registry order — part of the
// dcdl.alerts.v1 layout):
//
//   queue_bytes     aggregate buffered bytes across the fabric
//   queue_growth    aggregate queue growth in bytes per millisecond over
//                   the trailing 8 ticks (the cascade's fuel accumulating)
//   pause_frac      open Xoff spans / total switch ingress (port, class)
//                   queues — the network-wide pause-pressure score
//   sw_pause_max    open Xoff spans on the single worst switch
//   pause_age_us    age of the oldest still-open pause span (microseconds)
//   wedge_queues    queues in the instantaneous wait-for cycle
//                   (analysis::snapshot_wait_for; 0 = no cycle)
//   risk_max        analysis::assess_deadlock_risk's max_risk, re-assessed
//                   every 10th tick with the flow rates an
//                   analysis::SentRateMeter measures (latched between)
//   risk_reachable  1 when that assessment's slack-link rule says some
//                   dependency cycle is lockable at the measured rates
//
// Hot-spot attribution: each tick identifies the "hot node" — the head of
// the wait-for cycle when one exists, else the switch holding the most
// open pause spans (ties to the lowest id) — and stamps it on alert edges.
// The rule engine keeps its default bound on retained alert edges and
// counts the rest.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dcdl/analysis/risk.hpp"
#include "dcdl/common/units.hpp"
#include "dcdl/device/network.hpp"
#include "dcdl/probe/probe.hpp"
#include "dcdl/traffic/flow.hpp"
#include "dcdl/watch/rules.hpp"

namespace dcdl::watch {

class RunWatch;

struct WatchOptions {
  /// Sampling cadence; ticks fire at start + k * interval. A campaign run
  /// (campaign::execute_run) overrides it with
  /// ExecutorOptions::probe_interval, so probe and watch share one clock.
  Time interval = probe::kSampleInterval;
  /// Alert rules; empty = default_rules().
  std::vector<AlertRule> rules;
  /// Live observers, for status lines and log streaming. on_tick fires
  /// after every sample (signals and rule states updated); on_event fires
  /// at every emitted alert edge. Both run on the thread driving the run,
  /// so a campaign with several jobs calls them concurrently.
  std::function<void(Time, const RunWatch&)> on_tick;
  std::function<void(const AlertEvent&)> on_event;
};

class RunWatch {
 public:
  /// Chains a pause observer onto `net`'s trace hooks; the watcher must
  /// outlive the network's dispatches. Construct after the network, before
  /// the run. `flows` feeds the risk re-assessment (may be empty — risk
  /// signals then stay 0).
  RunWatch(Network& net, std::vector<FlowSpec> flows, WatchOptions opts = {});
  RunWatch(const RunWatch&) = delete;
  RunWatch& operator=(const RunWatch&) = delete;

  /// Schedules the sampler on `sim`: ticks at now + k*interval up to and
  /// including `until`.
  void start(Simulator& sim, Time until);

  const std::vector<std::string>& signal_names() const { return names_; }
  /// Last sampled values, indexed like signal_names().
  const std::vector<double>& signal_values() const { return values_; }
  const RuleEngine& engine() const { return *engine_; }

  Time interval() const { return opts_.interval; }
  Time start_time() const { return start_; }
  std::uint64_t ticks() const { return ticks_; }
  /// Hot-spot node at the last tick (-1 = none).
  std::int64_t hot_node() const { return hot_node_; }

  std::optional<Time> first_fire(Severity s) const {
    return engine_->first_fire(s);
  }

  /// Deterministic scalar digest for campaign records: tick count, emitted
  /// fire counts by severity, first-fire times, dedup/overflow counters,
  /// per-rule fire counts, and per-signal maxima.
  std::vector<std::pair<std::string, double>> summary() const;

 private:
  void tick(Time t);

  Network& net_;
  std::vector<FlowSpec> flows_;
  WatchOptions opts_;

  std::vector<std::string> names_;
  std::vector<double> values_;
  std::vector<double> max_;
  std::unique_ptr<RuleEngine> engine_;

  std::unique_ptr<probe::IntervalSampler> sampler_;
  Time start_ = Time::zero();
  std::uint64_t ticks_ = 0;
  std::int64_t hot_node_ = -1;

  // Pause tracking (chained pfc_state observer).
  std::unordered_map<std::uint64_t, Time> open_xoff_;
  std::vector<std::int64_t> node_open_;  ///< open spans per node
  std::int64_t total_switch_queues_ = 0;

  // queue_growth trailing window: (time, queue_bytes) ring.
  std::vector<std::pair<Time, double>> slope_ring_;
  std::size_t slope_next_ = 0;

  // Risk re-assessment state: the measured rates' baseline.
  analysis::SentRateMeter sent_rates_;
  double risk_max_latched_ = 0;
  double risk_reachable_latched_ = 0;
};

}  // namespace dcdl::watch
