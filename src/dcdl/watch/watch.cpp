#include "dcdl/watch/watch.hpp"

#include <algorithm>

#include "dcdl/analysis/deadlock.hpp"
#include "dcdl/device/switch.hpp"
#include "dcdl/stats/hooks.hpp"

namespace dcdl::watch {

namespace {

// Signal registry order — part of the dcdl.alerts.v1 layout; append only.
enum SignalId : std::uint32_t {
  kQueueBytes = 0,
  kQueueGrowth,
  kPauseFrac,
  kSwPauseMax,
  kPauseAgeUs,
  kWedgeQueues,
  kRiskMax,
  kRiskReachable,
  kNumSignals,
};

std::vector<std::string> signal_registry() {
  return {"queue_bytes", "queue_growth", "pause_frac",   "sw_pause_max",
          "pause_age_us", "wedge_queues", "risk_max",     "risk_reachable"};
}

/// Risk signals are re-assessed every this many ticks.
constexpr std::uint64_t kRiskEvery = 10;
/// Trailing window (ticks) of the queue_growth slope.
constexpr std::size_t kSlopeWindow = 8;

std::uint64_t queue_key(NodeId node, PortId port, ClassId cls) {
  return (static_cast<std::uint64_t>(node) << 24) |
         (static_cast<std::uint64_t>(port) << 8) |
         static_cast<std::uint64_t>(cls);
}

}  // namespace

RunWatch::RunWatch(Network& net, std::vector<FlowSpec> flows,
                   WatchOptions opts)
    : net_(net), flows_(std::move(flows)), opts_(std::move(opts)) {
  names_ = signal_registry();
  values_.assign(names_.size(), 0.0);
  max_.assign(names_.size(), 0.0);
  if (opts_.rules.empty()) opts_.rules = default_rules();
  engine_ = std::make_unique<RuleEngine>(opts_.rules, names_);
  if (opts_.on_event) engine_->set_on_event(opts_.on_event);

  const Topology& topo = net_.topo();
  node_open_.assign(topo.node_count(), 0);
  for (const NodeId sw : topo.switches()) {
    total_switch_queues_ +=
        static_cast<std::int64_t>(net_.switch_at(sw).num_ports()) *
        net_.config().num_classes;
  }
  slope_ring_.assign(kSlopeWindow, {Time::zero(), 0.0});

  // Open-pause bookkeeping rides the pfc_state hook — chained, so it
  // coexists with the probe's and the pause log's observers. It fires on
  // the thread driving the run: inline at one shard, during the barrier
  // replay at two or more.
  stats::append_hook(
      net_.trace().pfc_state,
      [this](Time t, NodeId node, PortId port, ClassId cls, bool paused) {
        const std::uint64_t key = queue_key(node, port, cls);
        if (paused) {
          if (open_xoff_.emplace(key, t).second) ++node_open_[node];
        } else {
          auto it = open_xoff_.find(key);
          if (it != open_xoff_.end()) {
            open_xoff_.erase(it);
            --node_open_[node];
          }
        }
      });
}

void RunWatch::start(Simulator& sim, Time until) {
  start_ = sim.now();
  sent_rates_.reset(net_, flows_, start_);
  // Pre-fill the slope ring with the starting occupancy so early slopes
  // measure growth from the attach instant, not from zero.
  const double q0 = static_cast<double>(net_.total_queued_bytes());
  for (auto& s : slope_ring_) s = {start_, q0};
  sampler_ = std::make_unique<probe::IntervalSampler>(
      sim, opts_.interval, [this](Time t) { tick(t); });
  sampler_->start(until);
}

void RunWatch::tick(Time t) {
  ++ticks_;
  const double queued = static_cast<double>(net_.total_queued_bytes());
  values_[kQueueBytes] = queued;

  // Trailing-window slope in bytes per millisecond: current sample vs the
  // oldest retained one.
  const auto& oldest = slope_ring_[slope_next_];
  const double dt_ms = (t - oldest.first).ms();
  values_[kQueueGrowth] =
      dt_ms > 0 ? (queued - oldest.second) / dt_ms : 0.0;
  slope_ring_[slope_next_] = {t, queued};
  slope_next_ = (slope_next_ + 1) % slope_ring_.size();

  values_[kPauseFrac] =
      total_switch_queues_ > 0
          ? static_cast<double>(open_xoff_.size()) /
                static_cast<double>(total_switch_queues_)
          : 0.0;

  // Worst single switch (ties to the lowest node id) — the pause hot spot.
  std::int64_t sw_max = 0;
  std::int64_t pause_node = -1;
  for (std::size_t n = 0; n < node_open_.size(); ++n) {
    if (node_open_[n] > sw_max) {
      sw_max = node_open_[n];
      pause_node = static_cast<std::int64_t>(n);
    }
  }
  values_[kSwPauseMax] = static_cast<double>(sw_max);

  // Oldest still-open pause span. Max over an unordered_map is
  // order-independent, so iteration order cannot leak into artifacts.
  std::int64_t oldest_ps = 0;
  for (const auto& [key, since] : open_xoff_) {
    oldest_ps = std::max(oldest_ps, (t - since).ps());
  }
  values_[kPauseAgeUs] = static_cast<double>(oldest_ps) / 1e6;

  const analysis::WaitForSnapshot snap = analysis::snapshot_wait_for(net_);
  values_[kWedgeQueues] =
      snap.has_cycle ? static_cast<double>(snap.cycle.size()) : 0.0;

  if (!flows_.empty() && ticks_ % kRiskEvery == 0) {
    // Measured per-flow rates from the hosts' cumulative sent counters —
    // the same barrier-time state-read pattern as the probe's utilization.
    sent_rates_.close_window(t);
    std::vector<Rate> measured(flows_.size());
    for (std::size_t i = 0; i < flows_.size(); ++i) {
      measured[i] = sent_rates_.rate(net_, flows_[i], i);
    }
    const analysis::RiskReport report =
        analysis::assess_deadlock_risk(net_, flows_, measured);
    risk_max_latched_ = report.max_risk;
    risk_reachable_latched_ = report.deadlock_reachable() ? 1.0 : 0.0;
  }
  values_[kRiskMax] = risk_max_latched_;
  values_[kRiskReachable] = risk_reachable_latched_;

  for (std::size_t i = 0; i < values_.size(); ++i) {
    max_[i] = std::max(max_[i], values_[i]);
  }

  hot_node_ = snap.has_cycle
                  ? static_cast<std::int64_t>(snap.cycle.front().node)
                  : pause_node;

  engine_->step(t, values_, hot_node_);
  if (opts_.on_tick) opts_.on_tick(t, *this);
}

std::vector<std::pair<std::string, double>> RunWatch::summary() const {
  std::vector<std::pair<std::string, double>> out;
  out.emplace_back("ticks", static_cast<double>(ticks_));
  out.emplace_back("fired.info",
                   static_cast<double>(engine_->fires(Severity::kInfo)));
  out.emplace_back("fired.warn",
                   static_cast<double>(engine_->fires(Severity::kWarn)));
  out.emplace_back(
      "fired.critical",
      static_cast<double>(engine_->fires(Severity::kCritical)));
  const auto first_ms = [&](Severity s) {
    const std::optional<Time> t = engine_->first_fire(s);
    return t ? t->ms() : -1.0;
  };
  out.emplace_back("first_warn_ms", first_ms(Severity::kWarn));
  out.emplace_back("first_critical_ms", first_ms(Severity::kCritical));
  out.emplace_back("suppressed",
                   static_cast<double>(engine_->suppressed()));
  out.emplace_back("dropped_events",
                   static_cast<double>(engine_->dropped_events()));
  const std::vector<AlertRule>& rules = engine_->rules();
  for (std::size_t i = 0; i < rules.size(); ++i) {
    out.emplace_back("rule." + rules[i].name + ".fires",
                     static_cast<double>(engine_->rule_fires(i)));
  }
  for (std::size_t i = 0; i < names_.size(); ++i) {
    out.emplace_back("sig." + names_[i] + ".max", max_[i]);
  }
  return out;
}

}  // namespace dcdl::watch
