#include "dcdl/probe/probe.hpp"

#include <algorithm>

#include "dcdl/stats/hooks.hpp"

namespace dcdl::probe {

namespace {

/// Topologies with more directed channels than this keep `util.max` only.
constexpr std::size_t kMaxUtilSeries = 128;

std::string channel_name(const Topology& topo, NodeId node, PortId port) {
  const NodeSpec& spec = topo.node(node);
  std::string base =
      spec.name.empty() ? "n" + std::to_string(node) : spec.name;
  return "util." + base + ":" + std::to_string(port);
}

}  // namespace

RunProbe::RunProbe(Network& net, Time interval)
    : net_(net), interval_(interval) {
  const Topology& topo = net_.topo();

  // Dense (node, egress port) -> channel index table.
  chan_offset_.resize(topo.node_count() + 1, 0);
  for (std::size_t n = 0; n < topo.node_count(); ++n) {
    chan_offset_[n + 1] =
        chan_offset_[n] + static_cast<std::uint32_t>(topo.degree(
                              static_cast<NodeId>(n)));
  }
  const std::size_t channels = chan_offset_.back();
  chan_rate_bps_.resize(channels, 1);
  last_tx_bytes_.resize(channels, 0);
  for (std::size_t n = 0; n < topo.node_count(); ++n) {
    const NodeId node = static_cast<NodeId>(n);
    for (PortId p = 0; p < topo.degree(node); ++p) {
      const std::int64_t bps = topo.link(topo.peer(node, p).link).rate.bps();
      chan_rate_bps_[chan_offset_[n] + p] = bps > 0 ? bps : 1;
    }
  }

  // Series layout. Registration order is the artifact column order.
  queue_bytes_id_ = series_.add("queue_bytes");
  delivered_id_ = series_.add("delivered_bytes");
  drops_id_ = series_.add("drops");
  active_pauses_id_ = series_.add("pfc.active_pauses");
  paused_frac_id_ = series_.add("pfc.paused_frac");
  util_max_id_ = series_.add("util.max");
  if (channels <= kMaxUtilSeries) {
    util_ids_.reserve(channels);
    for (std::size_t n = 0; n < topo.node_count(); ++n) {
      const NodeId node = static_cast<NodeId>(n);
      for (PortId p = 0; p < topo.degree(node); ++p) {
        util_ids_.push_back(series_.add(channel_name(topo, node, p)));
      }
    }
  }

  flows_.reserve(256);
  attach_hooks();
}

void RunProbe::attach_hooks() {
  Trace& tr = net_.trace();

  stats::append_hook(
      tr.delivered, [this](Time t, const Packet& pkt) {
        delivered_bytes_tick_ += pkt.size_bytes;
        pkt_latency_.record((t - pkt.injected_at).ps());
        if (pkt.flow >= flows_.size()) flows_.resize(pkt.flow + 1);
        FlowObs& f = flows_[pkt.flow];
        if (!f.any || pkt.injected_at < f.first_injected) {
          f.first_injected = pkt.injected_at;
        }
        f.last_delivered = t;
        f.any = true;
      });

  // Drops and per-link tx bytes are deliberately NOT hooked: the devices
  // maintain those counters natively, and tick() diffs them as state reads
  // — the same barrier-time pattern as total_queued_bytes(), keeping the
  // probe off the per-transmission hot path entirely.

  stats::append_hook(
      tr.hop_wait,
      [this](Time, NodeId, PortId, ClassId, Time waited) {
        hop_wait_.record(waited.ps());
      });

  stats::append_hook(
      tr.pfc_state,
      [this](Time t, NodeId node, PortId port, ClassId cls, bool paused) {
        advance_pause_integral(t);
        const std::uint64_t key = queue_key(node, port, cls);
        if (paused) {
          if (open_xoff_.emplace(key, t).second) ++active_pauses_;
        } else {
          auto it = open_xoff_.find(key);
          if (it != open_xoff_.end()) {
            pfc_pause_.record((t - it->second).ps());
            open_xoff_.erase(it);
            --active_pauses_;
          }
        }
      });

  stats::append_hook(
      tr.dataplane, [this](Time t, NodeId node, dataplane::DataplaneEvent ev,
                           ClassId, std::uint64_t) {
        if (ev == dataplane::DataplaneEvent::kConfirmed) {
          dp_detect_.record((t - start_).ps());
          last_confirm_[node] = t;
        } else if (ev == dataplane::DataplaneEvent::kRecovered) {
          auto it = last_confirm_.find(node);
          if (it != last_confirm_.end()) {
            dp_recover_.record((t - it->second).ps());
          }
        }
      });
}

void RunProbe::add_gauge_series(std::string name,
                                std::function<double()> fn) {
  gauges_.push_back(CustomGauge{series_.add(std::move(name)), std::move(fn)});
}

void RunProbe::start(Simulator& sim, Time until) {
  sim_ = &sim;
  start_ = sim.now();
  last_tick_ = start_;
  pause_integral_t_ = start_;
  // Baseline the cumulative device counters so a probe attached to a warm
  // network reports per-interval deltas from here, not from time zero.
  last_drops_ = total_drops();
  const Topology& topo = net_.topo();
  std::size_t c = 0;
  for (std::size_t n = 0; n < topo.node_count(); ++n) {
    const NodeId node = static_cast<NodeId>(n);
    for (PortId p = 0; p < topo.degree(node); ++p) {
      last_tx_bytes_[c++] = net_.device(node).tx_byte_count(p);
    }
  }
  sampler_ = std::make_unique<IntervalSampler>(
      sim, interval_, [this](Time t) { tick(t); });
  sampler_->start(until);
}

void RunProbe::advance_pause_integral(Time t) {
  pause_integral_ps_ += active_pauses_ * (t - pause_integral_t_).ps();
  pause_integral_t_ = t;
}

void RunProbe::tick(Time t) {
  advance_pause_integral(t);
  const std::int64_t dt_ps = (t - last_tick_).ps();

  series_.begin_tick(t);
  series_.set(queue_bytes_id_,
              static_cast<double>(net_.total_queued_bytes()));
  series_.set(delivered_id_, static_cast<double>(delivered_bytes_tick_));
  const std::uint64_t drops_now = total_drops();
  series_.set(drops_id_, static_cast<double>(drops_now - last_drops_));
  series_.set(active_pauses_id_, static_cast<double>(active_pauses_));
  series_.set(paused_frac_id_,
              dt_ps > 0 ? static_cast<double>(pause_integral_ps_ -
                                              pause_integral_mark_) /
                              static_cast<double>(dt_ps)
                        : 0.0);

  double util_max = 0.0;
  const Topology& topo = net_.topo();
  std::size_t c = 0;
  for (std::size_t n = 0; n < topo.node_count(); ++n) {
    const NodeId node = static_cast<NodeId>(n);
    for (PortId p = 0; p < topo.degree(node); ++p, ++c) {
      const std::uint64_t cum = net_.device(node).tx_byte_count(p);
      const std::uint64_t bytes = cum - last_tx_bytes_[c];
      last_tx_bytes_[c] = cum;
      // bits / (rate * seconds), all in exact integer inputs:
      //   util = bytes*8 / (bps * dt_ps / 1e12)
      const double util =
          dt_ps > 0 ? static_cast<double>(bytes) * 8.0e12 /
                          (static_cast<double>(chan_rate_bps_[c]) *
                           static_cast<double>(dt_ps))
                    : 0.0;
      if (!util_ids_.empty()) {
        series_.set(util_ids_[c], util);
      }
      util_max = std::max(util_max, util);
    }
  }
  series_.set(util_max_id_, util_max);

  for (const CustomGauge& g : gauges_) series_.set(g.id, g.fn());

  delivered_bytes_tick_ = 0;
  last_drops_ = drops_now;
  pause_integral_mark_ = pause_integral_ps_;
  last_tick_ = t;
}

std::uint64_t RunProbe::total_drops() const {
  std::uint64_t total = 0;
  for (int r = 0; r < kNumDropReasons; ++r) {
    total += net_.drops(static_cast<DropReason>(r));
  }
  return total;
}

void RunProbe::finalize() {
  if (finalized_) return;
  finalized_ = true;
  for (const FlowObs& f : flows_) {
    if (f.any) fct_.record((f.last_delivered - f.first_injected).ps());
  }
}

std::vector<RunProbe::NamedHist> RunProbe::histograms() const {
  return {{"fct", &fct_},
          {"pkt_latency", &pkt_latency_},
          {"hop_wait", &hop_wait_},
          {"pfc_pause", &pfc_pause_},
          {"dp_detect", &dp_detect_},
          {"dp_recover", &dp_recover_}};
}

std::vector<std::pair<std::string, double>> RunProbe::summary() const {
  std::vector<std::pair<std::string, double>> out;
  out.emplace_back("ticks", static_cast<double>(series_.total_ticks()));
  const auto series_stats = [&](const char* label, std::uint32_t id) {
    out.emplace_back(std::string(label) + ".max", series_.series_max(id));
    out.emplace_back(std::string(label) + ".mean", series_.series_mean(id));
  };
  series_stats("queue_bytes", queue_bytes_id_);
  series_stats("pfc.active_pauses", active_pauses_id_);
  series_stats("pfc.paused_frac", paused_frac_id_);
  series_stats("util.max", util_max_id_);
  for (const NamedHist& h : histograms()) {
    out.emplace_back(std::string(h.name) + ".count",
                     static_cast<double>(h.hist->count()));
    if (h.hist->empty()) continue;
    const std::string base(h.name);
    out.emplace_back(base + ".mean_us", h.hist->mean() / 1e6);
    out.emplace_back(base + ".p50_us",
                     static_cast<double>(h.hist->percentile(0.50)) / 1e6);
    out.emplace_back(base + ".p90_us",
                     static_cast<double>(h.hist->percentile(0.90)) / 1e6);
    out.emplace_back(base + ".p99_us",
                     static_cast<double>(h.hist->percentile(0.99)) / 1e6);
    out.emplace_back(base + ".p999_us",
                     static_cast<double>(h.hist->percentile(0.999)) / 1e6);
    out.emplace_back(base + ".max_us",
                     static_cast<double>(h.hist->max()) / 1e6);
  }
  return out;
}

}  // namespace dcdl::probe
