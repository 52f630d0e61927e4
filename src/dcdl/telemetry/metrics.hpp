// Metrics registry: named counters and gauges backed by preallocated dense
// slots, so every run — standalone, campaign cell, or bench — exposes one
// uniform snapshot of what the simulator and network actually did. The
// snapshot is the flat name -> value list that probe::RunProbe::summary()
// and watch::RunWatch::summary() also return; latency distributions live
// in probe::LogHistogram, not here.
//
// Two-phase contract: registration happens during setup and may allocate
// (name table); after that the hot path is `counters_[id.v] += delta` /
// `gauges_[id.v] = v` — a bare vector index, never a lookup, never an
// allocation. Typed id structs make it a compile
// error to bump a gauge or set a counter.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "dcdl/device/network.hpp"

namespace dcdl::telemetry {

struct CounterId { std::uint32_t v = 0; };
struct GaugeId { std::uint32_t v = 0; };

class MetricsRegistry {
 public:
  /// Registration is idempotent per name; re-registering an existing name
  /// as the other kind throws std::invalid_argument — two subsystems
  /// silently sharing a slot is always a bug.
  CounterId counter(const std::string& name);
  GaugeId gauge(const std::string& name);

  // --- Hot path: dense slot ops, zero allocation. ---
  void add(CounterId id, std::uint64_t delta = 1) {
    counters_[id.v] += delta;
  }
  void set(GaugeId id, double v) { gauges_[id.v] = v; }

  std::uint64_t counter_value(CounterId id) const { return counters_[id.v]; }
  double gauge_value(GaugeId id) const { return gauges_[id.v]; }

  std::size_t size() const { return names_.size(); }
  /// Every metric's name and value in registration order (deterministic:
  /// depends only on setup code, never on run interleaving).
  std::vector<std::pair<std::string, double>> snapshot() const;

 private:
  /// Registration-ordered directory: (name, kind, dense index).
  struct Entry {
    std::string name;
    bool gauge;
    std::uint32_t index;
  };

  std::uint32_t register_name(const std::string& name, bool gauge,
                              std::uint32_t index_if_new);

  std::vector<Entry> names_;
  std::vector<std::uint64_t> counters_;
  std::vector<double> gauges_;
};

/// The uniform per-run metric set: every campaign record and every
/// `--metrics` report exposes exactly these names, in this order.
struct RunMetricIds {
  // Event-driven counters (fed from Trace hooks).
  CounterId pfc_xoff;
  CounterId pfc_xon;
  CounterId tx_starts;
  CounterId delivered_packets;
  CounterId delivered_bytes;
  CounterId cnp;

  // Sampled at snapshot time.
  GaugeId dropped[kNumDropReasons];  ///< Network::drops(reason)
  /// Delivered packet size: count, sum, and mean bytes, derived from the
  /// two delivered counters.
  GaugeId delivered_size_count;
  GaugeId delivered_size_sum;
  GaugeId delivered_size_mean;
  GaugeId queued_bytes;
  GaugeId sim_events_executed;
  GaugeId sim_events_scheduled;
  GaugeId sim_events_cancelled;
  GaugeId sim_events_pending;
  GaugeId sim_slab_slots;
  GaugeId sim_slab_grows;
  GaugeId sim_heap_high_water;
};

/// Bundles a registry pre-loaded with the uniform set, already chained onto
/// `net`'s trace hooks. Construct after the network, before the run;
/// finalize() samples the gauges (drop tallies, simulator counters,
/// trapped bytes) — call it at the measurement point, then snapshot().
class RunTelemetry {
 public:
  explicit RunTelemetry(Network& net);
  /// The trace hooks hold a pointer to reg_: the object must stay put.
  RunTelemetry(const RunTelemetry&) = delete;
  RunTelemetry& operator=(const RunTelemetry&) = delete;

  MetricsRegistry& registry() { return reg_; }
  const RunMetricIds& ids() const { return ids_; }

  /// Samples the point-in-time gauges off the simulator and network.
  void finalize();
  /// finalize() + the registry's snapshot.
  std::vector<std::pair<std::string, double>> snapshot();

 private:
  Network& net_;
  MetricsRegistry reg_;
  RunMetricIds ids_;
};

}  // namespace dcdl::telemetry
