// Periodic sampling of ingress-queue occupancy — the paper samples "the
// instantaneous buffer occupancy of both flows at RX1 queues every 1us"
// for Figures 3(d-g) and 5(c-d). The recurring tick is a
// probe::IntervalSampler; this class only adds the sample at `from` and
// the per-target series.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "dcdl/common/units.hpp"
#include "dcdl/device/network.hpp"
#include "dcdl/net/packet.hpp"
#include "dcdl/probe/probe.hpp"

namespace dcdl::stats {

struct SamplePoint {
  Time t;
  std::int64_t bytes;
};

class OccupancySampler {
 public:
  struct Target {
    NodeId sw;
    PortId port;
    ClassId cls = 0;
    /// If set, sample only this flow's bytes in the queue (as the paper's
    /// per-flow occupancy plots do); otherwise the whole queue.
    std::optional<FlowId> flow;
  };

  OccupancySampler(Network& net, std::vector<Target> targets, Time period);
  /// The scheduled ticks hold `this`: the object must stay put.
  OccupancySampler(const OccupancySampler&) = delete;
  OccupancySampler& operator=(const OccupancySampler&) = delete;

  /// Samples at `from`, then every period up to and including `until`.
  void start(Time from, Time until);

  const std::vector<Target>& targets() const { return targets_; }
  const std::vector<SamplePoint>& series(std::size_t target_index) const {
    return series_.at(target_index);
  }

  std::int64_t max_bytes(std::size_t target_index) const;
  std::int64_t min_bytes_after(std::size_t target_index, Time from) const;

 private:
  void sample(Time now);

  Network& net_;
  std::vector<Target> targets_;
  probe::IntervalSampler ticker_;
  std::vector<std::vector<SamplePoint>> series_;
};

}  // namespace dcdl::stats
