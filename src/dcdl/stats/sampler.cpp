#include "dcdl/stats/sampler.hpp"

#include <algorithm>

#include "dcdl/common/contract.hpp"
#include "dcdl/device/switch.hpp"

namespace dcdl::stats {

OccupancySampler::OccupancySampler(Network& net, std::vector<Target> targets,
                                   Time period)
    : net_(net),
      targets_(std::move(targets)),
      ticker_(net.sim(), period, [this](Time now) { sample(now); }) {
  DCDL_EXPECTS(period > Time::zero());
  series_.resize(targets_.size());
}

void OccupancySampler::start(Time from, Time until) {
  DCDL_EXPECTS(from >= net_.sim().now());
  net_.sim().schedule_at(from, [this, until] {
    sample(net_.sim().now());
    ticker_.start(until);
  });
}

void OccupancySampler::sample(Time now) {
  for (std::size_t i = 0; i < targets_.size(); ++i) {
    const Target& t = targets_[i];
    const auto& sw = net_.switch_at(t.sw);
    const std::int64_t bytes =
        t.flow ? sw.ingress_flow_bytes(t.port, t.cls, *t.flow)
               : sw.ingress_bytes(t.port, t.cls);
    series_[i].push_back(SamplePoint{now, bytes});
  }
}

std::int64_t OccupancySampler::max_bytes(std::size_t target_index) const {
  std::int64_t best = 0;
  for (const auto& p : series_.at(target_index)) best = std::max(best, p.bytes);
  return best;
}

std::int64_t OccupancySampler::min_bytes_after(std::size_t target_index,
                                               Time from) const {
  std::int64_t best = std::numeric_limits<std::int64_t>::max();
  for (const auto& p : series_.at(target_index)) {
    if (p.t >= from) best = std::min(best, p.bytes);
  }
  return best == std::numeric_limits<std::int64_t>::max() ? 0 : best;
}

}  // namespace dcdl::stats
