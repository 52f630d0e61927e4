#include "dcdl/analysis/fluid.hpp"

#include <algorithm>
#include <limits>

#include "dcdl/common/contract.hpp"

namespace dcdl::analysis {

namespace {
constexpr double kEpsBytes = 1.0;         // "queue empty" tolerance
constexpr double kLarge = 1e15;           // "unconstrained" offered rate

// Max-min (water-filling) allocation of `capacity` among `n` users with
// offered-rate caps, into alloc[0, n). `active` is scratch for n indices;
// the still-active users are compacted in place, keeping their order.
void water_fill(double capacity, const double* caps, std::size_t n,
                double* alloc, std::uint32_t* active) {
  std::size_t na = 0;
  for (std::size_t i = 0; i < n; ++i) {
    alloc[i] = 0.0;
    if (caps[i] > 0) active[na++] = static_cast<std::uint32_t>(i);
  }
  double remaining = capacity;
  while (na > 0 && remaining > 1e-6) {
    const double share = remaining / static_cast<double>(na);
    bool any_capped = false;
    std::size_t still = 0;
    for (std::size_t k = 0; k < na; ++k) {
      const std::uint32_t i = active[k];
      if (caps[i] - alloc[i] <= share) {
        remaining -= caps[i] - alloc[i];
        alloc[i] = caps[i];
        any_capped = true;
      } else {
        active[still++] = i;
      }
    }
    if (!any_capped) {
      for (std::size_t k = 0; k < still; ++k) alloc[active[k]] += share;
      remaining = 0;
    }
    na = still;
  }
}
}  // namespace

int FluidModel::add_queue(FluidQueue q) {
  DCDL_EXPECTS(!incidence_fixed());
  DCDL_EXPECTS(q.xon_bytes <= q.xoff_bytes);
  queues_.push_back(std::move(q));
  return static_cast<int>(queues_.size()) - 1;
}

int FluidModel::add_link(FluidLink l) {
  DCDL_EXPECTS(!incidence_fixed());
  DCDL_EXPECTS(l.capacity.bps() > 0);
  links_.push_back(std::move(l));
  return static_cast<int>(links_.size()) - 1;
}

int FluidModel::add_flow(FluidFlow f) {
  DCDL_EXPECTS(!incidence_fixed());
  DCDL_EXPECTS(!f.queues.empty());
  if (f.loop_from >= 0) {
    DCDL_EXPECTS(f.loop_from < static_cast<int>(f.queues.size()));
    DCDL_EXPECTS(f.loop_links >= 1);
    DCDL_EXPECTS(f.ttl >= 1);
  }
  flows_.push_back(std::move(f));
  return static_cast<int>(flows_.size()) - 1;
}

void FluidModel::begin(Time dt) {
  DCDL_EXPECTS(dt > Time::zero());
  const std::size_t nq = queues_.size();
  const std::size_t nl = links_.size();
  const std::size_t nf = flows_.size();
  const auto link_of = [this](int q) {
    const int link = queues_.at(static_cast<std::size_t>(q)).upstream_link;
    DCDL_EXPECTS(link >= 0 && static_cast<std::size_t>(link) < links_.size());
    return static_cast<std::size_t>(link);
  };

  // Incidence: hop offsets, then every user tagged with its link in append
  // order (flow ascending, hop ascending, a loop flow's flux after its
  // hops); a stable sort by link yields the per-link ranges in that order.
  Incidence inc;
  inc.link_Bps.resize(nl);
  for (std::size_t l = 0; l < nl; ++l) {
    inc.link_Bps[l] = static_cast<double>(links_[l].capacity.bps()) / 8.0;
  }
  inc.hop_begin.assign(nf + 1, 0);
  for (std::size_t f = 0; f < nf; ++f) {
    const FluidFlow& fl = flows_[f];
    const std::size_t hops = fl.loop_from >= 0
                                 ? static_cast<std::size_t>(fl.loop_from) + 1
                                 : fl.queues.size();
    inc.hop_begin[f + 1] = inc.hop_begin[f] + static_cast<std::uint32_t>(hops);
  }
  const std::uint32_t loop_base = inc.hop_begin[nf];
  std::vector<std::pair<std::size_t, User>> tagged;
  for (std::size_t f = 0; f < nf; ++f) {
    const FluidFlow& fl = flows_[f];
    for (std::uint32_t h = inc.hop_begin[f]; h < inc.hop_begin[f + 1]; ++h) {
      const std::size_t j = h - inc.hop_begin[f];
      const std::size_t link = link_of(fl.queues[j]);
      if (j == 0) {
        const double cap = fl.demand.is_zero()
                               ? inc.link_Bps[link]
                               : static_cast<double>(fl.demand.bps()) / 8.0;
        tagged.emplace_back(link, User{h, 0, User::kFirst, cap});
      } else {
        tagged.emplace_back(
            link, User{h, static_cast<std::uint32_t>(fl.queues[j - 1]),
                       User::kHop, 0.0});
      }
    }
    if (fl.loop_from >= 0) {
      // The circulating flux uses every loop link; register it on the
      // loop-entry queue's upstream link as the binding constraint
      // (symmetric loops share one bottleneck).
      const std::size_t link =
          link_of(fl.queues[static_cast<std::size_t>(fl.loop_from)]);
      tagged.emplace_back(link,
                          User{loop_base + static_cast<std::uint32_t>(f),
                               static_cast<std::uint32_t>(f), User::kLoop,
                               0.0});
    }
  }
  std::stable_sort(tagged.begin(), tagged.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  inc.user_begin.assign(nl + 1, 0);
  for (const auto& [link, user] : tagged) {
    ++inc.user_begin[link + 1];
    inc.users.push_back(user);
  }
  std::size_t widest = 0;
  for (std::size_t l = 0; l < nl; ++l) {
    widest = std::max<std::size_t>(widest, inc.user_begin[l + 1]);
    inc.user_begin[l + 1] += inc.user_begin[l];
  }
  inc_ = std::move(inc);

  st_ = State{};
  st_.dt = dt;
  st_.dt_s = dt.sec();
  st_.occupancy.assign(nq, 0.0);
  st_.queue_asserted.assign(nq, 0);
  st_.link_paused.assign(nl, 0);
  st_.loop_fluid.assign(nf, 0.0);
  st_.step_delivered.assign(nf, 0.0);
  st_.flux.assign(static_cast<std::size_t>(loop_base) + nf, 0.0);
  st_.caps.assign(inc_.users.size(), 0.0);
  st_.alloc.assign(widest, 0.0);
  st_.active.assign(widest, 0);
  // A queue toggles at most once per step and each toggle stays pending
  // for ceil(delay / dt) steps: reserve that bound (capped, so a delay
  // vastly longer than the step grows the heap instead of pre-sizing it).
  std::int64_t bound = 0;
  for (std::size_t q = 0; q < nq; ++q) {
    if (queues_[q].upstream_link < 0) continue;
    const Time delay =
        links_[static_cast<std::size_t>(queues_[q].upstream_link)]
            .control_delay;
    bound += delay.ps() / dt.ps() + 2;
  }
  st_.pending.reserve(
      static_cast<std::size_t>(std::min<std::int64_t>(bound, 1 << 16)));
}

double FluidModel::occupancy(int q) const {
  return st_.occupancy.at(static_cast<std::size_t>(q));
}

bool FluidModel::queue_asserted(int q) const {
  return st_.queue_asserted.at(static_cast<std::size_t>(q)) != 0;
}

double FluidModel::step_delivered(int f) const {
  return st_.step_delivered.at(static_cast<std::size_t>(f));
}

void FluidModel::step() {
  DCDL_EXPECTS(incidence_fixed());
  const std::size_t nq = queues_.size();
  const std::size_t nl = links_.size();
  const std::size_t nf = flows_.size();
  const double dt_s = st_.dt_s;
  std::vector<double>& occupancy = st_.occupancy;
  std::vector<char>& queue_asserted = st_.queue_asserted;
  std::vector<char>& link_paused = st_.link_paused;
  std::vector<Transition>& pending = st_.pending;
  std::vector<double>& loop_fluid = st_.loop_fluid;
  std::vector<double>& flux = st_.flux;
  const std::uint32_t loop_base = inc_.hop_begin[nf];
  const Time now = st_.now;
  std::fill(st_.step_delivered.begin(), st_.step_delivered.end(), 0.0);
  // Heap order of `pending`: the earliest due, then the earliest
  // scheduled, on top.
  const auto later = [](const Transition& a, const Transition& b) {
    return a.at != b.at ? a.at > b.at : a.seq > b.seq;
  };

  // 1. Apply due pause/resume transitions, earliest due first.
  while (!pending.empty() && pending.front().at <= now) {
    std::pop_heap(pending.begin(), pending.end(), later);
    link_paused[static_cast<std::size_t>(pending.back().link)] =
        pending.back().paused ? 1 : 0;
    pending.pop_back();
  }

  // 2. Compute hop rates to a fixpoint (caps propagate downstream; a few
  //    sweeps suffice for the path lengths we model). Each sweep's caps
  //    read the previous sweep's rates; then each link water-fills.
  std::fill(flux.begin(), flux.end(), 0.0);
  for (int sweep = 0; sweep < 6; ++sweep) {
    for (std::size_t u = 0; u < inc_.users.size(); ++u) {
      const User& us = inc_.users[u];
      switch (us.kind) {
        case User::kFirst:
          st_.caps[u] = us.first_cap;
          break;
        case User::kHop:
          st_.caps[u] = occupancy[us.feed] > kEpsBytes ? kLarge
                                                       : flux[us.slot - 1];
          break;
        case User::kLoop:
          st_.caps[u] = loop_fluid[us.feed] > kEpsBytes ? kLarge : 0.0;
          break;
      }
    }
    for (std::size_t l = 0; l < nl; ++l) {
      const std::uint32_t b = inc_.user_begin[l];
      const std::uint32_t e = inc_.user_begin[l + 1];
      if (b == e) continue;
      water_fill(link_paused[l] ? 0.0 : inc_.link_Bps[l], &st_.caps[b], e - b,
                 st_.alloc.data(), st_.active.data());
      for (std::uint32_t u = b; u < e; ++u) {
        flux[inc_.users[u].slot] = st_.alloc[u - b];
      }
    }
  }

  // 3. Integrate occupancies.
  for (std::size_t f = 0; f < nf; ++f) {
    const FluidFlow& fl = flows_[f];
    const double* rate = &flux[inc_.hop_begin[f]];
    const std::size_t hops = inc_.hop_begin[f + 1] - inc_.hop_begin[f];
    for (std::size_t j = 0; j < hops; ++j) {
      const std::size_t q = static_cast<std::size_t>(fl.queues[j]);
      const double in = rate[j];
      // Outflow of hop j = inflow of hop j+1 (or loop/delivery).
      double out;
      if (j + 1 < hops) {
        out = rate[j + 1];
      } else if (fl.loop_from >= 0) {
        out = rate[j];  // injection hop feeds the loop directly
      } else {
        out = occupancy[q] > kEpsBytes
                  ? std::max(in, rate[j])  // uncontended delivery
                  : in;
      }
      if (fl.loop_from >= 0 && static_cast<int>(j) == fl.loop_from) {
        // Last injection hop: fluid moves into the loop aggregate.
        loop_fluid[f] += in * dt_s;
      } else {
        occupancy[q] += (in - out) * dt_s;
        if (occupancy[q] < 0) occupancy[q] = 0;
      }
      if (fl.loop_from < 0 && j + 1 == hops) {
        st_.step_delivered[f] += out * dt_s;
      }
    }
    if (fl.loop_from >= 0) {
      // TTL drain (Eq. 2 in fluid form): every byte-hop on a loop link
      // burns one TTL unit, and freshly injected fluid circulates too —
      // at the boundary the entry link saturates at inj + F = B, giving
      // the drain n*B/TTL of Eq. 1-3.
      const double circulating =
          flux[loop_base + f] + rate[static_cast<std::size_t>(fl.loop_from)];
      const double drain = static_cast<double>(fl.loop_links) *
                           circulating / static_cast<double>(fl.ttl);
      loop_fluid[f] -= drain * dt_s;
      if (loop_fluid[f] < 0) loop_fluid[f] = 0;
      // The loop fluid sits spread over the loop queues.
      const std::size_t loop_queues =
          fl.queues.size() - static_cast<std::size_t>(fl.loop_from);
      for (std::size_t j = static_cast<std::size_t>(fl.loop_from);
           j < fl.queues.size(); ++j) {
        occupancy[static_cast<std::size_t>(fl.queues[j])] =
            loop_fluid[f] / static_cast<double>(loop_queues);
      }
    }
  }

  // 4. PFC hysteresis: schedule pause/resume after the control delay.
  for (std::size_t q = 0; q < nq; ++q) {
    const int link = queues_[q].upstream_link;
    if (link < 0) continue;
    const bool xoff =
        !queue_asserted[q] &&
        occupancy[q] >= static_cast<double>(queues_[q].xoff_bytes);
    const bool xon = queue_asserted[q] &&
                     occupancy[q] < static_cast<double>(queues_[q].xon_bytes);
    if (!xoff && !xon) continue;
    queue_asserted[q] = xoff ? 1 : 0;
    const Time delay = links_[static_cast<std::size_t>(link)].control_delay;
    pending.push_back(Transition{now + delay, st_.next_seq++, link, xoff});
    std::push_heap(pending.begin(), pending.end(), later);
  }

  // 5. Freeze ingredients: fluid present but nothing moves anywhere.
  double total_fluid = 0, total_motion = 0;
  for (std::size_t q = 0; q < nq; ++q) total_fluid += occupancy[q];
  for (std::size_t f = 0; f < nf; ++f) {
    for (std::uint32_t h = inc_.hop_begin[f]; h < inc_.hop_begin[f + 1]; ++h) {
      total_motion += flux[h];
    }
    total_motion += flux[loop_base + f];
  }
  st_.total_fluid = total_fluid;
  st_.total_motion = total_motion;

  st_.now = now + st_.dt;
}

FluidResult FluidModel::run(Time horizon, Time dt, Time warmup, Time dwell) {
  const std::size_t nq = queues_.size();
  const std::size_t nf = flows_.size();
  const double dt_s = dt.sec();
  std::vector<double> delivered(nf, 0.0);  // bytes delivered after warmup

  FluidResult res;
  res.min_bytes.assign(nq, std::numeric_limits<std::int64_t>::max());
  res.max_bytes.assign(nq, 0);
  res.paused_fraction.assign(nq, 0.0);
  res.mean_goodput_bps.assign(nf, 0.0);

  begin(dt);
  Time frozen_since = Time::max();
  while (st_.now < horizon) {
    const Time now = st_.now;  // start of this step
    step();

    // Freeze detection over the dwell window.
    if (st_.total_fluid > 10 * kEpsBytes && st_.total_motion < 1.0) {
      if (frozen_since == Time::max()) frozen_since = now;
      if (now - frozen_since >= dwell && !res.deadlocked) {
        res.deadlocked = true;
        res.deadlock_at = frozen_since;
        // The frozen cycle's membership: queues still occupied while
        // holding their upstream paused at the confirmation instant.
        for (std::size_t q = 0; q < nq; ++q) {
          if (st_.queue_asserted[q] && st_.occupancy[q] > kEpsBytes) {
            res.deadlock_queues.push_back(static_cast<int>(q));
          }
        }
      }
    } else {
      frozen_since = Time::max();
    }

    // Statistics.
    if (now >= warmup) {
      for (std::size_t f = 0; f < nf; ++f) {
        delivered[f] += st_.step_delivered[f];
      }
      for (std::size_t q = 0; q < nq; ++q) {
        const auto bytes = static_cast<std::int64_t>(st_.occupancy[q]);
        res.min_bytes[q] = std::min(res.min_bytes[q], bytes);
        res.max_bytes[q] = std::max(res.max_bytes[q], bytes);
        if (st_.queue_asserted[q]) {
          res.paused_fraction[q] += dt_s;
        }
      }
    }
  }

  const double window_s = (horizon - warmup).sec();
  for (std::size_t q = 0; q < nq; ++q) {
    if (res.min_bytes[q] == std::numeric_limits<std::int64_t>::max()) {
      res.min_bytes[q] = 0;
    }
    if (window_s > 0) res.paused_fraction[q] /= window_s;
  }
  for (std::size_t f = 0; f < nf; ++f) {
    if (window_s > 0) res.mean_goodput_bps[f] = delivered[f] * 8.0 / window_s;
  }
  return res;
}

FluidModel make_fluid_routing_loop(int loop_len, Rate bandwidth, int ttl,
                                   Rate inject, Time control_delay) {
  DCDL_EXPECTS(loop_len >= 2);
  FluidModel m;
  // Links: host -> S0, then the ring links S_i -> S_{i+1}.
  const int host_link = m.add_link(FluidLink{"host->S0", bandwidth,
                                             control_delay});
  std::vector<int> ring_links;
  for (int i = 0; i < loop_len; ++i) {
    ring_links.push_back(m.add_link(FluidLink{
        "S" + std::to_string(i) + "->S" + std::to_string((i + 1) % loop_len),
        bandwidth, control_delay}));
  }
  // Queue 0: S0's host-facing ingress. Queues 1..n: ring ingresses, where
  // ring queue i is fed by ring link i-1 (S_{i-1} -> S_i in ring order).
  FluidFlow flow;
  flow.name = "loop_flow";
  flow.demand = inject;
  flow.queues.push_back(m.add_queue(FluidQueue{"S0.rxHost", 40 * kKiB,
                                               38 * kKiB, host_link}));
  for (int i = 0; i < loop_len; ++i) {
    flow.queues.push_back(m.add_queue(
        FluidQueue{"S" + std::to_string((i + 1) % loop_len) + ".rxRing",
                   40 * kKiB, 38 * kKiB, ring_links[static_cast<std::size_t>(i)]}));
  }
  flow.loop_from = 1;
  flow.ttl = ttl;
  flow.loop_links = loop_len;
  m.add_flow(flow);
  return m;
}

FluidFourSwitch make_fluid_four_switch(bool with_flow3, Rate flow3_rate,
                                       Time control_delay) {
  FluidFourSwitch out;
  FluidModel& m = out.model;
  const Rate B = Rate::gbps(40);
  // Links of the ring plus the three source access links.
  const int lAB = m.add_link(FluidLink{"A->B", B, control_delay});
  const int lBC = m.add_link(FluidLink{"B->C", B, control_delay});
  const int lCD = m.add_link(FluidLink{"C->D", B, control_delay});
  const int lDA = m.add_link(FluidLink{"D->A", B, control_delay});
  const int l_hA = m.add_link(FluidLink{"hA->A", B, control_delay});
  const int l_hC = m.add_link(FluidLink{"hC->C", B, control_delay});
  const int l_hB3 = m.add_link(FluidLink{"hB3->B", B, control_delay});

  const int rxA_host = m.add_queue(FluidQueue{"A.RX2", 40 * kKiB, 38 * kKiB, l_hA});
  const int rxC_host = m.add_queue(FluidQueue{"C.RX2", 40 * kKiB, 38 * kKiB, l_hC});
  const int rxB_host = m.add_queue(FluidQueue{"B.RX2", 40 * kKiB, 38 * kKiB, l_hB3});
  out.rx1_B = m.add_queue(FluidQueue{"B.RX1", 40 * kKiB, 38 * kKiB, lAB});
  out.rx1_C = m.add_queue(FluidQueue{"C.RX1", 40 * kKiB, 38 * kKiB, lBC});
  out.rx1_D = m.add_queue(FluidQueue{"D.RX1", 40 * kKiB, 38 * kKiB, lCD});
  out.rx1_A = m.add_queue(FluidQueue{"A.RX1", 40 * kKiB, 38 * kKiB, lDA});

  // Flow 1: hA -> A -> B -> C -> D -> hD.
  FluidFlow f1;
  f1.name = "flow1";
  f1.queues = {rxA_host, out.rx1_B, out.rx1_C, out.rx1_D};
  m.add_flow(f1);
  // Flow 2: hC -> C -> D -> A -> B -> hB.
  FluidFlow f2;
  f2.name = "flow2";
  f2.queues = {rxC_host, out.rx1_D, out.rx1_A, out.rx1_B};
  m.add_flow(f2);
  if (with_flow3) {
    FluidFlow f3;
    f3.name = "flow3";
    f3.demand = flow3_rate;
    f3.queues = {rxB_host, out.rx1_C};
    m.add_flow(f3);
  }
  return out;
}

}  // namespace dcdl::analysis
