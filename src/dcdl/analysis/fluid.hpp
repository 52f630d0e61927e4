// Fluid (rate-based) model of PFC dynamics — the analysis tool the paper
// announces as future work in §3.3 ("We are currently working on analysis
// tools, e.g., a fluid model that can describe PFC behavior").
//
// The network is a set of fluid queues (the ingress counters), links with
// finite capacity, and flows with fixed routes and demands. Time advances
// in small fixed steps; at each step:
//
//   1. Flow rates are computed by progressive filling (max-min fairness)
//      over the links, with links paused for a flow's class carrying zero —
//      this encodes PFC's per-hop fairness at the flow level.
//   2. A flow's rate *into* queue i is its rate at the previous hop
//      (backlogged queues forward at their drain rate, so rate changes
//      propagate hop by hop); queue occupancies integrate
//      inflow − outflow.
//   3. Queues crossing Xoff schedule a pause of their upstream link after
//      the control delay τ; falling below Xon schedules the resume —
//      reproducing the threshold-crossing sawtooth with its
//      delay-dependent amplitude.
//
// Looping flows (routing loops) drain by TTL expiry: a circulating flux F
// on an n-link loop consumes TTL budget at rate n·F while injection adds
// TTL·r, so the model reproduces Eq. 1–3 exactly (deadlock iff
// r > n·B/TTL).
//
// The fluid model *deliberately* has no packet-level state. The paper's
// central §3.2 lesson is that such flow-level analysis predicts "no
// deadlock" for Figure 4 although the packet simulation deadlocks — this
// model makes that gap measurable (see bench_fluid_model).
//
// Cost: begin() fixes the flow -> link incidence (one flat hop-rate array
// with per-flow offsets, per-link user lists in CSR form) and sizes every
// scratch buffer, so step() only refills offered rates and water-fills
// each link — O(sweeps x hops) arithmetic and no heap allocation. Pending
// pause/resume transitions apply earliest-due first, so links with
// different control delays interleave correctly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dcdl/common/units.hpp"

namespace dcdl::analysis {

struct FluidQueue {
  std::string name;
  std::int64_t xoff_bytes = 40 * kKiB;
  std::int64_t xon_bytes = 38 * kKiB;
  /// Link feeding this queue (whose upstream the queue pauses), by index;
  /// -1 for injection queues fed directly by a source.
  int upstream_link = -1;
};

struct FluidLink {
  std::string name;
  Rate capacity = Rate::gbps(40);
  /// One-way control delay: time from a queue crossing Xoff/Xon to the
  /// upstream link actually stopping/starting.
  Time control_delay = Time{2'000'000};
};

/// A flow visits queues in order; between consecutive queues it crosses
/// the later queue's upstream link. The final hop (delivery) is modelled
/// as an always-unpaused sink link.
struct FluidFlow {
  std::string name;
  /// Demand at the source; Rate::zero() = greedy (line rate).
  Rate demand = Rate::zero();
  std::vector<int> queues;  ///< queue indices in visit order
  /// Loop flows re-circulate from the last queue back to queues[loop_from]
  /// and drain by TTL; -1 = normal (delivered after the last queue).
  int loop_from = -1;
  int ttl = 64;
  int loop_links = 0;  ///< number of links in the loop (for TTL drain)
};

struct FluidResult {
  bool deadlocked = false;
  Time deadlock_at = Time::zero();
  /// Queue membership of the frozen pause cycle at the confirmation
  /// instant: every queue that was holding its upstream paused while still
  /// occupied. Empty unless `deadlocked`.
  std::vector<int> deadlock_queues;
  /// Occupancy extrema per queue over the sampled window.
  std::vector<std::int64_t> min_bytes, max_bytes;
  /// Fraction of time each queue held its upstream paused.
  std::vector<double> paused_fraction;
  /// Mean delivery rate per flow (bytes/s).
  std::vector<double> mean_goodput_bps;
};

class FluidModel {
 public:
  /// Building the model. Precondition: begin() has not been called (it
  /// fixes the incidence the steps run on).
  int add_queue(FluidQueue q);
  int add_link(FluidLink l);
  int add_flow(FluidFlow f);

  /// Integrates for `horizon` with step `dt`; statistics are collected
  /// after `warmup`. Deadlock = every queue of some pause cycle saturated
  /// with zero outflow for `dwell`. Implemented on top of begin()/step(),
  /// so batch results and incremental stepping are arithmetically
  /// identical.
  FluidResult run(Time horizon, Time dt = Time{100'000},
                  Time warmup = Time{1'000'000'000},
                  Time dwell = Time{1'000'000'000});

  /// Incremental stepping — the hybrid engine's integration mode. begin()
  /// resets all dynamic state, fixes the step and builds the incidence;
  /// each step() then advances the model by one dt using exactly the
  /// per-iteration arithmetic of run(), without allocating. After step()
  /// returns, now() is the end of the step and the observers below
  /// describe the step just taken.
  void begin(Time dt);
  void step();
  Time now() const { return st_.now; }
  double occupancy(int q) const;
  bool queue_asserted(int q) const;
  /// Bytes delivered by flow `f` during the most recent step() (zero for
  /// loop flows — they drain by TTL, not delivery).
  double step_delivered(int f) const;
  /// Total resident fluid (bytes) and total motion (bytes/s) after the
  /// last step — the ingredients of the freeze predicate.
  double total_fluid() const { return st_.total_fluid; }
  double total_motion() const { return st_.total_motion; }

  const std::vector<FluidQueue>& queues() const { return queues_; }
  const std::vector<FluidFlow>& flows() const { return flows_; }

 private:
  /// One user of a link's capacity: a flow's hop or a loop flow's
  /// circulating flux. Its offered rate (cap) in each sweep is
  ///   kFirst: `first_cap` (the demand, or line rate when greedy);
  ///   kHop:   unlimited while queue `feed` (the previous hop's) holds a
  ///           backlog, else the previous hop's rate, flux[slot - 1];
  ///   kLoop:  unlimited while flow `feed` has loop fluid, else zero.
  struct User {
    enum Kind : std::uint8_t { kFirst, kHop, kLoop };
    std::uint32_t slot;  ///< index into State::flux
    std::uint32_t feed;
    Kind kind;
    double first_cap;
  };
  /// The flow -> link incidence, fixed by begin(). Flow f's hop rates are
  /// flux[hop_begin[f] .. hop_begin[f + 1]); a loop flow's circulating
  /// flux is flux[hop_begin.back() + f]. Link l's users are
  /// users[user_begin[l] .. user_begin[l + 1]), in the order flow
  /// ascending, hop ascending, loop flux after the flow's hops.
  struct Incidence {
    std::vector<std::uint32_t> hop_begin;
    std::vector<std::uint32_t> user_begin;
    std::vector<User> users;
    std::vector<double> link_Bps;  ///< capacity in bytes/s
  };
  /// A pending pause/resume; applied earliest `at` first, ties in
  /// scheduling (`seq`) order.
  struct Transition {
    Time at;
    std::uint64_t seq;
    int link;
    bool paused;
  };
  /// Dynamic integration state between begin() and the last step(), plus
  /// the step's scratch (sized by begin()).
  struct State {
    Time dt = Time::zero();
    double dt_s = 0;
    Time now = Time::zero();
    std::vector<double> occupancy;
    std::vector<char> queue_asserted;
    std::vector<char> link_paused;
    std::vector<Transition> pending;  ///< min-heap on (at, seq)
    std::uint64_t next_seq = 0;
    std::vector<double> loop_fluid;
    std::vector<double> step_delivered;
    double total_fluid = 0, total_motion = 0;
    std::vector<double> flux;   ///< hop rates, then loop fluxes
    std::vector<double> caps;   ///< per user, refilled every sweep
    std::vector<double> alloc;  ///< one link's water-filling result
    std::vector<std::uint32_t> active;  ///< its still-unfilled users
  };

  bool incidence_fixed() const { return st_.dt > Time::zero(); }

  std::vector<FluidQueue> queues_;
  std::vector<FluidLink> links_;
  std::vector<FluidFlow> flows_;
  Incidence inc_;
  State st_;
};

/// Canonical fluid instances mirroring the packet-level scenarios, so the
/// two models can be compared series-for-series.

/// §3.1 routing loop: `loop_len` switches, injection at `inject`
/// (zero = greedy). Queue 0 is the host-facing ingress; queues 1.. are the
/// ring ingresses.
FluidModel make_fluid_routing_loop(int loop_len, Rate bandwidth, int ttl,
                                   Rate inject,
                                   Time control_delay = Time{1'000'000});

struct FluidFourSwitch {
  FluidModel model;
  /// Ring ingress queues in paper order: B.RX1, C.RX1, D.RX1, A.RX1 —
  /// i.e. the queues whose pause state is L1..L4.
  int rx1_B, rx1_C, rx1_D, rx1_A;
};

/// §3.2 four-switch scenario (Figures 3/4) in fluid form; `flow3_rate`
/// zero disables flow 3, Rate::gbps(40) makes it greedy.
FluidFourSwitch make_fluid_four_switch(bool with_flow3,
                                       Rate flow3_rate = Rate::zero(),
                                       Time control_delay = Time{2'000'000});

}  // namespace dcdl::analysis
