#include "dcdl/hybrid/hybrid.hpp"

#include <algorithm>
#include <map>
#include <span>

#include "dcdl/device/host.hpp"
#include "dcdl/device/switch.hpp"
#include "dcdl/probe/profiler.hpp"

namespace dcdl::hybrid {

const char* to_string(Mode m) {
  switch (m) {
    case Mode::kOff: return "off";
    case Mode::kStatic: return "static";
    case Mode::kRisk: return "risk";
  }
  return "?";
}

std::optional<Mode> parse_mode(const std::string& s) {
  if (s == "off") return Mode::kOff;
  if (s == "static") return Mode::kStatic;
  if (s == "risk") return Mode::kRisk;
  return std::nullopt;
}

namespace {

/// A region escalates to packet level when any ingress counter in it
/// reaches this fraction of Xoff.
constexpr double kZoomXoffFraction = 0.5;
/// A region de-escalates after all its counters stayed below Xon this long
/// (hysteresis: flapping regions stay packet).
constexpr Time kCooldown{1'000'000'000};  // 1 ms
/// Fluid integration step and controller cadence.
constexpr Time kFluidDt{100'000'000};  // 100 us
/// Risk mode: reassess every this many fluid steps.
constexpr std::uint64_t kRiskEvery = 10;

/// Union-find over flow indices for the fluid-component grouping.
struct UnionFind {
  std::vector<std::size_t> parent;
  explicit UnionFind(std::size_t n) : parent(n) {
    for (std::size_t i = 0; i < n; ++i) parent[i] = i;
  }
  std::size_t find(std::size_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  }
  void unite(std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a != b) parent[std::max(a, b)] = std::min(a, b);
  }
};

}  // namespace

HybridController::HybridController(Network& net, std::vector<FlowSpec> flows,
                                   HybridConfig cfg)
    : net_(net),
      flows_(std::move(flows)),
      mode_(cfg.mode),
      // One request per switch: assign_shards yields its structural
      // maximum (per-pod on fat-trees, per-switch on rings and meshes).
      regions_(topo::assign_shards(
          net.topo(),
          std::max<int>(1, static_cast<int>(net.topo().switches().size())))) {
  if (mode_ == Mode::kOff) return;
  region_.assign(static_cast<std::size_t>(regions_.num_shards), Region{});
  switches_ = net_.topo().switches();
  eligible_.assign(flows_.size(), 0);
  blocked_.assign(flows_.size(), 0);
  fluid_.assign(flows_.size(), 0);
  carry_.assign(flows_.size(), 0.0);
  want_.assign(flows_.size(), 0);
  packet_link_.assign(net_.topo().link_count(), 0);
  region_occ_.assign(region_.size(), 0);
  sent_rates_.reset(net_, flows_, net_.sim().now());
  last_step_ = net_.sim().now();

  // Static per-flow eligibility: open-loop CBR-like flows that run for the
  // whole simulation. Everything else stays at packet level forever.
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    const FlowSpec& f = flows_[i];
    if (f.start != Time::zero() || f.stop != Time::max()) continue;
    if (f.ecn_capable || net_.config().rtt_feedback) continue;
    Pacer* p = net_.host_at(f.src_host).pacer(f.id);
    if (p == nullptr || !p->current_rate().has_value()) continue;
    eligible_[i] = 1;
  }

  reassess(pacer_rates());
  refluidize(net_.sim().now());
  schedule_next();
}

HybridController::~HybridController() { finalize(); }

int HybridController::region_of(NodeId node) const {
  return static_cast<int>(regions_.node_shard.at(node));
}

bool HybridController::region_packet(int r) const {
  return region_.at(static_cast<std::size_t>(r)).packet;
}

bool HybridController::flow_fluid(FlowId flow) const {
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    if (flows_[i].id == flow) return fluid_[i] != 0;
  }
  return false;
}

std::size_t HybridController::fluid_flows() const {
  std::size_t n = 0;
  for (const char f : fluid_) n += f != 0 ? 1u : 0u;
  return n;
}

std::vector<Rate> HybridController::pacer_rates() const {
  std::vector<Rate> r(flows_.size(), Rate::zero());
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    // The accessor is non-const on Host; the controller holds a non-const
    // network reference throughout.
    Pacer* p = const_cast<Network&>(net_).host_at(flows_[i].src_host)
                   .pacer(flows_[i].id);
    if (p != nullptr) r[i] = p->current_rate().value_or(Rate::zero());
  }
  return r;
}

void HybridController::reassess(const std::vector<Rate>& demands) {
  report_ = analysis::assess_deadlock_risk(net_, flows_, demands);
  ++stats_.risk_reassessments;
  refresh_geometry();
  update_blocked();
  apply_pins();
}

void HybridController::refresh_geometry() {
  path_links_.resize(flows_.size());
  path_regions_.resize(flows_.size());
  const Topology& topo = net_.topo();
  const auto sort_unique = [](auto& v) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  };
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    std::vector<std::uint32_t>& links = path_links_[i];
    std::vector<int>& regs = path_regions_[i];
    links.clear();
    regs.clear();
    for (const analysis::Hop& h : report_.walk.path(i)) {
      const PortPeer& pp = topo.peer(h.node, h.port);
      links.push_back(pp.link);
      regs.push_back(region_of(h.node));
      regs.push_back(region_of(pp.peer_node));
    }
    sort_unique(links);
    sort_unique(regs);
  }
}

void HybridController::set_region_packet(Time now, int r, bool packet) {
  Region& rg = region_.at(static_cast<std::size_t>(r));
  if (rg.packet == packet) return;
  rg.packet = packet;
  rg.below_xon_since = Time::max();
  if (packet) {
    ++stats_.escalations;
  } else {
    ++stats_.deescalations;
  }
  ++stats_.zoom_events;
  net_.trace().region_state(now, static_cast<std::uint32_t>(r), packet);
}

void HybridController::apply_pins() {
  const Time now = net_.sim().now();
  std::vector<char> pinned(region_.size(), 0);
  for (const analysis::CycleRisk& c : report_.cycles) {
    for (const analysis::QueueKey& qk : c.cycle) {
      pinned[static_cast<std::size_t>(region_of(qk.node))] = 1;
    }
  }
  for (std::size_t r = 0; r < region_.size(); ++r) {
    region_[r].pinned = pinned[r] != 0;
    if (region_[r].pinned && !region_[r].packet) {
      set_region_packet(now, static_cast<int>(r), true);
    }
  }
}

void HybridController::scan_regions(Time now) {
  // Per-region peak ingress occupancy: the live packet counters plus the
  // fluid queues mapped back to their switches' regions.
  std::vector<std::int64_t>& occ = region_occ_;
  std::fill(occ.begin(), occ.end(), 0);
  for (const NodeId sw : switches_) {
    const auto r = static_cast<std::size_t>(region_of(sw));
    occ[r] = std::max(occ[r], net_.switch_at(sw).max_ingress_bytes());
  }
  for (const FluidInstance& inst : models_) {
    for (std::size_t q = 0; q < inst.queue_switch.size(); ++q) {
      const auto r =
          static_cast<std::size_t>(region_of(inst.queue_switch[q]));
      occ[r] = std::max(
          occ[r],
          static_cast<std::int64_t>(inst.model.occupancy(static_cast<int>(q))));
    }
  }
  const auto escalate_at = static_cast<std::int64_t>(
      kZoomXoffFraction * static_cast<double>(net_.config().pfc.xoff_bytes));
  const std::int64_t xon = net_.config().pfc.xon_bytes;
  for (std::size_t r = 0; r < region_.size(); ++r) {
    Region& rg = region_[r];
    if (!rg.packet) {
      if (occ[r] >= escalate_at) {
        set_region_packet(now, static_cast<int>(r), true);
      }
    } else if (!rg.pinned) {
      if (occ[r] < xon) {
        if (rg.below_xon_since == Time::max()) {
          rg.below_xon_since = now;
        } else if (now - rg.below_xon_since >= kCooldown) {
          set_region_packet(now, static_cast<int>(r), false);
        }
      } else {
        rg.below_xon_since = Time::max();
      }
    }
  }
}

void HybridController::update_blocked() {
  const Topology& topo = net_.topo();
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    const std::span<const analysis::Hop> path = report_.walk.path(i);
    // The installed route must actually reach the destination (last egress
    // lands on dst); misrouted or blackholed flows stay packet.
    bool blocked = report_.walk.looping(i) || path.size() < 2 ||
                   topo.peer(path.back().node, path.back().port).peer_node !=
                       flows_[i].dst_host;
    for (std::size_t j = 0; !blocked && j < path.size(); ++j) {
      blocked = report_.utilization[path[j].channel] >= analysis::kSaturated;
    }
    blocked_[i] = blocked ? 1 : 0;
  }
}

void HybridController::refluidize(Time now) {
  // Desired fluid set under the current blocked flags and region levels.
  std::vector<char>& want = want_;
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    bool ok = eligible_[i] != 0 && blocked_[i] == 0;
    for (std::size_t k = 0; ok && k < path_regions_[i].size(); ++k) {
      ok = !region_[static_cast<std::size_t>(path_regions_[i][k])].packet;
    }
    want[i] = ok ? 1 : 0;
  }
  // Link-disjointness fixpoint: a candidate sharing any topology link with
  // a packet-level flow is withdrawn, which may expose further overlaps.
  bool changed = true;
  while (changed) {
    changed = false;
    std::fill(packet_link_.begin(), packet_link_.end(), 0);
    for (std::size_t i = 0; i < flows_.size(); ++i) {
      if (want[i] != 0) continue;
      for (const std::uint32_t l : path_links_[i]) packet_link_[l] = 1;
    }
    for (std::size_t i = 0; i < flows_.size(); ++i) {
      if (want[i] == 0) continue;
      for (const std::uint32_t l : path_links_[i]) {
        if (packet_link_[l] != 0) {
          want[i] = 0;
          changed = true;
          break;
        }
      }
    }
  }

  if (want == fluid_) return;
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    if (want[i] == fluid_[i]) continue;
    net_.host_at(flows_[i].src_host)
        .hold_flow(flows_[i].id, want[i] != 0);
    if (want[i] == 0) carry_[i] = 0.0;  // drop the sub-packet remainder
  }
  fluid_ = want;
  rebuild_models();
  ++stats_.fluid_rebuilds;
  (void)now;
}

void HybridController::rebuild_models() {
  models_.clear();
  std::vector<std::size_t> members;
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    if (fluid_[i] != 0) members.push_back(i);
  }
  if (members.empty()) return;

  // Group fluidized flows into connected components over shared links.
  UnionFind uf(members.size());
  {
    std::map<std::uint32_t, std::size_t> owner;
    for (std::size_t m = 0; m < members.size(); ++m) {
      for (const std::uint32_t l : path_links_[members[m]]) {
        const auto [it, fresh] = owner.emplace(l, m);
        if (!fresh) uf.unite(it->second, m);
      }
    }
  }
  std::map<std::size_t, std::size_t> component;  // root -> models_ index
  const PfcConfig& pfc = net_.config().pfc;
  // A channel and the queues it feeds belong to one component: its model
  // link by channel id, its model queues by channel id and class.
  std::map<std::uint32_t, int> link_of;
  std::map<std::uint64_t, int> queue_of;
  for (std::size_t m = 0; m < members.size(); ++m) {
    const std::size_t i = members[m];
    const auto [cit, fresh] = component.emplace(uf.find(m), models_.size());
    if (fresh) models_.emplace_back();
    FluidInstance& inst = models_[cit->second];

    analysis::FluidFlow ff;
    ff.name = "flow " + std::to_string(flows_[i].id);
    Pacer* p = net_.host_at(flows_[i].src_host).pacer(flows_[i].id);
    ff.demand = p->current_rate().value_or(Rate::zero());
    const std::span<const analysis::Hop> path = report_.walk.path(i);
    for (std::size_t j = 1; j < path.size(); ++j) {
      const analysis::Hop& up = path[j - 1];
      const auto [lit, new_link] = link_of.emplace(up.channel, 0);
      if (new_link) {
        analysis::FluidLink fl;
        fl.name = "link " + std::to_string(up.node) + ":" +
                  std::to_string(up.port);
        fl.capacity = net_.link_rate(up.node, up.port);
        fl.control_delay = net_.link_delay(up.node, up.port);
        lit->second = inst.model.add_link(fl);
      }
      const auto [qit, new_queue] = queue_of.emplace(
          std::uint64_t{up.channel} << 8 | flows_[i].prio, 0);
      if (new_queue) {
        const NodeId sw = path[j].node;
        analysis::FluidQueue fq;
        fq.name = "sw " + std::to_string(sw) + " p" +
                  std::to_string(net_.topo().peer(up.node, up.port).peer_port);
        fq.xoff_bytes = pfc.xoff_bytes;
        fq.xon_bytes = pfc.xon_bytes;
        fq.upstream_link = lit->second;
        qit->second = inst.model.add_queue(fq);
        inst.queue_switch.push_back(sw);
      }
      ff.queues.push_back(qit->second);
    }
    inst.flow_of.push_back(i);
    inst.model.add_flow(std::move(ff));
  }
  for (FluidInstance& inst : models_) inst.model.begin(kFluidDt);
}

std::vector<Rate> HybridController::measured_rates(Time now) {
  std::vector<Rate> r(flows_.size());
  sent_rates_.close_window(now);
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    if (fluid_[i] != 0) {
      // A held flow injects nothing; its demand is its pacer rate, and its
      // baseline stays where it was.
      Pacer* p = net_.host_at(flows_[i].src_host).pacer(flows_[i].id);
      r[i] = p != nullptr ? p->current_rate().value_or(Rate::zero())
                          : Rate::zero();
      continue;
    }
    r[i] = sent_rates_.rate(net_, flows_[i], i);
  }
  return r;
}

void HybridController::schedule_next() {
  pending_ =
      net_.sim().schedule_at(last_step_ + kFluidDt, [this] { step(); });
  armed_ = true;
}

void HybridController::step() {
  probe::Profiler::Scope span(probe::Profiler::Span::kFluidStep);
  armed_ = false;
  if (stopped_) return;
  const Time now = net_.sim().now();
  ++stats_.steps;

  // 1. Advance the fluid components and credit whole-packet deliveries to
  //    the sink hosts (the fluid -> packet boundary adapter).
  for (FluidInstance& inst : models_) {
    inst.model.step();
    for (std::size_t m = 0; m < inst.flow_of.size(); ++m) {
      const std::size_t i = inst.flow_of[m];
      carry_[i] += inst.model.step_delivered(static_cast<int>(m));
      const auto pkt = static_cast<double>(flows_[i].packet_bytes);
      const auto whole = static_cast<std::uint64_t>(carry_[i] / pkt);
      if (whole == 0) continue;
      const std::int64_t bytes =
          static_cast<std::int64_t>(whole) * flows_[i].packet_bytes;
      carry_[i] -= static_cast<double>(bytes);
      net_.host_at(flows_[i].dst_host)
          .credit_delivery(flows_[i].id, bytes, whole);
      stats_.credited_bytes += bytes;
      stats_.credited_packets += whole;
    }
  }
  fluid_flowtime_ps_ += static_cast<double>(fluid_flows()) *
                        static_cast<double>(kFluidDt.ps());
  last_step_ = now;

  // 2. Zoom: occupancy scan + hysteresis.
  scan_regions(now);

  // 3. Risk mode: periodic online reassessment over the *live* routes (so
  //    loops that form mid-run surface) with measured rates as demands.
  if (mode_ == Mode::kRisk && stats_.steps % kRiskEvery == 0) {
    reassess(measured_rates(now));
  }

  // 4. Re-derive the fluid set (no-op when nothing changed).
  refluidize(now);
  schedule_next();
}

void HybridController::finalize() {
  if (stopped_ || mode_ == Mode::kOff) {
    stopped_ = true;
    return;
  }
  stopped_ = true;
  if (armed_) {
    net_.sim().cancel(pending_);
    armed_ = false;
  }
  const Time end = net_.sim().now();
  if (!flows_.empty() && end > Time::zero()) {
    stats_.fluid_fraction =
        fluid_flowtime_ps_ /
        (static_cast<double>(flows_.size()) * static_cast<double>(end.ps()));
  }
  // Held flows stay held: the run is over, and releasing them here would
  // schedule fresh injections into whatever drain phase follows.
}

}  // namespace dcdl::hybrid
