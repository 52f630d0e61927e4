// BGP-like distributed path-vector routing substrate.
//
// The paper (§1, footnote 1): "In our datacenters, we use BGP for routing,
// with each switch being a private AS ... deadlocks can occur when
// transient loops form ... as BGP re-routes around link failures."
//
// Model: per destination host, switches exchange path advertisements with
// their switch neighbours. Best path = shortest AS path (tie-break on
// neighbour id); AS-path loop prevention rejects paths containing the
// receiver. Every received update is processed after `processing_delay`
// (plus link propagation), and a changed best path triggers advertisements
// to all neighbours. Routes are installed into the live switch tables the
// moment they are selected — so while withdrawals race stale alternates,
// the data plane can carry genuine transient micro-loops, which is exactly
// the deadlock trigger under study.
//
// Control-plane messages ride out-of-band scheduled callbacks (production
// fabrics prioritize/segregate control traffic); only their latency is
// modelled.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "dcdl/common/rng.hpp"
#include "dcdl/common/units.hpp"
#include "dcdl/device/network.hpp"

namespace dcdl::routing {

class BgpFabric {
 public:
  struct Params {
    /// Fixed per-message processing latency at the receiver.
    Time processing_delay = Time{50'000'000};  // 50 us
    /// Extra uniform jitter added per message (models CPU scheduling
    /// variance; makes convergence realistically asynchronous).
    Time processing_jitter = Time{50'000'000};  // up to +50 us
    std::uint64_t seed = 7;
  };

  BgpFabric(Network& net, Params params);

  /// Originates routes for every host destination (call once, then run the
  /// simulator until converged()).
  void start();

  /// Fails a switch-switch link now: both endpoints drop adjacency state
  /// and re-converge. Data already queued keeps flowing (the link itself
  /// is only logically removed from routing — the paper's concern is the
  /// routing churn, not the link's physics).
  void fail_link(std::uint32_t link);

  /// Restores a previously failed link; endpoints re-advertise in full.
  void restore_link(std::uint32_t link);

  /// True when no control messages or pending advertisements remain.
  bool converged() const { return pending_messages_ == 0; }

  std::uint64_t messages_sent() const { return messages_sent_; }

 private:
  struct Advertisement {
    NodeId dst;
    bool withdraw;
    std::vector<NodeId> as_path;  // sender first
  };

  void deliver(NodeId to, PortId in_port, Advertisement adv);
  void reselect(NodeId sw, NodeId dst);
  void advertise(NodeId sw, NodeId dst);
  void send(NodeId from, PortId port, Advertisement adv);
  bool link_failed(std::uint32_t link) const {
    return failed_links_.count(link) > 0;
  }

  Network& net_;
  Params params_;
  Rng rng_;
  // rib_in[sw][dst][in_port] = path as received (empty vector = direct).
  std::vector<std::map<NodeId, std::map<PortId, std::vector<NodeId>>>> rib_;
  // Selected best path per (sw, dst); nullopt = unreachable.
  std::vector<std::map<NodeId, std::optional<std::vector<NodeId>>>> best_;
  std::set<std::uint32_t> failed_links_;
  std::uint64_t pending_messages_ = 0;
  std::uint64_t messages_sent_ = 0;
};

}  // namespace dcdl::routing
