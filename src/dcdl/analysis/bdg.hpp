// Buffer dependency graph (paper §2/§3; "channel dependency graph" in the
// Dally–Seitz tradition).
//
// Vertices are switch ingress queues (switch, ingress port, class). There
// is an edge (A, rxA, c) -> (B, rxB, c') when some flow's packets occupying
// (A, rxA, c) are forwarded over the link into (B, rxB, c'): whether A can
// drain that queue depends on B's queue staying below its PFC threshold.
// A cycle in this graph is the *necessary* condition for deadlock the
// paper starts from — and the whole point of the paper is that it is not
// sufficient.
//
// The graph is built from the route walk (route_walk.hpp), which applies
// the switches' lookup, TTL and re-classification rules, so routing loops
// and class-remapping mitigations are analyzed faithfully. Queues are
// numbered Network::channel_id(switch, port) * num_classes + class, which
// ascends as QueueKey does; edges are CSR, and one iterative Tarjan pass
// at build time serves both has_cycle() and cycles().
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "dcdl/analysis/route_walk.hpp"
#include "dcdl/device/network.hpp"
#include "dcdl/stats/pause_log.hpp"
#include "dcdl/traffic/flow.hpp"

namespace dcdl::analysis {

using QueueKey = stats::QueueKey;  // (node, port, cls)

class BufferDependencyGraph {
 public:
  /// Builds the dependency graph for the given flows over the network's
  /// current route tables.
  static BufferDependencyGraph build(const Network& net,
                                     const std::vector<FlowSpec>& flows);
  /// Builds it from an existing walk of the network's routes.
  static BufferDependencyGraph build(const Network& net,
                                     const RouteWalk& walk);

  /// The vertices, ascending.
  const std::vector<QueueKey>& vertices() const { return vertices_; }
  /// Successors of vertices()[v], as ascending indices into vertices().
  std::span<const std::uint32_t> successors(std::size_t v) const {
    return {succ_.begin() + succ_begin_[v], succ_.begin() + succ_begin_[v + 1]};
  }

  bool has_cycle() const { return scc_begin_.size() > 1; }

  /// One representative cycle per strongly-connected component with >1 node
  /// (or a self-loop). Each cycle is a vertex sequence v0 -> v1 -> ... -> v0.
  std::vector<std::vector<QueueKey>> cycles() const;

  /// Flows whose packets re-enter a queue they occupied: they are trapped
  /// in a routing loop (RouteWalk::looping).
  const std::vector<FlowId>& looping_flows() const { return looping_flows_; }

  std::string describe(const Network& net) const;

 private:
  std::vector<QueueKey> vertices_;
  std::vector<std::uint32_t> succ_begin_{0};  ///< CSR offsets, |V| + 1
  std::vector<std::uint32_t> succ_;
  /// Components with a cycle, in Tarjan's completion order, each as the
  /// vertices it popped (CSR: scc_begin_ offsets into scc_).
  std::vector<std::uint32_t> scc_begin_{0};
  std::vector<std::uint32_t> scc_;
  std::vector<FlowId> looping_flows_;
};

/// Certifies the routing configuration deadlock-free for the given flow set:
/// true iff the buffer dependency graph is acyclic (Dally–Seitz; the
/// paper's §5 cites this as necessary and sufficient for deadlock-free
/// *routing*, i.e. freedom for any traffic pattern over those paths).
bool routing_deadlock_free(const Network& net,
                           const std::vector<FlowSpec>& flows);

}  // namespace dcdl::analysis
