#include "dcdl/analysis/bdg.hpp"

#include <algorithm>
#include <cstdio>
#include <numeric>

namespace dcdl::analysis {

BufferDependencyGraph BufferDependencyGraph::build(
    const Network& net, const std::vector<FlowSpec>& flows) {
  return build(net, walk_routes(net, flows));
}

BufferDependencyGraph BufferDependencyGraph::build(const Network& net,
                                                   const RouteWalk& walk) {
  const Topology& topo = net.topo();
  const auto classes = static_cast<std::uint32_t>(net.config().num_classes);
  const auto queue_of = [&](const PortPeer& into, ClassId cls) {
    const std::size_t channel = net.channel_id(into.peer_node, into.peer_port);
    return static_cast<std::uint32_t>(channel * classes + cls);
  };

  // Every queue a forwarding switch holds or a switch forwards into, and
  // every (from << 32 | to) dependency, repeats included.
  std::vector<std::uint32_t> ids;
  std::vector<std::uint64_t> arcs;
  for (std::size_t i = 0; i < walk.flows(); ++i) {
    const std::span<const Hop> hops = walk.hops(i);
    if (hops.size() < 2) continue;  // the first switch forwarded nothing
    std::uint32_t from =
        queue_of(topo.peer(hops[0].node, hops[0].port), hops[0].cls);
    ids.push_back(from);
    for (std::size_t k = 1; k < hops.size(); ++k) {
      const PortPeer& into = topo.peer(hops[k].node, hops[k].port);
      if (!topo.is_switch(into.peer_node)) break;  // delivered
      const std::uint32_t to = queue_of(into, hops[k].cls);
      ids.push_back(to);
      arcs.push_back(std::uint64_t{from} << 32 | to);
      from = to;
    }
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  std::sort(arcs.begin(), arcs.end());
  arcs.erase(std::unique(arcs.begin(), arcs.end()), arcs.end());

  BufferDependencyGraph g;
  g.looping_flows_ = walk.looping_flows();
  const auto n = static_cast<std::uint32_t>(ids.size());
  g.vertices_.reserve(n);
  NodeId node = 0;
  for (const std::uint32_t q : ids) {
    const std::size_t channel = q / classes;
    while (node + 1 < topo.node_count() &&
           net.channel_id(node + 1, 0) <= channel) {
      ++node;
    }
    g.vertices_.push_back(QueueKey{
        node, static_cast<PortId>(channel - net.channel_id(node, 0)),
        static_cast<ClassId>(q % classes)});
  }
  const auto index_of = [&](std::uint32_t q) {
    return static_cast<std::uint32_t>(
        std::lower_bound(ids.begin(), ids.end(), q) - ids.begin());
  };
  g.succ_begin_.assign(n + 1, 0);
  g.succ_.reserve(arcs.size());
  for (const std::uint64_t a : arcs) {
    g.succ_begin_[index_of(static_cast<std::uint32_t>(a >> 32)) + 1] += 1;
    g.succ_.push_back(index_of(static_cast<std::uint32_t>(a)));
  }
  std::partial_sum(g.succ_begin_.begin(), g.succ_begin_.end(),
                   g.succ_begin_.begin());

  // Tarjan's SCC, iteratively: roots in vertex order, successors in
  // order, so components complete (and pop their members) exactly as the
  // recursive formulation would. A popped vertex's index becomes kDone,
  // which no low-link minimum picks: no on-stack flags needed.
  constexpr std::uint32_t kNew = ~std::uint32_t{0};
  constexpr std::uint32_t kDone = kNew - 1;
  std::vector<std::uint32_t> index(n, kNew);
  std::vector<std::uint32_t> low(n, 0);
  std::vector<std::uint32_t> stack;
  struct Frame {
    std::uint32_t v;
    std::uint32_t next;  ///< next successor slot to explore
  };
  std::vector<Frame> frames;
  std::uint32_t counter = 0;
  for (std::uint32_t root = 0; root < n; ++root) {
    if (index[root] != kNew) continue;
    frames.push_back(Frame{root, g.succ_begin_[root]});
    while (!frames.empty()) {
      const std::uint32_t v = frames.back().v;
      if (index[v] == kNew) {
        index[v] = low[v] = counter++;
        stack.push_back(v);
      }
      if (frames.back().next < g.succ_begin_[v + 1]) {
        const std::uint32_t w = g.succ_[frames.back().next++];
        if (index[w] == kNew) {
          frames.push_back(Frame{w, g.succ_begin_[w]});
        } else {
          low[v] = std::min(low[v], index[w]);
        }
        continue;
      }
      frames.pop_back();
      if (!frames.empty()) {
        low[frames.back().v] = std::min(low[frames.back().v], low[v]);
      }
      if (low[v] != index[v]) continue;
      const std::size_t begin = g.scc_.size();
      std::uint32_t w;
      do {
        w = stack.back();
        stack.pop_back();
        index[w] = kDone;
        g.scc_.push_back(w);
      } while (w != v);
      const auto succ = g.successors(v);
      if (g.scc_.size() - begin > 1 ||
          std::binary_search(succ.begin(), succ.end(), v)) {
        g.scc_begin_.push_back(static_cast<std::uint32_t>(g.scc_.size()));
      } else {
        g.scc_.resize(begin);  // a lone vertex without a self-loop
      }
    }
  }
  return g;
}

std::vector<std::vector<QueueKey>> BufferDependencyGraph::cycles() const {
  std::vector<std::vector<QueueKey>> out;
  std::vector<char> member(vertices_.size(), 0);
  std::vector<char> on_path(vertices_.size(), 0);
  std::vector<std::uint32_t> path;
  std::vector<std::uint32_t> next;  ///< per path vertex: next successor slot
  for (std::size_t c = 0; c + 1 < scc_begin_.size(); ++c) {
    const std::span<const std::uint32_t> scc(
        scc_.data() + scc_begin_[c], scc_begin_[c + 1] - scc_begin_[c]);
    if (scc.size() == 1) {
      out.push_back({vertices_[scc[0]]});
      continue;
    }
    // One cycle within the component: a depth-first search from its first
    // popped vertex back to itself, successors in order, backtracking out
    // of dead ends.
    for (const std::uint32_t v : scc) member[v] = 1;
    const std::uint32_t start = scc[0];
    path.assign(1, start);
    next.assign(1, succ_begin_[start]);
    on_path[start] = 1;
    bool found = false;
    while (!path.empty() && !found) {
      const std::uint32_t v = path.back();
      if (next.back() == succ_begin_[v + 1]) {
        on_path[v] = 0;
        path.pop_back();
        next.pop_back();
        continue;
      }
      const std::uint32_t w = succ_[next.back()++];
      if (member[w] == 0) continue;
      if (w == start && path.size() > 1) {
        found = true;
      } else if (on_path[w] == 0) {
        on_path[w] = 1;
        path.push_back(w);
        next.push_back(succ_begin_[w]);
      }
    }
    if (found) {
      std::vector<QueueKey>& cycle = out.emplace_back();
      for (const std::uint32_t v : path) cycle.push_back(vertices_[v]);
    }
    for (const std::uint32_t v : path) on_path[v] = 0;
    for (const std::uint32_t v : scc) member[v] = 0;
  }
  return out;
}

std::string BufferDependencyGraph::describe(const Network& net) const {
  std::string out = "buffer dependency graph:\n";
  char buf[160];
  for (std::size_t v = 0; v < vertices_.size(); ++v) {
    const QueueKey& from = vertices_[v];
    for (const std::uint32_t t : successors(v)) {
      const QueueKey& to = vertices_[t];
      std::snprintf(buf, sizeof(buf), "  %s[rx%u,c%u] -> %s[rx%u,c%u]\n",
                    net.topo().node(from.node).name.c_str(), from.port,
                    from.cls, net.topo().node(to.node).name.c_str(), to.port,
                    to.cls);
      out += buf;
    }
  }
  std::snprintf(buf, sizeof(buf), "  cycles: %zu, looping flows: %zu\n",
                cycles().size(), looping_flows_.size());
  out += buf;
  return out;
}

bool routing_deadlock_free(const Network& net,
                           const std::vector<FlowSpec>& flows) {
  return !BufferDependencyGraph::build(net, flows).has_cycle();
}

}  // namespace dcdl::analysis
