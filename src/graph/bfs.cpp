#include "graph/bfs.hpp"

#include <algorithm>
#include <deque>

#include "util/hash.hpp"

namespace volcal {

std::vector<std::int64_t> bfs_distances(GraphView g, NodeIndex source) {
  std::vector<std::int64_t> dist(g.node_count(), kUnreachable);
  std::deque<NodeIndex> frontier{source};
  dist[source] = 0;
  while (!frontier.empty()) {
    NodeIndex v = frontier.front();
    frontier.pop_front();
    for (NodeIndex w : g.neighbors(v)) {
      if (dist[w] == kUnreachable) {
        dist[w] = dist[v] + 1;
        frontier.push_back(w);
      }
    }
  }
  return dist;
}

namespace {

// Open-addressing set of node indices sized to what it holds (load <= 1/2),
// so a BFS over a small ball costs O(|ball| · Δ) whatever the graph's size.
class NodeSet {
 public:
  // Inserts v; false if it was already present.
  bool insert(NodeIndex v) {
    if (2 * (size_ + 1) > slots_.size()) grow();
    std::size_t i = slot_of(v);
    while (slots_[i] != kNoNode) {
      if (slots_[i] == v) return false;
      i = (i + 1) & (slots_.size() - 1);
    }
    slots_[i] = v;
    ++size_;
    return true;
  }

 private:
  std::size_t slot_of(NodeIndex v) const {
    return static_cast<std::size_t>(splitmix64(static_cast<std::uint64_t>(v))) &
           (slots_.size() - 1);
  }

  void grow() {
    std::vector<NodeIndex> old(std::max<std::size_t>(16, 2 * slots_.size()), kNoNode);
    old.swap(slots_);
    size_ = 0;
    for (const NodeIndex v : old) {
      if (v != kNoNode) insert(v);
    }
  }

  std::vector<NodeIndex> slots_;
  std::size_t size_ = 0;
};

}  // namespace

BallWithDistances ball_with_distances(GraphView g, NodeIndex center, std::int64_t radius) {
  BallWithDistances out;
  if (radius < 0) return out;
  // The visited set is sized to the ball, not to n: extracting a small ball
  // stays proportional to its volume, so checking a radius-r predicate at
  // every node is linear in n, not quadratic.
  NodeSet seen;
  seen.insert(center);
  out.nodes.push_back(center);
  out.dist.push_back(0);
  for (std::size_t head = 0; head < out.nodes.size(); ++head) {
    const NodeIndex v = out.nodes[head];
    const std::int64_t dv = out.dist[head];
    if (dv == radius) continue;
    for (const NodeIndex w : g.neighbors(v)) {
      if (seen.insert(w)) {
        out.nodes.push_back(w);
        out.dist.push_back(dv + 1);
      }
    }
  }
  return out;
}

std::vector<NodeIndex> ball(GraphView g, NodeIndex center, std::int64_t radius) {
  return ball_with_distances(g, center, radius).nodes;
}

std::int64_t eccentricity(GraphView g, NodeIndex source) {
  auto dist = bfs_distances(g, source);
  std::int64_t ecc = 0;
  for (auto d : dist) ecc = std::max(ecc, d);
  return ecc;
}

Components connected_components(GraphView g) {
  Components out;
  out.component_of.assign(g.node_count(), -1);
  for (NodeIndex v = 0; v < g.node_count(); ++v) {
    if (out.component_of[v] != -1) continue;
    std::deque<NodeIndex> frontier{v};
    out.component_of[v] = out.count;
    while (!frontier.empty()) {
      NodeIndex u = frontier.front();
      frontier.pop_front();
      for (NodeIndex w : g.neighbors(u)) {
        if (out.component_of[w] == -1) {
          out.component_of[w] = out.count;
          frontier.push_back(w);
        }
      }
    }
    ++out.count;
  }
  return out;
}

}  // namespace volcal
