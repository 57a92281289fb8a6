#include "graph/graph.hpp"

#include <algorithm>

namespace volcal {

void Graph::Builder::check_node(NodeIndex v) const {
  if (v < 0 || v >= node_count()) {
    throw std::out_of_range("Graph::Builder: node " + std::to_string(v) + " out of range");
  }
}

std::pair<Port, Port> Graph::Builder::add_edge(NodeIndex v, NodeIndex w) {
  check_node(v);
  check_node(w);
  if (v == w) throw std::invalid_argument("Graph::Builder: self-loops are not allowed");
  auto next_port = [this](NodeIndex u) {
    Port max_port = 0;
    for (const auto& e : ports_[u]) max_port = std::max(max_port, e.port);
    return max_port + 1;
  };
  Port pv = next_port(v);
  Port pw = next_port(w);
  ports_[v].push_back({pv, w});
  ports_[w].push_back({pw, v});
  return {pv, pw};
}

void Graph::Builder::add_edge_with_ports(NodeIndex v, NodeIndex w, Port pv, Port pw) {
  check_node(v);
  check_node(w);
  if (v == w) throw std::invalid_argument("Graph::Builder: self-loops are not allowed");
  if (pv < 1 || pw < 1) throw std::invalid_argument("Graph::Builder: ports are 1-based");
  ports_[v].push_back({pv, w});
  ports_[w].push_back({pw, v});
}

Graph Graph::Builder::build() && {
  std::uint64_t total = 0;
  for (const auto& edges : ports_) total += edges.size();
  detail::check_csr_size("Graph::Builder", node_count(), total);
  Graph g;
  g.offsets_.clear();
  g.offsets_.reserve(ports_.size() + 1);
  g.offsets_.push_back(0);
  CsrIndex end = 0;
  for (auto& edges : ports_) {
    std::sort(edges.begin(), edges.end(),
              [](const PortedEdge& a, const PortedEdge& b) { return a.port < b.port; });
    // Port numbers must form exactly 1..deg(v): the paper's port ordering is a
    // bijection between incident edges and [deg(v)].
    for (std::size_t i = 0; i < edges.size(); ++i) {
      if (edges[i].port != static_cast<Port>(i + 1)) {
        throw std::invalid_argument(
            "Graph::Builder: ports at a node must form exactly 1..deg(v)");
      }
    }
    end += static_cast<CsrIndex>(edges.size());
    g.offsets_.push_back(end);
  }
  g.adjacency_.reserve(end);
  for (const auto& edges : ports_) {
    for (const auto& e : edges) g.adjacency_.push_back(static_cast<CsrIndex>(e.to));
  }
  g.max_degree_ = 0;
  for (NodeIndex v = 0; v < g.node_count(); ++v) {
    g.max_degree_ = std::max(g.max_degree_, g.degree(v));
  }
  return g;
}

}  // namespace volcal
