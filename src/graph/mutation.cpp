#include "graph/mutation.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace volcal {
namespace {

void check_index(NodeIndex v, NodeIndex n, const char* what) {
  if (v < 0 || v >= n) {
    throw std::invalid_argument("apply_mutation: " + std::string(what) + " " +
                                std::to_string(v) + " out of range for n = " +
                                std::to_string(n));
  }
}

[[noreturn]] void throw_not_a_leaf(NodeIndex leaf, std::size_t deg) {
  throw std::invalid_argument("apply_mutation: rewire of node " + std::to_string(leaf) +
                              " with degree " + std::to_string(deg) +
                              " (only degree-1 leaves can be rewired)");
}

[[noreturn]] void throw_self_rewire(NodeIndex leaf) {
  throw std::invalid_argument("apply_mutation: self-rewire of node " +
                              std::to_string(leaf));
}

}  // namespace

AppliedMutation apply_mutation(GraphView g, const MutationBatch& batch) {
  const NodeIndex n = g.node_count();
  for (const LabelUpdate& u : batch.label_updates) {
    check_index(u.node, n, "label-update node");
  }

  // Per-node neighbor lists, port order implicit in position (port p lives at
  // index p-1) — erase *is* the port compaction, push_back *is* "next free
  // port".  The Builder-based reference path below carries explicit port
  // numbers instead, so the two implementations share no representation.
  std::vector<std::vector<NodeIndex>> nbrs(static_cast<std::size_t>(n));
  for (NodeIndex v = 0; v < n; ++v) {
    const auto span = g.neighbors(v);
    nbrs[static_cast<std::size_t>(v)].assign(span.begin(), span.end());
  }

  std::vector<NodeIndex> touched;
  touched.reserve(batch.rewires.size() * 3);
  for (const LeafRewire& r : batch.rewires) {
    check_index(r.leaf, n, "rewire leaf");
    check_index(r.new_parent, n, "rewire new_parent");
    if (r.leaf == r.new_parent) throw_self_rewire(r.leaf);
    auto& ln = nbrs[static_cast<std::size_t>(r.leaf)];
    if (ln.size() != 1) throw_not_a_leaf(r.leaf, ln.size());
    const NodeIndex old_parent = ln.front();
    auto& pn = nbrs[static_cast<std::size_t>(old_parent)];
    pn.erase(std::find(pn.begin(), pn.end(), r.leaf));
    nbrs[static_cast<std::size_t>(r.new_parent)].push_back(r.leaf);
    ln.front() = r.new_parent;
    touched.push_back(r.leaf);
    touched.push_back(old_parent);
    touched.push_back(r.new_parent);
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());

  std::vector<std::size_t> offsets;
  offsets.reserve(static_cast<std::size_t>(n) + 1);
  offsets.push_back(0);
  std::size_t total = 0;
  int max_degree = 0;
  for (NodeIndex v = 0; v < n; ++v) {
    const auto deg = nbrs[static_cast<std::size_t>(v)].size();
    total += deg;
    offsets.push_back(total);
    max_degree = std::max(max_degree, static_cast<int>(deg));
  }
  std::vector<NodeIndex> adjacency;
  adjacency.reserve(total);
  for (NodeIndex v = 0; v < n; ++v) {
    const auto& vn = nbrs[static_cast<std::size_t>(v)];
    adjacency.insert(adjacency.end(), vn.begin(), vn.end());
  }

  AppliedMutation out;
  out.graph = Graph::from_csr(std::move(offsets), std::move(adjacency), max_degree);
  out.touched = std::move(touched);
  return out;
}

Graph apply_mutation_naive(GraphView g, const MutationBatch& batch) {
  const NodeIndex n = g.node_count();
  struct PortedEdge {
    Port port;
    NodeIndex to;
  };
  std::vector<std::vector<PortedEdge>> ports(static_cast<std::size_t>(n));
  for (NodeIndex v = 0; v < n; ++v) {
    const int deg = g.degree(v);
    for (Port p = 1; p <= deg; ++p) {
      ports[static_cast<std::size_t>(v)].push_back({p, g.neighbor(v, p)});
    }
  }

  for (const LeafRewire& r : batch.rewires) {
    check_index(r.leaf, n, "rewire leaf");
    check_index(r.new_parent, n, "rewire new_parent");
    if (r.leaf == r.new_parent) throw_self_rewire(r.leaf);
    auto& ln = ports[static_cast<std::size_t>(r.leaf)];
    if (ln.size() != 1) throw_not_a_leaf(r.leaf, ln.size());
    const NodeIndex old_parent = ln.front().to;
    auto& pn = ports[static_cast<std::size_t>(old_parent)];
    const auto it = std::find_if(pn.begin(), pn.end(),
                                 [&](const PortedEdge& e) { return e.to == r.leaf; });
    const Port removed = it->port;
    pn.erase(it);
    for (PortedEdge& e : pn) {
      if (e.port > removed) --e.port;  // explicit port compaction
    }
    ports[static_cast<std::size_t>(r.new_parent)].push_back(
        {static_cast<Port>(ports[static_cast<std::size_t>(r.new_parent)].size() + 1),
         r.leaf});
    ln.front() = {1, r.new_parent};
  }

  Graph::Builder b(n);
  for (NodeIndex v = 0; v < n; ++v) {
    for (const PortedEdge& e : ports[static_cast<std::size_t>(v)]) {
      if (v > e.to) continue;  // each undirected edge added once
      const auto& back = ports[static_cast<std::size_t>(e.to)];
      const auto bit = std::find_if(back.begin(), back.end(),
                                    [&](const PortedEdge& w) { return w.to == v; });
      b.add_edge_with_ports(v, e.to, e.port, bit->port);
    }
  }
  return std::move(b).build();
}

std::vector<NodeIndex> changed_nodes(const MutationBatch& batch,
                                     std::span<const NodeIndex> touched) {
  std::vector<NodeIndex> out(touched.begin(), touched.end());
  for (const LabelUpdate& u : batch.label_updates) out.push_back(u.node);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace volcal
