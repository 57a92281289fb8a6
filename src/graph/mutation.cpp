#include "graph/mutation.hpp"

#include <algorithm>
#include <cstddef>
#include <map>
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

  // Rows of the nodes the batch touches, copied from `g` on first touch and
  // edited in batch order.  Port order is implicit in position (port p lives
  // at index p-1) — erase *is* the port compaction, push_back *is* "next free
  // port".  The Builder-based reference path below carries explicit port
  // numbers instead, so the two implementations share no representation.
  // std::map keeps references stable across inserts and iterates in node
  // order, which the splice below walks.
  std::map<NodeIndex, std::vector<CsrIndex>> rows;
  const auto row = [&](NodeIndex v) -> std::vector<CsrIndex>& {
    const auto [it, fresh] = rows.try_emplace(v);
    if (fresh) {
      const auto span = g.neighbors(v);
      it->second.assign(span.begin(), span.end());
    }
    return it->second;
  };
  for (const LeafRewire& r : batch.rewires) {
    check_index(r.leaf, n, "rewire leaf");
    check_index(r.new_parent, n, "rewire new_parent");
    if (r.leaf == r.new_parent) throw_self_rewire(r.leaf);
    auto& ln = row(r.leaf);
    if (ln.size() != 1) throw_not_a_leaf(r.leaf, ln.size());
    const NodeIndex old_parent = ln.front();
    auto& pn = row(old_parent);
    pn.erase(std::find(pn.begin(), pn.end(), r.leaf));
    row(r.new_parent).push_back(static_cast<CsrIndex>(r.leaf));
    ln.front() = static_cast<CsrIndex>(r.new_parent);
  }

  // Splice: every offset shifts by the running change in degree of the
  // touched rows before it, and the adjacency between touched rows is copied
  // as contiguous ranges.
  const CsrIndex* off = g.offsets_data();
  const CsrIndex* adj = g.adjacency_data();
  std::vector<CsrIndex> offsets(static_cast<std::size_t>(n) + 1);
  std::ptrdiff_t shift = 0;
  int max_degree = 0;
  auto next = rows.begin();
  for (NodeIndex v = 0; v < n; ++v) {
    const auto i = static_cast<std::size_t>(v);
    if (next != rows.end() && next->first == v) {
      shift += static_cast<std::ptrdiff_t>(next->second.size()) -
               static_cast<std::ptrdiff_t>(off[i + 1] - off[i]);
      ++next;
    }
    offsets[i + 1] = static_cast<CsrIndex>(static_cast<std::ptrdiff_t>(off[i + 1]) + shift);
    max_degree = std::max(max_degree, static_cast<int>(offsets[i + 1] - offsets[i]));
  }
  std::vector<CsrIndex> adjacency;
  adjacency.reserve(offsets.back());
  std::vector<NodeIndex> touched;
  touched.reserve(rows.size());
  CsrIndex copied = 0;  // old adjacency slots [0, copied) are handled
  for (const auto& [v, r] : rows) {
    const auto i = static_cast<std::size_t>(v);
    adjacency.insert(adjacency.end(), adj + copied, adj + off[i]);
    adjacency.insert(adjacency.end(), r.begin(), r.end());
    copied = off[i + 1];
    touched.push_back(v);
  }
  adjacency.insert(adjacency.end(), adj + copied, adj + off[static_cast<std::size_t>(n)]);

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
