// Bounded-degree port-numbered graphs (paper Section 2.1).
//
// A Graph is an undirected simple graph where each node v orders its incident
// edges by "ports" 1..deg(v).  Port numbers are the only way algorithms in the
// query model address edges, so they are first-class here: neighbor(v, p)
// answers "who is v's p-th neighbor" in O(1).
//
// Graph either owns its CSR arrays (the Builder path) or borrows them from an
// external mapping via Graph::adopt (the snapshot path).  Either way, all
// reads go through the GraphView it hands out, so the two storage modes are
// indistinguishable to callers — including the exception contracts, which
// live in one place (graph_view.hpp, detail::csr_neighbor).
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph_view.hpp"

namespace volcal {

class Graph {
 public:
  class Builder;

  // Copying an owning Graph copies the CSR arrays into fresh storage;
  // copies of an adopted Graph alias the same external bytes.
  Graph() = default;

  // Wrap already-laid-out CSR arrays in an owning Graph.  `offsets` must have
  // n+1 entries with offsets[0] == 0, monotone, offsets[n] == adjacency.size();
  // adjacency holds each node's neighbors in port order.  The port-bijectivity
  // invariant is the caller's responsibility (Builder::build validates it; the
  // mutation fast path in graph/mutation.cpp maintains it edit-by-edit and is
  // cross-checked against the Builder path by check_mutation_case).
  static Graph from_csr(std::vector<CsrIndex> offsets, std::vector<CsrIndex> adjacency,
                        int max_degree) {
    detail::check_csr_size("Graph::from_csr", static_cast<NodeIndex>(offsets.size()) - 1,
                           adjacency.size());
    if (offsets.empty() || offsets.front() != 0 || offsets.back() != adjacency.size()) {
      throw std::invalid_argument("Graph::from_csr: malformed offsets array");
    }
    Graph g;
    g.offsets_ = std::move(offsets);
    g.adjacency_ = std::move(adjacency);
    g.max_degree_ = max_degree;
    return g;
  }

  // Borrow externally owned CSR storage (e.g. an mmap-ed snapshot section).
  // The caller must keep that storage alive and unmodified for the lifetime
  // of the returned Graph and every view taken from it; see
  // io/snapshot.hpp for the keep-alive pattern used by the loader.
  static Graph adopt(GraphView v) {
    Graph g;
    g.adopted_ = v;
    g.offsets_.clear();
    return g;
  }

  // The borrowed view of this graph's storage (owned vectors or adopted
  // mapping).  Cheap: four words, computed on access so copies and moves of
  // Graph never need fix-up.
  GraphView view() const {
    if (adopted_.offsets_data() != nullptr) return adopted_;
    return GraphView(offsets_.data(), adjacency_.data(),
                     static_cast<NodeIndex>(offsets_.size()) - 1, max_degree_);
  }

  bool adopted() const { return adopted_.offsets_data() != nullptr; }

  // Every engine entry point takes GraphView; an owning Graph converts
  // implicitly so call sites don't care which one they hold.
  operator GraphView() const { return view(); }  // NOLINT(google-explicit-constructor)

  NodeIndex node_count() const { return view().node_count(); }
  std::int64_t edge_count() const { return view().edge_count(); }

  int degree(NodeIndex v) const { return view().degree(v); }

  int max_degree() const { return view().max_degree(); }

  // v's neighbor on port p (1-based).  Throws on an out-of-range port: in the
  // query model a malformed query is a programming error of the algorithm.
  NodeIndex neighbor(NodeIndex v, Port p) const { return view().neighbor(v, p); }

  // Same contract and errors as neighbor(), for callers that have already
  // established v is valid (the query engine validates the node through its
  // visited set first): skips only the node-validity rechecks, keeping the
  // port check and its exception.
  NodeIndex neighbor_prevalidated(NodeIndex v, Port p) const {
    return view().neighbor_prevalidated(v, p);
  }

  // All neighbors of v in port order.
  std::span<const CsrIndex> neighbors(NodeIndex v) const { return view().neighbors(v); }

  // The port number p with neighbor(v, p) == w, or kNoPort if w is not
  // adjacent to v.  Linear in deg(v), which is O(Δ) = O(1).
  Port port_to(NodeIndex v, NodeIndex w) const { return view().port_to(v, w); }

  bool adjacent(NodeIndex v, NodeIndex w) const { return view().adjacent(v, w); }

  bool valid_node(NodeIndex v) const { return view().valid_node(v); }

 private:
  // CSR layout: neighbors of v are adjacency_[offsets_[v] .. offsets_[v+1]),
  // stored in port order (port p at offset p-1).  Empty (offsets_ cleared)
  // when the storage is adopted from elsewhere.
  std::vector<CsrIndex> offsets_{0};
  std::vector<CsrIndex> adjacency_;
  int max_degree_ = 0;
  GraphView adopted_{};

  friend class Builder;
};

// Incremental construction.  Edges may be added with explicit ports or with
// ports assigned in insertion order; the two styles can be mixed as long as
// the final port assignment is a bijection onto 1..deg(v) at every node.
class Graph::Builder {
 public:
  // Throws std::length_error, before allocating, if node_count > kMaxNodes.
  explicit Builder(NodeIndex node_count) : ports_(checked_count(node_count)) {}

  NodeIndex node_count() const { return static_cast<NodeIndex>(ports_.size()); }

  NodeIndex add_node() {
    detail::check_csr_size("Graph::Builder", node_count() + 1, 0);
    ports_.emplace_back();
    return static_cast<NodeIndex>(ports_.size()) - 1;
  }

  // Add edge {v, w}; ports are appended after the largest port used so far at
  // each endpoint.  Returns the pair of assigned ports (port at v, port at w).
  std::pair<Port, Port> add_edge(NodeIndex v, NodeIndex w);

  // Add edge {v, w} with explicit port numbers pv (at v) and pw (at w).
  void add_edge_with_ports(NodeIndex v, NodeIndex w, Port pv, Port pw);

  // Validates port bijectivity and the adjacency cap, and freezes the
  // structure.
  Graph build() &&;

 private:
  struct PortedEdge {
    Port port;
    NodeIndex to;
  };
  void check_node(NodeIndex v) const;
  static std::size_t checked_count(NodeIndex n) {
    detail::check_csr_size("Graph::Builder", n, 0);
    return static_cast<std::size_t>(n);
  }

  std::vector<std::vector<PortedEdge>> ports_;
};

}  // namespace volcal
