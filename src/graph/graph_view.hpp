// Borrowed, trivially-copyable view of a port-numbered CSR graph.
//
// GraphView is the type every engine entry point consumes: it is four words
// (offsets pointer, adjacency pointer, node count, max degree) and carries no
// ownership.  Both CSR arrays hold 32-bit entries (CsrIndex): a graph has at
// most kMaxNodes nodes and kMaxAdjacency adjacency entries, and every way a
// graph is made (Graph::Builder, Graph::from_csr, io::Snapshot::load) refuses
// larger ones.  An owning Graph converts to it implicitly, and the
// mmap-backed snapshot loader (io/snapshot.hpp) produces one directly over
// the file mapping — so in-RAM and on-disk instances are indistinguishable
// to the backends.
//
// Lifetime contract: a GraphView borrows storage.  Whoever hands one out
// (Graph, io::Snapshot) must keep the underlying arrays alive and unmodified
// for as long as the view is used.  The engine never stores a view past the
// lifetime of the sweep it was bound for.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>

namespace volcal {

using NodeIndex = std::int64_t;
using Port = int;  // 1-based; 0 is reserved for "no port" (the label ⊥)

inline constexpr NodeIndex kNoNode = -1;
inline constexpr Port kNoPort = 0;

// The element type of both CSR arrays: offsets into the adjacency array and
// the node indices stored in it.
using CsrIndex = std::uint32_t;

// The one node-count cap: node indices fit an int32 (the executor stores BFS
// layers as int32), and the adjacency array's length fits a CsrIndex.
inline constexpr NodeIndex kMaxNodes = std::numeric_limits<std::int32_t>::max();
inline constexpr std::uint64_t kMaxAdjacency = std::numeric_limits<CsrIndex>::max();

namespace detail {

// The one place the out-of-range contracts live.  Graph::neighbor,
// Graph::neighbor_prevalidated and GraphView all funnel through these, so the
// wording and semantics cannot drift between the owning and view types.
[[noreturn]] inline void throw_node_out_of_range(NodeIndex v) {
  throw std::out_of_range("Graph: node " + std::to_string(v) + " out of range");
}

[[noreturn]] inline void throw_port_out_of_range(NodeIndex v, Port p, std::int64_t deg) {
  throw std::out_of_range("Graph::neighbor: port " + std::to_string(p) +
                          " out of range for node " + std::to_string(v) +
                          " with degree " + std::to_string(deg));
}

// Refuses a CSR shape past the caps above, naming `who` — called by every
// constructor of CSR storage before it allocates.
inline void check_csr_size(const char* who, NodeIndex n, std::uint64_t adjacency_count) {
  if (n > kMaxNodes) {
    throw std::length_error(std::string(who) + ": " + std::to_string(n) +
                            " nodes exceed the cap of " + std::to_string(kMaxNodes));
  }
  if (adjacency_count > kMaxAdjacency) {
    throw std::length_error(std::string(who) + ": " + std::to_string(adjacency_count) +
                            " adjacency entries exceed the cap of " +
                            std::to_string(kMaxAdjacency));
  }
}

// Port-checked CSR lookup: v's neighbor on port p (1-based).  Assumes v is a
// valid node; throws on an out-of-range port — in the query model a malformed
// query is a programming error of the algorithm.
inline NodeIndex csr_neighbor(const CsrIndex* offsets, const CsrIndex* adjacency, NodeIndex v,
                              Port p) {
  const CsrIndex off = offsets[v];
  const auto deg = static_cast<std::int64_t>(offsets[v + 1] - off);
  if (p < 1 || static_cast<std::int64_t>(p) > deg) throw_port_out_of_range(v, p, deg);
  return adjacency[off + static_cast<CsrIndex>(p) - 1];
}

}  // namespace detail

class GraphView {
 public:
  constexpr GraphView() = default;
  constexpr GraphView(const CsrIndex* offsets, const CsrIndex* adjacency,
                      NodeIndex node_count, int max_degree)
      : offsets_(offsets), adjacency_(adjacency), n_(node_count), max_degree_(max_degree) {}

  NodeIndex node_count() const { return n_; }
  std::int64_t edge_count() const {
    return n_ == 0 ? 0 : static_cast<std::int64_t>(offsets_[n_]) / 2;
  }

  int degree(NodeIndex v) const {
    check_node(v);
    return static_cast<int>(offsets_[v + 1] - offsets_[v]);
  }

  int max_degree() const { return max_degree_; }

  // v's neighbor on port p (1-based).  Same contract and exception wording as
  // Graph::neighbor — both delegate to detail::csr_neighbor.
  NodeIndex neighbor(NodeIndex v, Port p) const {
    check_node(v);
    return detail::csr_neighbor(offsets_, adjacency_, v, p);
  }

  // Same contract and errors as neighbor(), for callers that have already
  // established v is valid (the query engine validates the node through its
  // visited set first): skips only the node-validity recheck, keeping the
  // port check and its exception.
  NodeIndex neighbor_prevalidated(NodeIndex v, Port p) const {
    return detail::csr_neighbor(offsets_, adjacency_, v, p);
  }

  // All neighbors of v in port order.
  std::span<const CsrIndex> neighbors(NodeIndex v) const {
    check_node(v);
    return {adjacency_ + offsets_[v], adjacency_ + offsets_[v + 1]};
  }

  // The port number p with neighbor(v, p) == w, or kNoPort if w is not
  // adjacent to v.  Linear in deg(v), which is O(Δ) = O(1).
  Port port_to(NodeIndex v, NodeIndex w) const {
    auto nbrs = neighbors(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (nbrs[i] == w) return static_cast<Port>(i + 1);
    }
    return kNoPort;
  }

  bool adjacent(NodeIndex v, NodeIndex w) const { return port_to(v, w) != kNoPort; }

  bool valid_node(NodeIndex v) const { return v >= 0 && v < n_; }

  const CsrIndex* offsets_data() const { return offsets_; }
  const CsrIndex* adjacency_data() const { return adjacency_; }

 private:
  void check_node(NodeIndex v) const {
    if (!valid_node(v)) detail::throw_node_out_of_range(v);
  }

  // CSR layout: neighbors of v are adjacency_[offsets_[v] .. offsets_[v+1]),
  // stored in port order (port p at offset p-1).
  const CsrIndex* offsets_ = nullptr;
  const CsrIndex* adjacency_ = nullptr;
  NodeIndex n_ = 0;
  int max_degree_ = 0;
};

static_assert(std::is_trivially_copyable_v<GraphView>,
              "GraphView must stay a borrowed, trivially-copyable handle");

}  // namespace volcal
