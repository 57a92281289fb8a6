#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "graph/bfs.hpp"
#include "graph/mutation.hpp"

namespace volcal {
namespace {

TEST(GraphBuilder, EmptyGraph) {
  Graph g = Graph::Builder(0).build();
  EXPECT_EQ(g.node_count(), 0);
  EXPECT_EQ(g.edge_count(), 0);
  EXPECT_EQ(g.max_degree(), 0);
}

TEST(GraphBuilder, SingleEdgeAutoPorts) {
  Graph::Builder b(2);
  auto [pv, pw] = b.add_edge(0, 1);
  EXPECT_EQ(pv, 1);
  EXPECT_EQ(pw, 1);
  Graph g = std::move(b).build();
  EXPECT_EQ(g.node_count(), 2);
  EXPECT_EQ(g.edge_count(), 1);
  EXPECT_EQ(g.neighbor(0, 1), 1);
  EXPECT_EQ(g.neighbor(1, 1), 0);
  EXPECT_EQ(g.degree(0), 1);
  EXPECT_EQ(g.max_degree(), 1);
}

TEST(GraphBuilder, ExplicitPortsRespected) {
  Graph::Builder b(3);
  b.add_edge_with_ports(0, 1, 2, 1);
  b.add_edge_with_ports(0, 2, 1, 1);
  Graph g = std::move(b).build();
  EXPECT_EQ(g.neighbor(0, 1), 2);
  EXPECT_EQ(g.neighbor(0, 2), 1);
  EXPECT_EQ(g.port_to(0, 1), 2);
  EXPECT_EQ(g.port_to(0, 2), 1);
  EXPECT_EQ(g.port_to(1, 0), 1);
}

TEST(GraphBuilder, AutoPortsAppendAfterExplicit) {
  Graph::Builder b(3);
  b.add_edge_with_ports(0, 1, 1, 1);
  auto [pv, pw] = b.add_edge(0, 2);
  EXPECT_EQ(pv, 2);
  EXPECT_EQ(pw, 1);
  Graph g = std::move(b).build();
  EXPECT_EQ(g.degree(0), 2);
}

TEST(GraphBuilder, RejectsSelfLoop) {
  Graph::Builder b(1);
  EXPECT_THROW(b.add_edge(0, 0), std::invalid_argument);
  Graph::Builder b2(1);
  EXPECT_THROW(b2.add_edge_with_ports(0, 0, 1, 2), std::invalid_argument);
}

TEST(GraphBuilder, RejectsNonContiguousPorts) {
  Graph::Builder b(2);
  b.add_edge_with_ports(0, 1, 2, 1);  // port 2 at node 0, but no port 1
  EXPECT_THROW(std::move(b).build(), std::invalid_argument);
}

TEST(GraphBuilder, RejectsDuplicatePort) {
  Graph::Builder b(3);
  b.add_edge_with_ports(0, 1, 1, 1);
  b.add_edge_with_ports(0, 2, 1, 1);
  EXPECT_THROW(std::move(b).build(), std::invalid_argument);
}

TEST(GraphBuilder, RejectsOutOfRangeNode) {
  Graph::Builder b(2);
  EXPECT_THROW(b.add_edge(0, 5), std::out_of_range);
}

TEST(Graph, PortOutOfRangeThrows) {
  Graph::Builder b(2);
  b.add_edge(0, 1);
  Graph g = std::move(b).build();
  EXPECT_THROW(g.neighbor(0, 0), std::out_of_range);
  EXPECT_THROW(g.neighbor(0, 2), std::out_of_range);
  EXPECT_THROW(g.neighbor(5, 1), std::out_of_range);
}

TEST(Graph, NeighborsSpanInPortOrder) {
  Graph::Builder b(4);
  b.add_edge_with_ports(0, 1, 3, 1);
  b.add_edge_with_ports(0, 2, 1, 1);
  b.add_edge_with_ports(0, 3, 2, 1);
  Graph g = std::move(b).build();
  auto nbrs = g.neighbors(0);
  ASSERT_EQ(nbrs.size(), 3u);
  EXPECT_EQ(nbrs[0], 2u);
  EXPECT_EQ(nbrs[1], 3u);
  EXPECT_EQ(nbrs[2], 1u);
}

TEST(Graph, AddNodeGrows) {
  Graph::Builder b(1);
  const NodeIndex v = b.add_node();
  EXPECT_EQ(v, 1);
  b.add_edge(0, v);
  Graph g = std::move(b).build();
  EXPECT_EQ(g.node_count(), 2);
  EXPECT_TRUE(g.adjacent(0, 1));
}

Graph path_graph(NodeIndex n) {
  Graph::Builder b(n);
  for (NodeIndex i = 0; i + 1 < n; ++i) b.add_edge(i, i + 1);
  return std::move(b).build();
}

TEST(Bfs, DistancesOnPath) {
  Graph g = path_graph(5);
  auto d = bfs_distances(g, 0);
  for (NodeIndex i = 0; i < 5; ++i) EXPECT_EQ(d[i], i);
}

TEST(Bfs, UnreachableMarked) {
  Graph::Builder b(3);
  b.add_edge(0, 1);
  Graph g = std::move(b).build();
  auto d = bfs_distances(g, 0);
  EXPECT_EQ(d[2], kUnreachable);
}

TEST(Bfs, BallContents) {
  Graph g = path_graph(7);
  auto ball2 = ball(g, 3, 2);
  EXPECT_EQ(ball2.size(), 5u);
  auto ball0 = ball(g, 3, 0);
  ASSERT_EQ(ball0.size(), 1u);
  EXPECT_EQ(ball0[0], 3);
  auto ballneg = ball(g, 3, -1);
  EXPECT_TRUE(ballneg.empty());
}

TEST(Bfs, BallWithDistancesLayers) {
  Graph g = path_graph(7);
  auto b = ball_with_distances(g, 0, 3);
  ASSERT_EQ(b.nodes.size(), 4u);
  for (std::size_t i = 0; i < b.nodes.size(); ++i) EXPECT_EQ(b.dist[i], b.nodes[i]);
}

TEST(Bfs, Eccentricity) {
  Graph g = path_graph(6);
  EXPECT_EQ(eccentricity(g, 0), 5);
  EXPECT_EQ(eccentricity(g, 3), 3);
}

TEST(Bfs, ConnectedComponents) {
  Graph::Builder b(5);
  b.add_edge(0, 1);
  b.add_edge(3, 4);
  Graph g = std::move(b).build();
  auto comps = connected_components(g);
  EXPECT_EQ(comps.count, 3);
  EXPECT_EQ(comps.component_of[0], comps.component_of[1]);
  EXPECT_EQ(comps.component_of[3], comps.component_of[4]);
  EXPECT_NE(comps.component_of[0], comps.component_of[2]);
  EXPECT_NE(comps.component_of[0], comps.component_of[3]);
}

// The one node-count cap: every constructor of CSR storage refuses a shape
// past kMaxNodes nodes or kMaxAdjacency adjacency entries through this check,
// before it allocates.  (io::Snapshot::load has its own header test in
// snapshot_test.cpp; nothing here builds a graph that large.)
TEST(Graph, CsrSizeCapsAreTheInt32AndUint32Ranges) {
  EXPECT_EQ(kMaxNodes, (NodeIndex{1} << 31) - 1);
  EXPECT_EQ(kMaxAdjacency, (std::uint64_t{1} << 32) - 1);
  EXPECT_NO_THROW(detail::check_csr_size("test", kMaxNodes, kMaxAdjacency));
  EXPECT_THROW(detail::check_csr_size("test", kMaxNodes + 1, 0), std::length_error);
  EXPECT_THROW(detail::check_csr_size("test", 1, kMaxAdjacency + 1), std::length_error);
  // The Builder checks its node count before it sizes its per-node table.
  try {
    const Graph::Builder b(kMaxNodes + 1);
    ADD_FAILURE() << "Graph::Builder accepted " << b.node_count() << " nodes";
  } catch (const std::length_error& e) {
    EXPECT_STREQ(e.what(), "Graph::Builder: 2147483648 nodes exceed the cap of 2147483647");
  }
}

// --- apply_mutation: the CSR splice against the Builder replay -------------

struct Csr {
  std::vector<CsrIndex> offsets;
  std::vector<CsrIndex> adjacency;
  int max_degree = 0;

  explicit Csr(GraphView g)
      : offsets(g.offsets_data(), g.offsets_data() + g.node_count() + 1),
        adjacency(g.adjacency_data(), g.adjacency_data() + 2 * g.edge_count()),
        max_degree(g.max_degree()) {}

  bool operator==(const Csr&) const = default;
};

Graph build_edges(NodeIndex n, const std::vector<std::pair<NodeIndex, NodeIndex>>& edges) {
  Graph::Builder b(n);
  for (const auto& [v, w] : edges) b.add_edge(v, w);
  return std::move(b).build();
}

// The splice must equal apply_mutation_naive byte for byte, in arrays that
// alias neither the input nor each other, and leave the input untouched.
AppliedMutation expect_splice_matches_naive(const Graph& g, const MutationBatch& batch) {
  const Csr before(g);
  AppliedMutation fast = apply_mutation(g, batch);
  const Graph naive = apply_mutation_naive(g, batch);
  EXPECT_EQ(Csr(fast.graph), Csr(naive));
  EXPECT_EQ(Csr(g), before);
  EXPECT_NE(fast.graph.view().offsets_data(), g.view().offsets_data());
  EXPECT_NE(fast.graph.view().adjacency_data(), g.view().adjacency_data());
  return fast;
}

TEST(ApplyMutation, RewiresAtTheFirstAndLastNode) {
  // Path 0-1-2-3-4: both ends are leaves, so the splice's first and last
  // rows are edited as leaf, old parent and new parent in turn.
  const Graph g = build_edges(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  for (const LeafRewire r : {LeafRewire{0, 3}, LeafRewire{4, 0}, LeafRewire{0, 4},
                             LeafRewire{4, 1}}) {
    SCOPED_TRACE("leaf " + std::to_string(r.leaf) + " -> " + std::to_string(r.new_parent));
    const AppliedMutation m = expect_splice_matches_naive(g, {{r}, {}});
    const NodeIndex old_parent = r.leaf == 0 ? 1 : 3;
    std::vector<NodeIndex> touched = {r.leaf, old_parent, r.new_parent};
    std::sort(touched.begin(), touched.end());
    EXPECT_EQ(m.touched, touched);
  }
  // Both ends in one batch, the second rewire landing on the first's leaf.
  expect_splice_matches_naive(g, {{{0, 2}, {4, 0}}, {}});
}

TEST(ApplyMutation, RewireToTheSameParentMovesTheLeafToTheLastPort) {
  const Graph g = build_edges(5, {{0, 1}, {0, 2}, {0, 3}, {0, 4}});
  const AppliedMutation m = expect_splice_matches_naive(g, {{{1, 0}}, {}});
  const auto ports = m.graph.neighbors(0);
  EXPECT_EQ(std::vector<NodeIndex>(ports.begin(), ports.end()),
            (std::vector<NodeIndex>{2, 3, 4, 1}));
  EXPECT_EQ(m.touched, (std::vector<NodeIndex>{0, 1}));
}

TEST(ApplyMutation, TwoRewiresSharingAnOldParent) {
  // Star around node 0: both rewires compact node 0's ports, and its degree
  // (the maximum) falls from 4 to 2.
  const Graph g = build_edges(5, {{0, 1}, {0, 2}, {0, 3}, {0, 4}});
  const AppliedMutation m = expect_splice_matches_naive(g, {{{1, 2}, {3, 4}}, {}});
  EXPECT_EQ(m.graph.max_degree(), 2);
  EXPECT_EQ(m.touched, (std::vector<NodeIndex>{0, 1, 2, 3, 4}));
}

TEST(ApplyMutation, LabelOnlyBatchCopiesTheSameBytesIntoFreshArrays) {
  const Graph g = build_edges(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  const AppliedMutation m =
      expect_splice_matches_naive(g, {{}, {{2, LabelChannel::InColor, 1}}});
  EXPECT_EQ(Csr(m.graph), Csr(g));
  EXPECT_TRUE(m.touched.empty());
}

TEST(ApplyMutation, BatchRejectedMidwayLeavesTheInputUntouched) {
  // The first rewire hangs leaf 0 on node 2, so node 2 has degree 3 (not 2)
  // when the second rewire reaches it: rewires apply in batch order.
  const Graph g = build_edges(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  const Csr before(g);
  const MutationBatch batch{{{0, 2}, {2, 4}}, {}};
  for (const bool naive : {false, true}) {
    SCOPED_TRACE(naive ? "naive" : "splice");
    try {
      if (naive) {
        (void)apply_mutation_naive(g, batch);
      } else {
        (void)apply_mutation(g, batch);
      }
      ADD_FAILURE() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("node 2 with degree 3"), std::string::npos)
          << e.what();
    }
    EXPECT_EQ(Csr(g), before);
  }
}

}  // namespace
}  // namespace volcal
