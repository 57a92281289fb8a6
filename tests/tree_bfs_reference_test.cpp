// Differential test for the tree solvers' child-walks (Prop. 3.9 nearest
// leaf, the leftmost descent, Prop. 4.8 BalancedTree).
//
// The library's walks keep no visited set: in G_T every node has in-degree
// <= 1 (Obs. 3.7), and TreeView::internal(v) accepts a child c only if
// parent(c) == v, so a walk can meet no node twice except its own start.
// The set-based forms below are kept as references.  At every start they
// must agree with the library on the output label and on all three meters
// (volume, distance, queries), on complete trees, noise labelings,
// unbalanced and mutated instances of every family that runs these walks,
// and against the Prop. 3.13 adversary.  The cycle instances at the end make
// each reference's set reject its start, so the test reaches the branch
// that `child == start` replaced.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <deque>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "graph/mutation.hpp"
#include "labels/generators.hpp"
#include "labels/label_mutation.hpp"
#include "lcl/adversary/leafcoloring_adversary.hpp"
#include "lcl/algorithms/balanced_tree_algos.hpp"
#include "lcl/algorithms/leaf_coloring_algos.hpp"
#include "lcl/algorithms/local_view.hpp"
#include "lcl/registry.hpp"
#include "util/hash.hpp"

namespace volcal {
namespace {

// --- set-based references ---------------------------------------------------
//
// Each adds the inserts its visited set rejected to *rejected.

template <typename Source>
Color ref_nearest_leaf(Source& src, std::int64_t* rejected) {
  TreeView<Source> view(src);
  const NodeIndex start = src.start();
  if (!view.internal(start)) return src.color(start);
  std::vector<NodeIndex> frontier{start};
  std::unordered_set<NodeIndex> seen{start};
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    const NodeIndex v = frontier[head];
    for (const NodeIndex child : {view.left(v), view.right(v)}) {
      if (child == kNoNode) continue;
      if (!seen.insert(child).second) {
        ++*rejected;
        continue;
      }
      if (!view.internal(child)) return src.color(child);
      frontier.push_back(child);
    }
  }
  return src.color(start);
}

template <typename Source>
Color ref_leftmost_descent(Source& src, std::int64_t* rejected) {
  TreeView<Source> view(src);
  NodeIndex cur = src.start();
  if (!view.internal(cur)) return src.color(cur);
  std::unordered_set<NodeIndex> seen{cur};
  while (true) {
    const NodeIndex next = view.left(cur);
    if (next == kNoNode) return src.color(cur);
    if (!view.internal(next)) return src.color(next);
    if (!seen.insert(next).second) {
      ++*rejected;
      return Color::Red;
    }
    cur = next;
  }
}

template <typename Source>
BtOutput ref_balancedtree_solve(Source& src, std::int64_t depth_limit, NodeIndex at,
                                std::int64_t* rejected) {
  TreeView<Source> view(src);
  const NodeIndex start = at == kNoNode ? src.start() : at;
  const NodeKind k = view.kind(start);
  if (k == NodeKind::Inconsistent) return {Balance::Unbalanced, kNoPort};
  if (!query_bt_compatible(src, start)) return {Balance::Unbalanced, kNoPort};
  if (k == NodeKind::Leaf) return {Balance::Balanced, src.parent_port(start)};
  struct Entry {
    NodeIndex node;
    std::int64_t depth;
    Port first_hop;
  };
  std::deque<Entry> frontier;
  std::unordered_set<NodeIndex> seen{start};
  std::int64_t leaf_depth = -1;
  frontier.push_back({start, 0, kNoPort});
  Port defect_hop = kNoPort;
  while (!frontier.empty()) {
    const Entry e = frontier.front();
    frontier.pop_front();
    if (leaf_depth >= 0 && e.depth >= leaf_depth) break;
    if (depth_limit > 0 && e.depth >= depth_limit) break;
    const NodeIndex lc = view.left(e.node);
    const NodeIndex rc = view.right(e.node);
    int child_slot = 0;
    for (const NodeIndex child : {lc, rc}) {
      const Port hop = e.depth == 0 ? (child_slot == 0 ? src.left_port(start)
                                                       : src.right_port(start))
                                    : e.first_hop;
      ++child_slot;
      if (child == kNoNode) continue;
      if (!seen.insert(child).second) {
        ++*rejected;
        continue;
      }
      if (!query_bt_compatible(src, child) && defect_hop == kNoPort) defect_hop = hop;
      if (!view.internal(child)) {
        if (leaf_depth < 0) leaf_depth = e.depth + 1;
      } else {
        frontier.push_back({child, e.depth + 1, hop});
      }
    }
    if (defect_hop != kNoPort) break;
  }
  if (defect_hop != kNoPort) return {Balance::Unbalanced, defect_hop};
  return {Balance::Balanced, src.parent_port(start)};
}

// --- the differential ---------------------------------------------------------

// Per-start inserts the reference's set rejected.
using Rejections = std::vector<std::int64_t>;

std::int64_t total(const Rejections& r) {
  std::int64_t sum = 0;
  for (const std::int64_t x : r) sum += x;
  return sum;
}

// Runs `fast(src)` and `ref(src, &rejected)` from every start, each on a
// fresh execution, and expects the same output and meters.
template <typename Labels, typename Fast, typename Ref>
Rejections compare_at_every_start(const Instance<Labels>& inst, const std::string& what,
                                  Fast fast, Ref ref) {
  Rejections rejections;
  ExecutionScratch fast_scratch, ref_scratch;
  for (NodeIndex v = 0; v < inst.node_count(); ++v) {
    Execution a(inst.graph, inst.ids, v, 0, fast_scratch);
    InstanceSource<Labels> sa(inst, a);
    const auto out_a = fast(sa);
    Execution b(inst.graph, inst.ids, v, 0, ref_scratch);
    InstanceSource<Labels> sb(inst, b);
    std::int64_t rejected = 0;
    const auto out_b = ref(sb, &rejected);
    rejections.push_back(rejected);
    EXPECT_TRUE(out_a == out_b) << what << ": output differs at start " << v;
    EXPECT_EQ(a.volume(), b.volume()) << what << ": volume at start " << v;
    EXPECT_EQ(a.distance(), b.distance()) << what << ": distance at start " << v;
    EXPECT_EQ(a.query_count(), b.query_count()) << what << ": queries at start " << v;
  }
  return rejections;
}

template <typename Labels>
Rejections compare_nearest_leaf(const Instance<Labels>& inst, const std::string& what) {
  return compare_at_every_start(
      inst, what + " nearest-leaf", [](auto& src) { return leafcoloring_nearest_leaf(src); },
      [](auto& src, std::int64_t* rej) { return ref_nearest_leaf(src, rej); });
}

template <typename Labels>
Rejections compare_leftmost(const Instance<Labels>& inst, const std::string& what) {
  return compare_at_every_start(
      inst, what + " leftmost", [](auto& src) { return leafcoloring_leftmost_descent(src); },
      [](auto& src, std::int64_t* rej) { return ref_leftmost_descent(src, rej); });
}

// BalancedTree from the start, unbounded and with the distance flavour's
// depth limit, and at the start's port-1 neighbour (the `at` form Hybrid-THC
// uses).  Returns the rejections of the unbounded run from the start.
template <typename Labels>
Rejections compare_balanced_tree(const Instance<Labels>& inst, const std::string& what) {
  const std::int64_t limit =
      static_cast<std::int64_t>(
          std::ceil(std::log2(std::max<double>(static_cast<double>(inst.node_count()), 2)))) +
      4;
  auto neighbour = [](auto& src) {
    const NodeIndex v = src.start();
    return src.degree(v) >= 1 ? src.query(v, 1) : v;
  };
  const Rejections unbounded = compare_at_every_start(
      inst, what + " balanced-tree", [](auto& src) { return balancedtree_solve(src); },
      [](auto& src, std::int64_t* rej) {
        return ref_balancedtree_solve(src, 0, kNoNode, rej);
      });
  compare_at_every_start(
      inst, what + " balanced-tree/limit",
      [limit](auto& src) { return balancedtree_solve(src, limit); },
      [limit](auto& src, std::int64_t* rej) {
        return ref_balancedtree_solve(src, limit, kNoNode, rej);
      });
  compare_at_every_start(
      inst, what + " balanced-tree/at",
      [neighbour](auto& src) { return balancedtree_solve(src, 0, neighbour(src)); },
      [neighbour](auto& src, std::int64_t* rej) {
        return ref_balancedtree_solve(src, 0, neighbour(src), rej);
      });
  return unbounded;
}

// Noise lateral claims over a noise tree labeling: every LN/RN port drawn in
// [0, deg(v)] (0 = ⊥), so compatibility checks see dangling and mismatched
// claims.
BalancedTreeInstance balanced_noise(const LeafColoringInstance& noise, std::uint64_t seed) {
  BalancedTreeInstance inst;
  inst.graph = noise.graph;
  inst.ids = noise.ids;
  inst.labels = BalancedTreeLabeling(noise.node_count());
  inst.labels.tree = noise.labels.tree;
  for (NodeIndex v = 0; v < noise.node_count(); ++v) {
    const auto span = static_cast<std::uint64_t>(noise.graph.degree(v) + 1);
    const auto u = static_cast<std::uint64_t>(v);
    inst.labels.left_nbr[static_cast<std::size_t>(v)] =
        static_cast<Port>(mix64(seed, 0x6c6eull, u) % span);
    inst.labels.right_nbr[static_cast<std::size_t>(v)] =
        static_cast<Port>(mix64(seed, 0x726eull, u) % span);
  }
  return inst;
}

// Applies one propose_mutation batch (2 rewires, 8 label writes) of the
// named family to a typed copy of `inst`, the way ErasedInstance::mutated
// does.
template <typename Labels>
Instance<Labels> mutated(const std::string& family, const Instance<Labels>& inst,
                         std::uint64_t seed) {
  const MutationBatch batch =
      erase_instance(family, Instance<Labels>(inst)).propose_mutation(seed, 2, 8);
  Instance<Labels> next;
  next.graph = apply_mutation(inst.graph.view(), batch).graph;
  next.ids = inst.ids;
  next.labels = inst.labels;
  apply_label_updates(next.labels, batch);
  return next;
}

// --- cases --------------------------------------------------------------------

TEST(TreeBfsReference, CompleteTrees) {
  for (int depth = 1; depth <= 8; ++depth) {
    const auto inst = make_complete_binary_tree(depth, Color::Red, Color::Blue);
    const std::string what = "complete depth " + std::to_string(depth);
    EXPECT_EQ(total(compare_nearest_leaf(inst, what)), 0);
    EXPECT_EQ(total(compare_leftmost(inst, what)), 0);
  }
  for (int depth = 1; depth <= 7; ++depth) {
    const auto inst = make_balanced_instance(depth);
    EXPECT_EQ(total(compare_balanced_tree(inst, "balanced depth " + std::to_string(depth))),
              0);
  }
}

class TreeBfsNoise : public ::testing::TestWithParam<std::uint64_t> {};

// The seeds of leaf_coloring_test's ViewMatchesGlobal.
TEST_P(TreeBfsNoise, MatchesOnNoiseLabelings) {
  const auto noise = make_noise_instance(150, 4, GetParam());
  const std::string what = "noise seed " + std::to_string(GetParam());
  compare_nearest_leaf(noise, what);
  compare_leftmost(noise, what);
  compare_balanced_tree(balanced_noise(noise, GetParam()), what);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreeBfsNoise, ::testing::Values(11u, 12u, 13u, 14u));

TEST(TreeBfsReference, UnbalancedInstances) {
  for (int depth = 3; depth <= 6; ++depth) {
    for (int defect = 1; defect < depth; ++defect) {
      for (const std::uint64_t seed : {3u, 7u}) {
        const auto inst = make_unbalanced_instance(depth, defect, seed);
        const std::string what = "unbalanced " + std::to_string(depth) + "/" +
                                 std::to_string(defect) + " seed " + std::to_string(seed);
        compare_balanced_tree(inst, what);
        compare_nearest_leaf(inst, what);
      }
    }
  }
}

// One propose_mutation batch per family whose solver runs these walks.
TEST(TreeBfsReference, MutatedInstances) {
  const auto leaf = mutated("leaf-coloring", make_random_full_binary_tree(301, 4), 21);
  compare_nearest_leaf(leaf, "mutated leaf-coloring");
  compare_leftmost(leaf, "mutated leaf-coloring");
  const auto balanced = mutated("balanced-tree", make_balanced_instance(6), 22);
  compare_balanced_tree(balanced, "mutated balanced-tree");
  const auto hybrid = mutated("hybrid-2", make_hybrid_instance(2, 6, 3, 5), 23);
  compare_balanced_tree(hybrid, "mutated hybrid-2");
  const auto hh = mutated("hh-2-3", make_hh_instance(2, 3, 64, 6), 24);
  compare_balanced_tree(hh, "mutated hh-2-3");
}

// Prop. 3.13: the adversary spawns one parent per node, so it is a G_T the
// walks cannot revisit; both forms must spawn the same nodes and answer the
// same at the root.
TEST(TreeBfsReference, AdversaryDuelIsUnchanged) {
  using AdvSrc = LeafColoringAdversarySource;
  auto ref_nearest = [](AdvSrc& src) {
    std::int64_t rejected = 0;
    return ref_nearest_leaf(src, &rejected);
  };
  auto ref_leftmost = [](AdvSrc& src) {
    std::int64_t rejected = 0;
    return ref_leftmost_descent(src, &rejected);
  };
  auto fast_nearest = [](AdvSrc& src) { return leafcoloring_nearest_leaf(src); };
  auto fast_leftmost = [](AdvSrc& src) { return leafcoloring_leftmost_descent(src); };
  for (const std::int64_t budget : {std::int64_t{300}, std::int64_t{4096 / 3}}) {
    for (const bool nearest : {true, false}) {
      const auto fast = nearest ? duel_leafcoloring_adversary(fast_nearest, 4096, budget)
                                : duel_leafcoloring_adversary(fast_leftmost, 4096, budget);
      const auto ref = nearest ? duel_leafcoloring_adversary(ref_nearest, 4096, budget)
                               : duel_leafcoloring_adversary(ref_leftmost, 4096, budget);
      EXPECT_EQ(fast.nodes_spawned, ref.nodes_spawned) << nearest << " budget " << budget;
      EXPECT_EQ(fast.root_output, ref.root_output) << nearest << " budget " << budget;
      EXPECT_EQ(fast.algorithm_exceeded_budget, ref.algorithm_exceeded_budget);
    }
  }
}

// Cycle nodes are 0..cycle_len-1 in make_cycle_pseudotree.  From each of
// them the walks go round the cycle back to the start, and from no other
// node can they reach it.
TEST(TreeBfsReference, CycleStartsAreTheOnlyRevisits) {
  const std::pair<int, int> shapes[] = {{3, 2}, {4, 3}, {5, 4}, {7, 6}};
  for (const auto& [cycle, hang] : shapes) {
    const auto inst = make_cycle_pseudotree(cycle, hang, 5);
    const std::string what = "cycle " + std::to_string(cycle) + "/" + std::to_string(hang);
    const Rejections nearest = compare_nearest_leaf(inst, what);
    const Rejections leftmost = compare_leftmost(inst, what);
    EXPECT_GE(total(nearest), 1) << what;
    for (NodeIndex v = 0; v < inst.node_count(); ++v) {
      const std::int64_t expected = v < cycle ? 1 : 0;
      EXPECT_EQ(nearest[static_cast<std::size_t>(v)], expected) << what << " start " << v;
      EXPECT_EQ(leftmost[static_cast<std::size_t>(v)], expected) << what << " start " << v;
    }
  }
}

// A BalancedTree labeling on a G_T cycle c_0 -> ... -> c_{L-1} -> c_0 (left
// children), each c_i hanging a complete subtree h_i of depth D as its right
// child, laid out as make_cycle_pseudotree lays it out.  Lateral chains
// (LN/RN) run, for each j,
//   c_j, h_{j-1}, level 1 of h_{j-2}, ..., level D of h_{j-1-D}   (mod L),
// which is what siblings and persistence (Def. 4.2) ask of every node above
// the leaves.  With L <= D the BFS from c_0 meets c_0 again (while expanding
// c_{L-1}) before it finds the first incompatible node.
BalancedTreeInstance cyclic_balanced_instance(int cycle_len, int hang_depth) {
  const NodeIndex hang_size = (NodeIndex{1} << (hang_depth + 1)) - 1;
  const NodeIndex n = cycle_len + cycle_len * hang_size;
  Graph::Builder builder(n);
  BalancedTreeLabeling labels(n);
  auto hang = [&](NodeIndex i, NodeIndex local) { return cycle_len + i * hang_size + local; };
  for (NodeIndex i = 0; i < cycle_len; ++i) {
    builder.add_edge_with_ports(i, (i + 1) % cycle_len, 2, 1);
    builder.add_edge_with_ports(i, hang(i, 0), 3, 1);
    labels.tree.parent[static_cast<std::size_t>(i)] = 1;
    labels.tree.left[static_cast<std::size_t>(i)] = 2;
    labels.tree.right[static_cast<std::size_t>(i)] = 3;
    labels.tree.parent[static_cast<std::size_t>(hang(i, 0))] = 1;
    const NodeIndex first_leaf = (NodeIndex{1} << hang_depth) - 1;
    for (NodeIndex local = 0; local < first_leaf; ++local) {
      const NodeIndex v = hang(i, local);
      builder.add_edge_with_ports(v, hang(i, 2 * local + 1), 2, 1);
      builder.add_edge_with_ports(v, hang(i, 2 * local + 2), 3, 1);
      labels.tree.left[static_cast<std::size_t>(v)] = 2;
      labels.tree.right[static_cast<std::size_t>(v)] = 3;
      labels.tree.parent[static_cast<std::size_t>(hang(i, 2 * local + 1))] = 1;
      labels.tree.parent[static_cast<std::size_t>(hang(i, 2 * local + 2))] = 1;
    }
  }
  for (NodeIndex j = 0; j < cycle_len; ++j) {
    std::vector<NodeIndex> chain{j};
    for (NodeIndex m = 0; m <= hang_depth; ++m) {
      const NodeIndex i = ((j - 1 - m) % cycle_len + cycle_len) % cycle_len;
      for (NodeIndex local = (NodeIndex{1} << m) - 1; local < (NodeIndex{1} << (m + 1)) - 1;
           ++local) {
        chain.push_back(hang(i, local));
      }
    }
    for (std::size_t k = 0; k + 1 < chain.size(); ++k) {
      const auto [pv, pw] = builder.add_edge(chain[k], chain[k + 1]);
      labels.right_nbr[static_cast<std::size_t>(chain[k])] = pv;
      labels.left_nbr[static_cast<std::size_t>(chain[k + 1])] = pw;
    }
  }
  return {std::move(builder).build(), IdAssignment::shuffled(n, 0x6379636cull),
          std::move(labels)};
}

TEST(TreeBfsReference, BalancedTreeCycleStartsRevisit) {
  const std::pair<int, int> shapes[] = {{3, 3}, {4, 4}, {4, 5}};
  for (const auto& [cycle, hang] : shapes) {
    const auto inst = cyclic_balanced_instance(cycle, hang);
    const std::string what =
        "cyclic balanced " + std::to_string(cycle) + "/" + std::to_string(hang);
    const Rejections rejected = compare_balanced_tree(inst, what);
    for (NodeIndex v = 0; v < inst.node_count(); ++v) {
      EXPECT_EQ(rejected[static_cast<std::size_t>(v)], v < cycle ? 1 : 0)
          << what << " start " << v;
    }
  }
}

}  // namespace
}  // namespace volcal
